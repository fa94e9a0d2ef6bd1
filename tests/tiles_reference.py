"""Reference forms of the affine tiles, the tile-set order and the JSON codec.

`affine_tiles` tries every (top, left carry, right carry) triple in Fraction
arithmetic; `make` sorts the deduplicated tiles by nested label keys that
compare carries as Fractions, tile by tile; the writers dump the `*_to_obj`
forms with the generic encoder, and `label_from_obj` rebuilds every node of
every label through `tag`/`tup`.  The library solves for the right carry in
integers, ranks each distinct label once, writes each distinct (label node,
depth) once and looks decoded nodes up in the intern table; the differential
tests require equal outputs.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from typing import Optional

from kariforge.pamaps import rat
from kariforge.tiles import (
    EmptyTileSetError,
    GroupTileSet,
    HLabel,
    PlanAff,
    ZTile,
    ZTileSet,
    atom,
    grouptileset_to_obj,
    label_to_obj,
    tag,
    tileset_to_obj,
    tup,
)


def carry_set(a, b) -> tuple[Fraction, ...]:
    a, b = rat(a), rat(b)
    D = math.lcm(a.denominator, b.denominator)
    if a > 0:
        lo_k, hi_k = -a * D + 1, Fraction(D - 1)
    else:
        lo_k, hi_k = Fraction(0), (1 - a) * D - 1
    return tuple(Fraction(k, D) for k in range(lo_k.numerator, hi_k.numerator + 1))


def affine_tiles(a, b, in_max: int, out_max: int, out_name: str = "f") -> ZTileSet:
    a, b = rat(a), rat(b)
    if a == 0:
        raise ValueError("slope must be nonzero")
    carries = carry_set(a, b)
    tiles = []
    for t in range(in_max + 1):
        for c in carries:
            for cp in carries:
                u = a * t + b + c - cp
                if u.denominator == 1 and 0 <= u <= out_max:
                    tiles.append(ZTile(t, ((out_name, int(u)),), atom(c), atom(cp)))
    if not tiles:
        raise EmptyTileSetError(f"no tiles for a={a}, b={b}")
    return make(in_max, {out_name: out_max}, tiles, source=PlanAff(a, b))


def label_key(l: HLabel):
    if l.kind == "atom":
        return (0, l.value)
    if l.kind == "tag":
        name, inner = l.value
        return (1, name, label_key(inner))
    return (2, len(l.value), tuple(label_key(x) for x in l.value))


def tile_key(t: ZTile):
    return (t.top, t.bottoms, label_key(t.left), label_key(t.right))


def make(in_max, out_maxes: dict[str, int], tiles, source=None) -> ZTileSet:
    return ZTileSet(in_max, tuple(sorted(out_maxes.items())), tuple(sorted(set(tiles), key=tile_key)), source)


def tileset_json(ts: ZTileSet) -> str:
    return json.dumps(tileset_to_obj(ts), indent=1) + "\n"


def grouptileset_json(g: GroupTileSet) -> str:
    return json.dumps(grouptileset_to_obj(g), indent=1) + "\n"


def label_json(l: HLabel) -> str:
    return json.dumps(label_to_obj(l), indent=1)


def label_from_obj(obj, atoms: Optional[dict[str, HLabel]] = None) -> HLabel:
    if isinstance(obj, str):
        if atoms is None:
            return atom(obj)
        label = atoms.get(obj)
        if label is None:
            label = atoms[obj] = atom(obj)
        return label
    if isinstance(obj, dict):
        return tag(obj["tag"], label_from_obj(obj["label"], atoms))
    return tup(*(label_from_obj(x, atoms) for x in obj))
