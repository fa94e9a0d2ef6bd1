"""Reference forms of the affine tiles, the tile-set order and the JSON codec.

`affine_tiles` tries every (top, left carry, right carry) triple in Fraction
arithmetic; `make` sorts the deduplicated tiles by nested label keys that
compare carries as Fractions, tile by tile; the writers dump the `*_to_obj`
forms with the generic encoder, and `label_from_obj` rebuilds every node of
every label through `tag`/`tup`.  The library solves for the right carry in
integers, ranks each label id of a label table once, writes each distinct
(label id, depth) once and looks decoded nodes up in the intern table; the
differential tests require equal outputs.

`compose_tiles` and `product_tiles` make every candidate tile, dead or not,
`trim_tiles` builds explicit predecessor lists, and `build_plan` trims after
every plan node.  The library trims the candidates before it makes labels
and tiles: its compose and product must equal `trim_tiles` of these, and
its `build_plan` this one.

`alive` finds the tiles on a bi-infinite row from the tile graph: each
tile's successor and predecessor tiles, then forward and backward
extendability per tile, whose work is the sum over labels of in * out.  The
library's `_alive` peels the label graph instead, one step per tile and
per label, and must keep the same indices.

`fast_path_ok` asks whether a piece may skip its domain scaffolding by
building the piece's map on [0, m] and taking the preimage of [0, m]; the
library compares the clipped preimage endpoints with the domain directly.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Optional, Sequence

from kariforge import tiles as library
from kariforge.pamaps import AffinePiece, Interval, rat
from kariforge.tiles import (
    AlphabetMismatch,
    EmptyTileSetError,
    HLabel,
    PlanAff,
    PlanComp,
    PlanProd,
    PlanUnion,
    ZTile,
    ZTileSet,
    _mk_bottoms,
    atom,
    grouptileset_to_obj,
    label_to_obj,
    tag,
    tileset_to_obj,
    tup,
)

from pamaps_reference import _preimage


def carry_set(a, b) -> tuple[Fraction, ...]:
    a, b = rat(a), rat(b)
    D = math.lcm(a.denominator, b.denominator)
    if a > 0:
        lo_k, hi_k = -a * D + 1, Fraction(D - 1)
    else:
        lo_k, hi_k = Fraction(0), (1 - a) * D - 1
    return tuple(Fraction(k, D) for k in range(lo_k.numerator, hi_k.numerator + 1))


def affine_tiles(a, b, in_max: int, out_max: int) -> ZTileSet:
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
                    tiles.append(ZTile(t, (("f", int(u)),), atom(c), atom(cp)))
    if not tiles:
        raise EmptyTileSetError(f"no tiles for a={a}, b={b}")
    return make(in_max, {"f": out_max}, tiles, source=PlanAff(a, b))


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


def grouptileset_json(g: ZTileSet) -> str:
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


def compose_tiles(A: ZTileSet, B: ZTileSet) -> ZTileSet:
    mid = A.out_max()
    if mid != B.in_max:
        raise AlphabetMismatch(f"A out alphabet {mid} != B in alphabet {B.in_max}")
    tiles = []
    by_top: dict[int, list[ZTile]] = {}
    for tb in B.tiles:
        by_top.setdefault(tb.top, []).append(tb)
    for ta in A.tiles:
        for tb in by_top.get(ta.bottom(), []):
            tiles.append(ZTile(ta.top, tb.bottoms, tup(ta.left, tb.left), tup(ta.right, tb.right)))
    src = PlanComp(A.source, B.source) if A.source is not None and B.source is not None else None
    return ZTileSet.make(A.in_max, dict(B.out_maxes), tiles, source=src)


def product_tiles(components: Sequence[tuple[str, ZTileSet]]) -> ZTileSet:
    if not components:
        raise ValueError("empty product")
    in_max = components[0][1].in_max
    for name, c in components:
        if c.in_max != in_max:
            raise AlphabetMismatch("product components must share the input alphabet")
        c.single_out()
    out_maxes = {name: c.out_max() for name, c in components}
    names = [name for name, _ in components]
    tiles = []
    for t in range(in_max + 1):
        rows = [[(tile.bottom(), tile.left, tile.right) for tile in c.tiles if tile.top == t]
                for _, c in components]
        for chosen in itertools.product(*rows):
            bits = tuple(b for b, _, _ in chosen)
            tiles.append(ZTile(t, _mk_bottoms(dict(zip(names, bits))),
                               tup(*(l for _, l, _ in chosen)), tup(*(r for _, _, r in chosen))))
    srcs = [(name, c.source) for name, c in components]
    src = PlanProd(tuple(srcs)) if all(s is not None for _, s in srcs) else None
    return ZTileSet.make(in_max, out_maxes, tiles, source=src)


def trim_tiles(ts: ZTileSet) -> ZTileSet:
    tiles = ts.tiles
    by_left: dict[HLabel, list[int]] = {}
    for j, t in enumerate(tiles):
        by_left.setdefault(t.left, []).append(j)
    succ = [by_left.get(t.right, []) for t in tiles]
    pred: list[list[int]] = [[] for _ in tiles]
    for u, vs in enumerate(succ):
        for v in vs:
            pred[v].append(u)

    def extendable(adj: list[list[int]], radj: list[list[int]]) -> set[int]:
        out = [len(a) for a in adj]
        queue = [i for i, o in enumerate(out) if o == 0]
        dead = set(queue)
        while queue:
            d = queue.pop()
            for u in radj[d]:
                out[u] -= 1
                if out[u] == 0 and u not in dead:
                    dead.add(u)
                    queue.append(u)
        return {i for i in range(len(adj)) if i not in dead}

    alive = extendable(succ, pred) & extendable(pred, succ)
    kept = tuple(t for i, t in enumerate(tiles) if i in alive)
    return ZTileSet(ts.in_max, ts.out_maxes, kept, ts.source)


def extendable(adj: list[list[int]], radj: list[list[int]]) -> list[bool]:
    """ok[i]: an infinite walk along adj starts at i.  Peels off the nodes
    whose every successor is already peeled, starting from the dead ends."""
    out = [len(a) for a in adj]
    ok = [True] * len(adj)
    queue = [i for i, o in enumerate(out) if o == 0]
    for i in queue:
        ok[i] = False
    while queue:
        for u in radj[queue.pop()]:
            out[u] -= 1
            if out[u] == 0:  # adjacency lists hold no repeats, so once per u
                ok[u] = False
                queue.append(u)
    return ok


def successors(lefts: Sequence, rights: Sequence) -> list[list[int]]:
    """Row adjacency of tiles given by their side labels: succ[i] lists the
    j with lefts[j] == rights[i], in index order."""
    by_left: dict = {}
    for j, l in enumerate(lefts):
        by_left.setdefault(l, []).append(j)
    return [by_left.get(r, []) for r in rights]


def alive(lefts: Sequence, rights: Sequence) -> list[int]:
    """The indices of the tiles with an infinite forward and an infinite
    backward extension, read off the tile graph."""
    succ = successors(lefts, rights)
    pred = successors(rights, lefts)
    return [i for i, (f, b) in enumerate(zip(extendable(succ, pred), extendable(pred, succ))) if f and b]


def fast_path_ok(piece: AffinePiece, m: int) -> bool:
    """The piece's map on [0, m] pulls [0, m] back to exactly its domain."""
    box = Interval(Fraction(0), Fraction(m))
    return _preimage(AffinePiece(box, piece.slope, piece.offset), Fraction(0), Fraction(m)) == piece.dom


def build_plan(plan, in_max: int, out_max: int, _cache=None) -> ZTileSet:
    """Every node built in full, then trimmed."""
    if _cache is None:
        _cache = {}
    key = (plan, in_max, out_max)
    if key in _cache:
        return _cache[key]
    if isinstance(plan, PlanAff):
        ts = library.affine_tiles(plan.a, plan.b, in_max, out_max)
    elif isinstance(plan, PlanUnion):
        ts = library.union_tiles(build_plan(plan.first, in_max, out_max, _cache),
                         build_plan(plan.second, in_max, out_max, _cache))
    elif isinstance(plan, PlanComp):
        ts = compose_tiles(build_plan(plan.first, in_max, out_max, _cache),
                           build_plan(plan.second, in_max, out_max, _cache))
    elif isinstance(plan, PlanProd):
        ts = product_tiles([(name, build_plan(p, in_max, out_max, _cache)) for name, p in plan.parts])
    else:
        raise TypeError(f"not a plan: {plan!r}")
    ts = trim_tiles(ts)
    _cache[key] = ts
    return ts
