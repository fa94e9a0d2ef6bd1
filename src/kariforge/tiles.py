"""Wang tile sets over Z from affine maps, and their assembly over Z x G.

A tile carries an input bit (top), one output bit per named output (bottom),
and rational carry labels on its sides.  The defining relation of every
generated tile is

    bottom = a * top + b + left - right

so that along a bi-infinite row the side labels telescope and the bottom row
averages to a * (top average) + b.  Side labels are structured (`HLabel`):
plain carries for a single affine map, tagged to keep unioned sets disjoint,
and tuples for composed or product sets.

Tile sets remember the plan that generated them (a small expression tree of
affine / union / compose / product nodes); the verifier uses the plan to build
explicit witness rows.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import pamaps
from .pamaps import Interval, PAGroupPresentation, PAMap, _shown, rat, rat_str


class TileSetError(Exception):
    pass


class AlphabetMismatch(TileSetError):
    pass


class EmptyTileSetError(TileSetError):
    pass


class NotHomeo(TileSetError):
    pass


# ---------------------------------------------------------------------------
# Side labels


class HLabel:
    """Structured side label: a carry, a tagged label, or a tuple of labels.

    Instances are interned, so equality is identity and hashes are cached;
    label-heavy operations (compose, product, trimming) rely on this.
    """

    __slots__ = ("kind", "value", "_hash", "_key")
    _interned: dict = {}

    def __new__(cls, kind: str, value):
        cached = cls._interned.get((kind, value))
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.kind = kind
        self.value = value
        self._hash = hash((kind, value))
        self._key = None
        cls._interned[(kind, value)] = self
        return self

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other

    def sort_key(self):
        # an atom's float comes first: it is correctly rounded, so it never
        # reverses the order, and a tie falls through to the exact value
        if self._key is None:
            if self.kind == "atom":
                self._key = (0, _float_key(self.value), self.value)
            elif self.kind == "tag":
                name, inner = self.value
                self._key = (1, name, inner.sort_key())
            else:
                self._key = (2, len(self.value), tuple(l.sort_key() for l in self.value))
        return self._key

    def __repr__(self):
        if self.kind == "atom":
            return rat_str(self.value)
        if self.kind == "tag":
            name, inner = self.value
            return f"{name}:{inner!r}"
        return "(" + ",".join(repr(l) for l in self.value) + ")"


def _float_key(v) -> float:
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _ranks(values, key=None) -> dict:
    return {v: i for i, v in enumerate(sorted(values, key=key))}


def atom(q) -> HLabel:
    return HLabel("atom", rat(q))


def tag(name: str, label: HLabel) -> HLabel:
    return HLabel("tag", (name, label))


def tup(*labels: HLabel) -> HLabel:
    return HLabel("tup", tuple(labels))


def label_to_obj(l: HLabel):
    if l.kind == "atom":
        return rat_str(l.value)
    if l.kind == "tag":
        name, inner = l.value
        return {"tag": name, "label": label_to_obj(inner)}
    return [label_to_obj(x) for x in l.value]


def _label_reader(atoms: dict[str, HLabel]):
    """read(obj): the label that label_to_obj wrote as obj.  One walker
    serves a whole load: each distinct carry string is parsed once into
    `atoms`, and a tag or tuple node is looked up in the intern table by its
    key and built only when new.  Anything label_to_obj does not write is a
    ValueError."""
    interned = HLabel._interned

    def read(obj) -> HLabel:
        kind = type(obj)
        if kind is str:
            label = atoms.get(obj)
            if label is None:
                label = atoms[obj] = atom(obj)
            return label
        if kind is list:
            key = ("tup", tuple(map(read, obj)))
        elif kind is dict and type(obj.get("tag")) is str and len(obj) == 2 and "label" in obj:
            key = ("tag", (obj["tag"], read(obj["label"])))
        else:
            raise ValueError(f"not a label: {_shown(obj)}")
        label = interned.get(key)
        return HLabel(*key) if label is None else label
    return read


def label_from_obj(obj, atoms: Optional[dict[str, HLabel]] = None) -> HLabel:
    """Inverse of label_to_obj.  A load passes one `atoms` dict to all its
    labels, so each distinct carry string is parsed once."""
    return _label_reader({} if atoms is None else atoms)(obj)


# ---------------------------------------------------------------------------
# Tiles and tile sets


class ZTile:
    """One Wang tile: input bit, named output bits, left/right side labels."""

    __slots__ = ("top", "bottoms", "left", "right", "_hash")

    def __init__(self, top: int, bottoms: tuple[tuple[str, int], ...], left: HLabel, right: HLabel):
        self.top = top
        self.bottoms = bottoms
        self.left = left
        self.right = right
        self._hash = hash((top, bottoms, left, right))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (self is other) or (
            isinstance(other, ZTile)
            and self._hash == other._hash
            and self.top == other.top
            and self.bottoms == other.bottoms
            and self.left is other.left
            and self.right is other.right
        )

    def __repr__(self):
        return f"ZTile(top={self.top}, bottoms={self.bottoms}, left={self.left!r}, right={self.right!r})"

    def bottom(self, name: Optional[str] = None) -> int:
        if name is None:
            if len(self.bottoms) != 1:
                raise ValueError("tile has several outputs; name one")
            return self.bottoms[0][1]
        for n, v in self.bottoms:
            if n == name:
                return v
        raise KeyError(name)


def _mk_bottoms(d: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(d.items()))


# Plan nodes: how a tile set was generated.  Used for witness construction.


@dataclass(frozen=True)
class PlanAff:
    a: Fraction
    b: Fraction


@dataclass(frozen=True)
class PlanUnion:
    first: "Plan"
    second: "Plan"


@dataclass(frozen=True)
class PlanComp:
    first: "Plan"   # applied first
    second: "Plan"


@dataclass(frozen=True)
class PlanProd:
    parts: tuple[tuple[str, "Plan"], ...]


Plan = object


@dataclass(frozen=True)
class ZTileSet:
    in_max: int
    out_maxes: tuple[tuple[str, int], ...]
    tiles: tuple[ZTile, ...]
    source: Optional[Plan] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        names = [n for n, _ in self.out_maxes]
        if sorted(names) != names:
            raise ValueError("output names must be sorted")
        seen = set()
        checked = set()  # (top, bottoms) pairs already found in range
        for t in self.tiles:
            if t in seen:
                raise ValueError(f"duplicate tile {t}")
            seen.add(t)
            bits = (t.top, t.bottoms)
            if bits in checked:
                continue
            checked.add(bits)
            if not 0 <= t.top <= self.in_max:
                raise ValueError(f"top bit {t.top} out of range")
            if tuple(n for n, _ in t.bottoms) != tuple(names):
                raise ValueError("tile outputs do not match the set's outputs")
            for (n, v), (_, mx) in zip(t.bottoms, self.out_maxes):
                if not 0 <= v <= mx:
                    raise ValueError(f"bottom bit {v} out of range for {n}")

    @staticmethod
    def make(in_max, out_maxes: dict[str, int], tiles: Iterable[ZTile], source=None) -> "ZTileSet":
        """Deduplicate and sort by (top, bottoms, left, right), labels in
        `HLabel.sort_key` order.  Each field's distinct values are sorted once
        and numbered, and the tiles are sorted by one integer built from the
        numbers, so no tile comparison reaches a label."""
        tiles = set(tiles)
        tops = _ranks({t.top for t in tiles})
        bottoms = _ranks({t.bottoms for t in tiles})
        labels = {t.left for t in tiles}
        labels.update(t.right for t in tiles)
        sides = _ranks(labels, key=HLabel.sort_key)
        nb, nl = len(bottoms), len(sides)
        order = sorted(tiles, key=lambda t: ((tops[t.top] * nb + bottoms[t.bottoms]) * nl
                                             + sides[t.left]) * nl + sides[t.right])
        return ZTileSet(in_max, _mk_bottoms(out_maxes), tuple(order), source)

    @staticmethod
    def _unchecked(in_max, out_maxes, tiles, source) -> "ZTileSet":
        """A set whose tiles are a subset of a validated set with the same
        alphabets; skips __post_init__."""
        ts = object.__new__(ZTileSet)
        object.__setattr__(ts, "in_max", in_max)
        object.__setattr__(ts, "out_maxes", out_maxes)
        object.__setattr__(ts, "tiles", tiles)
        object.__setattr__(ts, "source", source)
        return ts

    def single_out(self) -> str:
        if len(self.out_maxes) != 1:
            raise ValueError("tile set has several outputs")
        return self.out_maxes[0][0]

    def out_max(self, name: Optional[str] = None) -> int:
        if name is None:
            name = self.single_out()
        return dict(self.out_maxes)[name]


@dataclass(frozen=True)
class GroupTileSet:
    """Wang tiles over Z x G: Z-direction side labels plus, for each generator
    h, colors psi_h = shared input bit and phi_h = the h output bit."""

    generators: tuple[str, ...]
    in_max: int
    out_maxes: tuple[tuple[str, int], ...]
    tiles: tuple[ZTile, ...]
    source: Optional[Plan] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if sorted(n for n, _ in self.out_maxes) != sorted(self.generators):
            raise ValueError("outputs must match the generators")
        ZTileSet(self.in_max, self.out_maxes, self.tiles, self.source)  # the bit range and duplicate checks

    def phi(self, t: ZTile, h: str) -> int:
        return t.bottom(h)

    def psi(self, t: ZTile, h: str) -> int:
        if h not in self.generators:
            raise KeyError(h)
        return t.top


# ---------------------------------------------------------------------------
# Generators


def _carry_range(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """(D, lo, hi): the carries of x -> a*x + b are k/D for lo <= k <= hi."""
    D = math.lcm(a.denominator, b.denominator)
    if a > 0:
        # exclusive left endpoint -a; a*D is integral by choice of D
        return D, -a.numerator * (D // a.denominator) + 1, D - 1
    return D, 0, (1 - a).numerator * (D // a.denominator) - 1


def carry_set(a, b) -> tuple[Fraction, ...]:
    """All possible side carries for the map x -> a*x + b.

    The exact carry at position n is {n*y} - a*{n*x}, a multiple of
    1/lcm(den a, den b).  For a > 0 it lies strictly inside (-a, 1); for a < 0
    it lies in [0, 1 - a) and the left endpoint is attained (at n = 0), so 0
    must be included.
    """
    D, lo, hi = _carry_range(rat(a), rat(b))
    return tuple(Fraction(k, D) for k in range(lo, hi + 1))


def affine_tiles(a, b, in_max: int, out_max: int, out_name: str = "f") -> ZTileSet:
    """All tiles satisfying bottom = a*top + b + left - right over the carry set.

    With carries k/D and A = a*D, B = b*D, the relation reads
    D*bottom = A*top + B + k - k', so for each (top, k) the bottoms are the
    integers u with k' = A*top + B + k - u*D inside the carry range.
    """
    a, b = rat(a), rat(b)
    if a == 0:
        raise ValueError("slope must be nonzero")
    D, lo, hi = _carry_range(a, b)
    A, B = a.numerator * (D // a.denominator), b.numerator * (D // b.denominator)
    labels = [atom(Fraction(k, D)) for k in range(lo, hi + 1)]
    tiles = []
    for t in range(in_max + 1):
        for k in range(lo, hi + 1):
            base = A * t + B + k
            for u in range(max(0, -((hi - base) // D)), min(out_max, (base - lo) // D) + 1):
                tiles.append(ZTile(t, ((out_name, u),), labels[k - lo], labels[base - u * D - lo]))
    if not tiles:
        raise EmptyTileSetError(f"no tiles for a={a}, b={b}")
    return ZTileSet.make(in_max, {out_name: out_max}, tiles, source=PlanAff(a, b))


def union_tiles(A: ZTileSet, B: ZTileSet) -> ZTileSet:
    """Disjoint union; side labels are tagged so rows cannot mix operands."""
    if A.in_max != B.in_max or A.out_maxes != B.out_maxes:
        raise AlphabetMismatch("union operands must share in/out alphabets")
    tiles = [ZTile(t.top, t.bottoms, tag("L", t.left), tag("L", t.right)) for t in A.tiles]
    tiles += [ZTile(t.top, t.bottoms, tag("R", t.left), tag("R", t.right)) for t in B.tiles]
    src = PlanUnion(A.source, B.source) if A.source is not None and B.source is not None else None
    return ZTileSet.make(A.in_max, dict(A.out_maxes), tiles, source=src)


def compose_tiles(A: ZTileSet, B: ZTileSet) -> ZTileSet:
    """Tiles of x -> f_B(f_A(x)): pairs whose middle bits agree."""
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
    """Synchronized product: one tile per choice of component tiles sharing a top bit.

    Each component must have a single output; in the product it is renamed to
    the component's name.
    """
    if not components:
        raise ValueError("empty product")
    in_max = components[0][1].in_max
    for name, c in components:
        if c.in_max != in_max:
            raise AlphabetMismatch("product components must share the input alphabet")
        c.single_out()
    out_maxes = {name: c.out_max() for name, c in components}
    names = [name for name, _ in components]
    bottoms_of: dict[tuple[int, ...], tuple[tuple[str, int], ...]] = {}
    tiles = []
    for t in range(in_max + 1):
        rows = [[(tile.bottom(), tile.left, tile.right) for tile in c.tiles if tile.top == t]
                for _, c in components]
        for chosen in itertools.product(*rows):
            bits = tuple(b for b, _, _ in chosen)
            bottoms = bottoms_of.get(bits)
            if bottoms is None:
                bottoms = bottoms_of[bits] = _mk_bottoms(dict(zip(names, bits)))
            tiles.append(ZTile(t, bottoms, tup(*(l for _, l, _ in chosen)), tup(*(r for _, _, r in chosen))))
    srcs = [(name, c.source) for name, c in components]
    src = PlanProd(tuple(srcs)) if all(s is not None for _, s in srcs) else None
    return ZTileSet.make(in_max, out_maxes, tiles, source=src)


# ---------------------------------------------------------------------------
# Compiling a piecewise map


def _successors(tiles: Sequence[ZTile]) -> list[list[int]]:
    """Row adjacency: succ[i] lists the tiles whose left label is tile i's right."""
    by_left: dict[HLabel, list[int]] = {}
    for j, t in enumerate(tiles):
        by_left.setdefault(t.left, []).append(j)
    return [by_left.get(t.right, []) for t in tiles]


def trim_tiles(ts: ZTileSet) -> ZTileSet:
    """Drop tiles that cannot occur in any bi-infinite row.

    A tile survives iff it has an infinite forward and an infinite backward
    extension in the adjacency graph (right label feeding the next left
    label), so the set of bi-infinite valid rows is preserved exactly.
    """
    tiles = ts.tiles
    succ = _successors(tiles)
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
    return ZTileSet._unchecked(ts.in_max, ts.out_maxes, kept, ts.source)


def bit_max(space: pamaps.Space) -> int:
    return math.ceil(space.length)


def _fast_path_ok(space: pamaps.Space, piece: pamaps.AffinePiece, m: int) -> bool:
    """True when the output range alone already forces inputs into the piece's
    domain, so the bare affine tiles are sound without domain scaffolding."""
    box = Interval(Fraction(0), Fraction(m))
    pre = pamaps._preimage(pamaps.AffinePiece(box, piece.slope, piece.offset), Fraction(0), Fraction(m))
    return pre == piece.dom


def _wrap_plan(length: Fraction) -> Plan:
    ident = PlanAff(Fraction(1), Fraction(0))
    return PlanUnion(PlanUnion(ident, PlanAff(Fraction(1), -length)), PlanAff(Fraction(1), length))


def pamap_plan(f: PAMap, fast_path: bool = True) -> Plan:
    """Tile-generation plan for a total map.

    Per piece: the bare affine tiles when the output range alone enforces the
    domain (fast path); otherwise the domain [p, q] is enforced by routing
    through x -> M(x-p)/(q-p), whose output range [0, M] cuts exactly the
    piece's domain, followed by the piece's map read off the scaled input.
    Circle maps get a wrap stage (identity union shift by the length) on both
    ends so either representative of the glued point is accepted.
    """
    sp = f.space
    if sp.circle:
        if not pamaps.is_circle_homeo(f):
            raise NotHomeo("map is not a circle homeomorphism")
    elif not f.is_total():
        raise NotHomeo("map is not total on its interval")
    m = bit_max(sp)
    M = Fraction(m)
    plans = []
    for piece in f.pieces:
        if fast_path and _fast_path_ok(sp, piece, m):
            plans.append(PlanAff(piece.slope, piece.offset))
            continue
        stages: list[Plan] = []
        if sp.circle:
            stages.append(_wrap_plan(sp.length))
        p, q = piece.dom.lo, piece.dom.hi
        if (p, q) == (0, M):
            stages.append(PlanAff(piece.slope, piece.offset))
        else:
            span = q - p
            stages.append(PlanAff(M / span, -p * M / span))
            stages.append(PlanAff(piece.slope * span / M, piece.slope * p + piece.offset))
        if sp.circle:
            stages.append(_wrap_plan(sp.length))
        plan = stages[0]
        for s in stages[1:]:
            plan = PlanComp(plan, s)
        plans.append(plan)
    whole = plans[0]
    for p in plans[1:]:
        whole = PlanUnion(whole, p)
    return whole


def build_plan(plan: Plan, in_max: int, out_max: int, _cache=None) -> ZTileSet:
    """Evaluate a plan, trimming non-recurrent tiles after every node so
    intermediate compositions stay small."""
    if _cache is None:
        _cache = {}
    key = (plan, in_max, out_max)
    if key in _cache:
        return _cache[key]
    if isinstance(plan, PlanAff):
        ts = affine_tiles(plan.a, plan.b, in_max, out_max)
    elif isinstance(plan, PlanUnion):
        ts = union_tiles(build_plan(plan.first, in_max, out_max, _cache),
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


def pamap_tiles(f: PAMap, fast_path: bool = True) -> ZTileSet:
    m = bit_max(f.space)
    return build_plan(pamap_plan(f, fast_path), m, m)


def family_tiles(pres: PAGroupPresentation, fast_path: bool = True) -> GroupTileSet:
    """Tiles over Z x G for a presentation: the synchronized product of the
    generators' tile sets, read with psi_h = input bit and phi_h = h's output."""
    m = bit_max(pres.space)
    plan = PlanProd(tuple((name, pamap_plan(mp, fast_path)) for name, mp in pres.generators))
    prod = build_plan(plan, m, m)
    return GroupTileSet(tuple(name for name, _ in pres.generators), prod.in_max,
                        prod.out_maxes, prod.tiles, prod.source)


# ---------------------------------------------------------------------------
# JSON forms (bit-exact round trip)


def tile_to_obj(t: ZTile) -> dict:
    return {
        "top": t.top,
        "bottom": {n: v for n, v in t.bottoms},
        "left": label_to_obj(t.left),
        "right": label_to_obj(t.right),
    }


def _int(v) -> int:
    if type(v) is not int:
        raise ValueError(f"not a JSON integer: {_shown(v)}")
    return v


def _bits(obj, memo: dict) -> tuple[tuple[str, int], ...]:
    """_mk_bottoms of a JSON object of named integers.  A load passes one
    `memo`, so each distinct object becomes one tuple."""
    if type(obj) is not dict:
        raise ValueError(f"not a JSON object: {_shown(obj)}")
    for name, v in obj.items():
        if type(v) is not int:
            raise ValueError(f"{name}: not a JSON integer: {_shown(v)}")
    key = tuple(obj.items())
    bits = memo.get(key)
    if bits is None:
        bits = memo[key] = _mk_bottoms(obj)
    return bits


def _psi_top(obj, memo: dict, gens: list[str]) -> int:
    """The input bit of a group tile: its psi colors, one for each of the
    sorted generators `gens`, which must agree."""
    bits = _bits(obj, memo)
    if [n for n, _ in bits] != gens:
        raise ValueError(f"names {[n for n, _ in bits]} are not the generators {gens}")
    tops = {v for _, v in bits}
    if len(tops) != 1:
        raise ValueError("psi colors must agree across generators")
    return tops.pop()


def _read_tile(obj, read, bits: dict, gens: Optional[list[str]]) -> ZTile:
    """One tile of a tile set's JSON form, or of a group tile set's with the
    sorted generators `gens`, its labels decoded by `read`; a ValueError
    names the field at fault."""
    if type(obj) is not dict:
        raise ValueError(f"not a JSON object: {_shown(obj)}")
    group = gens is not None
    field = "psi" if group else "top"
    try:
        top = _psi_top(obj[field], bits, gens) if group else _int(obj[field])
        field = "phi" if group else "bottom"
        bottoms = _bits(obj[field], bits)
        field = "left"
        left = read(obj[field])
        field = "right"
        right = read(obj[field])
    except KeyError:
        raise ValueError(f"missing field {field!r}") from None
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None
    return ZTile(top, bottoms, left, right)


def _read_set(obj, group: bool) -> tuple:
    """The checked fields of a tile set's JSON form: in_max, the out maxes
    and the tiles, led by the generators when `group`.  One label walker and
    one bits memo serve the whole load."""
    if type(obj) is not dict:
        raise ValueError(f"a tile set is a JSON object, not {_shown(obj)}")
    fields = []
    gens = None
    field = "generators"
    try:
        if group:
            gens = obj[field]
            if type(gens) is not list or any(type(h) is not str for h in gens):
                raise ValueError(f"not a JSON list of strings: {_shown(gens)}")
            fields.append(tuple(gens))
            gens = sorted(gens)
        field = "in_max"
        fields.append(_int(obj[field]))
        field = "outs"
        fields.append(_bits(obj[field], {}))
        field = "tiles"
        items = obj[field]
        if type(items) is not list:
            raise ValueError(f"not a JSON list: {_shown(items)}")
    except KeyError:
        raise ValueError(f"tile set has no {field!r} field") from None
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None
    read = _label_reader({})
    bits: dict = {}
    tiles = []
    for i, t in enumerate(items):
        try:
            tiles.append(_read_tile(t, read, bits, gens))
        except ValueError as exc:
            raise ValueError(f"tile {i}: {exc}") from None
    fields.append(tuple(tiles))
    return tuple(fields)


def tileset_to_obj(ts: ZTileSet) -> dict:
    return {
        "in_max": ts.in_max,
        "outs": {n: v for n, v in ts.out_maxes},
        "tiles": [tile_to_obj(t) for t in ts.tiles],
    }


def _json_text(obj, depth: int) -> str:
    """`json.dumps(obj, indent=1)` as it reads nested `depth` levels deep."""
    return json.dumps(obj, indent=1).replace("\n", "\n" + " " * depth)


def _label_json(l: HLabel, depth: int, text) -> str:
    """`_json_text(label_to_obj(l), depth)`, given text(child, depth + 1)
    for each of l's children.  A tag's name is the one string that may need
    escaping; `json.dumps` of a plain string escapes it as the dump would."""
    if l.kind == "atom":
        return '"' + rat_str(l.value) + '"'
    if l.kind == "tup" and not l.value:
        return "[]"
    inner = "\n" + " " * (depth + 1)
    close = "\n" + " " * depth
    if l.kind == "tag":
        name, label = l.value
        return ("{" + inner + '"tag": ' + json.dumps(name) + "," + inner + '"label": '
                + text(label, depth + 1) + close + "}")
    return "[" + inner + ("," + inner).join([text(x, depth + 1) for x in l.value]) + close + "]"


def _label_writer():
    """text(l, depth): `_label_json(l, depth)`, built once per distinct
    (label, depth), so a set's labels cost one step per distinct node."""
    memo: dict = {}

    def text(l: HLabel, depth: int) -> str:
        key = (l, depth)
        s = memo.get(key)
        if s is None:
            s = memo[key] = _label_json(l, depth, text)
        return s
    return text


def _text_cache(encode, key):
    """encode(x), computed once per distinct key(x)."""
    cache: dict = {}

    def text(x):
        k = key(x)
        s = cache.get(k)
        if s is None:
            s = cache[k] = encode(x)
        return s
    return text


def _json_document(head: dict, tiles: list[str]) -> str:
    """`json.dumps(dict(head, tiles=...), indent=1) + "\n"`, given the text of
    each tile object at depth 2."""
    text = json.dumps(dict(head, tiles=[]), indent=1)
    if tiles:
        text = text[:-len("[]\n}")] + "[\n  " + ",\n  ".join(tiles) + "\n ]\n}"
    return text + "\n"


def tileset_to_json(ts: ZTileSet) -> str:
    """`json.dumps(tileset_to_obj(ts), indent=1) + "\n"`, encoding each
    distinct label node and (top, bottoms) pair once."""
    label = _label_writer()
    head = _text_cache(lambda t: ('{\n   "top": ' + json.dumps(t.top) + ',\n   "bottom": '
                                  + _json_text({n: v for n, v in t.bottoms}, 3) + ',\n   "left": '),
                       key=lambda t: (t.top, t.bottoms))
    tiles = [head(t) + label(t.left, 3) + ',\n   "right": ' + label(t.right, 3) + "\n  }" for t in ts.tiles]
    return _json_document({"in_max": ts.in_max, "outs": {n: v for n, v in ts.out_maxes}}, tiles)


def tileset_from_obj(obj: dict) -> ZTileSet:
    """Inverse of tileset_to_obj; malformed input is a ValueError naming the
    tile and the field."""
    return ZTileSet(*_read_set(obj, group=False))


def grouptileset_to_obj(g: GroupTileSet) -> dict:
    return {
        "generators": list(g.generators),
        "in_max": g.in_max,
        "outs": {n: v for n, v in g.out_maxes},
        "tiles": [
            {
                "left": label_to_obj(t.left),
                "right": label_to_obj(t.right),
                "psi": {h: t.top for h in g.generators},
                "phi": {h: t.bottom(h) for h in g.generators},
            }
            for t in g.tiles
        ],
    }


def grouptileset_to_json(g: GroupTileSet) -> str:
    """`json.dumps(grouptileset_to_obj(g), indent=1) + "\n"`, encoding each
    distinct label node and (top, bottoms) pair once."""
    label = _label_writer()
    tail = _text_cache(lambda t: (',\n   "psi": ' + _json_text({h: t.top for h in g.generators}, 3)
                                  + ',\n   "phi": ' + _json_text({h: t.bottom(h) for h in g.generators}, 3)
                                  + "\n  }"),
                       key=lambda t: (t.top, t.bottoms))
    tiles = ['{\n   "left": ' + label(t.left, 3) + ',\n   "right": ' + label(t.right, 3) + tail(t)
             for t in g.tiles]
    return _json_document({"generators": list(g.generators), "in_max": g.in_max,
                           "outs": {n: v for n, v in g.out_maxes}}, tiles)


def grouptileset_from_obj(obj: dict) -> GroupTileSet:
    """Inverse of grouptileset_to_obj; malformed input is a ValueError
    naming the tile and the field."""
    return GroupTileSet(*_read_set(obj, group=True))
