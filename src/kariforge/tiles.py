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
import marshal
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from . import pamaps
from .pamaps import PAGroupPresentation, PAMap, _shown, rat, rat_str


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

    Instances are interned by (kind, value), so equal labels are one object:
    equality and hashing are the object's identity, which label-heavy
    operations (compose, product, trimming) get without a Python call.
    """

    __slots__ = ("kind", "value")
    _interned: dict = {}

    def __new__(cls, kind: str, value):
        cached = cls._interned.get((kind, value))
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.kind = kind
        self.value = value
        cls._interned[(kind, value)] = self
        return self

    def sort_key(self) -> tuple:
        """The label's flat key (see `_flat_key`); labels sort by it."""
        return _flat_key(self, {})

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


def _flat_key(l: HLabel, memo: dict) -> tuple:
    """The label's preorder with each node's arity: an atom is
    (0, float, value), a tag (1, name, *child) and a tuple (2, len,
    *children).  No key is a proper prefix of another, so these keys sort
    as the nested keys (0, float, value), (1, name, child key) and (2, len,
    child keys) do, and a comparison reads only the shared prefix.  An
    atom's float comes first: it is correctly rounded, so it never reverses
    the order, and a tie falls through to the exact value.  `memo` keeps
    the key of each node reached in one call."""
    key = memo.get(l)
    if key is None:
        value = l.value
        if l.kind == "atom":
            key = (0, _float_key(value), value)
        elif l.kind == "tag":
            key = (1, value[0]) + _flat_key(value[1], memo)
        else:
            key = (2, len(value))
            for x in value:
                key += _flat_key(x, memo)
        memo[l] = key
    return key


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


def _label_reader():
    """read(obj): the label that label_to_obj wrote as obj.  One walker
    serves a whole load: each distinct carry string is parsed once, and a
    tag or tuple node is looked up in the intern table by its key and built
    only when new.  Anything label_to_obj does not write is a ValueError."""
    interned = HLabel._interned
    atoms: dict[str, HLabel] = {}

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


def _side_reader(read):
    """side(obj): read(obj), run once per distinct JSON value.  Values are
    keyed by their marshal bytes: equal bytes mean equal values, and true,
    1 and 1.0 marshal apart, so a repeated side label costs one C call.  A
    malformed label raises before it is stored, and a value marshal refuses
    is no JSON value and goes to read as it is."""
    sides: dict[bytes, HLabel] = {}
    dumps = marshal.dumps

    def side(obj) -> HLabel:
        try:
            key = dumps(obj)
        except ValueError:
            return read(obj)
        label = sides.get(key)
        if label is None:
            label = sides[key] = read(obj)
        return label
    return side


def label_from_obj(obj) -> HLabel:
    """Inverse of label_to_obj."""
    return _label_reader()(obj)


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


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls with these fields, built
    without __post_init__: for fields whose checks have already passed."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
        numbers, so no tile comparison reaches a label.  The labels' flat
        keys are built once per distinct label node."""
        tiles = set(tiles)
        tops = _ranks({t.top for t in tiles})
        bottoms = _ranks({t.bottoms for t in tiles})
        labels = {t.left for t in tiles}
        labels.update(t.right for t in tiles)
        memo: dict = {}
        sides = _ranks(labels, key=lambda l: _flat_key(l, memo))
        nb, nl = len(bottoms), len(sides)
        order = sorted(tiles, key=lambda t: ((tops[t.top] * nb + bottoms[t.bottoms]) * nl
                                             + sides[t.left]) * nl + sides[t.right])
        return ZTileSet(in_max, _mk_bottoms(out_maxes), tuple(order), source)

    def single_out(self) -> str:
        return _only_output(self.out_maxes)[0]

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
        self._check_outputs()
        ZTileSet.__post_init__(self)  # the bit range and duplicate checks

    def _check_outputs(self) -> None:
        if sorted(n for n, _ in self.out_maxes) != sorted(self.generators):
            raise ValueError("outputs must match the generators")

    @staticmethod
    def _of_validated(generators: tuple[str, ...], ts: ZTileSet) -> "GroupTileSet":
        """The group set of a validated set's tiles: checks the outputs
        against the generators, and skips the checks `ts` has passed."""
        g = _trusted(GroupTileSet, generators=generators, in_max=ts.in_max, out_maxes=ts.out_maxes,
                     tiles=ts.tiles, source=ts.source)
        g._check_outputs()
        return g

    def phi(self, t: ZTile, h: str) -> int:
        return t.bottom(h)

    def psi(self, t: ZTile, h: str) -> int:
        if h not in self.generators:
            raise KeyError(h)
        return t.top


# ---------------------------------------------------------------------------
# Generators
#
# Every generator works on plain rows (top, bottoms, left, right) whose side
# labels are ids in a per-call label table, and makes labels, tiles and one
# sorted, validated set only for the rows it returns.  build_plan keeps its
# nodes as rows over one table, so only the root pays for that conversion.


class _LabelTable:
    """Side labels numbered so that equal labels get equal ids.  Label i is
    nodes[i] = (kind, value): an atom's reduced (numerator, denominator), a
    tag's (name, child id) or a tuple's child ids.  A child's id is below
    its parent's.  `built` holds the plan nodes that build_plan evaluated
    over this table."""

    __slots__ = ("ids", "nodes", "built")

    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.nodes: list[tuple] = []
        self.built: dict = {}

    def intern(self, kind: str, value) -> int:
        key = (kind, value)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.nodes)
            self.nodes.append(key)
        return i

    def hlabels(self, ids: Iterable[int]) -> dict[int, HLabel]:
        """The interned HLabel of each id in `ids` (and of their children),
        each built once through atom, tag and tup."""
        nodes = self.nodes
        out: dict[int, HLabel] = {}

        def build(i: int) -> HLabel:
            l = out.get(i)
            if l is None:
                kind, value = nodes[i]
                if kind == "atom":
                    l = atom(Fraction(*value))
                elif kind == "tag":
                    l = tag(value[0], build(value[1]))
                else:
                    l = tup(*map(build, value))
                out[i] = l
            return l
        for i in ids:
            build(i)
        return out


class _Rows:
    """A tile set as rows (top, bottoms, left, right) over a label table.
    The sides are label ids or, in the candidates of a compose or product
    node (`parts`), tuples of ids that trim_tiles turns into tuple labels
    for the survivors.  `trimmed`: every row occurs in a bi-infinite row."""

    __slots__ = ("in_max", "out_maxes", "tiles", "source", "labels", "parts", "trimmed")

    def __init__(self, in_max: int, out_maxes: tuple[tuple[str, int], ...], tiles: list[tuple],
                 source: Optional[Plan], labels: _LabelTable, parts: bool = False, trimmed: bool = False):
        self.in_max = in_max
        self.out_maxes = out_maxes
        self.tiles = tiles
        self.source = source
        self.labels = labels
        self.parts = parts
        self.trimmed = trimmed

    @staticmethod
    def of(ts: ZTileSet, labels: _LabelTable) -> "_Rows":
        """The rows of a tile set, each distinct label node numbered once."""
        intern = labels.intern
        ids: dict[HLabel, int] = {}

        def id_of(l: HLabel) -> int:
            i = ids.get(l)
            if i is None:
                if l.kind == "atom":
                    i = intern("atom", (l.value.numerator, l.value.denominator))
                elif l.kind == "tag":
                    i = intern("tag", (l.value[0], id_of(l.value[1])))
                else:
                    i = intern("tup", tuple(map(id_of, l.value)))
                ids[l] = i
            return i
        rows = [(t.top, t.bottoms, id_of(t.left), id_of(t.right)) for t in ts.tiles]
        return _Rows(ts.in_max, ts.out_maxes, rows, ts.source, labels)

    def tileset(self) -> ZTileSet:
        """The rows as a sorted, validated ZTileSet of interned labels."""
        rows = self.tiles
        ids = {r[2] for r in rows}
        ids.update(r[3] for r in rows)
        label = self.labels.hlabels(ids)
        tiles = [ZTile(top, bottoms, label[l], label[r]) for top, bottoms, l, r in rows]
        return ZTileSet.make(self.in_max, dict(self.out_maxes), tiles, source=self.source)


def _only_output(out_maxes: tuple[tuple[str, int], ...]) -> tuple[str, int]:
    if len(out_maxes) != 1:
        raise ValueError("tile set has several outputs")
    return out_maxes[0]


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


def _affine(labels: _LabelTable, a, b, in_max: int, out_max: int) -> _Rows:
    """The rows of affine_tiles.  With carries k/D and A = a*D, B = b*D, the
    relation reads D*bottom = A*top + B + k - k', so for each (top, k) the
    bottoms are the integers u with k' = A*top + B + k - u*D inside the carry
    range."""
    a, b = rat(a), rat(b)
    if a == 0:
        raise ValueError("slope must be nonzero")
    D, lo, hi = _carry_range(a, b)
    A, B = a.numerator * (D // a.denominator), b.numerator * (D // b.denominator)
    ids = []
    for k in range(lo, hi + 1):
        g = math.gcd(k, D)
        ids.append(labels.intern("atom", (k // g, D // g)))
    bottoms = [(("f", u),) for u in range(out_max + 1)]
    rows = []
    for t in range(in_max + 1):
        for k in range(lo, hi + 1):
            base = A * t + B + k
            for u in range(max(0, -((hi - base) // D)), min(out_max, (base - lo) // D) + 1):
                rows.append((t, bottoms[u], ids[k - lo], ids[base - u * D - lo]))
    if not rows:
        raise EmptyTileSetError(f"no tiles for a={a}, b={b}")
    return _Rows(in_max, (("f", out_max),), rows, PlanAff(a, b), labels)


def _union(A: _Rows, B: _Rows) -> _Rows:
    """Each operand's rows with its labels tagged L or R, one tag id per
    distinct label id."""
    if A.in_max != B.in_max or A.out_maxes != B.out_maxes:
        raise AlphabetMismatch("union operands must share in/out alphabets")
    intern = A.labels.intern
    rows: list[tuple] = []
    for name, ts in (("L", A), ("R", B)):
        ids = {r[2] for r in ts.tiles}
        ids.update(r[3] for r in ts.tiles)
        tagged = {i: intern("tag", (name, i)) for i in ids}
        rows += [(top, bottoms, tagged[l], tagged[r]) for top, bottoms, l, r in ts.tiles]
    src = PlanUnion(A.source, B.source) if A.source is not None and B.source is not None else None
    # the tags keep every bi-infinite row inside one operand
    return _Rows(A.in_max, A.out_maxes, rows, src, A.labels, trimmed=A.trimmed and B.trimmed)


def _compose(A: _Rows, B: _Rows) -> _Rows:
    """The candidates of x -> f_B(f_A(x)): pairs whose middle bits agree."""
    _, mid = _only_output(A.out_maxes)
    if mid != B.in_max:
        raise AlphabetMismatch(f"A out alphabet {mid} != B in alphabet {B.in_max}")
    by_top: dict[int, list[tuple]] = {}
    for rb in B.tiles:
        by_top.setdefault(rb[0], []).append(rb)
    # ra[1][0][1] is the bit of A's one output
    candidates = [(ra[0], rb[1], (ra[2], rb[2]), (ra[3], rb[3]))
                  for ra in A.tiles for rb in by_top.get(ra[1][0][1], ())]
    src = PlanComp(A.source, B.source) if A.source is not None and B.source is not None else None
    return _Rows(A.in_max, B.out_maxes, candidates, src, A.labels, parts=True)


def _product(components: Sequence[tuple[str, _Rows]]) -> _Rows:
    """The candidates of the synchronized product: one per choice of
    component rows sharing a top bit."""
    if not components:
        raise ValueError("empty product")
    in_max = components[0][1].in_max
    for name, c in components:
        if c.in_max != in_max:
            raise AlphabetMismatch("product components must share the input alphabet")
        _only_output(c.out_maxes)
    out_maxes = _mk_bottoms({name: c.out_maxes[0][1] for name, c in components})
    names = [name for name, _ in components]
    bottoms_of: dict[tuple[int, ...], tuple[tuple[str, int], ...]] = {}
    candidates = []
    for t in range(in_max + 1):
        rows = [[(r[1][0][1], r[2], r[3]) for r in c.tiles if r[0] == t] for _, c in components]
        for chosen in itertools.product(*rows):
            bits, lefts, rights = zip(*chosen)
            bottoms = bottoms_of.get(bits)
            if bottoms is None:
                bottoms = bottoms_of[bits] = _mk_bottoms(dict(zip(names, bits)))
            candidates.append((t, bottoms, lefts, rights))
    srcs = [(name, c.source) for name, c in components]
    src = PlanProd(tuple(srcs)) if all(s is not None for _, s in srcs) else None
    return _Rows(in_max, out_maxes, candidates, src, components[0][1].labels, parts=True)


def affine_tiles(a, b, in_max: int, out_max: int) -> ZTileSet:
    """All tiles whose output f satisfies f = a*top + b + left - right over the carry set."""
    return _affine(_LabelTable(), a, b, in_max, out_max).tileset()


def union_tiles(A: ZTileSet, B: ZTileSet) -> ZTileSet:
    """Disjoint union; side labels are tagged so rows cannot mix operands."""
    labels = _LabelTable()
    return _union(_Rows.of(A, labels), _Rows.of(B, labels)).tileset()


def compose_tiles(A: ZTileSet, B: ZTileSet) -> ZTileSet:
    """Tiles of x -> f_B(f_A(x)): pairs whose middle bits agree, trimmed."""
    labels = _LabelTable()
    return trim_tiles(_compose(_Rows.of(A, labels), _Rows.of(B, labels))).tileset()


def product_tiles(components: Sequence[tuple[str, ZTileSet]]) -> ZTileSet:
    """Synchronized product: one tile per choice of component tiles sharing a
    top bit, trimmed.

    Each component must have a single output; in the product it is renamed to
    the component's name.
    """
    labels = _LabelTable()
    return trim_tiles(_product([(name, _Rows.of(c, labels)) for name, c in components])).tileset()


# ---------------------------------------------------------------------------
# Compiling a piecewise map


def _label_ids(lefts: Sequence, rights: Sequence) -> tuple[int, list[int], list[int]]:
    """The label graph of tiles given by their side labels: each distinct
    label is numbered once, and tile i is an edge from label ls[i] to label
    rs[i].  Returns (number of labels, ls, rs)."""
    ids: dict = {}
    ls = [ids.setdefault(l, len(ids)) for l in lefts]
    rs = [ids.setdefault(r, len(ids)) for r in rights]
    return len(ids), ls, rs


def _live(n: int, sources: list[int], targets: list[int]) -> list[bool]:
    """live[v]: an infinite walk leaves label v along the edges
    sources[e] -> targets[e] of a graph on labels 0..n-1.  Peels off the
    labels whose every out-edge leads to a peeled label, starting from the
    labels with none; parallel edges count once each.  The edges into a
    label are chained through two flat int lists (first[v], then after[e]),
    so no list is built per label."""
    out = [0] * n
    first = [-1] * n
    after = []
    for e, (s, t) in enumerate(zip(sources, targets)):
        out[s] += 1
        after.append(first[t])
        first[t] = e
    live = [True] * n
    queue = [v for v in range(n) if not out[v]]
    for v in queue:
        live[v] = False
    while queue:
        e = first[queue.pop()]
        while e >= 0:
            u = sources[e]
            out[u] -= 1
            if not out[u]:  # one decrement per edge, so once per u
                live[u] = False
                queue.append(u)
            e = after[e]
    return live


def _alive(lefts: Sequence, rights: Sequence) -> list[int]:
    """The indices of the tiles, given by their side labels, that occur in a
    bi-infinite row, in index order.  A tile is an edge from its left label
    to its right label, and a row a walk: the tile lies on a bi-infinite
    walk iff an infinite walk leaves its right label and one arrives at its
    left label.  Each distinct label is numbered once, so the work is one
    step per tile and per label."""
    n, ls, rs = _label_ids(lefts, rights)
    ahead = _live(n, ls, rs)
    behind = _live(n, rs, ls)
    return [i for i, (l, r) in enumerate(zip(ls, rs)) if ahead[r] and behind[l]]


def trim_tiles(ts: ZTileSet | _Rows) -> ZTileSet | _Rows:
    """Drop tiles that cannot occur in any bi-infinite row.

    A tile survives iff it has an infinite forward and an infinite backward
    extension in the adjacency graph (right label feeding the next left
    label), so the set of bi-infinite valid rows is preserved exactly.  A
    ZTileSet keeps its order and alphabets.  Rows give rows: candidates'
    id tuples become tuple labels for the survivors only, and rows already
    trimmed (a union of trimmed rows) are returned as they are.
    """
    tiles = ts.tiles
    if isinstance(ts, _Rows):
        if ts.trimmed:
            return ts
        kept = [tiles[i] for i in _alive([r[2] for r in tiles], [r[3] for r in tiles])]
        if ts.parts:
            parts = {r[2] for r in kept}
            parts.update(r[3] for r in kept)
            intern = ts.labels.intern
            ids = {p: intern("tup", p) for p in parts}
            kept = [(top, bottoms, ids[l], ids[r]) for top, bottoms, l, r in kept]
        return _Rows(ts.in_max, ts.out_maxes, kept, ts.source, ts.labels, trimmed=True)
    kept = tuple(tiles[i] for i in _alive([t.left for t in tiles], [t.right for t in tiles]))
    # a subset of a checked set's tiles, over its alphabets, passes its checks
    return _trusted(ZTileSet, in_max=ts.in_max, out_maxes=ts.out_maxes, tiles=kept, source=ts.source)


def bit_max(space: pamaps.Space) -> int:
    return math.ceil(space.length)


def _fast_path_ok(piece: pamaps.AffinePiece, m: int) -> bool:
    """True when the output range alone already forces inputs into the piece's
    domain, so the bare affine tiles are sound without domain scaffolding:
    the x in [0, m] with slope * x + offset in [0, m] are exactly dom."""
    a, b, dom = piece.slope, piece.offset, piece.dom
    if a == 0:
        return 0 <= b <= m and (dom.lo, dom.hi) == (0, m)
    x1, x2 = sorted((-b / a, (m - b) / a))
    return (max(x1, 0), min(x2, m)) == (dom.lo, dom.hi)


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
        if fast_path and _fast_path_ok(piece, m):
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


def build_plan(plan: Plan, in_max: int, out_max: int,
               _labels: Optional[_LabelTable] = None) -> ZTileSet | _Rows:
    """Evaluate a plan into a tile set, trimming every node once so that
    intermediate compositions stay small.

    Every node is evaluated once, as rows over one label table; only the
    root's rows become labels, tiles and a sorted, validated ZTileSet.
    Called with a table, it returns the node's trimmed rows."""
    if _labels is None:
        return _node(plan, in_max, out_max, _LabelTable()).tileset()
    key = (plan, in_max, out_max)
    rows = _labels.built.get(key)
    if rows is None:
        rows = _labels.built[key] = _node(plan, in_max, out_max, _labels)
    return rows


def _node(plan: Plan, in_max: int, out_max: int, labels: _LabelTable) -> _Rows:
    """The plan node's trimmed rows, its children built through build_plan."""
    if isinstance(plan, PlanAff):
        rows = _affine(labels, plan.a, plan.b, in_max, out_max)
    elif isinstance(plan, PlanUnion):
        rows = _union(build_plan(plan.first, in_max, out_max, labels),
                      build_plan(plan.second, in_max, out_max, labels))
    elif isinstance(plan, PlanComp):
        rows = _compose(build_plan(plan.first, in_max, out_max, labels),
                        build_plan(plan.second, in_max, out_max, labels))
    elif isinstance(plan, PlanProd):
        rows = _product([(name, build_plan(p, in_max, out_max, labels)) for name, p in plan.parts])
    else:
        raise TypeError(f"not a plan: {plan!r}")
    return trim_tiles(rows)


def pamap_tiles(f: PAMap, fast_path: bool = True) -> ZTileSet:
    m = bit_max(f.space)
    return build_plan(pamap_plan(f, fast_path), m, m)


def family_tiles(pres: PAGroupPresentation, fast_path: bool = True) -> GroupTileSet:
    """Tiles over Z x G for a presentation: the synchronized product of the
    generators' tile sets, read with psi_h = input bit and phi_h = h's output."""
    m = bit_max(pres.space)
    parts = []
    for name, mp in pres.generators:
        try:
            parts.append((name, pamap_plan(mp, fast_path)))
        except NotHomeo as exc:
            raise NotHomeo(f"generator {name}: {exc}") from None
    plan = PlanProd(tuple(parts))
    return GroupTileSet._of_validated(tuple(name for name, _ in pres.generators), build_plan(plan, m, m))


# ---------------------------------------------------------------------------
# JSON forms (bit-exact round trip)


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


def _read_tile(obj, read, bits: dict, names: tuple[str, str], read_top) -> ZTile:
    """One tile of a tile set's JSON form: its input bit read by read_top
    from the field names[0], its output bits from names[1] and its labels
    decoded by `read`; a ValueError names the field at fault."""
    if type(obj) is not dict:
        raise ValueError(f"not a JSON object: {_shown(obj)}")
    field = names[0]
    try:
        top = read_top(obj[field])
        field = names[1]
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


def tileset_to_obj(ts: ZTileSet | GroupTileSet) -> dict:
    """The JSON form of ts, which `json.loads(tileset_to_json(ts))` equals.
    A GroupTileSet's form leads with its generators, and its tiles carry
    psi and phi colors in place of the top and bottom bits."""
    if isinstance(ts, GroupTileSet):
        gens = ts.generators
        head = {"generators": list(gens)}

        def tile(t: ZTile) -> dict:
            return {"left": label_to_obj(t.left), "right": label_to_obj(t.right),
                    "psi": {h: t.top for h in gens}, "phi": {h: t.bottom(h) for h in gens}}
    else:
        head = {}

        def tile(t: ZTile) -> dict:
            return {"top": t.top, "bottom": {n: v for n, v in t.bottoms},
                    "left": label_to_obj(t.left), "right": label_to_obj(t.right)}
    return dict(head, in_max=ts.in_max, outs={n: v for n, v in ts.out_maxes},
                tiles=[tile(t) for t in ts.tiles])


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


def write_json(ts: ZTileSet | GroupTileSet, write: Callable[[str], object]) -> None:
    """Write `json.dumps(tileset_to_obj(ts), indent=1) + "\n"` through
    write, one tile at a time, for a ZTileSet or a GroupTileSet.  Each
    distinct label node and (top, bottoms) pair is encoded once."""
    if isinstance(ts, GroupTileSet):
        gens = ts.generators
        head = {"generators": list(gens)}

        def around(t: ZTile) -> tuple[str, str]:
            return ('{\n   "left": ',
                    ',\n   "psi": ' + _json_text({h: t.top for h in gens}, 3)
                    + ',\n   "phi": ' + _json_text({h: t.bottom(h) for h in gens}, 3) + "\n  }")
    else:
        head = {}

        def around(t: ZTile) -> tuple[str, str]:
            return ('{\n   "top": ' + json.dumps(t.top) + ',\n   "bottom": '
                    + _json_text({n: v for n, v in t.bottoms}, 3) + ',\n   "left": ', "\n  }")
    text = json.dumps(dict(head, in_max=ts.in_max, outs={n: v for n, v in ts.out_maxes}, tiles=[]),
                      indent=1)
    if not ts.tiles:
        write(text + "\n")
        return
    label = _label_writer()
    bits: dict = {}  # (top, bottoms) -> the text around the tile's labels
    sep = text[:-len("[]\n}")] + "[\n  "
    for t in ts.tiles:
        key = (t.top, t.bottoms)
        before, after = bits.get(key) or bits.setdefault(key, around(t))
        write(sep + before + label(t.left, 3) + ',\n   "right": ' + label(t.right, 3) + after)
        sep = ",\n  "
    write("\n ]\n}\n")


def tileset_to_json(ts: ZTileSet | GroupTileSet) -> str:
    """The text write_json writes for ts, a ZTileSet or a GroupTileSet."""
    chunks: list[str] = []
    write_json(ts, chunks.append)
    return "".join(chunks)


def tileset_from_obj(obj: dict) -> ZTileSet | GroupTileSet:
    """Inverse of tileset_to_obj: a GroupTileSet when the document has
    generators, else a ZTileSet.  One label walker, run once per distinct
    side label, and one bits memo serve the whole load; malformed input is a
    ValueError naming the tile and the field."""
    if type(obj) is not dict:
        raise ValueError(f"a tile set is a JSON object, not {_shown(obj)}")
    group = "generators" in obj
    bits: dict = {}
    fields = []
    try:
        if group:
            field = "generators"
            gens = obj[field]
            if type(gens) is not list or any(type(h) is not str for h in gens):
                raise ValueError(f"not a JSON list of strings: {_shown(gens)}")
            fields.append(tuple(gens))
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
    if group:
        names = ("psi", "phi")
        gens = sorted(gens)

        def read_top(psi) -> int:
            return _psi_top(psi, bits, gens)
    else:
        names = ("top", "bottom")
        read_top = _int
    read = _side_reader(_label_reader())
    tiles = []
    for i, t in enumerate(items):
        try:
            tiles.append(_read_tile(t, read, bits, names, read_top))
        except ValueError as exc:
            raise ValueError(f"tile {i}: {exc}") from None
    return (GroupTileSet if group else ZTileSet)(*fields, tuple(tiles))


# The benchmark harness (bench/workloads.py) calls the writer and the reader
# by these names.
grouptileset_to_obj = tileset_to_obj
grouptileset_from_obj = tileset_from_obj
