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

import functools
import itertools
import json
import marshal
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import pamaps
from .pamaps import PAGroupPresentation, PAMap, _json_field, _json_value, _shown, rat


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

    def __repr__(self):
        return _label_reprs(str)(self)


def _float_key(n: int, d: int) -> float:
    """n / d correctly rounded, as float(Fraction(n, d)) reads it; beyond
    the float range, an infinity of its sign."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _ranks(values, key=None) -> dict:
    return {v: i for i, v in enumerate(sorted(values, key=key))}


def atom(q) -> HLabel:
    return HLabel("atom", rat(q))


def tag(name: str, label: HLabel) -> HLabel:
    return HLabel("tag", (name, label))


def tup(*labels: HLabel) -> HLabel:
    return HLabel("tup", tuple(labels))


def _fold(node: Callable, atom_of: Callable, tag_of: Callable, tup_of: Callable,
          key: Optional[Callable] = None) -> Callable:
    """f(x): the value of label x built bottom up, where node(x) is x's
    (kind, value): atom_of(value) for an atom, tag_of(name, f(child)) for a
    tag and tup_of(list(map(f, children))) for a tuple.  Each distinct
    node, told apart by key(x) (by x itself when key is None), is built once
    for as long as f lives, so a shared subtree costs one step and equal
    labels get one value."""
    memo: dict = {}

    def f(x):
        k = x if key is None else key(x)
        v = memo.get(k)
        if v is None:
            kind, value = node(x)
            if kind == "atom":
                v = atom_of(value)
            elif kind == "tag":
                v = tag_of(value[0], f(value[1]))
            else:
                # map, not a comprehension: one frame per nesting level
                v = tup_of(list(map(f, value)))
            memo[k] = v
        return v
    return f


# node(l) of an interned label, for _fold
_hnode = operator.attrgetter("kind", "value")


def _label_objs() -> Callable[[HLabel], object]:
    """obj(l): the JSON form of the interned label l, an atom's string, a
    tag's {"tag", "label"} dict or a tuple's list.  Equal labels get one
    shared object (`_fold`), so editing it in place edits every
    occurrence."""
    return _fold(_hnode, str, lambda name, o: {"tag": name, "label": o}, lambda os: os)


def _label_reprs(esc: Callable[[str], str]) -> Callable[[HLabel], str]:
    """text(l): repr(l) with each tag name passed through esc, built once
    per distinct label node (`_fold`)."""
    return _fold(_hnode, str, lambda name, s: esc(name) + ":" + s, lambda ss: "(" + ",".join(ss) + ")")


def label_to_obj(l: HLabel):
    """The JSON form of l; a label that repeats inside l is one object."""
    return _label_objs()(l)


def _json_node(obj) -> tuple[str, object]:
    """node(obj) of a label's JSON form, for _fold: a string is an atom, a
    list a tuple and a {"tag", "label"} dict a tag.  Anything label_to_obj
    does not write is a ValueError."""
    kind = type(obj)
    if kind is str:
        return "atom", obj
    if kind is list:
        return "tup", obj
    if kind is dict and type(obj.get("tag")) is str and len(obj) == 2 and "label" in obj:
        return "tag", (obj["tag"], obj["label"])
    raise ValueError(f"not a label: {_shown(obj)}")


def _json_key(obj):
    """The memo key of a JSON value, its marshal bytes: equal bytes mean
    equal values, and true, 1 and 1.0 marshal apart, so a repeated value
    costs one C call.  The bytes mark objects held more than once, so equal
    values that share objects differently may be read twice, never read
    wrong; in a parsed document no value is shared.  A value marshal
    refuses is no JSON value; it is keyed by identity, and _json_node
    refuses it or the part at fault."""
    try:
        return marshal.dumps(obj)
    except ValueError:
        return id(obj)


def _obj_labels() -> Callable[[object], HLabel]:
    """read(obj): the label that label_to_obj wrote as obj.  One reader
    serves a whole load: each distinct JSON value is read once (`_fold`),
    a carry string parsed and a tag or tuple found in the intern table or
    built.  A malformed label is a ValueError."""
    return _fold(_json_node, atom, tag, lambda ls: tup(*ls), key=_json_key)


def label_from_obj(obj) -> HLabel:
    """Inverse of label_to_obj."""
    return _obj_labels()(obj)


# ---------------------------------------------------------------------------
# Tiles and tile sets


class ZTile(NamedTuple):
    """One Wang tile: input bit, named output bits, left/right side labels."""

    top: int
    bottoms: tuple[tuple[str, int], ...]
    left: HLabel
    right: HLabel

    def bottom(self, name: Optional[str] = None) -> int:
        if name is None:
            if len(self.bottoms) != 1:
                raise ValueError("tile has several outputs; name one" if self.bottoms else "tile has no output")
            return self.bottoms[0][1]
        for n, v in self.bottoms:
            if n == name:
                return v
        raise KeyError(name)


def _mk_bottoms(d: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(d.items()))


# Plan nodes: how a tile set was generated.  Used for witness construction.


def _plan_hash(plan) -> int:
    """The hash of a plan node's fields, computed on first use and kept:
    build_plan's memo looks nodes up by it, and a node's hash would
    otherwise rehash its whole subtree.  Equality still compares fields."""
    d = plan.__dict__
    h = d.get("_hash")
    if h is None:
        # before `_hash` is stored, the frozen node's dict holds its fields in order
        h = d["_hash"] = hash(tuple(d.values()))
    return h


@dataclass(frozen=True)
class PlanAff:
    a: Fraction
    b: Fraction
    __hash__ = _plan_hash


@dataclass(frozen=True)
class PlanUnion:
    first: "Plan"
    second: "Plan"
    __hash__ = _plan_hash


@dataclass(frozen=True)
class PlanComp:
    first: "Plan"   # applied first
    second: "Plan"
    __hash__ = _plan_hash


@dataclass(frozen=True)
class PlanProd:
    parts: tuple[tuple[str, "Plan"], ...]
    __hash__ = _plan_hash


Plan = object


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls with these fields, built
    without __post_init__: for fields whose checks have already passed, or
    for a set that is only read on its way to one that is checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# A tile over Z x G stores its input bit only as its psi colors, one per
# generator, so with no generators it has nowhere to store it.
_NO_GENERATORS = "a set over Z x G with no generators has no tiles: a tile's input bit is stored only as psi colors"


def _check_rows(in_max: int, out_maxes: tuple[tuple[str, int], ...], generators: Optional[tuple[str, ...]],
                bits: Iterable[tuple[int, tuple[tuple[str, int], ...]]]) -> None:
    """The checks every tile set passes, as a ZTileSet or as the rows `gen`
    writes: the outputs match the generators (of a Z x G set, when
    `generators` is not None), the output names are sorted, a set over
    Z x G with no generators has no tiles, and each tile's (top, bottoms)
    pair, given by `bits` in tile order, is in range and names the set's
    outputs.  Each distinct pair is checked once; a failed check is a
    ValueError."""
    names = [n for n, _ in out_maxes]
    if generators is not None and sorted(names) != sorted(generators):
        raise ValueError("outputs must match the generators")
    if sorted(names) != names:
        raise ValueError("output names must be sorted")
    names = tuple(names)
    checked = set()
    for pair in bits:
        if pair in checked:
            continue
        checked.add(pair)
        if generators == ():
            raise ValueError(_NO_GENERATORS)
        top, bottoms = pair
        if not 0 <= top <= in_max:
            raise ValueError(f"top bit {top} out of range")
        if tuple(n for n, _ in bottoms) != names:
            raise ValueError("tile outputs do not match the set's outputs")
        for (n, v), (_, mx) in zip(bottoms, out_maxes):
            if not 0 <= v <= mx:
                raise ValueError(f"bottom bit {v} out of range for {n}")


def _distinct_bits(tiles: Iterable[ZTile]):
    """(top, bottoms) of each tile, in order; a tile met twice is a
    ValueError, raised where it is met."""
    seen = set()
    for t in tiles:
        if t in seen:
            raise ValueError(f"duplicate tile {t}")
        seen.add(t)
        yield t.top, t.bottoms


@dataclass(frozen=True)
class ZTileSet:
    """Wang tiles over Z, or over Z x G when `generators` is not None: a
    tile over Z x G has one output per generator h, and reads with colors
    psi_h = its input bit and phi_h = its h output bit.  `()` is a set over
    Z x G with no generators."""

    in_max: int
    out_maxes: tuple[tuple[str, int], ...]
    tiles: tuple[ZTile, ...]
    source: Optional[Plan] = field(default=None, compare=False, repr=False)
    generators: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        _check_rows(self.in_max, self.out_maxes, self.generators, _distinct_bits(self.tiles))

    @functools.cached_property
    def _known(self) -> frozenset[ZTile]:
        """The tiles as a frozenset, built once per set, for membership tests."""
        return frozenset(self.tiles)

    @functools.cached_property
    def _label_ids(self) -> tuple[list, list[int], list[int]]:
        """`_tile_label_ids` of the set, numbered once per set; callers share the lists."""
        return _tile_label_ids(self)

    @staticmethod
    def make(in_max, out_maxes: dict[str, int], tiles: Iterable[ZTile], source=None) -> "ZTileSet":
        """The set of these tiles, deduplicated, validated and sorted by
        (top, bottoms, left, right), labels by their flat keys
        (`_LabelTable.flat_keys`): the tiles are numbered into rows by
        `_Rows.of` and sorted by `_Rows.ordered`, the order every compiled
        set has.  The set holds the given tiles; no label or tile is
        built."""
        unsorted = _trusted(ZTileSet, in_max=in_max, out_maxes=_mk_bottoms(out_maxes), tiles=tuple(tiles),
                            source=source)
        rows = _Rows.of(unsorted, _LabelTable())
        given = dict(zip(rows.tiles, unsorted.tiles))  # equal rows are equal tiles
        return ZTileSet(unsorted.in_max, unsorted.out_maxes, tuple([given[r] for r in rows.ordered().tiles]),
                        source)

    def single_out(self) -> str:
        return _only_output(self.out_maxes)[0]

    def out_max(self, name: Optional[str] = None) -> int:
        if name is None:
            name = self.single_out()
        return dict(self.out_maxes)[name]


# ---------------------------------------------------------------------------
# Generators
#
# Every generator works on plain rows (top, bottoms, left, right) whose side
# labels are ids in a per-call label table.  build_plan keeps its nodes as
# rows over one table; the root's rows are sorted on the table's flat keys,
# and become labels, tiles and a validated set only when a set is asked
# for.  `gen` writes the sorted rows as they are.


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
        n = len(self.nodes)
        i = self.ids.setdefault(key, n)  # one hash of the key, new or not
        if i == n:
            self.nodes.append(key)
        return i

    def numbering(self) -> Callable[[HLabel], int]:
        """id_of(l): the id of the interned label l, each distinct label
        node numbered once per numbering."""
        intern = self.intern
        return _fold(_hnode, lambda q: intern("atom", (q.numerator, q.denominator)),
                     lambda name, i: intern("tag", (name, i)), lambda ids: intern("tup", tuple(ids)))

    def flat_keys(self) -> Callable[[int], tuple]:
        """key(i): the flat key of label i, the label's preorder with each
        node's arity, an atom (0, float, value), a tag (1, name, *child) and
        a tuple (2, len, *children).  No key is a proper prefix of another,
        so these keys sort as the nested keys (0, float, value), (1, name,
        child key) and (2, len, child keys) do, and a comparison reads only
        the shared prefix.  An atom's float comes first: it is correctly
        rounded, so it never reverses the order, and a tie falls through to
        the exact value.  Each key is built once per key function."""
        return _fold(self.nodes.__getitem__, lambda v: (0, _float_key(*v), Fraction(*v)),
                     lambda name, k: (1, name) + k, lambda ks: sum(ks, (2, len(ks))))

    def hlabels(self) -> Callable[[int], HLabel]:
        """label(i): the interned HLabel of id i, each built once per label
        function through atom, tag and tup."""
        return _fold(self.nodes.__getitem__, lambda v: atom(Fraction(*v)), tag, lambda ls: tup(*ls))


def _sides(rows: Sequence[tuple]) -> set:
    """The side labels of these rows."""
    ids = {r[2] for r in rows}
    ids.update(r[3] for r in rows)
    return ids


@dataclass(slots=True, eq=False)
class _Rows:
    """A tile set as rows (top, bottoms, left, right) over a label table.
    The sides are label ids or, in the candidates of a compose or product
    node (`parts`), tuples of ids that trim_tiles turns into tuple labels
    for the survivors.  `trimmed`: every row occurs in a bi-infinite row.
    `generators`: those of a set over Z x G, else None."""

    in_max: int
    out_maxes: tuple[tuple[str, int], ...]
    tiles: list[tuple]
    source: Optional[Plan]
    labels: _LabelTable
    parts: bool = False
    trimmed: bool = False
    generators: Optional[tuple[str, ...]] = None

    @staticmethod
    def of(ts: ZTileSet, labels: _LabelTable) -> "_Rows":
        """The rows of a tile set, in its order, each distinct label node
        numbered once."""
        id_of = labels.numbering()
        rows = [(t.top, t.bottoms, id_of(t.left), id_of(t.right)) for t in ts.tiles]
        return _Rows(ts.in_max, ts.out_maxes, rows, ts.source, labels, generators=ts.generators)

    def ordered(self) -> "_Rows":
        """The distinct rows sorted by (top, bottoms, left, right), labels
        by their flat keys.  Each field's distinct values are sorted once
        and numbered, and the rows are sorted by one integer built from the
        numbers, so no comparison reaches a label."""
        rows = self.tiles
        ids = _sides(rows)
        sides = _ranks(ids, key=self.labels.flat_keys())
        tops = _ranks({r[0] for r in rows})
        bottoms = _ranks({r[1] for r in rows})
        nb, nl = len(bottoms), len(sides)
        by_rank = {((tops[t] * nb + bottoms[b]) * nl + sides[l]) * nl + sides[r]: (t, b, l, r)
                   for t, b, l, r in rows}
        return _Rows(self.in_max, self.out_maxes, [by_rank[k] for k in sorted(by_rank)], self.source,
                     self.labels, trimmed=self.trimmed, generators=self.generators)

    def checked(self) -> "_Rows":
        """ordered(), once its rows have passed the checks that the set
        they stand for, `tileset()`, runs (`_check_rows`)."""
        rows = self.ordered()
        _check_rows(rows.in_max, rows.out_maxes, rows.generators, ((r[0], r[1]) for r in rows.tiles))
        return rows

    def tileset(self) -> ZTileSet:
        """The rows as a sorted, validated set of interned labels, with the
        rows' generators.  Labels and tiles are built for the distinct rows
        only."""
        label = self.labels.hlabels()
        tiles = tuple([ZTile(top, bottoms, label(l), label(r)) for top, bottoms, l, r in self.ordered().tiles])
        return ZTileSet(self.in_max, self.out_maxes, tiles, self.source, self.generators)


def _only_output(out_maxes: tuple[tuple[str, int], ...]) -> tuple[str, int]:
    if len(out_maxes) != 1:
        raise ValueError("tile set has several outputs" if out_maxes else "tile set has no output")
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
        tagged = {i: intern("tag", (name, i)) for i in _sides(ts.tiles)}
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


def _label_ids(lefts: Sequence, rights: Sequence) -> tuple[list, list[int], list[int]]:
    """The label graph of tiles given by their side labels: each distinct
    label is numbered once, and tile i is an edge from label ls[i] to label
    rs[i].  Returns (the distinct labels in number order, ls, rs)."""
    ids: dict = {}
    ls = [ids.setdefault(l, len(ids)) for l in lefts]
    rs = [ids.setdefault(r, len(ids)) for r in rights]
    return list(ids), ls, rs


def _tile_label_ids(ts: ZTileSet) -> tuple[list, list[int], list[int]]:
    """_label_ids of the set's tiles: tile i is the edge from its left label
    to its right label."""
    return _label_ids([t.left for t in ts.tiles], [t.right for t in ts.tiles])


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


def _alive(n: int, ls: list[int], rs: list[int]) -> list[int]:
    """The indices of the edges ls[i] -> rs[i] of a graph on labels 0..n-1
    (`_label_ids`) that lie on a bi-infinite walk, in index order.  A tile
    is an edge from its left label to its right label, and a row a walk:
    the tile lies on a bi-infinite walk iff an infinite walk leaves its
    right label and one arrives at its left label, so the work is one step
    per tile and per label."""
    ahead = _live(n, ls, rs)
    behind = _live(n, rs, ls)
    return [i for i, (l, r) in enumerate(zip(ls, rs)) if ahead[r] and behind[l]]


def trim_tiles(ts: ZTileSet | _Rows) -> ZTileSet | _Rows:
    """Drop tiles that cannot occur in any bi-infinite row.

    A tile survives iff it has an infinite forward and an infinite backward
    extension in the adjacency graph (right label feeding the next left
    label), so the set of bi-infinite valid rows is preserved exactly.  A
    ZTileSet keeps its order, alphabets and generators.  Rows give rows:
    candidates' id tuples become tuple labels for the survivors only, each
    interned once from the walk's numbering of the sides, and rows already
    trimmed (a union of trimmed rows) are returned as they are.
    """
    tiles = ts.tiles
    if not isinstance(ts, _Rows):
        sides, ls, rs = _tile_label_ids(ts)
        kept = tuple(tiles[i] for i in _alive(len(sides), ls, rs))
        # a subset of a checked set's tiles, over its alphabets, passes its checks
        return _trusted(ZTileSet, in_max=ts.in_max, out_maxes=ts.out_maxes, tiles=kept, source=ts.source,
                        generators=ts.generators)
    if ts.trimmed:
        return ts
    sides, ls, rs = _label_ids([r[2] for r in tiles], [r[3] for r in tiles])
    alive = _alive(len(sides), ls, rs)
    if ts.parts:
        intern = ts.labels.intern
        used = {ls[i] for i in alive}
        used.update(rs[i] for i in alive)
        ids = {v: intern("tup", sides[v]) for v in used}
        kept = [(tiles[i][0], tiles[i][1], ids[ls[i]], ids[rs[i]]) for i in alive]
    else:
        kept = [tiles[i] for i in alive]
    return _Rows(ts.in_max, ts.out_maxes, kept, ts.source, ts.labels, trimmed=True)


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


def pamap_rows(f: PAMap, fast_path: bool = True) -> _Rows:
    """pamap_tiles(f, fast_path) as the rows write_json writes: sorted and
    checked as that set is, with no label or tile built."""
    m = bit_max(f.space)
    return build_plan(pamap_plan(f, fast_path), m, m, _LabelTable()).checked()


def _family(pres: PAGroupPresentation, fast_path: bool) -> _Rows:
    """The trimmed rows of the synchronized product of the generators'
    plans, which carry the generators' names."""
    m = bit_max(pres.space)
    parts = []
    for name, mp in pres.generators:
        try:
            parts.append((name, pamap_plan(mp, fast_path)))
        except NotHomeo as exc:
            raise NotHomeo(f"generator {name}: {exc}") from None
    rows = build_plan(PlanProd(tuple(parts)), m, m, _LabelTable())
    return _Rows(rows.in_max, rows.out_maxes, rows.tiles, rows.source, rows.labels, trimmed=True,
                 generators=tuple(name for name, _ in parts))


def family_tiles(pres: PAGroupPresentation, fast_path: bool = True) -> ZTileSet:
    """Tiles over Z x G for a presentation: the synchronized product of the
    generators' tile sets, read with psi_h = input bit and phi_h = h's output."""
    return _family(pres, fast_path).tileset()


def family_rows(pres: PAGroupPresentation, fast_path: bool = True) -> _Rows:
    """family_tiles(pres, fast_path) as the rows write_json writes: sorted
    and checked as that set is, with no label or tile built."""
    return _family(pres, fast_path).checked()


# ---------------------------------------------------------------------------
# JSON forms (bit-exact round trip)


def _bits(obj, memo: dict) -> tuple[tuple[str, int], ...]:
    """_mk_bottoms of a JSON object of named integers.  A load passes one
    `memo`, so each distinct object becomes one tuple."""
    if type(obj) is not dict:
        _json_value(obj, "", dict)
    for name, v in obj.items():
        if type(v) is not int:
            _json_value(v, name, int)
    key = tuple(obj.items())
    bits = memo.get(key)
    if bits is None:
        bits = memo[key] = _mk_bottoms(obj)
    return bits


def _psi_top(obj, memo: dict, gens: list[str]) -> int:
    """The input bit of a group tile: its psi colors, one for each of the
    sorted generators `gens`, which must agree."""
    if not gens:
        raise ValueError(_NO_GENERATORS)
    bits = _bits(obj, memo)
    if [n for n, _ in bits] != gens:
        raise ValueError(f"names {[n for n, _ in bits]} are not the generators {gens}")
    tops = {v for _, v in bits}
    if len(tops) != 1:
        raise ValueError("psi colors must agree across generators")
    return tops.pop()


def _head(gens: Optional[tuple[str, ...]]) -> dict:
    """The keys a tile set's JSON form leads with: the generators of a set
    over Z x G, none for a set over Z."""
    return {} if gens is None else {"generators": list(gens)}


def _tile_obj(gens: Optional[tuple[str, ...]], top: int, bottoms: tuple[tuple[str, int], ...], left, right) -> dict:
    """A tile's JSON object, given its labels' forms: over Z its top and
    bottom bits, over Z x G its psi and phi colors, one per generator."""
    if gens is None:
        return {"top": top, "bottom": dict(bottoms), "left": left, "right": right}
    bits = dict(bottoms)
    return {"left": left, "right": right, "psi": {h: top for h in gens}, "phi": {h: bits[h] for h in gens}}


def tileset_to_obj(ts: ZTileSet) -> dict:
    """The JSON form of ts, which `json.loads(tileset_to_json(ts))` equals.
    The form of a set over Z x G leads with its generators, and its tiles
    carry psi and phi colors in place of the top and bottom bits.  Each distinct
    label node's object is built once, so equal labels in the form are one
    shared object; tile dicts and their bit dicts are fresh per tile."""
    label = _label_objs()
    gens = ts.generators
    return dict(_head(gens), in_max=ts.in_max, outs=dict(ts.out_maxes),
                tiles=[_tile_obj(gens, t.top, t.bottoms, label(t.left), label(t.right)) for t in ts.tiles])


def _json_text(obj, depth: int) -> str:
    """`json.dumps(obj, indent=1)` as it reads nested `depth` levels deep."""
    return json.dumps(obj, indent=1).replace("\n", "\n" + " " * depth)


def _label_texts(nodes: list[tuple], depth: int) -> Callable[[int], str]:
    """text(i): `_json_text(label_to_obj(l), depth)` for the label l that is
    nodes[i] in a label table, built once per distinct node (`_fold`).  A
    child's text at `depth` reads one level deeper with one more space
    after each newline.  A tag's name is the one string that may need
    escaping; `encode_basestring_ascii`, what `json.dumps` of a plain string
    calls, escapes it as the dump would."""
    close = "\n" + " " * depth

    def block(opening: str, items: list[str], closing: str) -> str:
        # one item per line, one level deeper than the brackets
        return (opening + close + ("," + close).join(items)).replace("\n", "\n ") + close + closing

    return _fold(nodes.__getitem__, lambda v: '"' + pamaps._str(*v) + '"',
                 lambda name, s: block("{", ['"tag": ' + encode_basestring_ascii(name), '"label": ' + s], "}"),
                 lambda ss: block("[", ss, "]") if ss else "[]")


def write_json(ts: ZTileSet | _Rows, write: Callable[[str], object]) -> None:
    """Write `json.dumps(tileset_to_obj(ts), indent=1) + "\n"` through
    write, one tile at a time, for a ZTileSet or for the rows of pamap_rows
    or family_rows, written as the set they stand for without building it.
    A set is first numbered into rows by `_Rows.of`; its generators, when
    not None, pick the Z x G form.  Each distinct label node and
    (top, bottoms) pair is encoded once."""
    rows = ts if isinstance(ts, _Rows) else _Rows.of(ts, _LabelTable())
    gens = rows.generators
    text = json.dumps(dict(_head(gens), in_max=rows.in_max, outs=dict(rows.out_maxes), tiles=[]), indent=1)
    if not rows.tiles:
        write(text + "\n")
        return
    label = _label_texts(rows.labels.nodes, 3)
    cuts: dict = {}  # (top, bottoms) -> the texts before, between and after the tile's labels
    sep = text[:-len("[]\n}")] + "[\n  "
    for top, bottoms, l, r in rows.tiles:
        key = (top, bottoms)
        cut = cuts.get(key)
        if cut is None:
            # a tile's labels are its only JSON nulls
            before, _, rest = _json_text(_tile_obj(gens, top, bottoms, None, None), 2).partition('"left": null')
            between, _, after = rest.partition('"right": null')
            cut = cuts[key] = (before + '"left": ', between + '"right": ', after)
        before, between, after = cut
        write(sep + before + label(l) + between + label(r) + after)
        sep = ",\n  "
    write("\n ]\n}\n")


def tileset_to_json(ts: ZTileSet) -> str:
    """The text write_json writes for ts."""
    chunks: list[str] = []
    write_json(ts, chunks.append)
    return "".join(chunks)


def tileset_from_obj(obj: dict) -> ZTileSet:
    """Inverse of tileset_to_obj: a set over Z x G when the document has
    generators, else over Z, each tile read as the mirror of `_tile_obj`.
    One label reader, which reads each distinct JSON value once, and one bits
    memo serve the whole load; a malformed field is refused by `_json_field`."""
    if type(obj) is not dict:
        raise ValueError(f"a tile set is a JSON object, not {_shown(obj)}")
    gens = None
    if "generators" in obj:
        gens = obj["generators"]
        if type(gens) is not list or any(type(h) is not str for h in gens):
            raise ValueError(f"generators: not a JSON list of strings: {_shown(gens)}")
        gens = tuple(gens)
    in_max = _json_field(obj, "in_max", "", int)
    outs = _json_field(obj, "outs", "", dict)
    try:
        outs = _bits(outs, {})
    except ValueError as exc:
        raise ValueError(f"outs: {exc}") from None
    items = _json_field(obj, "tiles", "", list)
    order = sorted(gens or ())
    read = _obj_labels()
    bits: dict = {}
    tiles = []
    try:
        for t in items:
            if type(t) is not dict:
                _json_value(t, "", dict)
            try:  # each field is read as `key`, which names it in an error
                if gens is None:
                    top = t[(key := "top")]
                    if type(top) is not int:
                        _json_value(top, "", int)
                    bottoms = _bits(t[(key := "bottom")], bits)
                else:
                    top = _psi_top(t[(key := "psi")], bits, order)
                    bottoms = _bits(t[(key := "phi")], bits)
                tiles.append(ZTile(top, bottoms, read(t[(key := "left")]), read(t[(key := "right")])))
            except KeyError:  # t has no `key`, which _json_field refuses
                _json_field(t, key, "", object)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"tile {len(tiles)}: {exc}") from None
    return ZTileSet(in_max, outs, tuple(tiles), generators=gens)


# The benchmark harness (bench/workloads.py) calls the writer and the reader
# by these names, from when a set over Z x G was a GroupTileSet.
grouptileset_to_obj = tileset_to_obj
grouptileset_from_obj = tileset_from_obj
