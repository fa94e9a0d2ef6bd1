"""Exact algebra of partial piecewise affine rational maps in one dimension.

A map lives on a space [0, L], optionally with 0 and L identified (a circle).
It is a finite list of affine pieces with closed rational interval domains.
Everything is `fractions.Fraction`; floats are rejected at construction so no
operation can silently lose exactness.

Canonical form: pieces sorted by domain, adjacent pieces with the same
(slope, offset) merged, degenerate single-point pieces stored with slope 0 and
a normalized value, redundant ones absorbed.  Two maps are equal iff their
canonical forms are structurally identical, which makes map equality (and thus
the word problem of groups of such maps) a plain comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rat = Fraction
RatLike = Union[Fraction, int, str]


class PAMapError(Exception):
    pass


class SpaceMismatch(PAMapError):
    pass


class OutOfDomain(PAMapError):
    pass


class NotInjective(PAMapError):
    pass


class ZeroSlope(PAMapError):
    pass


class Conflict(PAMapError):
    """Two pieces assign different values to the same point."""


class UnknownGenerator(PAMapError):
    pass


def rat(x: RatLike) -> Fraction:
    """Coerce to an exact rational; floats are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def rat_str(q: Fraction) -> str:
    return str(q)


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


def merge_intervals(ivs: Iterable[Interval]) -> tuple[Interval, ...]:
    """Disjoint sorted closure of a family of closed intervals (touching merge)."""
    ivs = sorted(ivs, key=lambda i: (i.lo, i.hi))
    out: list[Interval] = []
    for iv in ivs:
        if out and iv.lo <= out[-1].hi:
            if iv.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return tuple(out)


def intersect_interval_sets(a: Sequence[Interval], b: Sequence[Interval]) -> tuple[Interval, ...]:
    out = []
    for x in a:
        for y in b:
            z = x.intersect(y)
            if z is not None:
                out.append(z)
    return merge_intervals(out)


def interval_set_contains(ivs: Sequence[Interval], x: Fraction) -> bool:
    return any(iv.contains(x) for iv in ivs)


@dataclass(frozen=True)
class Space:
    """The segment [0, length]; a circle identifies 0 with length."""

    length: Fraction
    circle: bool

    def __post_init__(self):
        object.__setattr__(self, "length", rat(self.length))
        if self.length <= 0:
            raise ValueError("space length must be positive")

    def normalize(self, x: Fraction) -> Fraction:
        """Canonical representative: [0, length) on a circle, x unchanged otherwise."""
        return x % self.length if self.circle else x

    def equiv(self, u: Fraction, v: Fraction) -> bool:
        if self.circle:
            return (u - v) % self.length == 0
        return u == v

    def whole(self) -> Interval:
        return Interval(Fraction(0), self.length)


@dataclass(frozen=True)
class AffinePiece:
    dom: Interval
    slope: Fraction
    offset: Fraction

    def __post_init__(self):
        object.__setattr__(self, "slope", rat(self.slope))
        object.__setattr__(self, "offset", rat(self.offset))

    def value_at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.offset

    def image(self) -> Interval:
        a, b = self.value_at(self.dom.lo), self.value_at(self.dom.hi)
        return Interval(min(a, b), max(a, b))


def _check_piece(space: Space, p: AffinePiece) -> None:
    whole = space.whole()
    if not (whole.contains(p.dom.lo) and whole.contains(p.dom.hi)):
        raise ValueError(f"piece domain {p.dom} outside [0, {space.length}]")
    img = p.image()
    if not (whole.contains(img.lo) and whole.contains(img.hi)):
        raise ValueError(f"piece image {img} outside [0, {space.length}]")


def _canonical_pieces(space: Space, pieces: Iterable[AffinePiece]) -> tuple[AffinePiece, ...]:
    prepared: list[AffinePiece] = []
    for p in pieces:
        _check_piece(space, p)
        if p.dom.is_point():
            v = space.normalize(p.value_at(p.dom.lo))
            prepared.append(AffinePiece(p.dom, Fraction(0), v))
        elif p.slope == 0:
            prepared.append(AffinePiece(p.dom, Fraction(0), space.normalize(p.offset)))
        else:
            prepared.append(p)

    # merge touching/overlapping pieces carrying the same affine function
    by_fn: dict[tuple[Fraction, Fraction], list[Interval]] = {}
    for p in prepared:
        by_fn.setdefault((p.slope, p.offset), []).append(p.dom)
    merged: list[AffinePiece] = []
    for (a, b), doms in by_fn.items():
        for dom in merge_intervals(doms):
            merged.append(AffinePiece(dom, a, b))
    merged.sort(key=lambda p: (p.dom.lo, p.dom.hi, p.slope, p.offset))

    # drop degenerate pieces already covered by another piece (values must agree)
    kept: list[AffinePiece] = []
    for p in merged:
        if p.dom.is_point():
            x = p.dom.lo
            covered = False
            for q in merged:
                if q is p or not q.dom.contains(x):
                    continue
                if not space.equiv(q.value_at(x), p.offset):
                    raise Conflict(f"values disagree at {x}: {q.value_at(x)} vs {p.offset}")
                if not q.dom.is_point():
                    covered = True
            if covered:
                continue
        kept.append(p)

    # remaining overlaps must be single shared endpoints with agreeing values
    for i, p in enumerate(kept):
        for q in kept[i + 1:]:
            if q.dom.lo > p.dom.hi:
                break
            ov = p.dom.intersect(q.dom)
            if ov is None:
                continue
            if not ov.is_point():
                raise Conflict(f"overlapping pieces on {ov} with different functions")
            if not space.equiv(p.value_at(ov.lo), q.value_at(ov.lo)):
                raise Conflict(
                    f"values disagree at {ov.lo}: {p.value_at(ov.lo)} vs {q.value_at(ov.lo)}"
                )

    # on a circle, 0 and length are one point: all pieces defined there must agree
    if space.circle:
        L = space.length
        at_zero = [p for p in kept if p.dom.contains(Fraction(0))]
        at_len = [p for p in kept if p.dom.contains(L)]
        for p0, pl in itertools.product(at_zero, at_len):
            if not space.equiv(p0.value_at(Fraction(0)), pl.value_at(L)):
                raise Conflict(
                    f"wrap point ill-defined: {p0.value_at(Fraction(0))} vs {pl.value_at(L)}"
                )
    return tuple(kept)


@dataclass(frozen=True)
class PAMap:
    """A partial piecewise affine map in canonical form. Use PAMap.make()."""

    space: Space
    pieces: tuple[AffinePiece, ...]

    def __post_init__(self):
        for p in self.pieces:
            _check_piece(self.space, p)

    @staticmethod
    def make(space: Space, pieces: Iterable[AffinePiece]) -> "PAMap":
        # _canonical_pieces validates every input piece, so skip __post_init__
        f = object.__new__(PAMap)
        object.__setattr__(f, "space", space)
        object.__setattr__(f, "pieces", _canonical_pieces(space, pieces))
        return f

    def domain(self) -> tuple[Interval, ...]:
        return merge_intervals(p.dom for p in self.pieces)

    def is_total(self) -> bool:
        return self.domain() == (self.space.whole(),)

    def is_empty(self) -> bool:
        return not self.pieces

    def __call__(self, x: RatLike) -> Fraction:
        return apply(self, rat(x))

    def __hash__(self):
        # maps key dicts in the word problems; hash the Fractions once
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.space, self.pieces))
            object.__setattr__(self, "_hash", h)
        return h


def identity(space: Space) -> PAMap:
    return PAMap.make(space, [AffinePiece(space.whole(), Fraction(1), Fraction(0))])


def apply(f: PAMap, x: RatLike) -> Fraction:
    """Evaluate f at x; the result is a canonical point of the space."""
    x = rat(x)
    sp = f.space
    if sp.circle:
        x = sp.normalize(x)
    elif not sp.whole().contains(x):
        raise OutOfDomain(f"{x} outside [0, {sp.length}]")
    for p in f.pieces:
        if p.dom.contains(x):
            return sp.normalize(p.value_at(x))
    if sp.circle and x == 0:
        for p in f.pieces:
            if p.dom.contains(sp.length):
                return sp.normalize(p.value_at(sp.length))
    raise OutOfDomain(f"{x} not in domain")


def _preimage(q: AffinePiece, lo: Fraction, hi: Fraction) -> Optional[Interval]:
    """Solutions x in dom(q) of q(x) in [lo, hi]."""
    if q.slope == 0:
        return q.dom if lo <= q.offset <= hi else None
    x1 = (lo - q.offset) / q.slope
    x2 = (hi - q.offset) / q.slope
    box = Interval(min(x1, x2), max(x1, x2))
    return q.dom.intersect(box)


def compose(f: PAMap, g: PAMap) -> PAMap:
    """f after g: x maps to f(g(x)), on the exact pullback domain."""
    if f.space != g.space:
        raise SpaceMismatch(f"{f.space} vs {g.space}")
    sp = f.space
    L = sp.length
    out: list[AffinePiece] = []
    for q in g.pieces:
        for p in f.pieces:
            dom = _preimage(q, p.dom.lo, p.dom.hi)
            if dom is not None:
                a = p.slope * q.slope
                b = p.slope * q.offset + p.offset
                out.append(AffinePiece(dom, a, b))
            if sp.circle:
                # hitting one representative of the wrap point counts for the other
                for target, rep in ((L, Fraction(0)), (Fraction(0), L)):
                    if not p.dom.contains(rep):
                        continue
                    pin = _preimage(q, target, target)
                    if pin is not None:
                        v = sp.normalize(p.value_at(rep))
                        out.append(AffinePiece(pin, Fraction(0), v))
    return PAMap.make(sp, out)


def invert(f: PAMap) -> PAMap:
    """Exact inverse; domain is range(f). Fails if f is not injective mod the wrap."""
    inv: list[AffinePiece] = []
    for p in f.pieces:
        if p.dom.is_point():
            v = p.value_at(p.dom.lo)
            inv.append(AffinePiece(Interval(v, v), Fraction(0), p.dom.lo))
            continue
        if p.slope == 0:
            raise ZeroSlope(f"piece on {p.dom} has slope 0")
        inv.append(AffinePiece(p.image(), 1 / p.slope, -p.offset / p.slope))
    try:
        return PAMap.make(f.space, inv)
    except Conflict as exc:
        raise NotInjective(str(exc)) from exc


def union(f: PAMap, g: PAMap) -> PAMap:
    if f.space != g.space:
        raise SpaceMismatch(f"{f.space} vs {g.space}")
    return PAMap.make(f.space, f.pieces + g.pieces)


def equals(f: PAMap, g: PAMap) -> bool:
    if f.space != g.space:
        raise SpaceMismatch(f"{f.space} vs {g.space}")
    return f.pieces == g.pieces


def is_circle_homeo(f: PAMap) -> bool:
    """Total bijection of the space (mod the wrap identification on circles)."""
    if not f.is_total():
        return False
    if any(p.slope == 0 for p in f.pieces):
        return False
    try:
        g = invert(f)
    except (NotInjective, ZeroSlope):
        return False
    return g.is_total()


@dataclass(frozen=True)
class PAGroupPresentation:
    """Named generators acting on a common space; each must be injective."""

    space: Space
    generators: tuple[tuple[str, PAMap], ...]

    @staticmethod
    def make(generators: dict[str, PAMap] | Sequence[tuple[str, PAMap]]) -> "PAGroupPresentation":
        items = tuple(generators.items()) if isinstance(generators, dict) else tuple(generators)
        if not items:
            raise ValueError("presentation needs at least one generator")
        space = items[0][1].space
        for name, m in items:
            if m.space != space:
                raise SpaceMismatch(f"generator {name} lives on a different space")
            invert(m)  # raises NotInjective / ZeroSlope on bad input
        return PAGroupPresentation(space, items)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    def map_for(self, name: str) -> PAMap:
        for n, m in self.generators:
            if n == name:
                return m
        raise UnknownGenerator(name)


Word = Sequence[tuple[str, int]]  # (generator name, +1 or -1)


def parse_word(pres: PAGroupPresentation, text: str) -> tuple[tuple[str, int], ...]:
    """Parse 'dde', \"d'e\" or 'dDe': trailing ' or an uppercased name inverts."""
    names = sorted(pres.names(), key=len, reverse=True)
    out: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        if text[i] in " ,":
            i += 1
            continue
        for name in names:
            if text.startswith(name, i):
                i += len(name)
                sign = 1
                if i < len(text) and text[i] == "'":
                    sign = -1
                    i += 1
                out.append((name, sign))
                break
            if text.startswith(name.upper(), i) and name != name.upper():
                i += len(name)
                out.append((name, -1))
                break
        else:
            raise UnknownGenerator(f"cannot read generator at ...{text[i:]!r}")
    return tuple(out)


def word_apply(pres: PAGroupPresentation, word: Word) -> PAMap:
    """Composite of the word: the rightmost symbol acts first."""
    acc = identity(pres.space)
    for name, sign in word:
        m = pres.map_for(name)
        if sign < 0:
            m = invert(m)
        acc = compose(acc, m)
    return acc


def is_identity_word(pres: PAGroupPresentation, word: Word) -> bool:
    return equals(word_apply(pres, word), identity(pres.space))


def fixed_points(f: PAMap) -> tuple[Interval, ...]:
    """Exact solution set of f(x) = x (mod the wrap on circles)."""
    sp = f.space
    L = sp.length
    ks = (-1, 0, 1) if sp.circle else (0,)
    found: list[Interval] = []
    for p in f.pieces:
        for k in ks:
            shift = k * L
            if p.slope == 1:
                if p.offset == shift:
                    found.append(p.dom)
            else:
                x = (shift - p.offset) / (p.slope - 1)
                if p.dom.contains(x):
                    x = sp.normalize(x)
                    found.append(Interval(x, x))
    return merge_intervals(found)


def periodic_points(f: PAMap, k: int) -> tuple[Interval, ...]:
    """Fixed points of the k-th compositional power; f must be total."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not f.is_total():
        raise OutOfDomain("periodic_points needs a total map")
    power = f
    for _ in range(k - 1):
        power = compose(f, power)
    return fixed_points(power)


def _atom_maps(pres: PAGroupPresentation) -> list[PAMap]:
    atoms = []
    for _, m in pres.generators:
        atoms.append(m)
        atoms.append(invert(m))
    return atoms


def enumerate_maps(pres: PAGroupPresentation, depth: int) -> list[PAMap]:
    """All distinct composites of generator/inverse words of length <= depth."""
    atoms = _atom_maps(pres)
    seen = {identity(pres.space)}
    frontier = [identity(pres.space)]
    for _ in range(depth):
        nxt = []
        for m in frontier:
            for atom in atoms:
                c = compose(atom, m)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
        if not frontier:
            break
    return sorted(seen, key=lambda m: (len(m.pieces), [(p.dom.lo, p.dom.hi, p.slope, p.offset) for p in m.pieces]))


def common_domain(pres: PAGroupPresentation, depth: int) -> tuple[Interval, ...]:
    """Outer approximation of the common domain of all composites up to depth.

    Monotone nonincreasing in depth; depth 0 is the whole space.
    """
    common: tuple[Interval, ...] = (pres.space.whole(),)
    for m in enumerate_maps(pres, depth):
        common = intersect_interval_sets(common, m.domain())
        if not common:
            break
    return common


def _candidate_points(ivs: Sequence[Interval]) -> list[Fraction]:
    pts: list[Fraction] = []
    for iv in ivs:
        span = iv.hi - iv.lo
        pts.extend([iv.lo, iv.hi, iv.lo + span / 2, iv.lo + span / 3, iv.lo + 2 * span / 3])
    seen = set()
    out = []
    for p in sorted(pts):
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def nontriviality_witness(pres: PAGroupPresentation, word: Word, budget: int) -> Optional[Fraction]:
    """Search for t with g(f(t)) != f(t) for some composite f; None means unknown.

    A returned t survives every domain restriction enumerated up to the budget
    depth, so it witnesses that the word acts nontrivially on the common domain.
    """
    g = word_apply(pres, word)
    for depth in range(1, budget + 1):
        maps = enumerate_maps(pres, depth)
        common: tuple[Interval, ...] = (pres.space.whole(),)
        for m in maps:
            common = intersect_interval_sets(common, m.domain())
        for t in _candidate_points(common):
            for f in maps:
                try:
                    s = apply(f, t)
                    gs = apply(g, s)
                except OutOfDomain:
                    continue
                if not pres.space.equiv(gs, s):
                    return t
    return None


# ---------------------------------------------------------------------------
# JSON forms: rationals are exact "p/q" strings.

def pamap_to_obj(f: PAMap) -> dict:
    return {
        "space": {"length": rat_str(f.space.length), "circle": f.space.circle},
        "pieces": [
            {"dom": [rat_str(p.dom.lo), rat_str(p.dom.hi)], "a": rat_str(p.slope), "b": rat_str(p.offset)}
            for p in f.pieces
        ],
    }


def pamap_from_obj(obj: dict) -> PAMap:
    sp = Space(rat(obj["space"]["length"]), bool(obj["space"]["circle"]))
    pieces = [
        AffinePiece(Interval(rat(p["dom"][0]), rat(p["dom"][1])), rat(p["a"]), rat(p["b"]))
        for p in obj["pieces"]
    ]
    return PAMap.make(sp, pieces)


def presentation_to_obj(pres: PAGroupPresentation) -> dict:
    return {name: pamap_to_obj(m) for name, m in pres.generators}


def presentation_from_obj(obj: dict) -> PAGroupPresentation:
    return PAGroupPresentation.make([(name, pamap_from_obj(m)) for name, m in obj.items()])
