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

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

Rat = Fraction
RatLike = Union[Fraction, int, str]
PieceTuple = tuple[Fraction, Fraction, Fraction, Fraction]  # (lo, hi, slope, offset)

_ZERO = Fraction(0)
_new = object.__new__


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
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
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
        return _interval(lo, hi) if lo <= hi else None

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


def merge_intervals(ivs: Iterable[Interval]) -> tuple[Interval, ...]:
    """Disjoint sorted closure of a family of closed intervals (touching merge)."""
    ivs = sorted(ivs, key=lambda i: (i.lo, i.hi))
    out: list[Interval] = []
    for iv in ivs:
        if out and iv.lo <= out[-1].hi:
            if iv.hi > out[-1].hi:
                out[-1] = _interval(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return tuple(out)


def intersect_interval_sets(a: Sequence[Interval], b: Sequence[Interval]) -> tuple[Interval, ...]:
    """Intersection of two outputs of `merge_intervals` (sorted, never
    touching), in one sweep over both."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        lo = x.lo if x.lo >= y.lo else y.lo
        if x.hi <= y.hi:
            hi = x.hi
            i += 1
        else:
            hi = y.hi
            j += 1
        if lo <= hi:
            out.append(_interval(lo, hi))
    return tuple(out)


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
        return _interval(_ZERO, self.length)


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


def _interval(lo: Fraction, hi: Fraction) -> Interval:
    """Trusted Interval: lo <= hi are Fractions already."""
    iv = _new(Interval)
    d = iv.__dict__
    d["lo"] = lo
    d["hi"] = hi
    return iv


def _piece(lo: Fraction, hi: Fraction, a: Fraction, b: Fraction) -> AffinePiece:
    """Trusted AffinePiece from a (lo, hi, slope, offset) tuple of Fractions."""
    p = _new(AffinePiece)
    d = p.__dict__
    d["dom"] = _interval(lo, hi)
    d["slope"] = a
    d["offset"] = b
    return p


def _check_piece(L: Fraction, lo: Fraction, hi: Fraction, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """Range check of one piece; returns its values at lo and hi, one object
    for both when the piece is a point or constant.  Signs are read off
    numerators, which is exact and cheaper than comparing with 0."""
    if lo.numerator < 0 or hi > L:
        raise ValueError(f"piece domain [{lo}, {hi}] outside [0, {L}]")
    if not a:
        va = vb = ilo = ihi = b
    elif lo == hi:
        va = vb = ilo = ihi = a * lo + b
    else:
        va = a * lo + b
        vb = a * hi + b
        ilo, ihi = (va, vb) if a.numerator > 0 else (vb, va)
    if ilo.numerator < 0 or ihi > L:
        raise ValueError(f"piece image [{ilo}, {ihi}] outside [0, {L}]")
    return va, vb


def _canonical(space: Space, pieces: Iterable[PieceTuple]) -> tuple[AffinePiece, ...]:
    """Canonical pieces of a list of (lo, hi, slope, offset) Fraction tuples.

    Every piece is range-checked first, in input order.  Each piece then
    carries its values at lo and hi, so the merge, the covered-point drop and
    the overlap and wrap checks rarely evaluate a piece again.
    """
    L = space.length
    circle = space.circle
    by_fn: dict[tuple[Fraction, Fraction], list[PieceTuple]] = {}
    for lo, hi, a, b in pieces:
        va, vb = _check_piece(L, lo, hi, a, b)
        if va is vb:  # a point or a constant: slope 0 and a normalized value
            if circle and va == L:
                va = vb = _ZERO
            a, b = _ZERO, va
        by_fn.setdefault((a, b), []).append((lo, hi, va, vb))

    # merge touching/overlapping pieces carrying the same affine function
    merged: list[tuple[Fraction, ...]] = []  # (lo, hi, slope, offset, value at lo, value at hi)
    for (a, b), doms in by_fn.items():
        if len(doms) > 1:
            doms.sort()
        lo, hi, va, vb = doms[0]
        for lo2, hi2, va2, vb2 in doms[1:]:
            if lo2 <= hi:
                if hi2 > hi:
                    hi, vb = hi2, vb2
            else:
                merged.append((lo, hi, a, b, va, vb))
                lo, hi, va, vb = lo2, hi2, va2, vb2
        merged.append((lo, hi, a, b, va, vb))
    merged.sort()

    # drop degenerate pieces already covered by another piece (values must agree)
    kept = merged
    if any(p[0] == p[1] for p in merged):
        kept = []
        for i, p in enumerate(merged):
            x, x_hi, _, v, _, _ = p
            if x == x_hi:
                covered = False
                for j, (lo, hi, a, b, va, vb) in enumerate(merged):
                    if j > i and lo != x:
                        break  # sorted by lo: no later piece contains x
                    if j == i or hi < x:
                        continue
                    w = va if lo == x else vb if hi == x else a * x + b
                    if w != v and (not circle or (w - v) % L):
                        raise Conflict(f"values disagree at {x}: {w} vs {v}")
                    if lo != hi:
                        covered = True
                if covered:
                    continue
            kept.append(p)

    # remaining overlaps must be single shared endpoints with agreeing values
    for i, (plo, phi, pa, pb, _, pv) in enumerate(kept):
        for qlo, qhi, qa, qb, qv, _ in kept[i + 1:]:
            if qlo > phi:
                break
            if phi <= qhi:
                if qlo != phi:
                    raise Conflict(f"overlapping pieces on [{qlo}, {phi}] with different functions")
                u, w = pv, qv
            else:
                if qlo != qhi:
                    raise Conflict(f"overlapping pieces on [{qlo}, {qhi}] with different functions")
                u, w = pa * qlo + pb, qv
            if u != w and (not circle or (u - w) % L):
                raise Conflict(f"values disagree at {qlo}: {u} vs {w}")

    # on a circle, 0 and length are one point: all pieces defined there must agree
    if circle and kept:
        at_zero = [va for lo, _, _, _, va, _ in kept if not lo]
        if at_zero:
            at_len = [vb for _, hi, _, _, _, vb in kept if hi == L]
            for u in at_zero:
                for w in at_len:
                    if u != w and (u - w) % L:
                        raise Conflict(f"wrap point ill-defined: {u} vs {w}")
    return tuple([_piece(lo, hi, a, b) for lo, hi, a, b, _, _ in kept])


@dataclass(frozen=True)
class PAMap:
    """A partial piecewise affine map in canonical form.  PAMap(space, pieces)
    stores the canonical form of its pieces, as PAMap.make does."""

    space: Space
    pieces: tuple[AffinePiece, ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", _canonical(self.space, _tuples(self)))

    @staticmethod
    def make(space: Space, pieces: Iterable[AffinePiece]) -> "PAMap":
        return _make(space, [(p.dom.lo, p.dom.hi, p.slope, p.offset) for p in pieces])

    def domain(self) -> tuple[Interval, ...]:
        return merge_intervals(p.dom for p in self.pieces)

    def is_total(self) -> bool:
        return self.domain() == (self.space.whole(),)

    def __call__(self, x: RatLike) -> Fraction:
        return apply(self, rat(x))

    def __hash__(self):
        # maps key dicts in the word problems; hash the Fractions once
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.space, self.pieces))
            object.__setattr__(self, "_hash", h)
        return h


def _make(space: Space, pieces: Iterable[PieceTuple]) -> PAMap:
    # _canonical validates every input piece, so skip __post_init__
    f = _new(PAMap)
    d = f.__dict__
    d["space"] = space
    d["pieces"] = _canonical(space, pieces)
    return f


def _tuples(f: PAMap) -> list[PieceTuple]:
    return [(p.dom.lo, p.dom.hi, p.slope, p.offset) for p in f.pieces]


def identity(space: Space) -> PAMap:
    return _make(space, [(_ZERO, space.length, Fraction(1), _ZERO)])


def apply(f: PAMap, x: RatLike) -> Fraction:
    """Evaluate f at x; the result is a canonical point of the space."""
    x = rat(x)
    sp = f.space
    if sp.circle:
        x = sp.normalize(x)
    elif not 0 <= x <= sp.length:
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
    circle = sp.circle
    fs = _tuples(f)
    if circle:
        # f's values at 0 and at L; hitting one representative of the wrap
        # point counts for the other
        at_zero = [pb if pb != L else _ZERO for plo, _, _, pb in fs if not plo]
        at_len = [v if v != L else _ZERO for v in (pa * L + pb for _, phi, pa, pb in fs if phi == L)]
    out: list[PieceTuple] = []
    for ql, qh, qa, qb in _tuples(g):
        # q's image [ylo, yhi], and where q reaches L and 0
        if not qa:
            ylo = yhi = qb
            if circle:
                pin_len = (ql, qh) if qb == L else None
                pin_zero = (ql, qh) if not qb else None
        else:
            y0 = qa * ql + qb
            y1 = qa * qh + qb
            ylo, yhi = (y0, y1) if qa.numerator > 0 else (y1, y0)
            if circle:
                pin_len = ((ql, ql) if y0 == L else (qh, qh)) if yhi == L else None
                pin_zero = ((ql, ql) if not y0 else (qh, qh)) if not ylo else None
        for plo, phi, pa, pb in fs:
            if phi < ylo or plo > yhi:
                continue  # f's piece misses q's image; a PAMap built directly may be unsorted
            # the preimage of [plo, phi] under q, cut to q's domain
            if not qa:
                lo, hi = ql, qh
            elif qa.numerator > 0:
                lo = ql if plo <= ylo else (plo - qb) / qa
                hi = qh if phi >= yhi else (phi - qb) / qa
            else:
                lo = ql if phi >= yhi else (phi - qb) / qa
                hi = qh if plo <= ylo else (plo - qb) / qa
            out.append((lo, hi, pa * qa, pa * qb + pb))
        if circle:
            if pin_len is not None:
                out.extend((*pin_len, _ZERO, v) for v in at_zero)
            if pin_zero is not None:
                out.extend((*pin_zero, _ZERO, v) for v in at_len)
    return _make(sp, out)


def invert(f: PAMap) -> PAMap:
    """Exact inverse; domain is range(f). Fails if f is not injective mod the wrap."""
    inv: list[PieceTuple] = []
    for p in f.pieces:
        lo, hi, a, b = p.dom.lo, p.dom.hi, p.slope, p.offset
        if lo == hi:
            v = a * lo + b
            inv.append((v, v, _ZERO, lo))
            continue
        if not a:
            raise ZeroSlope(f"piece on {p.dom} has slope 0")
        va = a * lo + b
        vb = a * hi + b
        inv.append((va, vb, 1 / a, -b / a) if a > 0 else (vb, va, 1 / a, -b / a))
    try:
        return _make(f.space, inv)
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
    """Named generators acting on a common space; each must be injective.
    letters[i] is the i-th generator (from 1) and letters[-i] its inverse."""

    space: Space
    generators: tuple[tuple[str, PAMap], ...]
    letters: dict[int, PAMap] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        letters = {}
        for i, (name, m) in enumerate(self.generators, start=1):
            if m.space != self.space:
                raise SpaceMismatch(f"generator {name} lives on a different space")
            letters[i] = m
            letters[-i] = invert(m)  # raises NotInjective / ZeroSlope on bad input
        object.__setattr__(self, "letters", letters)

    @staticmethod
    def make(generators: dict[str, PAMap] | Sequence[tuple[str, PAMap]]) -> "PAGroupPresentation":
        items = tuple(generators.items()) if isinstance(generators, dict) else tuple(generators)
        if not items:
            raise ValueError("presentation needs at least one generator")
        return PAGroupPresentation(items[0][1].space, items)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    def letter(self, name: str, sign: int) -> int:
        """Signed index of (name, sign): -i inverts the i-th generator when sign < 0."""
        for i, (n, _) in enumerate(self.generators, start=1):
            if n == name:
                return -i if sign < 0 else i
        raise UnknownGenerator(name)

    def map_for(self, name: str) -> PAMap:
        return self.letters[self.letter(name, 1)]


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


def composites(pres: PAGroupPresentation) -> Callable[[tuple[int, ...]], tuple[PAMap, bool]]:
    """(f_s1 o ... o f_sk, is it total) for each word (s1, ..., sk) of signed
    indices into `pres.letters`, memoized by word and by (map, letter): a
    prefix-closed set of words such as a ball costs one composition per
    (element, letter) it reaches.  Every word this package decides goes here."""
    by_word: dict[tuple[int, ...], tuple[PAMap, bool]] = {(): (identity(pres.space), True)}
    by_step: dict[tuple[PAMap, int], tuple[PAMap, bool]] = {}

    def composite(w: tuple[int, ...]) -> tuple[PAMap, bool]:
        k = len(w)
        while w[:k] not in by_word:
            k -= 1
        m, total = by_word[w[:k]]
        for s in w[k:]:
            key = (m, s)
            if key not in by_step:
                c = compose(m, pres.letters[s])
                by_step[key] = (c, c.is_total())
            m, total = by_step[key]
        by_word[w] = m, total
        return m, total

    return composite


def word_apply(pres: PAGroupPresentation, word: Word) -> PAMap:
    """Composite of the word: the rightmost symbol acts first."""
    return composites(pres)(tuple(pres.letter(n, s) for n, s in word))[0]


def is_identity_word(pres: PAGroupPresentation, word: Word) -> bool:
    return composites(pres)(tuple(pres.letter(n, s) for n, s in word)) == (identity(pres.space), True)


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


def _levels(pres: PAGroupPresentation, depth: int) -> Iterator[list[PAMap]]:
    """The new composites of each word length 0..depth; stops at a length that adds none."""
    frontier = [identity(pres.space)]
    seen = set(frontier)
    yield frontier
    for _ in range(depth):
        nxt = []
        for m in frontier:
            for atom in pres.letters.values():
                c = compose(atom, m)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        if not nxt:
            return
        yield nxt
        frontier = nxt


def enumerate_maps(pres: PAGroupPresentation, depth: int) -> list[PAMap]:
    """All distinct composites of generator/inverse words of length <= depth."""
    maps = [m for level in _levels(pres, depth) for m in level]
    return sorted(maps, key=lambda m: (len(m.pieces), [(p.dom.lo, p.dom.hi, p.slope, p.offset) for p in m.pieces]))


def common_domain(pres: PAGroupPresentation, depth: int) -> tuple[Interval, ...]:
    """Outer approximation of the common domain of all composites up to depth.

    Monotone nonincreasing in depth; depth 0 is the whole space.
    """
    common: tuple[Interval, ...] = (pres.space.whole(),)
    for level in _levels(pres, depth):
        for m in level:
            common = intersect_interval_sets(common, m.domain())
            if not common:
                return common
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
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    g = word_apply(pres, word)
    levels = _levels(pres, budget)
    maps = list(next(levels))  # the identity, defined everywhere
    common: tuple[Interval, ...] = (pres.space.whole(),)
    checked = None  # common at the last level searched: no map so far finds a t among its candidates
    for level in levels:  # lengths 1..budget, each composed once
        maps += level
        for m in level:
            common = intersect_interval_sets(common, m.domain())
        # with the candidates unchanged, only the new maps can find a t
        tried = level if common == checked else maps
        checked = common
        for t in _candidate_points(common):
            for f in tried:
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


_JSON_NAMES = {dict: "object", list: "list", str: "string", int: "integer", bool: "boolean"}


def _shown(v) -> str:
    """v as JSON text, shortened, for an error message."""
    text = json.dumps(v, default=repr)
    return text if len(text) <= 60 else text[:57] + "..."


def _json_value(v, path: str, kind: type):
    """v as the JSON type `kind`: dict, list, str, int or bool (a bool is no
    integer), or Fraction for a rational, which is a "p/q" string or a JSON
    integer.  The ValueError names the field by its `path`."""
    if kind is Fraction:
        if type(v) is not str and type(v) is not int:
            raise ValueError(f"{path}: not a rational string or JSON integer: {_shown(v)}")
        try:
            return rat(v)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if type(v) is not kind:
        raise ValueError(f"{path}: not a JSON {_JSON_NAMES[kind]}: {_shown(v)}")
    return v


def _json_field(obj: dict, key: str, prefix: str, kind: type):
    """obj[key] as the JSON type `kind`; `prefix` is the path of obj."""
    path = f"{prefix}.{key}" if prefix else key
    if key not in obj:
        raise ValueError(f"missing field {path!r}")
    return _json_value(obj[key], path, kind)


def pamap_from_obj(obj) -> PAMap:
    """The map of a JSON form; malformed input raises a ValueError naming the field."""
    sp = _json_field(_json_value(obj, "map", dict), "space", "", dict)
    space = Space(_json_field(sp, "length", "space", Fraction), _json_field(sp, "circle", "space", bool))
    pieces = []
    for i, p in enumerate(_json_field(obj, "pieces", "", list)):
        path = f"pieces[{i}]"
        dom = _json_field(_json_value(p, path, dict), "dom", path, list)
        if len(dom) != 2:
            raise ValueError(f"{path}.dom: not a list of two rationals: {_shown(dom)}")
        lo, hi = (_json_value(v, f"{path}.dom", Fraction) for v in dom)
        a, b = (_json_field(p, key, path, Fraction) for key in "ab")
        pieces.append(AffinePiece(Interval(lo, hi), a, b))
    return PAMap.make(space, pieces)


def presentation_to_obj(pres: PAGroupPresentation) -> dict:
    return {name: pamap_to_obj(m) for name, m in pres.generators}


def presentation_from_obj(obj) -> PAGroupPresentation:
    """The presentation of a JSON object mapping generator names to maps; a
    ValueError names the generator and the field at fault."""
    gens = []
    for name, m in _json_value(obj, "presentation", dict).items():
        try:
            gens.append((name, pamap_from_obj(m)))
        except ValueError as exc:
            raise ValueError(f"generator {name}: {exc}") from None
    return PAGroupPresentation.make(gens)
