"""Exact algebra of partial piecewise affine rational maps in one dimension.

A map lives on a space [0, L], optionally with 0 and L identified (a circle).
It is a finite list of affine pieces with closed rational interval domains.
The API speaks `fractions.Fraction`; floats are rejected at construction so no
operation can silently lose exactness.

Inside, every rational is a reduced (numerator, denominator) int pair with
denominator > 0, and a map is a tuple of rows: its pieces' (lo, hi, slope,
offset) as four such pairs, flattened to eight ints.  Equal rationals have
equal pairs, so equal pieces have equal rows.  `compose`, `invert`, `apply`
and the canonical form run on the rows; `PAMap.pieces` builds `AffinePiece`
objects from them on first use.

Canonical form: pieces sorted by domain, adjacent pieces with the same
(slope, offset) merged, degenerate single-point pieces stored with slope 0 and
a normalized value, redundant ones absorbed.  Two maps are equal iff their
canonical forms are structurally identical, which makes map equality (and thus
the word problem of groups of such maps) a plain comparison.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

RatLike = Union[Fraction, int, str]
Pair = tuple[int, int]  # a rational as (numerator, denominator), reduced, denominator > 0
Row = tuple[int, int, int, int, int, int, int, int]  # lo, hi, slope, offset as flattened pairs
Span = tuple[int, int, int, int]  # a closed interval [lo, hi] as flattened pairs

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


# ---------------------------------------------------------------------------
# Rationals as reduced int pairs.  Comparisons cross-multiply, which is exact
# because denominators are positive.


def _str(n: int, d: int) -> str:
    """n/d printed as str(Fraction(n, d)) prints it."""
    return str(n) if d == 1 else f"{n}/{d}"


def _mul(an: int, ad: int, bn: int, bd: int) -> Pair:
    """a * b."""
    n = an * bn
    d = ad * bd
    g = gcd(n, d)
    return n // g, d // g


def _at(an: int, ad: int, xn: int, xd: int, bn: int, bd: int) -> Pair:
    """a * x + b."""
    d = ad * xd
    n = an * xn * bd + bn * d
    d *= bd
    g = gcd(n, d)
    return n // g, d // g


def _solve(an: int, ad: int, bn: int, bd: int, yn: int, yd: int) -> Pair:
    """The x with a * x + b = y, for a != 0."""
    n = (yn * bd - bn * yd) * ad
    d = yd * bd * an
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return n // g, d // g


def _mod(xn: int, xd: int, Ln: int, Ld: int) -> Pair:
    """x mod L, in [0, L)."""
    if xn >= 0 and xn * Ld < Ln * xd:
        return xn, xd
    n = xn * Ld - (xn * Ld) // (xd * Ln) * Ln * xd
    d = xd * Ld
    g = gcd(n, d)
    return n // g, d // g


def _equiv(u: Pair, w: Pair, Ln: int, Ld: int) -> bool:
    """u - w is a multiple of L."""
    (un, ud), (wn, wd) = u, w
    return (un * wd - wn * ud) * Ld % (ud * wd * Ln) == 0


def _exact_key(rows: Sequence[tuple[int, ...]], width: int) -> Callable:
    """Sort key for rows that start with `width` (1 or 4) rationals as (num,
    den) pairs: each is scaled to the rows' common denominator, so the
    integer keys sort in the exact rational order of those rationals."""
    D = lcm(*[r[k] for r in rows for k in range(1, 2 * width, 2)])
    if width == 1:
        return lambda r: r[0] * (D // r[1])
    return lambda r: (r[0] * (D // r[1]), r[2] * (D // r[3]), r[4] * (D // r[5]), r[6] * (D // r[7]))


def _union(ivs: Iterable[Span]) -> list[Span]:
    """Touching-merge of closed intervals given in order of lo."""
    out: list[Span] = []
    for lon, lod, hin, hid in ivs:
        if out:
            cln, cld, chn, chd = out[-1]
            if lon * chd <= chn * lod:
                if hin * chd > chn * hid:
                    out[-1] = (cln, cld, hin, hid)
                continue
        out.append((lon, lod, hin, hid))
    return out


def _intersect(a: Sequence[Span], b: Sequence[Span]) -> list[Span]:
    """Intersection of two outputs of `_union` (sorted, never touching), in
    one sweep over both."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        xln, xld, xhn, xhd = a[i]
        yln, yld, yhn, yhd = b[j]
        lon, lod = (xln, xld) if xln * yld >= yln * xld else (yln, yld)
        if xhn * yhd <= yhn * xhd:
            hin, hid = xhn, xhd
            i += 1
        else:
            hin, hid = yhn, yhd
            j += 1
        if lon * hid <= hin * lod:
            out.append((lon, lod, hin, hid))
    return out


def _domain(core: Sequence[Row]) -> list[Span]:
    """The merged domain of canonical rows, which are sorted by lo."""
    return _union([r[:4] for r in core])


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


def _interval(lo: Fraction, hi: Fraction) -> Interval:
    """Trusted Interval: lo <= hi are Fractions already."""
    iv = _new(Interval)
    d = iv.__dict__
    d["lo"] = lo
    d["hi"] = hi
    return iv


def _intervals(ivs: Iterable[Span]) -> tuple[Interval, ...]:
    return tuple([_interval(Fraction(lon, lod), Fraction(hin, hid)) for lon, lod, hin, hid in ivs])


@dataclass(frozen=True)
class Space:
    """The segment [0, length]; a circle identifies 0 with length."""

    length: Fraction
    circle: bool
    _L: Pair = field(init=False, compare=False, repr=False)  # length as a reduced int pair

    def __post_init__(self):
        object.__setattr__(self, "length", rat(self.length))
        if self.length <= 0:
            raise ValueError("space length must be positive")
        object.__setattr__(self, "_L", self.length.as_integer_ratio())

    def normalize(self, x: Fraction) -> Fraction:
        """Canonical representative: [0, length) on a circle, x unchanged otherwise."""
        return x % self.length if self.circle else x

    def equiv(self, u: Fraction, v: Fraction) -> bool:
        if self.circle:
            return (u - v) % self.length == 0
        return u == v


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


def _row(p: AffinePiece) -> Row:
    lo, hi, a, b = p.dom.lo, p.dom.hi, p.slope, p.offset
    return (lo.numerator, lo.denominator, hi.numerator, hi.denominator,
            a.numerator, a.denominator, b.numerator, b.denominator)


def _piece(r: Row) -> AffinePiece:
    """Trusted AffinePiece of a canonical row."""
    lon, lod, hin, hid, an, ad, bn, bd = r
    p = _new(AffinePiece)
    d = p.__dict__
    d["dom"] = _interval(Fraction(lon, lod), Fraction(hin, hid))
    d["slope"] = Fraction(an, ad)
    d["offset"] = Fraction(bn, bd)
    return p


def _prepared(space: Space, rows: Iterable[Row]) -> Iterator[tuple]:
    """Each row range-checked, in input order, as (*domain, *function, value
    at lo, value at hi).  The function is the row's (slope, offset), or
    (0, v) for a point or a constant, with v normalized on a circle."""
    Ln, Ld = space._L
    circle = space.circle
    for lon, lod, hin, hid, an, ad, bn, bd in rows:
        if lon < 0 or hin * Ld > Ln * hid:
            raise ValueError(f"piece domain [{_str(lon, lod)}, {_str(hin, hid)}] outside [0, {_str(Ln, Ld)}]")
        point = not an or (lon == hin and lod == hid)
        if not an:
            va = vb = ilo = ihi = (bn, bd)
        elif point:
            va = vb = ilo = ihi = _at(an, ad, lon, lod, bn, bd)
        else:
            va = _at(an, ad, lon, lod, bn, bd)
            vb = _at(an, ad, hin, hid, bn, bd)
            ilo, ihi = (va, vb) if an > 0 else (vb, va)
        if ilo[0] < 0 or ihi[0] * Ld > Ln * ihi[1]:
            raise ValueError(f"piece image [{_str(*ilo)}, {_str(*ihi)}] outside [0, {_str(Ln, Ld)}]")
        if point:  # a point or a constant: slope 0 and a normalized value
            if circle and va[0] == Ln and va[1] == Ld:
                va = vb = (0, 1)
            yield lon, lod, hin, hid, 0, 1, va[0], va[1], va, vb
        else:
            yield lon, lod, hin, hid, an, ad, bn, bd, va, vb


def _canonical(space: Space, rows: Sequence[Row]) -> tuple[Row, ...]:
    """Canonical rows of a list of rows.

    Each row is range-checked in input order, before any other error is
    raised, and carries its values at lo and hi.  Rows that arrive sorted by
    lo and meet only at endpoints, as `compose` and `invert` hand them over,
    are canonical after one sweep: it merges touching rows of one function,
    drops a point that a piece covers at a junction, and checks the values
    at each junction and across the wrap.  Any other list (unsorted or
    overlapping) takes `_canonical_general`, and so does a sorted list whose
    values disagree somewhere, so every `Conflict` is raised there, with one
    text whichever path the list started on.
    """
    Ln, Ld = space._L
    circle = space.circle
    # a row of `kept` is (*row, value at lo, value at hi); lo strictly rises
    kept: list[tuple] = []
    for r in _prepared(space, rows):
        if not kept:
            kept.append(r)
            continue
        lon, lod, hin, hid, an, ad, bn, bd, va, vb = r
        plon, plod, phin, phid, pan, pad, pbn, pbd, pva, pvb = kept[-1]
        after = lon * phid - phin * lod  # the sign of lo - p's hi
        if after > 0:
            kept.append(r)
        elif bn == pbn and an == pan and bd == pbd and ad == pad and lon * plod >= plon * lod:
            # p's function, starting inside p or at its hi: merge
            if hin * phid > phin * hid:
                kept[-1] = (plon, plod, hin, hid, an, ad, bn, bd, pva, vb)
        elif after or (va != pvb and (not circle or not _equiv(va, pvb, Ln, Ld))):
            return _canonical_general(space, rows)
        elif lon == hin and lod == hid:
            continue  # a point at the junction, covered by p
        elif plon == phin and plod == phid:
            kept[-1] = r  # p is a point at the junction, covered by this row
        else:
            kept.append(r)
    # on a circle, 0 and length are one point: only the first row can start
    # at 0, and only the last can end at length
    if circle and kept and not kept[0][0] and kept[-1][2] == Ln and kept[-1][3] == Ld:
        u, w = kept[0][8], kept[-1][9]
        if u != w and not _equiv(u, w, Ln, Ld):
            return _canonical_general(space, rows)
    return tuple([r[:8] for r in kept])


def _canonical_general(space: Space, rows: Iterable[Row]) -> tuple[Row, ...]:
    """Canonical rows of any list of rows, whatever their order and overlaps,
    in the steps of the object reference: rows of one function are merged,
    then all are sorted, points covered by another piece dropped, and every
    remaining overlap and the wrap checked."""
    Ln, Ld = space._L

    def same(u: Pair, w: Pair) -> bool:
        """u and w are one point of the space."""
        return u == w or space.circle and _equiv(u, w, Ln, Ld)

    by_fn: dict[tuple, list[Span]] = {}
    for r in _prepared(space, rows):
        by_fn.setdefault(r[4:8], []).append(r[:4])
    merged = [(*dom, *fn) for fn, doms in by_fn.items()
              for dom in _union(sorted(doms, key=_exact_key(doms, 1)))]
    merged.sort(key=_exact_key(merged, 4))

    # drop points already covered by another piece (values must agree)
    kept = []
    for p in merged:
        xn, xd, hn, hd, _, _, vn, vd = p
        covered = False
        if xn == hn and xd == hd:
            for q in merged:
                lon, lod, hin, hid, an, ad, bn, bd = q
                if q is p or lon * xd > xn * lod or hin * xd < xn * hid:
                    continue
                w = _at(an, ad, xn, xd, bn, bd)
                if not same(w, (vn, vd)):
                    raise Conflict(f"values disagree at {_str(xn, xd)}: {_str(*w)} vs {_str(vn, vd)}")
                covered = covered or lon != hin or lod != hid
        if not covered:
            kept.append(p)

    # remaining overlaps must be single shared endpoints with agreeing values
    for i, (_, _, phn, phd, pan, pad, pbn, pbd) in enumerate(kept):
        for qln, qld, qhn, qhd, qan, qad, qbn, qbd in kept[i + 1:]:
            if qln * phd > phn * qld:
                break
            hn, hd = (qhn, qhd) if qhn * phd < phn * qhd else (phn, phd)
            if qln != hn or qld != hd:
                raise Conflict(f"overlapping pieces on [{_str(qln, qld)}, {_str(hn, hd)}]"
                               " with different functions")
            u, w = _at(pan, pad, qln, qld, pbn, pbd), _at(qan, qad, qln, qld, qbn, qbd)
            if not same(u, w):
                raise Conflict(f"values disagree at {_str(qln, qld)}: {_str(*u)} vs {_str(*w)}")

    # on a circle, 0 and length are one point: all pieces defined there must agree
    if space.circle:
        at_len = [_at(*r[4:6], Ln, Ld, *r[6:]) for r in kept if r[2] == Ln and r[3] == Ld]
        for u in [r[6:] for r in kept if not r[0]]:  # a row's value at 0 is its offset
            for w in at_len:
                if not same(u, w):
                    raise Conflict(f"wrap point ill-defined: {_str(*u)} vs {_str(*w)}")
    return tuple(kept)


@dataclass(frozen=True)
class PAMap:
    """A partial piecewise affine map in canonical form.  PAMap(space, pieces)
    stores the canonical form of its pieces, as PAMap.make does.  Equality
    and hashing compare the canonical rows; `pieces` is built from them on
    first use."""

    space: Space
    pieces: tuple[AffinePiece, ...]

    def __post_init__(self):
        d = self.__dict__
        d["_core"] = _canonical(self.space, [_row(p) for p in d.pop("pieces")])

    def __getattr__(self, name: str):
        # only reached when `name` is not set: build `pieces` from the rows
        core = self.__dict__.get("_core")
        if name != "pieces" or core is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        pieces = self.__dict__["pieces"] = tuple([_piece(r) for r in core])
        return pieces

    @staticmethod
    def make(space: Space, pieces: Iterable[AffinePiece]) -> "PAMap":
        return _make(space, [_row(p) for p in pieces])

    def domain(self) -> tuple[Interval, ...]:
        return _intervals(_domain(self._core))

    def is_total(self) -> bool:
        return _domain(self._core) == [(0, 1, *self.space._L)]

    def __eq__(self, other):
        if other.__class__ is not PAMap:
            return NotImplemented
        return self._core == other._core and (self.space is other.space or self.space == other.space)

    def __hash__(self):
        # maps key dicts in the word problems; hash the rows once
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.space, self._core))
            self.__dict__["_hash"] = h
        return h


def _wrap(space: Space, core: tuple[Row, ...]) -> PAMap:
    """Trusted PAMap of canonical rows."""
    f = _new(PAMap)
    d = f.__dict__
    d["space"] = space
    d["_core"] = core
    return f


def _make(space: Space, rows: Sequence[Row]) -> PAMap:
    return _wrap(space, _canonical(space, rows))


def _identity_row(space: Space) -> Row:
    """x -> x on the whole space: the identity's one canonical row."""
    return (0, 1, *space._L, 1, 1, 0, 1)


def identity(space: Space) -> PAMap:
    return _make(space, [_identity_row(space)])


def _value(f: PAMap, xn: int, xd: int) -> Optional[Pair]:
    """f at x, None off f's domain.  On a circle, x and the value are read
    mod L, and f's rows across the wrap point (`_across_wrap`)."""
    sp = f.space
    Ln, Ld = sp._L
    circle = sp.circle
    if circle:
        xn, xd = _mod(xn, xd, Ln, Ld)
    for lon, lod, hin, hid, an, ad, bn, bd in _across_wrap(f._core, sp):
        if lon * xd > xn * lod:
            break  # sorted by lo: no later piece contains x
        if xn * hid <= hin * xd:
            return _mod(*_at(an, ad, xn, xd, bn, bd), Ln, Ld) if circle else _at(an, ad, xn, xd, bn, bd)
    return None


def apply(f: PAMap, x: RatLike) -> Fraction:
    """Evaluate f at x; the result is a canonical point of the space."""
    x = rat(x)
    sp = f.space
    if not sp.circle and not 0 <= x <= sp.length:
        raise OutOfDomain(f"{x} outside [0, {sp.length}]")
    v = _value(f, x.numerator, x.denominator)
    if v is None:
        raise OutOfDomain(f"{sp.normalize(x)} not in domain")
    return Fraction(*v)


def _across_wrap(fs: tuple[Row, ...], space: Space) -> tuple[Row, ...]:
    """A map's canonical rows `fs`, extended across the wrap point of a
    circle: where the map is defined at just one of 0 and L, one point row
    gives the other end the map's value there.  A canonical map defined at
    both already agrees across the wrap; on a segment nothing is added."""
    if not space.circle or not fs:
        return fs
    Ln, Ld = space._L
    at_zero = not fs[0][0]  # only the first row can start at 0
    if fs[-1][2] == Ln and fs[-1][3] == Ld:  # only the last can end at L
        if at_zero:
            return fs
        _, _, _, _, an, ad, bn, bd = fs[-1]
        return ((0, 1, 0, 1, 0, 1, *_at(an, ad, Ln, Ld, bn, bd)),) + fs
    if at_zero:
        return fs + ((Ln, Ld, Ln, Ld, 0, 1, *fs[0][6:]),)  # the first row's value at 0 is its offset
    return fs


def compose(f: PAMap, g: PAMap) -> PAMap:
    """f after g: x maps to f(g(x)), on the exact pullback domain.  One loop
    serves both spaces: on a circle, f's rows are first extended across the
    wrap point (`_across_wrap`), so a piece of g that reaches 0 or L meets f
    at either end."""
    sp = f.space
    if g.space is not sp and g.space != sp:
        raise SpaceMismatch(f"{f.space} vs {g.space}")
    fs = _across_wrap(f._core, sp)
    out: list[Row] = []
    for qln, qld, qhn, qhd, qan, qad, qbn, qbd in g._core:
        # q's values y0, y1 at its ends, and its image [ylo, yhi]
        if not qan:
            y0 = y1 = (qbn, qbd)
        else:
            y0 = _at(qan, qad, qln, qld, qbn, qbd)
            y1 = _at(qan, qad, qhn, qhd, qbn, qbd)
        (ylon, ylod), (yhin, yhid) = (y1, y0) if qan < 0 else (y0, y1)
        block = len(out)
        for plon, plod, phin, phid, pan, pad, pbn, pbd in fs:
            if plon * yhid > yhin * plod:
                break  # f's rows are sorted by lo: none later meets q's image
            if phin * ylod < ylon * phid:
                continue
            # the preimage of [plo, phi] under q, cut to q's domain
            if not qan:
                lo, hi = (qln, qld), (qhn, qhd)
            elif qan > 0:
                lo = (qln, qld) if plon * ylod <= ylon * plod else _solve(qan, qad, qbn, qbd, plon, plod)
                hi = (qhn, qhd) if phin * yhid >= yhin * phid else _solve(qan, qad, qbn, qbd, phin, phid)
            else:
                lo = (qln, qld) if phin * yhid >= yhin * phid else _solve(qan, qad, qbn, qbd, phin, phid)
                hi = (qhn, qhd) if plon * ylod <= ylon * plod else _solve(qan, qad, qbn, qbd, plon, plod)
            out.append((*lo, *hi, *_mul(pan, pad, qan, qad), *_at(pan, pad, qbn, qbd, pbn, pbd)))
        if qan < 0:  # a decreasing q meets f's rows from its hi down
            out[block:] = out[block:][::-1]
    return _make(sp, out)


def invert(f: PAMap) -> PAMap:
    """Exact inverse; domain is range(f). Fails if f is not injective mod the wrap."""
    inv: list[Row] = []
    for lon, lod, hin, hid, an, ad, bn, bd in f._core:
        if lon == hin and lod == hid:
            v = _at(an, ad, lon, lod, bn, bd)
            inv.append((*v, *v, 0, 1, lon, lod))
            continue
        if not an:
            raise ZeroSlope(f"piece on [{_str(lon, lod)}, {_str(hin, hid)}] has slope 0")
        va = _at(an, ad, lon, lod, bn, bd)
        vb = _at(an, ad, hin, hid, bn, bd)
        ia = (ad, an) if an > 0 else (-ad, -an)
        ib = _mul(-bn, bd, *ia)
        inv.append((*va, *vb, *ia, *ib) if an > 0 else (*vb, *va, *ia, *ib))
    if len(inv) > 1:  # by lo, so `_canonical` takes its sweep
        inv.sort(key=_exact_key(inv, 1))
    try:
        return _make(f.space, inv)
    except Conflict as exc:
        raise NotInjective(str(exc)) from exc


def union(f: PAMap, g: PAMap) -> PAMap:
    if f.space != g.space:
        raise SpaceMismatch(f"{f.space} vs {g.space}")
    return _make(f.space, f._core + g._core)


def equals(f: PAMap, g: PAMap) -> bool:
    if f.space != g.space:
        raise SpaceMismatch(f"{f.space} vs {g.space}")
    return f._core == g._core


def is_circle_homeo(f: PAMap) -> bool:
    """Total bijection of the space (mod the wrap identification on circles)."""
    if not f.is_total():
        return False
    if any(not r[4] for r in f._core):
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
    (element, letter) it reaches.  The memo keeps every composite it makes,
    so one long word goes through `word_apply` instead."""
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
    """Composite of the word: the rightmost symbol acts first.  One word is
    a left fold, the steps `composites` takes, without its memo: each
    intermediate composite is dropped once the next one is made.  The fold
    starts from the first letter's map; only the empty word is the
    identity."""
    maps = [pres.letters[pres.letter(n, s)] for n, s in word]
    return functools.reduce(compose, maps) if maps else identity(pres.space)


def is_identity_word(pres: PAGroupPresentation, word: Word) -> bool:
    """The word's composite is the identity on the whole space.  That map
    fixes every point, so the word first runs on the probe points 0 and L/2,
    rightmost letter first: a probe that moves, or that leaves a letter's
    domain, refutes the word without composing.  A word that fixes both
    probes is folded, and its composite compared with the one identity row."""
    maps = [pres.letters[pres.letter(n, s)] for n, s in word]
    Ln, Ld = pres.space._L
    for x in ((0, 1), (Ln // 2, Ld) if Ln % 2 == 0 else (Ln, 2 * Ld)):  # 0 and L/2, reduced
        y = x
        for f in reversed(maps):
            y = _value(f, *y)
            if y is None:
                return False
        if y != x:
            return False
    return word_apply(pres, word)._core == (_identity_row(pres.space),)


def fixed_points(f: PAMap) -> tuple[Interval, ...]:
    """Exact solution set of f(x) = x (mod the wrap on circles)."""
    sp = f.space
    Ln, Ld = sp._L
    circle = sp.circle
    shifts = ((-Ln, Ld), (0, 1), (Ln, Ld)) if circle else ((0, 1),)
    found = []
    for lon, lod, hin, hid, an, ad, bn, bd in f._core:
        for sn, sd in shifts:
            if an == ad:  # slope 1
                if bn == sn and bd == sd:
                    found.append((lon, lod, hin, hid))
            else:
                xn, xd = _solve(an - ad, ad, bn, bd, sn, sd)
                if lon * xd <= xn * lod and xn * hid <= hin * xd:
                    if circle:
                        xn, xd = _mod(xn, xd, Ln, Ld)
                    found.append((xn, xd, xn, xd))
    found.sort(key=_exact_key(found, 1))
    return _intervals(_union(found))


def _powers(f: PAMap, k_max: int) -> Iterator[PAMap]:
    """f^1, ..., f^k_max, one power chain f^k = f o f^(k-1); f must be total."""
    if k_max < 1:
        raise ValueError("k must be >= 1")
    if not f.is_total():
        raise OutOfDomain("periodic_points needs a total map")
    power = f
    yield power
    for _ in range(k_max - 1):
        power = compose(f, power)
        yield power


def power_fixed_points(f: PAMap, k_max: int) -> list[tuple[Interval, ...]]:
    """Fix(f^k) for k = 1..k_max; f must be total."""
    return [fixed_points(power) for power in _powers(f, k_max)]


def periodic_points(f: PAMap, k: int) -> tuple[Interval, ...]:
    """Fixed points of the k-th compositional power; f must be total."""
    for power in _powers(f, k):
        pass
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
    # by piece count, then by the pieces' (lo, hi, slope, offset) in exact order
    row_key = _exact_key([r for m in maps for r in m._core], 4)
    return sorted(maps, key=lambda m: (len(m._core), [row_key(r) for r in m._core]))


def common_domain(pres: PAGroupPresentation, depth: int) -> tuple[Interval, ...]:
    """Outer approximation of the common domain of all composites up to depth.

    Monotone nonincreasing in depth; depth 0 is the whole space.
    """
    common = [(0, 1, *pres.space._L)]
    for level in _levels(pres, depth):
        for m in level:
            common = _intersect(common, _domain(m._core))
            if not common:
                return ()
    return _intervals(common)


def _candidate_points(ivs: Sequence[Interval]) -> list[Fraction]:
    pts: list[Fraction] = []
    for iv in ivs:
        span = iv.hi - iv.lo
        pts.extend([iv.lo, iv.hi, iv.lo + span / 2, iv.lo + span / 3, iv.lo + 2 * span / 3])
    return sorted(set(pts))


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
    common = [(0, 1, *pres.space._L)]
    checked = None  # common at the last level searched: no map so far finds a t among its candidates
    moved: dict[Fraction, bool] = {}  # g moves s; False where g is undefined
    for level in levels:  # lengths 1..budget, each composed once
        maps += level
        for m in level:
            common = _intersect(common, _domain(m._core))
        # with the candidates unchanged, only the new maps can find a t
        tried = level if common == checked else maps
        checked = common
        for t in _candidate_points(_intervals(common)):
            for f in tried:
                s = apply(f, t)  # t lies in common, inside every tried map's domain
                moves = moved.get(s)
                if moves is None:
                    try:
                        moves = apply(g, s) != s  # both are canonical points
                    except OutOfDomain:
                        moves = False
                    moved[s] = moves
                if moves:
                    return t
    return None


# ---------------------------------------------------------------------------
# JSON forms: rationals are exact "p/q" strings.

def pamap_to_obj(f: PAMap) -> dict:
    return {
        "space": {"length": str(f.space.length), "circle": f.space.circle},
        "pieces": [
            {"dom": [_str(lon, lod), _str(hin, hid)], "a": _str(an, ad), "b": _str(bn, bd)}
            for lon, lod, hin, hid, an, ad, bn, bd in f._core
        ],
    }


_JSON_NAMES = {dict: "object", list: "list", str: "string", int: "integer", bool: "boolean"}


def _shown(v) -> str:
    """v as JSON text, shortened, for an error message."""
    text = json.dumps(v, default=repr)
    return text if len(text) <= 60 else text[:57] + "..."


def _json_value(v, path: str, kind: type):
    """v as the JSON type `kind`: dict, list, str, int or bool (a bool is no
    integer), or Fraction for a rational, a "p/q" string or a JSON integer.
    The ValueError names the field by its `path`, unless that is empty."""
    try:
        if kind is Fraction:
            if type(v) is not str and type(v) is not int:
                raise ValueError(f"not a rational string or JSON integer: {_shown(v)}")
            return rat(v)
        if type(v) is not kind:
            raise ValueError(f"not a JSON {_JSON_NAMES[kind]}: {_shown(v)}")
        return v
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}" if path else str(exc)) from None


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
