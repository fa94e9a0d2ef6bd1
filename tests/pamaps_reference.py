"""Object-by-object reference for the exact PA-map kernel.

These are the `Interval`/`AffinePiece` forms of `compose`, `invert` and
canonicalization: every intermediate piece is a checked object, each piece is
range-checked against an `Interval` of the whole space, `word_apply` inverts
a letter at each occurrence, `periodic_points` rebuilds f^k for every k and
`intersect_interval_sets` intersects every pair of intervals,
`nontriviality_witness` rebuilds the ball from the identity for every depth
up to its budget, and `is_identity_word` folds every word it is given, with
no probe point to refute it first.  The library runs
the same algebra on plain (lo, hi, slope, offset) tuples; the differential
tests require identical canonical pieces and identical exceptions.  The
library holds each rational as a (numerator, denominator) int pair; here every
value is a `Fraction`, so `apply` and `fixed_points` are also given in that
form.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from kariforge import pamaps
from kariforge.pamaps import (
    AffinePiece,
    Conflict,
    Interval,
    NotInjective,
    OutOfDomain,
    PAGroupPresentation,
    PAMap,
    Space,
    SpaceMismatch,
    Word,
    ZeroSlope,
)


def merge_intervals(ivs: Iterable[Interval]) -> tuple[Interval, ...]:
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
            lo, hi = max(x.lo, y.lo), min(x.hi, y.hi)
            if lo <= hi:
                out.append(Interval(lo, hi))
    return merge_intervals(out)


def _check_piece(space: Space, p: AffinePiece) -> None:
    whole = Interval(Fraction(0), space.length)
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


def make(space: Space, pieces: Iterable[AffinePiece]) -> PAMap:
    """The map holding exactly the reference's canonical pieces, passed to the
    library as rows of (numerator, denominator) pairs without re-canonicalizing."""
    rows = tuple((p.dom.lo.numerator, p.dom.lo.denominator, p.dom.hi.numerator, p.dom.hi.denominator,
                  p.slope.numerator, p.slope.denominator, p.offset.numerator, p.offset.denominator)
                 for p in _canonical_pieces(space, pieces))
    return pamaps._wrap(space, rows)


def identity(space: Space) -> PAMap:
    return make(space, [AffinePiece(Interval(Fraction(0), space.length), Fraction(1), Fraction(0))])


def apply(f: PAMap, x: Fraction) -> Fraction:
    """Evaluate f at x; the result is a canonical point of the space."""
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


def fixed_points(f: PAMap) -> tuple[Interval, ...]:
    """Exact solution set of f(x) = x (mod the wrap on circles)."""
    sp = f.space
    found: list[Interval] = []
    for p in f.pieces:
        for k in ((-1, 0, 1) if sp.circle else (0,)):
            shift = k * sp.length
            if p.slope == 1:
                if p.offset == shift:
                    found.append(p.dom)
            else:
                x = (shift - p.offset) / (p.slope - 1)
                if p.dom.contains(x):
                    x = sp.normalize(x)
                    found.append(Interval(x, x))
    return merge_intervals(found)


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
    return make(sp, out)


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
        return make(f.space, inv)
    except Conflict as exc:
        raise NotInjective(str(exc)) from exc


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
    """The library's word fold alone, compared with the one identity row:
    no probe point refutes the word first."""
    return pamaps.word_apply(pres, word)._core == (pamaps._identity_row(pres.space),)


def periodic_points(f: PAMap, k: int) -> tuple[Interval, ...]:
    """Fixed points of the k-th compositional power; f must be total."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if merge_intervals(p.dom for p in f.pieces) != (Interval(Fraction(0), f.space.length),):
        raise OutOfDomain("periodic_points needs a total map")
    power = f
    for _ in range(k - 1):
        power = compose(f, power)
    return fixed_points(power)


def enumerate_maps(pres: PAGroupPresentation, depth: int) -> list[PAMap]:
    """All distinct composites of generator/inverse words of length <= depth."""
    atoms = []
    for _, m in pres.generators:
        atoms.append(m)
        atoms.append(invert(m))
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
    common: tuple[Interval, ...] = (Interval(Fraction(0), pres.space.length),)
    for m in enumerate_maps(pres, depth):
        common = intersect_interval_sets(common, merge_intervals(p.dom for p in m.pieces))
        if not common:
            break
    return common



def _candidate_points(ivs: Sequence[Interval]) -> list[Fraction]:
    pts: list[Fraction] = []
    for iv in ivs:
        span = iv.hi - iv.lo
        pts.extend([iv.lo, iv.hi, iv.lo + span / 2, iv.lo + span / 3, iv.lo + 2 * span / 3])
    return sorted(set(pts))


def nontriviality_witness(pres: PAGroupPresentation, word: Word, budget: int) -> Optional[Fraction]:
    """Search for t with g(f(t)) != f(t) for some composite f; None means unknown."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    g = word_apply(pres, word)
    for depth in range(1, budget + 1):
        maps = enumerate_maps(pres, depth)
        common: tuple[Interval, ...] = (Interval(Fraction(0), pres.space.length),)
        for m in maps:
            common = intersect_interval_sets(common, merge_intervals(p.dom for p in m.pieces))
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
