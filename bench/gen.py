"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` built from the run's seed, so one
seed always yields the same inputs.  Maps are produced as plain
``MapSpec`` values and written in the program's map JSON format here, so the
generators do not depend on the code under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

DENOMINATORS = (2, 3, 4, 6, 8)
BREAKPOINTS = tuple(sorted({Fraction(n, d) for d in DENOMINATORS for n in range(1, d)}))


@dataclass(frozen=True)
class MapSpec:
    """A piecewise affine map: pieces are (lo, hi, slope, offset)."""

    length: Fraction
    circle: bool
    pieces: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]
    params: tuple[tuple[str, object], ...] = ()

    def to_obj(self) -> dict:
        return {
            "space": {"length": str(self.length), "circle": self.circle},
            "pieces": [{"dom": [str(lo), str(hi)], "a": str(a), "b": str(b)}
                       for lo, hi, a, b in self.pieces],
        }

    def describe(self) -> dict:
        return dict(self.params, pieces=len(self.pieces))


def circle_homeo(rng: random.Random, min_pieces: int = 2, max_pieces: int = 4) -> MapSpec:
    """Random PL homeomorphism of the circle [0,1]/0~1.

    Breakpoints, their images and the rotation all have denominators in
    DENOMINATORS.  A piece whose image crosses 1 is split there, so every
    piece maps into [0, 1].
    """
    k = rng.randint(min_pieces, max_pieces)
    xs = (Fraction(0),) + tuple(sorted(rng.sample(BREAKPOINTS, k - 1))) + (Fraction(1),)
    ys = (Fraction(0),) + tuple(sorted(rng.sample(BREAKPOINTS, k - 1))) + (Fraction(1),)
    r = rng.choice((Fraction(0),) + BREAKPOINTS)
    pieces = []
    for i in range(k):
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = ys[i] + r, ys[i + 1] + r
        a = (y1 - y0) / (x1 - x0)
        b = y0 - a * x0
        if y0 < 1 < y1:
            xm = (1 - b) / a
            pieces += [(x0, xm, a, b), (xm, x1, a, b - 1)]
        elif y0 >= 1:
            pieces.append((x0, x1, a, b - 1))
        else:
            pieces.append((x0, x1, a, b))
    params = (("breaks", k), ("rotation", str(r)),
              ("xs", [str(x) for x in xs[1:-1]]), ("ys", [str(y) for y in ys[1:-1]]))
    return MapSpec(Fraction(1), True, tuple(pieces), params)


def carry_count(a: Fraction, b: Fraction) -> int:
    """Size of the carry set of x -> a*x + b (multiples of 1/lcm of the
    denominators strictly inside (-a, 1) for a > 0, in [0, 1 - a) for a < 0)."""
    D = math.lcm(a.denominator, b.denominator)
    return int((1 + abs(a)) * D) - (1 if a > 0 else 0)


def work_estimate(spec: MapSpec) -> int:
    """Cost proxy for compiling a map on [0,1]: per piece, the carry counts of
    the domain-scaling stage times those of the piece's own stage, or the
    piece's carry count alone when its output range already cuts out its
    domain (the compiler then emits the bare affine tiles)."""
    total = 0
    for lo, hi, a, b in spec.pieces:
        x0, x1 = sorted((-b / a, (1 - b) / a))
        if (max(x0, 0), min(x1, 1)) == (lo, hi):
            total += carry_count(a, b)
            continue
        span = hi - lo
        total += carry_count(1 / span, -lo / span) * carry_count(a * span, a * lo + b)
    return total


def stratified_homeos(rng: random.Random, strata) -> list[tuple[MapSpec, int]]:
    """Draw circle maps until each (lo, hi, count) stratum of work_estimate in
    (lo, hi] holds count maps; returns (spec, estimate) in draw order."""
    need = [count for _, _, count in strata]
    out = []
    while any(need):
        spec = circle_homeo(rng)
        est = work_estimate(spec)
        for i, (lo, hi, _) in enumerate(strata):
            if lo < est <= hi and need[i]:
                need[i] -= 1
                out.append((spec, est))
                break
    return out


def inverse(spec: MapSpec) -> MapSpec:
    """f^-1 of a map whose pieces each map into [0, length]."""
    pieces = []
    for lo, hi, a, b in spec.pieces:
        y0, y1 = sorted((a * lo + b, a * hi + b))
        pieces.append((y0, y1, 1 / a, -b / a))
    return MapSpec(spec.length, spec.circle, tuple(sorted(pieces)), spec.params)


def reflect(spec: MapSpec) -> MapSpec:
    """s f s with s(x) = length - x."""
    L = spec.length
    pieces = tuple(sorted((L - hi, L - lo, a, L - a * L - b) for lo, hi, a, b in spec.pieces))
    return MapSpec(L, spec.circle, pieces, spec.params)


VARIANTS = ("f", "inverse", "reflected", "reflected inverse")


def variant(spec: MapSpec, k: int) -> MapSpec:
    """One of f, f^-1, s f s and s f^-1 s.  Their tile sets differ but have
    the same size, so a seed that picks variants changes the inputs without
    changing how much work they are."""
    out = inverse(spec) if k % 2 else spec
    out = reflect(out) if k >= 2 else out
    return MapSpec(out.length, out.circle, out.pieces, spec.params + (("variant", VARIANTS[k]),))


def seeded_homeos(corpus_seed: str, strata, rng: random.Random) -> list[tuple[MapSpec, int]]:
    """Maps drawn once from a fixed corpus seed into strata, each replaced by
    the variant the run's rng picks."""
    corpus = stratified_homeos(random.Random(corpus_seed), strata)
    return [(variant(spec, rng.randrange(len(VARIANTS))), est) for spec, est in corpus]


def rotation(p: int, q: int) -> MapSpec:
    """x -> x + p/q on the circle [0,1]."""
    r = Fraction(p, q)
    if r == 0:
        pieces = ((Fraction(0), Fraction(1), Fraction(1), Fraction(0)),)
    else:
        pieces = ((Fraction(0), 1 - r, Fraction(1), r), (1 - r, Fraction(1), Fraction(1), r - 1))
    return MapSpec(Fraction(1), True, pieces, (("p", p), ("q", q)))


def identity_map() -> MapSpec:
    return rotation(0, 1)


def rational(rng: random.Random, lo: Fraction, hi: Fraction, max_den: int) -> Fraction:
    q = rng.randint(1, max_den)
    return lo + (hi - lo) * Fraction(rng.randint(0, q), q)


def psl2z_word(rng: random.Random, length: int) -> str:
    """A word over d, e and their inverses D, E, as the CLI reads it."""
    return "".join(rng.choice("dDeE") for _ in range(length))


def ball_words(p: int, radius: int) -> list[tuple[int, ...]]:
    """Reduced free-group words of length <= radius, by length, then letters
    in the order 1, -1, 2, -2, ..."""
    words = [()]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in range(1, p + 1):
                for s in (g, -g):
                    if not (w and w[-1] == -s):
                        nxt.append(w + (s,))
        words += nxt
        frontier = nxt
    return words


def pattern_problem(rng: random.Random, alphabet: int, patterns: int, support: int = 2) -> dict:
    """Pattern problem on the free group of rank 2, in the problem JSON
    format; each pattern's support is drawn from the radius-2 ball."""
    pool = ball_words(2, 2)
    out = []
    for _ in range(patterns):
        cells = rng.sample(pool, support)
        out.append({"cells": [{"word": word_str(w), "letter": rng.randrange(alphabet)} for w in cells]})
    return {"alphabet": alphabet, "patterns": out}


def word_str(w: tuple[int, ...]) -> str:
    return "".join(f"x{s}" if s > 0 else f"X{-s}" for s in w)


def parse_word_str(text: str) -> tuple[int, ...]:
    out = []
    i = 0
    while i < len(text):
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        s = int(text[i + 1:j])
        out.append(s if text[i] == "x" else -s)
        i = j
    return tuple(out)
