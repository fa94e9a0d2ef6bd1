"""Known answers computed without the code under test.

Each function here re-derives a verdict from first principles (a normal
form, a counting argument or brute force) so that the benchmark can check
the program's outputs against it.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from gen import MapSpec

# ---------------------------------------------------------------------------
# PSL(2,Z) = Z/3 * Z/2 with d of order 3 and e of order 2

ORDERS = {"d": 3, "e": 2}
PSL2Z_NAMES = ("d", "e")  # free-group index 1 is d, index 2 is e

KARI = MapSpec(Fraction(1), True, (
    (Fraction(0), Fraction(1, 2), Fraction(4, 3), Fraction(1, 3)),
    (Fraction(1, 2), Fraction(1), Fraction(2, 3), Fraction(-1, 3)),
))
PSL2Z = {
    "d": MapSpec(Fraction(2), True, (
        (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1)),
        (Fraction(1), Fraction(3, 2), Fraction(1), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(2), Fraction(2), Fraction(-3)),
    )),
    "e": MapSpec(Fraction(2), True, (
        (Fraction(0), Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2), Fraction(1), Fraction(-1)),
    )),
}
THOMPSON_T = {
    "a": MapSpec(Fraction(1), True, (
        (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(-1, 4)),
        (Fraction(3, 4), Fraction(1), Fraction(2), Fraction(-1)),
    )),
    "b": MapSpec(Fraction(1), True, (
        (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(0)),
        (Fraction(1, 2), Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)),
        (Fraction(3, 4), Fraction(7, 8), Fraction(1), Fraction(-1, 8)),
        (Fraction(7, 8), Fraction(1), Fraction(2), Fraction(-1)),
    )),
    "c": MapSpec(Fraction(1), True, (
        (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)),
        (Fraction(1, 2), Fraction(3, 4), Fraction(2), Fraction(-1)),
        (Fraction(3, 4), Fraction(1), Fraction(1), Fraction(-1, 4)),
    )),
}
# Outer bound and kept points of the thompson-v common domain at depth 3:
# the four intervals of the second middle-thirds Cantor stage.
THOMPSON_V_DEPTH3 = (
    (Fraction(0), Fraction(1, 9)), (Fraction(2, 9), Fraction(1, 3)),
    (Fraction(2, 3), Fraction(7, 9)), (Fraction(8, 9), Fraction(1)),
)
THOMPSON_V_KEPT = (Fraction(0), Fraction(2, 3), Fraction(8, 9), Fraction(1))


def psl2z_nf(letters) -> tuple[tuple[str, int], ...]:
    """Normal form in <d | d^3> * <e | e^2>: alternating (name, exponent)
    syllables with 0 < exponent < order.  Letters are (name, +1 or -1)."""
    out: list[tuple[str, int]] = []
    for name, sign in letters:
        exp = sign % ORDERS[name]
        if out and out[-1][0] == name:
            exp = (out.pop()[1] + exp) % ORDERS[name]
        if exp:
            out.append((name, exp))
    return tuple(out)


def letters_of_text(text: str):
    """'dDeE' -> letters; lowercase is the generator, uppercase its inverse."""
    return [(ch.lower(), 1 if ch.islower() else -1) for ch in text]


def letters_of_fgword(w: tuple[int, ...]):
    return [(PSL2Z_NAMES[abs(s) - 1], 1 if s > 0 else -1) for s in w]


def psl2z_key(w: tuple[int, ...]):
    return psl2z_nf(letters_of_fgword(w))


def psl2z_ball_size(radius: int) -> int:
    """Elements of word length <= radius over d, d^-1, e, e^-1."""
    seen = {()}
    frontier = {()}
    for _ in range(radius):
        nxt = set()
        for nf in frontier:
            for letter in (("d", 1), ("d", -1), ("e", 1), ("e", -1)):
                m = psl2z_nf(list(_expand(nf)) + [letter])
                if m not in seen:
                    seen.add(m)
                    nxt.add(m)
        frontier = nxt
    return len(seen)


def _expand(nf):
    for name, exp in nf:
        for _ in range(exp):
            yield name, 1


def exponent_vector(w: tuple[int, ...], p: int) -> tuple[int, ...]:
    v = [0] * p
    for s in w:
        v[abs(s) - 1] += 1 if s > 0 else -1
    return tuple(v)


# ---------------------------------------------------------------------------
# Classes and the pattern families built from them


def classes(words, key) -> dict:
    """Each word mapped to the earliest word with the same key."""
    first: dict = {}
    return {w: first.setdefault(key(w), w) for w in words}


def _canon_pattern(cells) -> tuple:
    return tuple(sorted(cells))


def perg_patterns(words, key, alphabet: int = 2) -> list[tuple]:
    members: dict = {}
    for w, rep in classes(words, key).items():
        members.setdefault(rep, []).append(w)
    out = []
    for ws in members.values():
        for g, h in itertools.combinations(ws, 2):
            for a in range(alphabet):
                for b in range(alphabet):
                    if a != b:
                        out.append(_canon_pattern(((g, a), (h, b))))
    return sorted(out)


def xleq1_patterns(words, key) -> list[tuple]:
    reps = set(classes(words, key).values())
    return sorted(_canon_pattern((((), 1), (g, 1))) for g in reps if g != ())


def bichromatic_errors(coloring: dict, words, key, a: tuple[int, ...], colors: int) -> list[str]:
    """Problems with a coloring of the class representatives of a ball in
    which every edge {g, g*a} inside the ball must join different colors."""
    cls = classes(words, key)
    reps = set(cls.values())
    errors = []
    if set(coloring) != reps:
        errors.append(f"colored {len(coloring)} elements, ball has {len(reps)}")
    by_key = {key(r): r for r in reps}
    for g, c in coloring.items():
        if not 0 <= c < colors:
            errors.append(f"color {c} out of range at {g}")
        h = by_key.get(key(g + a))
        if h is not None and h in coloring and coloring[h] == c:
            errors.append(f"edge {g} -> {h} is monochromatic")
    return errors


def brute_force_empty(alphabet: int, patterns) -> bool:
    """patterns: list of lists of (word, letter).  The closed set is empty iff
    every coloring of the union of supports agrees with some pattern."""
    support = sorted({w for pat in patterns for w, _ in pat})
    for values in itertools.product(range(alphabet), repeat=len(support)):
        coloring = dict(zip(support, values))
        if all(any(coloring[w] != letter for w, letter in pat) for pat in patterns):
            return False
    return True


# ---------------------------------------------------------------------------
# Tile rows and walks


def rotation_exit(q: int, max_n: int, max_k: int) -> int:
    """verify exit code for x -> x + p/q against its own map: a periodic
    configuration needs q | n (bottom average = top average + p/q) and
    q | k (return after k rows), so one is found iff q <= max_n and
    q <= max_k."""
    return 2 if q <= min(max_n, max_k) else 0


def beatty(y: Fraction, n_from: int, n_to: int) -> tuple[int, ...]:
    return tuple(math.floor((n + 1) * y) - math.floor(n * y) for n in range(n_from, n_to + 1))


def eval_map(spec: MapSpec, x: Fraction) -> Fraction:
    if spec.circle:
        x %= spec.length
    for lo, hi, a, b in spec.pieces:
        if lo <= x <= hi:
            y = a * x + b
            return y % spec.length if spec.circle else y
    if spec.circle and x == 0:
        return eval_map(spec, spec.length)
    raise ValueError(f"{x} outside the domain")


def encodes(bits, y: Fraction, length: Fraction, n_from: int, out_max: int) -> bool:
    """True when bits are the balanced encoding of some representative of y
    (mod length on a circle) that fits the alphabet 0..out_max."""
    n_to = n_from + len(bits) - 1
    reps = {y} | {y + k * length for k in (-1, 1)}
    return any(0 <= r <= out_max and tuple(bits) == beatty(r, n_from, n_to) for r in reps)


def closed_walks_total(tileset_obj: dict, n_max: int) -> int:
    """Number of marked closed walks of length 1..n_max in the row graph of a
    tile set in its JSON form: the sum of trace(A^n)."""
    key = lambda label: json.dumps(label, sort_keys=True)
    tiles = tileset_obj["tiles"]
    by_left: dict = {}
    for j, t in enumerate(tiles):
        by_left.setdefault(key(t["left"]), []).append(j)
    succ = [by_left.get(key(t["right"]), []) for t in tiles]
    total = 0
    for start in range(len(tiles)):
        counts = {start: 1}
        for _ in range(n_max):
            nxt: dict = {}
            for u, c in counts.items():
                for v in succ[u]:
                    nxt[v] = nxt.get(v, 0) + c
            counts = nxt
            total += counts.get(start, 0)
    return total
