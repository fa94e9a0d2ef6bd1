"""Semantic checks for generated tile sets.

Rows are read left to right: the tile at position n shows its right label to
the tile at position n+1, so u -> v is an edge iff right(u) == left(v).
Input bits of a row encode a real y through its balanced (Beatty) bit
sequence disc(y)_n = floor((n+1)y) - floor(ny); the window average of a bit
row is the finite estimator of the encoded value.

Checks come in two flavors: completeness (explicit witness rows built from
the exact carry formula must land inside the generated set) and soundness
(every periodic row's averages must follow the compiled map; bounded search
for stacked periodic configurations must come up empty exactly when the map
has no periodic points).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from . import freegroup, pamaps, tiles
from .pamaps import OutOfDomain, PAGroupPresentation, PAMap, rat
from .tiles import (
    GroupTileSet,
    Plan,
    PlanAff,
    PlanComp,
    PlanProd,
    PlanUnion,
    ZTile,
    ZTileSet,
    atom,
    tag,
    tup,
)


class VerifyError(Exception):
    pass


class WitnessFailure(VerifyError):
    """An expected witness row could not be realized: completeness is broken."""


class InconsistentPatch(VerifyError):
    pass


# ---------------------------------------------------------------------------
# Balanced encodings


@dataclass(frozen=True)
class BitWindow:
    offset: int
    bits: tuple[int, ...]


def _floors(v: Fraction, n_from: int, n_to: int) -> list[int]:
    """floor(n * v) for n = n_from..n_to+1: the bit window's boundaries."""
    p, q = v.numerator, v.denominator
    return [n * p // q for n in range(n_from, n_to + 2)]


def disc(y, n_from: int, n_to: int) -> BitWindow:
    """Balanced bit window of y >= 0 over positions n_from..n_to inclusive."""
    y = rat(y)
    if y < 0:
        raise ValueError("disc needs y >= 0")
    fl = _floors(y, n_from, n_to)
    return BitWindow(n_from, tuple(map(operator.sub, fl[1:], fl)))


def cont_window(w: BitWindow) -> Fraction:
    if not w.bits:
        raise ValueError("empty window")
    return Fraction(sum(w.bits), len(w.bits))


# ---------------------------------------------------------------------------
# Witness rows
#
# A row is built in two passes.  The first picks every union branch and every
# intermediate value from the plan alone, with a few exact Fraction steps per
# plan node; the second builds rows only for the chosen leaves.  Until the
# root a row is kept as columns: its top bits, its per-tile bottoms, and the
# codes of its W + 1 boundary labels (the rows are connected, so tile i's
# right label is tile i+1's left label), with a table from code to label.
# A leaf's codes are its carry numerators and a combined row's codes are
# tuples of its parts' codes, so tagging or joining labels touches each
# distinct label once.

_Row = tuple[list[int], list[tuple[tuple[str, int], ...]], list, dict]


def _affine_row(a: Fraction, b: Fraction, x: Fraction, y: Fraction,
                n_from: int, n_to: int) -> _Row:
    """Row of x -> y = a*x + b in integers.  With D = lcm(den a, den b),
    A = a*D and B = b*D, the carry a*floor(nx) + n*b - floor(ny) at n is
    (A*floor(nx) + n*B - D*floor(ny)) / D."""
    D = math.lcm(a.denominator, b.denominator)
    A = a.numerator * (D // a.denominator)
    B = b.numerator * (D // b.denominator)
    fx, fy = _floors(x, n_from, n_to), _floors(y, n_from, n_to)
    bits = list(map(operator.sub, fy[1:], fy))
    cells = {u: (("f", u),) for u in set(bits)}
    carries = [A * u + n * B - D * v for n, u, v in zip(range(n_from, n_to + 2), fx, fy)]
    return (list(map(operator.sub, fx[1:], fx)), [cells[u] for u in bits],
            carries, {c: atom(Fraction(c, D)) for c in set(carries)})


def _tagged(name: str, row: _Row) -> _Row:
    tops, bots, codes, table = row
    return tops, bots, codes, {c: tag(name, l) for c, l in table.items()}


def _joined(rows: list[_Row]) -> tuple[list, dict]:
    """Codes and table of the tuple labels of rows laid side by side."""
    codes = list(zip(*(row[2] for row in rows)))
    tables = [row[3] for row in rows]
    return codes, {c: tup(*map(dict.__getitem__, tables, c)) for c in set(codes)}


def _product(parts: list[tuple[str, _Row]]) -> _Row:
    names = [name for name, _ in parts]
    rows = [row for _, row in parts]
    cols = list(zip(*([b[0][1] for b in row[1]] for row in rows)))
    made = {c: tuple(sorted(zip(names, c))) for c in set(cols)}
    return (rows[0][0], [made[c] for c in cols]) + _joined(rows)


def _resolve(plan: Plan, x: Fraction, n_from: int, n_to: int, in_max: int, out_max: int,
             y_target) -> tuple[Callable[[], _Row], Fraction, Optional[Fraction]]:
    """Choose the plan's branches for input x without building any row.

    Returns (build, y, out): build() makes the row of the chosen leaves, y is
    the value the node passes on, and out the value its bottom bits encode
    (None for several outputs).  Failures are the ones building would meet.
    """
    if isinstance(plan, PlanAff):
        a, b = plan.a, plan.b
        if not 0 <= x <= in_max:
            raise WitnessFailure(f"input {x} not encodable in bits 0..{in_max}")
        y = a * x + b
        if not 0 <= y <= out_max:
            raise WitnessFailure(f"output {y} not encodable in bits 0..{out_max}")
        if y_target is not None and y != y_target:
            raise WitnessFailure(f"branch outputs {y}, not the requested {y_target}")
        return (lambda: _affine_row(a, b, x, y, n_from, n_to)), y, y
    if isinstance(plan, PlanUnion):
        try:
            build, y, out = _resolve(plan.first, x, n_from, n_to, in_max, out_max, y_target)
            name = "L"
        except WitnessFailure:
            build, y, out = _resolve(plan.second, x, n_from, n_to, in_max, out_max, y_target)
            name = "R"
        return (lambda: _tagged(name, build())), y, out
    if isinstance(plan, PlanComp):
        first, mid, out = _resolve(plan.first, x, n_from, n_to, in_max, out_max, None)
        second, y, out_y = _resolve(plan.second, mid, n_from, n_to, in_max, out_max, y_target)
        # the first row's bottom bits must be the second row's top bits
        if out is None:
            raise ValueError("tile has several outputs; name one")
        if out != mid and disc(out, n_from, n_to) != disc(mid, n_from, n_to):
            raise WitnessFailure("middle bit rows disagree")

        def build() -> _Row:
            ra, rb = first(), second()
            return (ra[0], rb[1]) + _joined([ra, rb])
        return build, y, out_y
    if isinstance(plan, PlanProd):
        parts = []
        for name, p in plan.parts:
            target = y_target.get(name) if isinstance(y_target, dict) else y_target
            parts.append((name, _resolve(p, x, n_from, n_to, in_max, out_max, target)))
        if any(out is None for _, (_, _, out) in parts):
            raise ValueError("tile has several outputs; name one")
        out = parts[0][1][2] if len(parts) == 1 else None
        return (lambda: _product([(name, build()) for name, (build, _, _) in parts])), x, out
    raise TypeError(f"not a plan: {plan!r}")


def plan_row(plan: Plan, x, n_from: int, n_to: int, in_max: int, out_max: int,
             y_target=None) -> tuple[list[ZTile], Fraction]:
    """Explicit row of tiles encoding x and its image under the plan's map.

    Union branches are tried in order; a branch whose values leave the bit
    range raises WitnessFailure and the next one is tried.  When a target
    output value is given, only branches emitting exactly that value are
    accepted; two branches can encode the same circle point by different
    representatives (a raw value of L against a wrapped 0), and neighbors in
    a patch care about the bits, not the point.  Branches are chosen before
    any row is built, and bits and carries are integer floor differences.
    """
    x = rat(x)
    if n_from > n_to:
        raise ValueError(f"empty window: positions {n_from}..{n_to}")
    build, y, _ = _resolve(plan, x, n_from, n_to, in_max, out_max, y_target)
    tops, bots, codes, table = build()
    cells = list(zip(tops, bots, codes, codes[1:]))
    made = {c: ZTile(c[0], c[1], table[c[2]], table[c[3]]) for c in set(cells)}
    return [made[c] for c in cells], y


def _check_row(tiles: Sequence[ZTile], known: frozenset[ZTile]) -> None:
    for t in dict.fromkeys(tiles):  # each distinct tile once, in row order
        if t not in known:
            raise WitnessFailure(f"witness tile not in set: {t}")
    for u, v in zip(tiles, tiles[1:]):
        if u.right is not v.left:  # labels are interned
            raise WitnessFailure("witness row is not connected")


def witness_row(ts: ZTileSet | GroupTileSet, x, N: int) -> list[ZTile]:
    """Row of 2N+1 tiles encoding x (positions -N..N); asserts membership."""
    if ts.source is None:
        raise ValueError("tile set carries no generation plan")
    out_max = ts.out_maxes[0][1]
    if any(m != out_max for _, m in ts.out_maxes):
        raise ValueError("outputs use different alphabets")
    tiles, _ = plan_row(ts.source, x, -N, N, ts.in_max, out_max)
    _check_row(tiles, frozenset(ts.tiles))
    return tiles


# ---------------------------------------------------------------------------
# Transition graph and periodic rows


@dataclass(frozen=True)
class TransitionGraph:
    succ: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(ts: ZTileSet | GroupTileSet) -> "TransitionGraph":
        return TransitionGraph(tuple(map(tuple, tiles._successors(ts.tiles))))


def nonempty_rows(ts: ZTileSet | GroupTileSet) -> bool:
    """A bi-infinite valid row exists iff some tile survives trimming."""
    return bool(tiles.trim_tiles(ts).tiles)


def closed_walks(succ: Sequence[Sequence[int]], n: int) -> Iterator[tuple[int, ...]]:
    """All closed walks of length n, start tile marked (rotations distinct)."""
    if n < 1:
        raise ValueError("row length must be >= 1")
    path = [0] * n

    def extend(start: int, node: int, depth: int) -> Iterator[tuple[int, ...]]:
        if depth == n:
            if start in succ[node]:
                yield tuple(path)
            return
        for nxt in succ[node]:
            path[depth] = nxt
            yield from extend(start, nxt, depth + 1)

    for start in range(len(succ)):
        path[0] = start
        yield from extend(start, start, 1)


def _closed_walk_sums(succ: Sequence[Sequence[int]], tops: Sequence[int], bots: Sequence[int],
                      n_max: int) -> dict[int, set[tuple[int, int]]]:
    """The (top sum, bottom sum) pairs of the closed walks of each length n <= n_max.

    The periodic-row checks depend on a walk only through these sums, and a
    DP over (start tile, current tile, sums) finds them without listing the
    walks.  Sums are rotation invariant and every closed walk has a rotation
    starting at its smallest tile index, so the walks from each start tile
    stay on tiles at or after it.  A set of sum pairs is one integer with
    bit T * width + B set: taking a tile shifts it, merging two sets ORs them.
    """
    if n_max < 1:
        return {}
    width = n_max * max(bots, default=0) + 1
    shift = [t * width + b for t, b in zip(tops, bots)]
    pred: list[list[int]] = [[] for _ in succ]
    for u, vs in enumerate(succ):
        for v in vs:
            pred[v].append(u)
    found = [0] * (n_max + 1)
    for start in range(len(succ)):
        closers = [u for u in pred[start] if u >= start]
        if not closers:
            continue
        layer = {start: 1 << shift[start]}
        for n in range(1, n_max + 1):
            for u in closers:
                if u in layer:
                    found[n] |= layer[u]
            if n == n_max or not layer:
                break
            nxt: dict[int, int] = {}
            for u, sums in layer.items():
                for v in succ[u]:
                    if v >= start:
                        nxt[v] = nxt.get(v, 0) | (sums << shift[v])
            layer = nxt
    out = {}
    for n in range(1, n_max + 1):
        pairs, bits = set(), found[n]
        while bits:
            low = bits & -bits
            pairs.add(divmod(low.bit_length() - 1, width))
            bits ^= low
        out[n] = pairs
    return out


def periodic_soundness(ts: ZTileSet, f: PAMap, n_max: int,
                       stop_early: bool = False) -> list[dict]:
    """Check every n-periodic row, n <= n_max: its bit averages must follow f.

    Returns violation records; an empty list certifies soundness up to n_max.
    A row whose top average lies outside f's domain is a violation with
    "expected" None.  Each (n, top sum, bottom sum) class is checked once;
    only the lengths with a violating class list their walks, to report them.
    """
    name = ts.single_out()
    sp = f.space
    succ = TransitionGraph.of(ts).succ
    tops = [t.top for t in ts.tiles]
    bots = [t.bottom(name) for t in ts.tiles]
    violations = []
    for n, sums in _closed_walk_sums(succ, tops, bots, n_max).items():
        expected: dict[int, Optional[Fraction]] = {}
        bad = set()
        for T, B in sums:
            if T not in expected:
                try:
                    expected[T] = pamaps.apply(f, sp.normalize(Fraction(T, n)))
                except OutOfDomain:
                    expected[T] = None  # a row the map cannot account for
            if expected[T] is None or not sp.equiv(Fraction(B, n), expected[T]):
                bad.add((T, B))
        if not bad:
            continue
        for walk in closed_walks(succ, n):
            T = sum(tops[i] for i in walk)
            B = sum(bots[i] for i in walk)
            if (T, B) in bad:
                violations.append({
                    "n": n,
                    "cycle": list(walk),
                    "top_avg": str(Fraction(T, n)),
                    "bottom_avg": str(Fraction(B, n)),
                    "expected": None if expected[T] is None else str(expected[T]),
                })
                if stop_early:
                    return violations
    return violations


# ---------------------------------------------------------------------------
# Stacked periodic configurations


def _loop_lengths(succ: dict[int, set[int]], T0: int, k_max: int) -> list[int]:
    """The lengths k <= k_max of the closed walks through T0 of the graph succ."""
    frontier, ks = {T0}, []
    for k in range(1, k_max + 1):
        frontier = {B for T in frontier for B in succ.get(T, ())}
        if T0 in frontier:
            ks.append(k)
        if not frontier:
            break
    return ks


def stacked_periodic_scan(ts: ZTileSet, n_max: int, k_max: int) -> list[dict]:
    """Search for configurations with period lattice (n,0),(s,k), n <= n_max,
    k <= k_max, 0 <= s < n: k stacked n-periodic rows, each feeding the next,
    the last feeding the first rotated by the shear s.

    Reports one witness per (n, k, s) found; an empty report is bounded
    evidence of aperiodicity.
    """
    name = ts.single_out()
    succ = TransitionGraph.of(ts).succ
    tops = [t.top for t in ts.tiles]
    bots = [t.bottom(name) for t in ts.tiles]
    found: dict[tuple[int, int, int], dict] = {}
    for n, sums in _closed_walk_sums(succ, tops, bots, n_max).items():
        sum_succ: dict[int, set[int]] = {}  # top sum -> bottom sums, as averages over n
        for T, B in sums:
            sum_succ.setdefault(T, set()).add(B)
        loops = {T: ks for T in sum_succ if (ks := _loop_lengths(sum_succ, T, k_max))}
        if not loops:
            continue
        # Every row of a stacked configuration, and every row on a BFS path
        # from one row to a row that closes the stack, has its top sum on a
        # cycle of length <= k_max.  Leaving the other walks out changes
        # neither those rows' BFS levels nor their parents.
        pairs: dict[tuple, dict[tuple, tuple]] = {}
        for walk in closed_walks(succ, n):
            row_tops = tuple(tops[i] for i in walk)
            if sum(row_tops) in loops:
                pairs.setdefault(row_tops, {}).setdefault(tuple(bots[i] for i in walk), walk)
        for t0 in sorted(pairs):
            # a found (n, k, s) is never replaced, so only lengths with a
            # shear still open can add to the report
            ks = [k for k in loops[sum(t0)] if any((n, k, s) not in found for s in range(n))]
            if not ks:
                continue
            shears: dict[tuple, list[int]] = {}  # t0 rotated right by s -> s
            for s in range(n):
                shears.setdefault(t0[n - s:] + t0[:n - s], []).append(s)
            # BFS over top words, remembering one parent per word per level
            levels: list[dict[tuple, Optional[tuple]]] = [{t0: None}]
            for _ in range(1, ks[-1]):
                cur: dict[tuple, Optional[tuple]] = {}
                for w in levels[-1]:
                    for b in pairs.get(w, ()):
                        if b in pairs and b not in cur:
                            cur[b] = w
                levels.append(cur)
            for k in ks:
                for w in levels[k - 1]:
                    for b in pairs[w]:
                        for s in shears.get(b, ()):
                            if (n, k, s) in found:
                                continue
                            chain = [w]
                            for lvl in range(k - 1, 0, -1):
                                chain.append(levels[lvl][chain[-1]])
                            chain.reverse()  # tops of rows 0..k-1
                            rows = [list(pairs[wt][nxt]) for wt, nxt in zip(chain, chain[1:] + [b])]
                            found[(n, k, s)] = {"n": n, "k": k, "shear": s, "rows": rows}
    return [found[key] for key in sorted(found)]


# ---------------------------------------------------------------------------
# Patches over Z x G


@dataclass(frozen=True)
class PatchRow:
    offset: int
    tiles: tuple[ZTile, ...]


FGWord = tuple[int, ...]


def patch_check(gts: GroupTileSet, patch: dict[FGWord, PatchRow],
                is_identity: Callable[[FGWord], bool]) -> bool:
    """Check a finite patch: keyed by group words, one row window per element.

    Validates tile membership, row connectivity, key consistency (two words
    equal in the group must carry equal rows), and for every pair of patch
    elements v = w * h^-1 the generator constraint phi_h(w) = psi_h(v)
    pointwise on the shared window.
    """
    known = frozenset(gts.tiles)
    nf = freegroup.word_problem(is_identity).nf
    rep_of: dict = {}
    for w in patch:
        v = rep_of.setdefault(nf(w), w)
        if patch[v] != patch[w]:
            raise InconsistentPatch(f"{v} and {w} are equal in G but carry different rows")
    reps = list(rep_of.values())
    for w in reps:
        row = patch[w]
        for t in row.tiles:
            if t not in known:
                return False
        for u, v in zip(row.tiles, row.tiles[1:]):
            if u.right != v.left:
                return False
    for w in reps:
        for i, h in enumerate(gts.generators, start=1):
            v = rep_of.get(nf(freegroup.w_mul(w, (-i,))))
            if v is None:
                continue  # w * h^-1 lies outside the patch
            rw, rv = patch[w], patch[v]
            lo = max(rw.offset, rv.offset)
            hi = min(rw.offset + len(rw.tiles), rv.offset + len(rv.tiles))
            for n in range(lo, hi):
                tw = rw.tiles[n - rw.offset]
                tv = rv.tiles[n - rv.offset]
                if gts.phi(tw, h) != gts.psi(tv, h):
                    return False
    return True


def search_base_point(pres: PAGroupPresentation, radius: int,
                      max_den: int = 50) -> Fraction:
    """First rational (by denominator, then numerator) whose whole radius-ball
    orbit stays inside every composite's domain."""
    maps = pamaps.enumerate_maps(pres, radius + 1)
    L = pres.space.length
    for q in range(1, max_den + 1):
        for num in range(0, math.ceil(L * q) + 1):
            z = Fraction(num, q)
            if z > L:
                continue
            try:
                for m in maps:
                    pamaps.apply(m, z)
            except OutOfDomain:
                continue
            return z
    raise VerifyError("no base point found")


def build_orbit_patch(pres: PAGroupPresentation, gts: GroupTileSet, radius: int,
                      N: int, z0=None) -> dict[FGWord, PatchRow]:
    """Witness patch on the radius ball: position w carries the row encoding
    z_w = f_{w^-1}(z0), so that moving in the h direction applies f_h."""
    if gts.source is None:
        raise ValueError("group tile set carries no generation plan")
    if z0 is None:
        z0 = search_base_point(pres, radius)
    z0 = rat(z0)
    out_max = gts.out_maxes[0][1]
    oracle = freegroup.pa_oracle(pres)
    words = freegroup.ball(len(pres.generators), radius)
    patch: dict[FGWord, PatchRow] = {}
    for w in dict.fromkeys(freegroup.canonical_classes(words, oracle).values()):
        z = pamaps.apply(oracle.composite(freegroup.w_inv(w)), z0)
        # request the canonical representative of each neighbor's value, so
        # the emitted bits match the neighboring rows' input encodings
        targets = {name: pamaps.apply(gen, z) for name, gen in pres.generators}
        tiles, _ = plan_row(gts.source, z, -N, N, gts.in_max, out_max, targets)
        patch[w] = PatchRow(-N, tuple(tiles))
    return patch
