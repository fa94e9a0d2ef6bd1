"""Enumerating reference for the periodic-row checks.

These are the walk-by-walk forms of `verify.periodic_soundness` and
`verify.stacked_periodic_scan`: every marked closed walk is listed and
checked on its own, by a walk search that follows every path, on a tile
graph built pair by pair.  The library decides both checks from
closed-walk sums and lists walks with a pruned search instead; the
differential tests require equal outputs on small inputs.

`closed_walk_sums` is the sums DP on the tile graph, over (start tile,
current tile, sums) with predecessor lists to close each walk.  The
library runs it on the label graph, over (start label, current label,
sums), and must find the same classes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional, Sequence

from kariforge import pamaps
from kariforge.pamaps import OutOfDomain, PAMap
from kariforge.tiles import ZTileSet


def successors(ts: ZTileSet) -> tuple[tuple[int, ...], ...]:
    """succ[i]: the tiles j whose left label is tile i's right label, in
    index order, one tuple per tile."""
    return tuple(tuple(j for j, u in enumerate(ts.tiles) if u.left == t.right) for t in ts.tiles)


def closed_walk_sums(succ: Sequence[Sequence[int]], tops: Sequence[int], bots: Sequence[int],
                     n_max: int) -> dict[int, set[tuple[int, int]]]:
    """The (top sum, bottom sum) pairs of the closed tile walks of each
    length n <= n_max.  The walks from each start tile stay on tiles at or
    after it, and one of length n is found when the layer after n - 1 steps
    holds a predecessor of the start."""
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


def closed_walks(succ: Sequence[Sequence[int]], n: int) -> Iterator[tuple[int, ...]]:
    """All closed walks of length n, start tile marked (rotations distinct):
    every path of n - 1 steps from every start tile is followed, and the
    ones whose last tile leads back to the start are kept."""
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


def _rot(word: tuple[int, ...], s: int) -> tuple[int, ...]:
    n = len(word)
    return tuple(word[(m - s) % n] for m in range(n))


def periodic_soundness(ts: ZTileSet, f: PAMap, n_max: int) -> list[dict]:
    name = ts.single_out()
    sp = f.space
    succ = successors(ts)
    violations = []
    for n in range(1, n_max + 1):
        for walk in closed_walks(succ, n):
            tiles = [ts.tiles[i] for i in walk]
            top_avg = Fraction(sum(t.top for t in tiles), n)
            bot_avg = Fraction(sum(t.bottom(name) for t in tiles), n)
            x = sp.normalize(top_avg)
            try:
                expected = pamaps.apply(f, x)
            except OutOfDomain:
                expected = None
            if expected is None or not sp.equiv(bot_avg, expected):
                violations.append({
                    "n": n,
                    "cycle": list(walk),
                    "top_avg": str(top_avg),
                    "bottom_avg": str(bot_avg),
                    "expected": None if expected is None else str(expected),
                })
    return violations


def stacked_periodic_scan(ts: ZTileSet, n_max: int, k_max: int) -> list[dict]:
    name = ts.single_out()
    succ = successors(ts)
    found: dict[tuple[int, int, int], dict] = {}
    for n in range(1, n_max + 1):
        pairs: dict[tuple, dict[tuple, tuple]] = {}
        avg_succ: dict[Fraction, set[Fraction]] = {}
        for walk in closed_walks(succ, n):
            tiles = [ts.tiles[i] for i in walk]
            tops = tuple(t.top for t in tiles)
            bots = tuple(t.bottom(name) for t in tiles)
            pairs.setdefault(tops, {}).setdefault(bots, walk)
            avg_succ.setdefault(Fraction(sum(tops), n), set()).add(Fraction(sum(bots), n))

        def avg_loop_lengths(a0: Fraction) -> set[int]:
            lengths = set()
            frontier = {a0}
            for k in range(1, k_max + 1):
                frontier = {b for a in frontier for b in avg_succ.get(a, ())}
                if a0 in frontier:
                    lengths.add(k)
                if not frontier:
                    break
            return lengths

        loop_cache: dict[Fraction, set[int]] = {}
        for t0 in sorted(pairs):
            a0 = Fraction(sum(t0), n)
            if a0 not in loop_cache:
                loop_cache[a0] = avg_loop_lengths(a0)
            ks = loop_cache[a0]
            if not ks:
                continue
            levels: list[dict[tuple, Optional[tuple]]] = [{t0: None}]
            for _ in range(1, max(ks)):
                cur: dict[tuple, Optional[tuple]] = {}
                for w in levels[-1]:
                    for b in pairs.get(w, ()):
                        if b in pairs and b not in cur:
                            cur[b] = w
                levels.append(cur)
            for k in sorted(ks):
                for w in levels[k - 1]:
                    for b in pairs[w]:
                        for s in range(n):
                            if (n, k, s) in found:
                                continue
                            if b != _rot(t0, s):
                                continue
                            chain = [w]
                            for lvl in range(k - 1, 0, -1):
                                chain.append(levels[lvl][chain[-1]])
                            chain.reverse()
                            rows = []
                            for i, wt in enumerate(chain):
                                nxt = chain[i + 1] if i + 1 < k else b
                                rows.append(list(pairs[wt][nxt]))
                            found[(n, k, s)] = {"n": n, "k": k, "shear": s, "rows": rows}
    return [found[key] for key in sorted(found)]
