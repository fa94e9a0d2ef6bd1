"""Enumerating reference for the periodic-row checks.

These are the walk-by-walk forms of `verify.periodic_soundness` and
`verify.stacked_periodic_scan`: every marked closed walk is listed and
checked on its own.  The library decides both checks from closed-walk sums
instead; the differential tests require equal outputs on small inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from kariforge import pamaps
from kariforge.pamaps import OutOfDomain, PAMap
from kariforge.tiles import ZTileSet
from kariforge.verify import TransitionGraph, closed_walks


def _rot(word: tuple[int, ...], s: int) -> tuple[int, ...]:
    n = len(word)
    return tuple(word[(m - s) % n] for m in range(n))


def periodic_soundness(ts: ZTileSet, f: PAMap, n_max: int,
                       stop_early: bool = False) -> list[dict]:
    name = ts.single_out()
    sp = f.space
    succ = TransitionGraph.of(ts).succ
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
                if stop_early:
                    return violations
    return violations


def stacked_periodic_scan(ts: ZTileSet, n_max: int, k_max: int) -> list[dict]:
    name = ts.single_out()
    succ = TransitionGraph.of(ts).succ
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
