"""Fraction reference for the witness rows.

These are the position-by-position forms of `verify.disc` and
`verify.plan_row`: every bit and carry is an exact `Fraction` expression,
union branches are tried by building their rows, and every plan node makes
its own tiles.  The library computes the same rows with integer floors,
after choosing the branches from the plan alone; the differential tests
require equal outputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from kariforge.pamaps import rat
from kariforge.tiles import Plan, PlanAff, PlanComp, PlanProd, PlanUnion, ZTile, atom, tag, tup
from kariforge.verify import WitnessFailure


def disc_bits(y, n_from: int, n_to: int) -> tuple[int, ...]:
    y = rat(y)
    if y < 0:
        raise ValueError("disc needs y >= 0")
    return tuple(math.floor((n + 1) * y) - math.floor(n * y) for n in range(n_from, n_to + 1))


def _affine_row(a: Fraction, b: Fraction, x: Fraction, n_from: int, n_to: int,
                in_max: int, out_max: int, out_name: str,
                y_target: Optional[Fraction]) -> tuple[list[ZTile], Fraction]:
    if not 0 <= x <= in_max:
        raise WitnessFailure(f"input {x} not encodable in bits 0..{in_max}")
    y = a * x + b
    if not 0 <= y <= out_max:
        raise WitnessFailure(f"output {y} not encodable in bits 0..{out_max}")
    if y_target is not None and y != y_target:
        raise WitnessFailure(f"branch outputs {y}, not the requested {y_target}")
    tiles = []
    carry = lambda n: a * math.floor(n * x) + n * b - math.floor(n * y)
    tops = disc_bits(x, n_from, n_to)
    bots = disc_bits(y, n_from, n_to)
    for i, n in enumerate(range(n_from, n_to + 1)):
        tiles.append(ZTile(tops[i], ((out_name, bots[i]),), atom(carry(n)), atom(carry(n + 1))))
    return tiles, y


def plan_row(plan: Plan, x, n_from: int, n_to: int, in_max: int, out_max: int,
             y_target=None) -> tuple[list[ZTile], Fraction]:
    x = rat(x)
    if isinstance(plan, PlanAff):
        return _affine_row(plan.a, plan.b, x, n_from, n_to, in_max, out_max, "f", y_target)
    if isinstance(plan, PlanUnion):
        try:
            tiles, y = plan_row(plan.first, x, n_from, n_to, in_max, out_max, y_target)
            tname = "L"
        except WitnessFailure:
            tiles, y = plan_row(plan.second, x, n_from, n_to, in_max, out_max, y_target)
            tname = "R"
        return [ZTile(t.top, t.bottoms, tag(tname, t.left), tag(tname, t.right)) for t in tiles], y
    if isinstance(plan, PlanComp):
        first, mid = plan_row(plan.first, x, n_from, n_to, in_max, out_max)
        second, y = plan_row(plan.second, mid, n_from, n_to, in_max, out_max, y_target)
        tiles = []
        for ta, tb in zip(first, second):
            if ta.bottom() != tb.top:
                raise WitnessFailure("middle bit rows disagree")
            tiles.append(ZTile(ta.top, tb.bottoms, tup(ta.left, tb.left), tup(ta.right, tb.right)))
        return tiles, y
    if isinstance(plan, PlanProd):
        parts = []
        for name, p in plan.parts:
            target = y_target.get(name) if isinstance(y_target, dict) else y_target
            parts.append((name, plan_row(p, x, n_from, n_to, in_max, out_max, target)))
        tiles = []
        for i in range(n_to - n_from + 1):
            chosen = [rows[i] for _, (rows, _) in parts]
            bottoms = tuple(sorted((name, t.bottom()) for (name, _), t in zip(parts, chosen)))
            tiles.append(ZTile(chosen[0].top, bottoms,
                               tup(*(t.left for t in chosen)), tup(*(t.right for t in chosen))))
        return tiles, x
    raise TypeError(f"not a plan: {plan!r}")
