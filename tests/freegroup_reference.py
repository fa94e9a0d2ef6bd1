"""Pattern-adding reference for `freegroup.in_language`.

It forces the configurations to agree with w by forbidding every other
coloring of w's support, |A|^|supp w| - 1 extra patterns, and decides the
extended problem by exhaustion.  The library assigns w's cells instead; the
differential tests require equal answers.
"""

from __future__ import annotations

import itertools

from kariforge.freegroup import DEFAULT_BUDGET, Pattern, PatternProblem, empty_finite


def in_language(w: Pattern, problem: PatternProblem, budget: int = DEFAULT_BUDGET) -> bool:
    support = w.support()
    incompatible = []
    for letters in itertools.product(range(problem.alphabet_size), repeat=len(support)):
        cand = Pattern.make(tuple(zip(support, letters)))
        if cand != w:
            incompatible.append(cand)
    extended = PatternProblem(problem.alphabet_size, problem.patterns + tuple(incompatible))
    return empty_finite(extended, budget)
