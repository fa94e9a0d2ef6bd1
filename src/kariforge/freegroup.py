"""Effectively closed sets on free groups, decided by finite exhaustion.

Group elements are freely reduced words: tuples of nonzero ints, +i for the
i-th generator, -i for its inverse, () for the identity.  The string form
uses x1..xp for generators and X1..Xp for inverses, "" for the identity.

A pattern is a finite partial coloring of the free group.  A configuration
disagrees with a pattern if they differ somewhere on its support; the closed
set of a pattern list is everything disagreeing with every pattern.  For a
finite list, emptiness only depends on the union U of the supports, so it is
decided by exhausting the |A|^|U| colorings of U (guarded by a budget).

A word problem oracle is a callable word -> bool, true iff the word is the
identity in the group.  The built-in oracles are `WordProblem`s: each carries
a hashable normal form `nf(word)` (the reduced word for the free group, the
exponent vector for Z^d, the residue for Z/n, the element for a finite table,
the canonical composite `PAMap` for piecewise affine groups), and the bool
answer is the one-line adapter `nf(w) == nf(())`.  Classes of words and
neighbor lookups are then dict lookups on normal forms.  Any other callable
(a user lambda, a counting wrapper) is given a normal form by
`word_problem`, which tests each new word against the representatives seen
so far; that pairwise path is the reference the normal forms are checked
against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

from . import pamaps
from .pamaps import _json_field, _json_value

FGWord = tuple[int, ...]
Oracle = Callable[[FGWord], bool]
NormalForm = Callable[[FGWord], Hashable]

DEFAULT_BUDGET = 1 << 24


class BudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# Words


def w_reduce(symbols: Iterable[int]) -> FGWord:
    out: list[int] = []
    for s in symbols:
        if s == 0:
            raise ValueError("0 is not a generator index")
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def w_mul(a: FGWord, b: FGWord) -> FGWord:
    return w_reduce(itertools.chain(a, b))


def w_inv(a: FGWord) -> FGWord:
    return tuple(-s for s in reversed(a))


def word_from_str(text: str) -> FGWord:
    symbols = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch not in "xX":
            raise ValueError(f"bad word syntax at {text[i:]!r}")
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        if j == i + 1:
            raise ValueError(f"generator index missing at {text[i:]!r}")
        idx = int(text[i + 1:j])
        symbols.append(idx if ch == "x" else -idx)
        i = j
    return w_reduce(symbols)


def word_to_str(w: FGWord) -> str:
    return "".join((f"x{s}" if s > 0 else f"X{-s}") for s in w)


def ball(p: int, radius: int) -> list[FGWord]:
    """All reduced words of length <= radius over p generators."""
    words: list[FGWord] = [()]
    frontier: list[FGWord] = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in range(1, p + 1):
                for s in (g, -g):
                    if w and w[-1] == -s:
                        continue
                    nxt.append(w + (s,))
        words.extend(nxt)
        frontier = nxt
    return words


def canonical_classes(words: Sequence[FGWord], oracle: Oracle) -> dict[FGWord, FGWord]:
    """Map each word to the earliest enumerated word equal to it in the group."""
    nf = word_problem(oracle).nf
    first: dict = {}
    return {w: first.setdefault(nf(w), w) for w in words}


# ---------------------------------------------------------------------------
# Oracles


class WordProblem:
    """Word-problem oracle given by a normal form: w is trivial iff nf(w) == nf(())."""

    def __init__(self, nf: NormalForm):
        self.nf = nf
        self.identity = nf(())

    def __call__(self, w: FGWord) -> bool:
        return self.nf(w) == self.identity


def word_problem(oracle: Oracle) -> WordProblem:
    """The oracle itself if it carries a normal form, else the pairwise adapter:
    a word's normal form is the first word seen equal to it, found by asking
    the oracle about r^-1 w for each earlier representative r."""
    if hasattr(oracle, "nf"):
        return oracle
    reps: list[FGWord] = []

    def nf(w: FGWord) -> FGWord:
        for r in reps:
            if oracle(w_mul(w_inv(r), w)):
                return r
        reps.append(w)
        return w

    return WordProblem(nf)


free_oracle = WordProblem(w_reduce)


def _exponents(w: FGWord) -> tuple[tuple[int, int], ...]:
    totals: dict[int, int] = {}
    for s in w:
        totals[abs(s)] = totals.get(abs(s), 0) + (1 if s > 0 else -1)
    return tuple(sorted((g, e) for g, e in totals.items() if e))


# Z^d for any d: a word is trivial iff every generator's exponents cancel.
abelian_oracle = WordProblem(_exponents)


def cyclic_oracle(n: int) -> WordProblem:
    """Z/n with every generator mapped to 1."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    return WordProblem(lambda w: sum(1 if s > 0 else -1 for s in w) % n)


def table_oracle(mult: Sequence[Sequence[int]], gens: Sequence[int]) -> WordProblem:
    """Finite group by multiplication table, its identity the e with mult[e][x] == x for every x;
    gens[i] is the element of x_{i+1}."""
    elements = range(len(mult))
    [identity] = [e for e in elements if all(mult[e][x] == x for x in elements)]
    inv = {a: b for a in elements for b in elements if mult[a][b] == identity}

    def nf(w: FGWord) -> int:
        acc = identity
        for s in w:
            g = gens[abs(s) - 1]
            acc = mult[acc][g if s > 0 else inv[g]]
        return acc

    return WordProblem(nf)


def pa_oracle(pres: pamaps.PAGroupPresentation) -> WordProblem:
    """Word problem through `pamaps.composites`: the normal form of w is its
    composite map when that is total, else w itself, so v^-1 w is trivial iff
    both composites are total and equal, as in `pamaps.is_identity_word`.
    `composite(w)` gives the map itself."""
    composite = pamaps.composites(pres)

    def nf(w: FGWord) -> pamaps.PAMap | FGWord:
        m, total = composite(w)
        return m if total else w

    oracle = WordProblem(nf)
    oracle.composite = lambda w: composite(w)[0]
    return oracle


# ---------------------------------------------------------------------------
# Patterns and emptiness


@dataclass(frozen=True)
class Pattern:
    cells: tuple[tuple[FGWord, int], ...]  # sorted by word

    @staticmethod
    def make(assignment: dict[FGWord, int] | Iterable[tuple[FGWord, int]]) -> "Pattern":
        items = assignment.items() if isinstance(assignment, dict) else assignment
        return Pattern(tuple(sorted(items)))

    def support(self) -> tuple[FGWord, ...]:
        return tuple(w for w, _ in self.cells)


@dataclass(frozen=True)
class PatternProblem:
    alphabet_size: int
    patterns: tuple[Pattern, ...]

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ValueError("alphabet must have at least one letter")


def empty_finite(problem: PatternProblem, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff no configuration disagrees with every pattern.

    Exhausts all colorings of the union of supports; any coloring that fails
    to fully agree with some pattern extends to a surviving configuration.
    """
    support = sorted({w for pat in problem.patterns for w in pat.support()})
    index = {w: i for i, w in enumerate(support)}
    total = problem.alphabet_size ** len(support)
    if total > budget:
        raise BudgetExceeded(f"{total} colorings exceed budget {budget}")
    pats = [tuple((index[w], letter) for w, letter in pat.cells) for pat in problem.patterns]
    for coloring in itertools.product(range(problem.alphabet_size), repeat=len(support)):
        if not any(all(coloring[i] == letter for i, letter in pat) for pat in pats):
            return False  # this coloring survives: the set is nonempty
    return True


def empty_semi(alphabet_size: int, enumerator: Iterable[Pattern], max_stages: int,
               budget: int = DEFAULT_BUDGET) -> Optional[int]:
    """Emptiness stage for a growing pattern list; None if not reached in time."""
    prefix: list[Pattern] = []
    it = iter(enumerator)
    for k in range(1, max_stages + 1):
        try:
            prefix.append(next(it))
        except StopIteration:
            break
        if empty_finite(PatternProblem(alphabet_size, tuple(prefix)), budget):
            return len(prefix)
    return None


def in_language(w: Pattern, problem: PatternProblem, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff every surviving configuration disagrees with w somewhere.  With w's cells assigned,
    a pattern disagreeing with w there is avoided, and the others on their remaining cells."""
    if any(not 0 <= letter < problem.alphabet_size for _, letter in w.cells):
        return True  # no configuration agrees with w
    fixed = dict(w.cells)
    rest = tuple(Pattern(tuple(c for c in pat.cells if c[0] not in fixed)) for pat in problem.patterns
                 if all(fixed.get(word, letter) == letter for word, letter in pat.cells))
    return empty_finite(PatternProblem(problem.alphabet_size, rest), budget)


# ---------------------------------------------------------------------------
# Pattern families from word problems


def perg_forbidden(oracle: Oracle, p: int, radius: int, alphabet_size: int = 2) -> list[Pattern]:
    """Patterns violated by group-consistent configurations: for every pair of
    ball words equal in the group, all colorings giving them different letters."""
    if alphabet_size < 2:
        raise ValueError("needs at least two letters")
    words = ball(p, radius)
    canon = canonical_classes(words, oracle)
    classes: dict[FGWord, list[FGWord]] = {}
    for w in words:
        classes.setdefault(canon[w], []).append(w)
    out = []
    for rep in sorted(classes):
        members = classes[rep]
        for g, h in itertools.combinations(members, 2):
            for a in range(alphabet_size):
                for b in range(alphabet_size):
                    if a != b:
                        out.append(Pattern.make({g: a, h: b}))
    return out


def xleq1_forbidden(oracle: Oracle, p: int, radius: int) -> list[Pattern]:
    """Forbidden patterns (over {0,1}) of 'at most one 1': two 1s at distinct
    group elements of the ball."""
    words = ball(p, radius)
    canon = canonical_classes(words, oracle)
    reps = sorted({canon[w] for w in words})
    return [Pattern.make({(): 1, g: 1}) for g in reps if g != ()]


def simple_sft_check(oracle: Oracle, p: int, radius: int, a: FGWord) -> dict[FGWord, int]:
    """3-color the ball so that every edge {g, g*a} is bichromatic.

    The edge set is a union of paths and cycles (each vertex touches at most
    one a-successor and one a-predecessor), so a greedy coloring always
    succeeds; the result is a finite witness patch of the constraint set.
    """
    if oracle(a):
        raise ValueError("a must not be the identity")
    wp = word_problem(oracle)
    words = ball(p, radius)
    canon = canonical_classes(words, wp)
    reps = sorted(set(canon.values()))
    rep_of = {wp.nf(r): r for r in reps}
    succ = {g: rep_of.get(wp.nf(w_mul(g, a))) for g in reps}
    pred = {n: g for g, n in succ.items() if n is not None}
    coloring: dict[FGWord, int] = {}
    for g in reps:
        coloring[g] = min({0, 1, 2} - {coloring.get(succ[g]), coloring.get(pred.get(g))})
    # in a group g*a determines g; an oracle that is no word problem can
    # give a vertex two predecessors or make it its own successor
    for g in reps:
        nxt = succ[g]
        if nxt is not None and coloring[g] == coloring[nxt]:
            raise RuntimeError("coloring check failed; oracle is inconsistent")
    return coloring


# ---------------------------------------------------------------------------
# JSON form


def pattern_to_obj(p: Pattern) -> dict:
    return {"cells": [{"word": word_to_str(w), "letter": l} for w, l in p.cells]}


def pattern_from_obj(obj) -> Pattern:
    """The pattern of a JSON form; malformed input raises a ValueError naming the field."""
    cells = {}
    for i, c in enumerate(_json_field(_json_value(obj, "pattern", dict), "cells", "", list)):
        path = f"cells[{i}]"
        word = _json_field(_json_value(c, path, dict), "word", path, str)
        try:
            w = word_from_str(word)
        except ValueError as exc:
            raise ValueError(f"{path}.word: {exc}") from None
        if w in cells:
            raise ValueError(f"{path}.word: a second cell at {word_to_str(w)!r}")
        cells[w] = _json_field(c, "letter", path, int)
    return Pattern.make(cells)


def problem_to_obj(p: PatternProblem) -> dict:
    return {"alphabet": p.alphabet_size, "patterns": [pattern_to_obj(x) for x in p.patterns]}


def problem_from_obj(obj) -> PatternProblem:
    """The problem of a JSON form; malformed input raises a ValueError naming the field."""
    alphabet = _json_field(_json_value(obj, "problem", dict), "alphabet", "", int)
    patterns = []
    for i, p in enumerate(_json_field(obj, "patterns", "", list)):
        try:
            patterns.append(pattern_from_obj(p))
            for j, c in enumerate(p["cells"]):
                if not 0 <= c["letter"] < alphabet:
                    raise ValueError(f"cells[{j}].letter: {c['letter']} is not a letter"
                                     f" of the {alphabet}-letter alphabet")
        except ValueError as exc:
            raise ValueError(f"patterns[{i}]: {exc}") from None
    return PatternProblem(alphabet, tuple(patterns))
