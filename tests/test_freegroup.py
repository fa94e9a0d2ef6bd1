import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freegroup_reference
from kariforge import pamaps, presets
from kariforge.freegroup import (
    BudgetExceeded,
    Pattern,
    PatternProblem,
    WordProblem,
    abelian_oracle,
    ball,
    canonical_classes,
    cyclic_oracle,
    empty_finite,
    empty_semi,
    free_oracle,
    in_language,
    pa_oracle,
    pattern_from_obj,
    pattern_to_obj,
    perg_forbidden,
    problem_from_obj,
    problem_to_obj,
    simple_sft_check,
    table_oracle,
    w_inv,
    w_mul,
    word_from_str,
    word_problem,
    w_reduce,
    word_to_str,
    xleq1_forbidden,
)


def brute_force_empty(problem):
    # independent exhaustion, structured differently from the implementation
    support = sorted({w for p in problem.patterns for w in p.support()})
    for values in itertools.product(range(problem.alphabet_size), repeat=len(support)):
        coloring = dict(zip(support, values))
        if all(any(coloring[w] != letter for w, letter in p.cells) for p in problem.patterns):
            return False
    return True


# -- words ----------------------------------------------------------------


def test_word_reduction():
    assert w_mul((1, -2), (2, 1)) == (1, 1)
    assert w_inv((1, -2, 1)) == ((-1, 2, -1))
    assert word_from_str("x1X2x1") == (1, -2, 1)
    assert word_to_str((1, -2, 1)) == "x1X2x1"
    assert word_from_str("") == ()


def test_words_refuse_a_zero_or_missing_index():
    with pytest.raises(ValueError, match="0 is not a generator index"):
        w_reduce((1, 0))
    for text in ("x", "x1X", "xX1"):
        with pytest.raises(ValueError, match="generator index missing"):
            word_from_str(text)


def test_pattern_families_refuse_small_alphabets():
    with pytest.raises(ValueError, match="alphabet must have at least one letter"):
        PatternProblem(0, ())
    with pytest.raises(ValueError, match="needs at least two letters"):
        perg_forbidden(free_oracle, 1, 1, alphabet_size=1)


def test_ball_sizes():
    assert len(ball(2, 0)) == 1
    assert len(ball(2, 1)) == 5
    assert len(ball(2, 2)) == 17


def test_canonical_classes_cyclic():
    canon = canonical_classes(ball(1, 3), cyclic_oracle(3))
    assert canon[(1, 1, 1)] == ()
    assert canon[(1, 1)] == (-1,)  # shorter words are enumerated first


# -- emptiness ----------------------------------------------------------


FORCED = PatternProblem(3, tuple(Pattern.make({(): a}) for a in range(3)))
FREE_CELL = PatternProblem(2, (Pattern.make({(): 0}),))
EQUAL_PAIR = PatternProblem(2, tuple(Pattern.make({(): a, (1,): a}) for a in range(2)))


@pytest.mark.parametrize("problem,expected", [
    (FORCED, True),
    (FREE_CELL, False),
    (EQUAL_PAIR, False),
])
def test_empty_finite_matches_brute_force(problem, expected):
    assert empty_finite(problem) is expected
    assert brute_force_empty(problem) is expected


def test_empty_finite_translated_families():
    # left-translating every support preserves the verdicts
    for problem, expected in ((FORCED, True), (FREE_CELL, False), (EQUAL_PAIR, False)):
        moved = PatternProblem(problem.alphabet_size, tuple(
            Pattern.make({w_mul((2,), w): l for w, l in p.cells}) for p in problem.patterns))
        assert empty_finite(moved) is expected


def test_empty_finite_monotone_under_more_patterns():
    base = FREE_CELL
    extended = PatternProblem(2, base.patterns + (Pattern.make({(): 1}),))
    assert not empty_finite(base)
    assert empty_finite(extended)


def test_empty_finite_budget():
    big = PatternProblem(2, tuple(Pattern.make({(i,): 0}) for i in range(1, 3)))
    with pytest.raises(BudgetExceeded):
        empty_finite(big, budget=2)


@pytest.mark.parametrize("budget", [0, -1])
def test_empty_finite_refuses_budget_below_one(budget):
    # even a problem with one coloring: a budget below 1 would refuse it
    with pytest.raises(ValueError, match=f"^budget must be >= 1, got {budget}$"):
        empty_finite(PatternProblem(2, ()), budget=budget)


def test_empty_semi():
    assert empty_semi(3, (Pattern.make({(): a}) for a in range(3)), 10) == 3
    assert empty_semi(2, itertools.repeat(Pattern.make({(): 0})), 6) is None
    xleq1 = xleq1_forbidden(free_oracle, 2, 1)
    assert empty_semi(2, iter(xleq1), len(xleq1)) is None  # the all-zero configuration survives


def test_empty_semi_stops_when_the_enumerator_runs_out():
    # one pattern, so the all-1 configuration survives every stage there is
    assert empty_semi(2, iter([Pattern.make({(): 0})]), 5) is None


# -- language membership ----------------------------------------------------


def test_in_language_everything_nondegenerate():
    w = Pattern.make({(): 0, (1,): 1})
    assert in_language(w, PatternProblem(2, ())) is False


def test_in_language_forced_cell():
    assert in_language(Pattern.make({(): 0}), FREE_CELL) is True
    assert in_language(Pattern.make({(): 1}), FREE_CELL) is False


def test_in_language_self_membership():
    w = Pattern.make({(): 0, (1,): 1})
    problem = PatternProblem(2, (w,))
    assert in_language(w, problem) is True


@st.composite
def language_cases(draw):
    """(w, problem): alphabet 1-3, at most 8 cells in w and the patterns
    together, on the words of the radius-2 ball of F2.  Letters run one past
    the alphabet, so some patterns and some w can never be matched."""
    size = draw(st.integers(1, 3))
    cells = st.dictionaries(st.sampled_from(ball(2, 2)), st.integers(0, size), max_size=4)
    w = draw(cells)
    patterns = draw(st.lists(cells, max_size=4).filter(lambda ps: len(w) + sum(map(len, ps)) <= 8))
    return Pattern.make(w), PatternProblem(size, tuple(map(Pattern.make, patterns)))


@settings(max_examples=300, deadline=None)
@given(language_cases())
def test_in_language_matches_pattern_adding_reference(case):
    w, problem = case
    assert in_language(w, problem) == freegroup_reference.in_language(w, problem)


# -- pattern generators ----------------------------------------------------


def test_perg_free_group_empty():
    assert perg_forbidden(free_oracle, 2, 2) == []


def test_perg_z2_commutator():
    pats = perg_forbidden(abelian_oracle, 2, 2)
    assert Pattern.make({(1, 2): 0, (2, 1): 1}) in pats
    assert Pattern.make({(1, 2): 1, (2, 1): 0}) in pats


def test_perg_psl2z_d_cubed(psl2z):
    pats = perg_forbidden(pa_oracle(psl2z), 2, 3)
    assert any(set(p.support()) == {(), (1, 1, 1)} for p in pats)


@pytest.mark.parametrize("name", ["free", "abelian", "psl2z"])
@pytest.mark.parametrize("radius", [4, 5])
def test_pattern_families_equal_the_pattern_make_lists(psl2z, name, radius):
    """Both families build their two-cell patterns directly; the lists, in
    order, are the ones `Pattern.make` gives on the same pairs."""
    oracle = {"free": free_oracle, "abelian": abelian_oracle, "psl2z": pa_oracle(psl2z)}[name]
    words = ball(2, radius)
    canon = canonical_classes(words, oracle)
    classes: dict = {}
    for w in words:
        classes.setdefault(canon[w], []).append(w)
    for size in (2, 3):
        want = [Pattern.make({g: a, h: b}) for rep in sorted(classes)
                for g, h in itertools.combinations(classes[rep], 2)
                for a in range(size) for b in range(size) if a != b]
        assert perg_forbidden(oracle, 2, radius, alphabet_size=size) == want
    reps = sorted(set(canon.values()))
    assert xleq1_forbidden(oracle, 2, radius) == [Pattern.make({(): 1, g: 1}) for g in reps if g != ()]


def test_xleq1_trivial_group():
    assert xleq1_forbidden(cyclic_oracle(1), 1, 2) == []


def test_xleq1_f2_radius1():
    pats = xleq1_forbidden(free_oracle, 2, 1)
    assert len(pats) == 4
    assert all(p.cells[0] == ((), 1) or ((), 1) in p.cells for p in pats)


def test_xleq1_problem_nonempty():
    problem = PatternProblem(2, tuple(xleq1_forbidden(free_oracle, 2, 2)))
    assert empty_finite(problem) is False


# -- simple group witness ---------------------------------------------------


def assert_proper(coloring, oracle, a, reps):
    for g in reps:
        target = w_mul(g, a)
        for r in reps:
            if oracle(w_mul(w_inv(r), target)):
                assert coloring[g] != coloring[r]


def test_simple_sft_z_alternates():
    coloring = simple_sft_check(abelian_oracle, 1, 4, (1,))
    assert set(coloring.values()) <= {0, 1, 2}
    assert_proper(coloring, abelian_oracle, (1,), list(coloring))


def test_simple_sft_cyclic3_uses_three_colors():
    coloring = simple_sft_check(cyclic_oracle(3), 1, 3, (1,))
    assert sorted(coloring.values()) == [0, 1, 2]


def test_simple_sft_psl2z_d(psl2z):
    oracle = pa_oracle(psl2z)
    coloring = simple_sft_check(oracle, 2, 2, (1,))
    assert_proper(coloring, oracle, (1,), list(coloring))


def test_simple_sft_rejects_identity():
    with pytest.raises(ValueError):
        simple_sft_check(free_oracle, 2, 2, ())


def test_simple_sft_check_catches_an_oracle_that_is_no_word_problem():
    # every nonempty word in one class: x1 * x1 lands in x1's class, a loop
    # that no proper coloring has
    collapsed = WordProblem(lambda w: min(len(w), 1))
    with pytest.raises(RuntimeError, match="coloring check failed"):
        simple_sft_check(collapsed, 1, 2, (1,))


Z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]


def test_table_oracle_z3():
    oracle = table_oracle(Z3, gens=[1])
    assert oracle((1, 1, 1))
    assert not oracle((1, 1))


def test_table_oracle_reads_its_identity_off_the_table():
    # Z/3 relabeled by x -> x - 1: element 2 is the identity, and 0 and 1
    # are each other's inverses
    shifted = [[(i + j - 2) % 3 for j in range(3)] for i in range(3)]
    oracle = table_oracle(shifted, gens=[0])
    assert oracle.nf(()) == 2
    assert oracle((1, -1)) and oracle((-1, -1, -1))
    assert not oracle((1,)) and not oracle((-1,))
    with pytest.raises(ValueError):  # no row fixes every element
        table_oracle([[1, 0], [1, 0]], gens=[0])


Z2 = [[0, 1], [1, 0]]


@pytest.mark.parametrize("mult, gens, fault", [
    ([[1, 0], [1, 0]], [0], "table has 0 identity rows"),
    ([[0, 1], [0, 1]], [0], "table has 2 identity rows"),  # both rows fix every element
    (Z2, [2], "generator 2 is not an element of the table, 0..1"),
    (Z2, [-1], "generator -1 is not an element of the table, 0..1"),  # not read from the end
    ([[0, 1], [1, 1]], [1], "generator 1 has no inverse in the table"),
])
def test_table_oracle_refuses_a_bad_table_at_construction(mult, gens, fault):
    with pytest.raises(ValueError, match=re.escape(fault)):
        table_oracle(mult, gens)


# -- normal forms --------------------------------------------------------


def test_normal_forms_of_builtin_oracles(psl2z):
    assert free_oracle.nf((1, -2, 2)) == (1,)
    assert abelian_oracle.nf((1, 2, -1, 2)) == ((2, 2),)
    assert cyclic_oracle(3).nf((1, 1, 1, 1)) == 1
    assert table_oracle(Z3, gens=[1, 2]).nf((2, 2, 1)) == 2
    oracle = pa_oracle(psl2z)
    assert oracle.nf((1, 1, 1)) == oracle.nf(()) == pamaps.identity(psl2z.space)
    assert oracle.nf((2,)) == psl2z.map_for("e")


def test_pa_normal_form_of_partial_composites(thompson_v):
    # v^-1 w is the total identity only when both composites are total, so a
    # word with a partial composite is its own class
    oracle = pa_oracle(thompson_v)
    assert oracle.nf((4,)) == (4,)
    assert oracle.composite((4,)) == thompson_v.map_for("pi0")
    assert not oracle((4, 4))


@pytest.mark.parametrize("n", [0, -3])
def test_cyclic_oracle_rejects_bad_order(n):
    with pytest.raises(ValueError):
        cyclic_oracle(n)


def test_word_problem_keeps_normal_forms():
    assert word_problem(abelian_oracle) is abelian_oracle
    pairwise = word_problem(lambda w: abelian_oracle(w))
    assert pairwise.nf((1, 2)) == (1, 2)
    assert pairwise.nf((2, 1)) == (1, 2)  # the first word seen in its class
    assert pairwise((1, -1)) and not pairwise((1,))


def test_perg_psl2z_radius4_composition_count(psl2z, monkeypatch):
    # one composition per (element, letter) the ball reaches
    calls = []
    compose = pamaps.compose
    monkeypatch.setattr(pamaps, "compose", lambda f, g: calls.append(1) or compose(f, g))
    perg_forbidden(pa_oracle(psl2z), 2, 4)
    assert 0 < len(calls) <= 64


# -- normal forms against the pairwise reference ---------------------------


ORACLES = {
    "free": lambda: free_oracle,
    "abelian": lambda: abelian_oracle,
    "cyclic3": lambda: cyclic_oracle(3),
    "z3-table": lambda: table_oracle(Z3, gens=[1, 2]),
    "psl2z": lambda: pa_oracle(presets.psl2z()),
}


def both_ways(fn, name):
    """fn through the oracle's normal form and through the pairwise adapter."""
    def outcome(oracle):
        try:
            return "ok", fn(oracle)
        except (ValueError, RuntimeError) as exc:  # the same failure must come out both ways
            return type(exc).__name__, str(exc)
    oracle = ORACLES[name]()
    return outcome(oracle), outcome(lambda w: oracle(w))


def reduced_words(p, max_len):
    letters = st.sampled_from([s for g in range(1, p + 1) for s in (g, -g)])
    return st.lists(letters, max_size=max_len).map(lambda w: w_mul(tuple(w), ()))


oracle_names = st.sampled_from(sorted(ORACLES))


@settings(max_examples=40, deadline=None)
@given(oracle_names, st.lists(reduced_words(2, 4), max_size=40))
def test_canonical_classes_normal_form_matches_pairwise(name, words):
    via_nf, pairwise = both_ways(lambda o: canonical_classes(words, o), name)
    assert via_nf == pairwise


@settings(max_examples=30, deadline=None)
@given(oracle_names, st.integers(1, 2), st.integers(0, 4), st.integers(2, 3))
def test_pattern_families_normal_form_match_pairwise(name, p, radius, alphabet):
    if name == "psl2z":
        p = 2  # two generators, d and e
    via_nf, pairwise = both_ways(lambda o: perg_forbidden(o, p, radius, alphabet), name)
    assert via_nf == pairwise
    via_nf, pairwise = both_ways(lambda o: xleq1_forbidden(o, p, radius), name)
    assert via_nf == pairwise


@settings(max_examples=30, deadline=None)
@given(oracle_names, st.integers(0, 4), reduced_words(2, 3))
def test_simple_sft_normal_form_matches_pairwise(name, radius, a):
    via_nf, pairwise = both_ways(lambda o: simple_sft_check(o, 2, radius, a), name)
    assert via_nf == pairwise


# -- serialization -----------------------------------------------------------


def test_pattern_json_roundtrip():
    p = Pattern.make({(): 0, (1, -2): 1})
    assert pattern_from_obj(json.loads(json.dumps(pattern_to_obj(p)))) == p


def test_problem_json_shape():
    obj = problem_to_obj(EQUAL_PAIR)
    assert obj["alphabet"] == 2
    assert obj["patterns"][0]["cells"][0]["word"] == ""
    assert problem_from_obj(json.loads(json.dumps(obj))) == EQUAL_PAIR


def _problem_obj(edit):
    obj = problem_to_obj(EQUAL_PAIR)
    edit(obj)
    return obj


def _set_cell(field, value):
    return lambda obj: obj["patterns"][0]["cells"][0].__setitem__(field, value)


# (edit of EQUAL_PAIR's JSON form, the ValueError's text)
MALFORMED_PROBLEMS = {
    "patterns {}": (lambda obj: obj.__setitem__("patterns", {}), "patterns: not a JSON list: {}"),
    "alphabet 2.7": (lambda obj: obj.__setitem__("alphabet", 2.7), "alphabet: not a JSON integer: 2.7"),
    "alphabet true": (lambda obj: obj.__setitem__("alphabet", True), "alphabet: not a JSON integer: true"),
    "alphabet missing": (lambda obj: obj.pop("alphabet"), "missing field 'alphabet'"),
    "letter '0'": (_set_cell("letter", "0"), 'patterns[0]: cells[0].letter: not a JSON integer: "0"'),
    "letter 1.0": (_set_cell("letter", 1.0), "patterns[0]: cells[0].letter: not a JSON integer: 1.0"),
    "letter 2": (_set_cell("letter", 2), "patterns[0]: cells[0].letter: 2 is not a letter of the 2-letter alphabet"),
    "letter -1": (_set_cell("letter", -1), "patterns[0]: cells[0].letter: -1 is not a letter of the 2-letter alphabet"),
    "word repeated": (lambda obj: obj["patterns"][1]["cells"].append({"word": "x2X2x1", "letter": 0}),
                      "patterns[1]: cells[2].word: a second cell at 'x1'"),
    "word 5": (_set_cell("word", 5), "patterns[0]: cells[0].word: not a JSON string: 5"),
    "word y1": (_set_cell("word", "y1"), "patterns[0]: cells[0].word: bad word syntax at 'y1'"),
    "cell []": (lambda obj: obj["patterns"][0]["cells"].__setitem__(0, []),
                "patterns[0]: cells[0]: not a JSON object: []"),
    "pattern 3": (lambda obj: obj["patterns"].__setitem__(0, 3), "patterns[0]: pattern: not a JSON object: 3"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PROBLEMS))
def test_malformed_problem_raises_value_error_naming_the_field(case):
    edit, text = MALFORMED_PROBLEMS[case]
    with pytest.raises(ValueError) as info:
        problem_from_obj(_problem_obj(edit))
    assert str(info.value) == text


def test_problem_document_must_be_an_object():
    with pytest.raises(ValueError, match=r"^problem: not a JSON object: \[\]"):
        problem_from_obj([])
