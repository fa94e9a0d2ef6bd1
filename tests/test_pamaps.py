import itertools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kariforge.pamaps import (
    AffinePiece,
    Conflict,
    Interval,
    NotInjective,
    OutOfDomain,
    PAMap,
    Space,
    SpaceMismatch,
    UnknownGenerator,
    ZeroSlope,
    apply,
    common_domain,
    compose,
    enumerate_maps,
    equals,
    fixed_points,
    identity,
    intersect_interval_sets,
    interval_set_contains,
    invert,
    is_circle_homeo,
    is_identity_word,
    merge_intervals,
    nontriviality_witness,
    pamap_from_obj,
    pamap_to_obj,
    parse_word,
    periodic_points,
    power_fixed_points,
    rat,
    union,
    word_apply,
)

CIRCLE1 = Space(F(1), circle=True)
SEG1 = Space(F(1), circle=False)


def piecemap(space, triples):
    return PAMap.make(space, [AffinePiece(Interval(F(lo), F(hi)), F(a), F(b)) for lo, hi, a, b in triples])


# -- apply --------------------------------------------------------------


def test_apply_kari_sample(kari):
    assert apply(kari, F(3, 4)) == F(1, 6)


def test_apply_identity():
    assert apply(identity(CIRCLE1), F(1, 3)) == F(1, 3)


def test_apply_wrap_to_zero(psl2z):
    assert apply(psl2z.map_for("e"), 1) == 0


def test_apply_out_of_domain():
    m = piecemap(SEG1, [(0, F(1, 2), 1, 0)])
    with pytest.raises(OutOfDomain):
        apply(m, F(3, 4))


def test_apply_rejects_floats(kari):
    with pytest.raises(TypeError):
        apply(kari, 0.75)


# -- compose ------------------------------------------------------------


def test_compose_identity():
    i = identity(CIRCLE1)
    assert equals(compose(i, i), i)


def test_compose_ee_is_identity(psl2z):
    e = psl2z.map_for("e")
    assert equals(compose(e, e), identity(psl2z.space))


def test_compose_flip_twice_restricted_identity():
    m = piecemap(SEG1, [(0, F(1, 3), -1, F(1, 3))])
    mm = compose(m, m)
    assert mm.pieces == (AffinePiece(Interval(F(0), F(1, 3)), F(1), F(0)),)


def test_compose_space_mismatch(kari):
    with pytest.raises(SpaceMismatch):
        compose(kari, identity(Space(F(2), circle=True)))


# -- invert -------------------------------------------------------------


def test_invert_identity():
    i = identity(CIRCLE1)
    assert equals(invert(i), i)


def test_invert_affine_piece():
    # solving y = (2x-1)/3 for x in [1/2, 1]: x = (3y+1)/2, y in [0, 1/3]
    m = piecemap(CIRCLE1, [(F(1, 2), 1, F(2, 3), F(-1, 3))])
    assert invert(m).pieces == (AffinePiece(Interval(F(0), F(1, 3)), F(3, 2), F(1, 2)),)


def test_invert_compose_roundtrip(kari):
    assert equals(compose(invert(kari), kari), identity(kari.space))


def test_invert_not_injective():
    m = piecemap(SEG1, [(0, F(1, 2), 1, 0), (F(1, 2), 1, -1, 1)])
    with pytest.raises(NotInjective):
        invert(m)


def test_invert_zero_slope():
    m = piecemap(SEG1, [(0, 1, 0, F(1, 2))])
    with pytest.raises(ZeroSlope):
        invert(m)


# -- union --------------------------------------------------------------


def test_union_idempotent(kari):
    assert equals(union(kari, kari), kari)


def test_union_two_kari_pieces(kari):
    lo = piecemap(CIRCLE1, [(0, F(1, 2), F(4, 3), F(1, 3))])
    hi = piecemap(CIRCLE1, [(F(1, 2), 1, F(2, 3), F(-1, 3))])
    assert equals(union(lo, hi), kari)
    assert is_circle_homeo(union(lo, hi))


def test_union_disjoint_agreeing_at_point():
    a = piecemap(SEG1, [(0, F(1, 2), 1, 0)])
    b = piecemap(SEG1, [(F(1, 2), 1, F(1, 2), F(1, 4))])
    u = union(a, b)
    assert len(u.pieces) == 2 and u.is_total()


def test_union_conflict():
    a = piecemap(SEG1, [(0, F(1, 2), 1, 0)])
    b = piecemap(SEG1, [(0, F(1, 2), F(1, 2), 0)])
    with pytest.raises(Conflict):
        union(a, b)


# -- validation -----------------------------------------------------------


OUTSIDE_SEG1 = [
    AffinePiece(Interval(F(1, 2), F(3, 2)), F(1), F(0)),  # domain leaves [0, 1]
    AffinePiece(Interval(F(0), F(1)), F(2), F(0)),  # image leaves [0, 1]
]


@pytest.mark.parametrize("piece", OUTSIDE_SEG1)
def test_make_rejects_piece_outside_space(piece):
    with pytest.raises(ValueError):
        PAMap.make(SEG1, [piece])


@pytest.mark.parametrize("piece", OUTSIDE_SEG1)
def test_direct_construction_rejects_piece_outside_space(piece):
    with pytest.raises(ValueError):
        PAMap(SEG1, (piece,))


def test_make_checks_pieces_before_normalizing():
    # on a circle a point value of 3/2 would normalize to 1/2; it is refused first
    with pytest.raises(ValueError):
        PAMap.make(CIRCLE1, [AffinePiece(Interval(F(1, 2), F(1, 2)), F(0), F(3, 2))])


# -- equals -------------------------------------------------------------


def test_equals_identity():
    assert equals(identity(CIRCLE1), identity(CIRCLE1))


def test_equals_d_cubed(psl2z):
    d = psl2z.map_for("d")
    assert equals(compose(d, compose(d, d)), identity(psl2z.space))


def test_equals_different_generators(psl2z):
    assert not equals(psl2z.map_for("d"), psl2z.map_for("e"))


def test_equals_resplit_representation(kari):
    # splitting a piece at an interior point canonicalizes back to the same map
    resplit = []
    for p in kari.pieces:
        mid = (p.dom.lo + p.dom.hi) / 2
        resplit.append(AffinePiece(Interval(p.dom.lo, mid), p.slope, p.offset))
        resplit.append(AffinePiece(Interval(mid, p.dom.hi), p.slope, p.offset))
    assert equals(PAMap.make(kari.space, resplit), kari)


def test_constant_wrap_values_equal():
    a = piecemap(CIRCLE1, [(0, F(1, 2), 0, 1)])
    b = piecemap(CIRCLE1, [(0, F(1, 2), 0, 0)])
    assert equals(a, b)  # constant 1 and constant 0 are the same circle point


# -- circle homeomorphism test ------------------------------------------


def test_kari_is_circle_homeo(kari):
    assert is_circle_homeo(kari)


def test_non_surjective_patch_is_not_homeo():
    m = piecemap(SEG1, [(0, 1, F(1, 2), 0)])
    assert not is_circle_homeo(m)


def test_thompson_t_generators_are_homeos(thompson_t):
    for _, m in thompson_t.generators:
        assert is_circle_homeo(m)


def test_partial_map_not_homeo(thompson_v):
    assert not is_circle_homeo(thompson_v.map_for("a"))


# -- words --------------------------------------------------------------


def test_word_apply_empty(psl2z):
    assert equals(word_apply(psl2z, ()), identity(psl2z.space))


def test_word_apply_ee(psl2z):
    assert equals(word_apply(psl2z, parse_word(psl2z, "ee")), identity(psl2z.space))


def test_word_apply_convention(psl2z):
    # the word "de" is the composite d after e
    d, e = psl2z.map_for("d"), psl2z.map_for("e")
    assert equals(word_apply(psl2z, parse_word(psl2z, "de")), compose(d, e))


def test_parse_word_inverses(psl2z):
    assert parse_word(psl2z, "dD") == (("d", 1), ("d", -1))
    assert parse_word(psl2z, "d'e") == (("d", -1), ("e", 1))
    with pytest.raises(UnknownGenerator):
        parse_word(psl2z, "dz")


def test_parse_word_multichar_names(thompson_v):
    assert parse_word(thompson_v, "pi0'a") == (("pi0", -1), ("a", 1))
    assert parse_word(thompson_v, "b pi0") == (("b", 1), ("pi0", 1))


def test_is_identity_word(psl2z):
    assert is_identity_word(psl2z, parse_word(psl2z, "ddd"))
    assert not is_identity_word(psl2z, parse_word(psl2z, "d"))
    for k in range(1, 11):
        assert not is_identity_word(psl2z, parse_word(psl2z, "de" * k))


def _z3z2_trivial(word):
    # normal form in the free product <d | d^3> * <e | e^2>
    stack = []
    for name, sign in word:
        order = 3 if name == "d" else 2
        exp = sign % order
        if stack and stack[-1][0] == name:
            exp = (stack[-1][1] + exp) % order
            stack.pop()
        if exp:
            stack.append((name, exp))
    return not stack


def test_psl2z_words_match_free_product(psl2z):
    # all words of length <= 4 here; the acceptance suite goes to 6
    symbols = [("d", 1), ("d", -1), ("e", 1), ("e", -1)]
    layer = {(): identity(psl2z.space)}
    for _ in range(4):
        nxt = {}
        for word, m in layer.items():
            for s in symbols:
                w = word + (s,)
                atom = psl2z.map_for(s[0]) if s[1] > 0 else invert(psl2z.map_for(s[0]))
                nxt[w] = compose(m, atom)
        layer = nxt
        for w, m in layer.items():
            assert equals(m, identity(psl2z.space)) == _z3z2_trivial(w), w


# -- fixed and periodic points ------------------------------------------


def test_fixed_points_identity():
    assert fixed_points(identity(CIRCLE1)) == (Interval(F(0), F(1)),)


def test_fixed_points_kari_empty(kari):
    assert fixed_points(kari) == ()


def test_fixed_points_halving():
    m = piecemap(SEG1, [(0, 1, F(1, 2), 0)])
    assert fixed_points(m) == (Interval(F(0), F(0)),)


def test_periodic_points_kari_empty(kari):
    for k in range(1, 13):
        assert periodic_points(kari, k) == ()


def test_periodic_points_identity():
    assert periodic_points(identity(CIRCLE1), 3) == (Interval(F(0), F(1)),)


def test_periodic_points_e_squared(psl2z):
    assert periodic_points(psl2z.map_for("e"), 2) == (Interval(F(0), F(2)),)


def test_periodic_points_matches_fixed_points_of_power(psl2z):
    d = psl2z.map_for("d")
    assert periodic_points(d, 3) == fixed_points(compose(d, compose(d, d)))


def test_periodic_points_requires_total(thompson_v):
    with pytest.raises(OutOfDomain):
        periodic_points(thompson_v.map_for("a"), 2)


@pytest.mark.parametrize("k", [0, -1])
def test_periodic_points_refuses_k_below_one(kari, k):
    for solve in (periodic_points, power_fixed_points):
        with pytest.raises(ValueError, match="k must be >= 1"):
            solve(kari, k)


def test_power_fixed_points_is_periodic_points_per_k(psl2z):
    for f in (psl2z.map_for("d"), psl2z.map_for("e"), identity(CIRCLE1)):
        assert power_fixed_points(f, 6) == [reference.periodic_points(f, k) for k in range(1, 7)]
        assert periodic_points(f, 6) == reference.periodic_points(f, 6)
    with pytest.raises(OutOfDomain, match="periodic_points needs a total map"):
        power_fixed_points(piecemap(SEG1, [(0, F(1, 2), 1, 0)]), 2)


def test_periodic_points_solves_only_the_last_power(kari, psl2z, monkeypatch):
    # both walk one power chain; periodic_points solves Fix(f^k) alone
    calls = []
    solve = kernel.fixed_points
    monkeypatch.setattr(kernel, "fixed_points", lambda f: calls.append(f) or solve(f))
    for f in (kari, psl2z.map_for("d")):
        calls.clear()
        last = periodic_points(f, 8)
        assert len(calls) == 1
        calls.clear()
        assert power_fixed_points(f, 8)[-1] == last
        assert len(calls) == 8


def test_intervals_and_spaces_refuse_empty_extents():
    with pytest.raises(ValueError, match=r"empty interval \[1/2, 1/3\]"):
        Interval(F(1, 2), F(1, 3))
    for length in (0, -1):
        with pytest.raises(ValueError, match="space length must be positive"):
            Space(F(length), circle=True)


def test_union_and_equals_refuse_other_spaces(kari):
    other = identity(Space(F(2), circle=True))
    for op in (union, equals):
        with pytest.raises(SpaceMismatch):
            op(kari, other)


# -- common domain -------------------------------------------------------


def test_common_domain_depth_zero(thompson_v):
    assert common_domain(thompson_v, 0) == (Interval(F(0), F(1)),)


def test_common_domain_monotone(thompson_v):
    prev = common_domain(thompson_v, 0)
    for depth in (1, 2, 3):
        cur = common_domain(thompson_v, depth)
        assert intersect_interval_sets(cur, prev) == cur  # cur is a subset
        prev = cur


def test_common_domain_total_presentation(psl2z):
    assert common_domain(psl2z, 3) == (Interval(F(0), F(2)),)


def test_thompson_v_depth3_inside_quoted_union(thompson_v):
    target = (
        Interval(F(0), F(1, 9)),
        Interval(F(2, 9), F(1, 3)),
        Interval(F(2, 3), F(7, 9)),
        Interval(F(8, 9), F(1)),
    )
    got = common_domain(thompson_v, 3)
    assert intersect_interval_sets(got, target) == got


def test_thompson_v_cantor_points_survive(thompson_v):
    for depth in (1, 2, 3):
        got = common_domain(thompson_v, depth)
        for point in (F(0), F(1), F(2, 3), F(8, 9)):
            assert interval_set_contains(got, point)


# -- nontriviality witness ----------------------------------------------


def test_witness_identity_word_unknown(psl2z):
    assert nontriviality_witness(psl2z, (), 2) is None
    assert nontriviality_witness(psl2z, parse_word(psl2z, "ddd"), 2) is None


def test_witness_d(psl2z):
    t = nontriviality_witness(psl2z, parse_word(psl2z, "d"), 1)
    assert t is not None


def test_witness_thompson_v_a(thompson_v):
    t = nontriviality_witness(thompson_v, parse_word(thompson_v, "a"), 2)
    assert t is not None


# -- property tests ------------------------------------------------------


@st.composite
def monotone_bijections(draw):
    fracs = st.fractions(min_value=0, max_value=1, max_denominator=16)
    xs = sorted(draw(st.sets(fracs, min_size=2, max_size=5)))
    ys = sorted(draw(st.sets(fracs, min_size=len(xs), max_size=len(xs))))
    pieces = []
    for (x0, x1), (y0, y1) in zip(zip(xs, xs[1:]), zip(ys, ys[1:])):
        slope = (y1 - y0) / (x1 - x0)
        pieces.append(AffinePiece(Interval(x0, x1), slope, y0 - slope * x0))
    return PAMap.make(SEG1, pieces)


@given(monotone_bijections())
@settings(max_examples=60, deadline=None)
def test_compose_with_inverse_is_identity_on_range(f):
    g = invert(f)
    on_range = compose(f, g)  # f after f^-1: identity on range(f)
    for p in on_range.pieces:
        assert (p.slope, p.offset) == (F(1), F(0))
    assert on_range.domain() == g.domain()
    on_dom = compose(g, f)
    for p in on_dom.pieces:
        assert (p.slope, p.offset) == (F(1), F(0))
    assert on_dom.domain() == f.domain()


@given(monotone_bijections(), monotone_bijections(), st.fractions(min_value=0, max_value=1, max_denominator=8))
@settings(max_examples=40, deadline=None)
def test_equals_is_congruence(f, h, cut):
    resplit = []
    for p in f.pieces:
        if p.dom.lo < cut < p.dom.hi:
            resplit.append(AffinePiece(Interval(p.dom.lo, cut), p.slope, p.offset))
            resplit.append(AffinePiece(Interval(cut, p.dom.hi), p.slope, p.offset))
        else:
            resplit.append(p)
    g = PAMap.make(f.space, resplit)
    assert equals(f, g)
    assert equals(compose(h, f), compose(h, g))


def test_enumerate_maps_contains_inverses(psl2z):
    maps = enumerate_maps(psl2z, 1)
    d = psl2z.map_for("d")
    assert any(equals(m, invert(d)) for m in maps)


# -- serialization -------------------------------------------------------


def test_pamap_json_roundtrip(kari):
    assert equals(pamap_from_obj(pamap_to_obj(kari)), kari)


def test_equal_maps_hash_equal(kari):
    routes = [
        kari,
        PAMap(kari.space, kari.pieces),
        pamap_from_obj(pamap_to_obj(kari)),
        compose(kari, identity(kari.space)),
        invert(invert(kari)),
    ]
    assert all(f == kari and f is not kari for f in routes[1:])
    assert {hash(f) for f in routes} == {hash(kari)}
    assert len(dict.fromkeys(routes)) == 1
    assert hash(compose(invert(kari), kari)) == hash(identity(kari.space))


def test_rat_parsing():
    assert rat("-1/3") == F(-1, 3)
    assert rat("2") == F(2)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(ValueError, match="zero denominator"):
        rat("1/0")


# -- the tuple kernel against the object-by-object reference ---------------

import pamaps_reference as reference  # noqa: E402
from kariforge import presets  # noqa: E402

PRESET_NAMES = ("z-kari", "psl2z", "thompson-t", "thompson-v")
PRESETS = {name: presets.load_preset(name) for name in PRESET_NAMES}


def outcome(fn, *args):
    """Canonical pieces of the result, or the exception's type and text."""
    try:
        return "ok", fn(*args).pieces
    except Exception as exc:  # noqa: BLE001 - the type is part of the answer
        return type(exc), str(exc)


def _pieces(rows):
    return [AffinePiece(Interval(lo, hi), a, b) for lo, hi, a, b in rows]


LENGTHS = st.sampled_from([F(1), F(2), F(3, 2)])


def grid(L, den=6):
    return st.fractions(min_value=0, max_value=1, max_denominator=den).map(lambda t: t * L)


@st.composite
def circle_homeo_rows(draw, L):
    """A monotone bijection of [0, L] fixing the ends, then a rotation by c,
    cut where it wraps; the rows are built by hand."""
    inner = sorted(draw(st.sets(grid(L), max_size=4)) - {F(0), L})
    inner_y = sorted(draw(st.sets(grid(L), min_size=len(inner), max_size=len(inner))) - {F(0), L})
    if len(inner_y) != len(inner):
        inner_y = inner
    xs, ys = [F(0)] + inner + [L], [F(0)] + inner_y + [L]
    c = draw(grid(L)) % L
    rows = []
    for (x0, x1), (y0, y1) in zip(zip(xs, xs[1:]), zip(ys, ys[1:])):
        a = (y1 - y0) / (x1 - x0)
        b = y0 - a * x0 + c
        if y1 + c <= L:
            rows.append((x0, x1, a, b))
        elif y0 + c >= L:
            rows.append((x0, x1, a, b - L))
        else:
            cut = (L - b) / a
            rows += [(x0, cut, a, b), (cut, x1, a, b - L)]
    return rows


@st.composite
def partial_rows(draw, L, circle):
    """A valid partial map: affine on some cells of a grid of [0, L] between
    values drawn at the cuts (so neighbours agree; the ends agree on a
    circle), and single points inside some skipped cells."""
    cuts = sorted(draw(st.sets(grid(L), min_size=2, max_size=6)))
    ys = [draw(grid(L)) for _ in cuts]
    if circle and cuts[0] == 0 and cuts[-1] == L:
        ys[-1] = ys[0] if ys[0] else L
    rows = []
    for (x0, x1), (y0, y1) in zip(zip(cuts, cuts[1:]), zip(ys, ys[1:])):
        kind = draw(st.sampled_from(["skip", "affine", "affine", "affine", "point"]))
        if kind == "affine":
            a = (y1 - y0) / (x1 - x0)
            rows.append((x0, x1, a, y0 - a * x0))
        elif kind == "point":
            rows.append(((x0 + x1) / 2, (x0 + x1) / 2, F(0), draw(grid(L))))
    return rows


@st.composite
def valid_rows(draw):
    """(space, rows) of a valid map: a circle homeomorphism or a partial map."""
    L = draw(LENGTHS)
    circle = draw(st.booleans())
    if circle and draw(st.booleans()):
        return Space(L, True), draw(circle_homeo_rows(L))
    return Space(L, circle), draw(partial_rows(L, circle))


@st.composite
def raw_row(draw, L):
    """One piece on grid points of [0, L]; its image may leave [0, L]."""
    lo = draw(grid(L, 4))
    hi = draw(st.one_of(st.just(lo), grid(L, 4).filter(lambda t: t >= lo)))
    a = draw(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2)]))
    return lo, hi, a, draw(grid(L, 4)) - a * lo  # the value at lo is on the grid


@st.composite
def raw_rows(draw):
    """Piece lists, mostly invalid: random pieces, or a valid map with a few
    random pieces added, so pieces overlap, disagree at points or across the
    wrap, leave [0, L] or are constant."""
    space, rows = draw(valid_rows())
    L = space.length
    if draw(st.booleans()):
        rows = []
    rows = rows + draw(st.lists(raw_row(L), min_size=1, max_size=3))
    if draw(st.integers(0, 7)) == 0:  # a domain reaching outside [0, L]
        lo, hi, a, b = rows[-1]
        rows[-1] = (lo - L, hi, a, b) if draw(st.booleans()) else (lo, hi + L, a, b)
    return space, draw(st.permutations(rows))


def _both_makes(space, rows):
    got = outcome(PAMap.make, space, _pieces(rows))
    assert got == outcome(reference.make, space, _pieces(rows))
    return got


@given(st.one_of(valid_rows(), raw_rows()))
@settings(max_examples=250, deadline=None)
def test_make_matches_reference(case):
    _both_makes(*case)


@given(st.one_of(valid_rows(), raw_rows()))
@settings(max_examples=150, deadline=None)
def test_invert_matches_reference(case):
    space, rows = case
    if outcome(reference.make, space, _pieces(rows))[0] == "ok":
        f = reference.make(space, _pieces(rows))
        assert outcome(invert, f) == outcome(reference.invert, f)


@st.composite
def map_pairs(draw):
    L = draw(LENGTHS)
    circle = draw(st.booleans())
    maps = []
    for _ in range(2):
        homeo = circle and draw(st.booleans())
        rows = draw(circle_homeo_rows(L) if homeo else partial_rows(L, circle))
        maps.append(reference.make(Space(L, circle), _pieces(rows)))
    return maps


@given(map_pairs())
@settings(max_examples=150, deadline=None)
def test_compose_matches_reference(fg):
    f, g = fg
    assert outcome(compose, f, g) == outcome(reference.compose, f, g)
    assert outcome(compose, g, f) == outcome(reference.compose, g, f)


def test_compose_reads_every_piece_of_a_directly_built_map():
    # PAMap(...) canonicalizes like PAMap.make, so the swapped halves are
    # merged into one piece before compose reads them
    f = PAMap(SEG1, (AffinePiece(Interval(F(1, 2), F(1)), F(1), F(0)),
                     AffinePiece(Interval(F(0), F(1, 2)), F(1), F(0))))
    g = piecemap(SEG1, [(0, 1, F(1, 4), 0)])
    assert compose(f, g).pieces == reference.compose(f, g).pieces == g.pieces


def test_direct_construction_is_canonical():
    halves = (AffinePiece(Interval(F(1, 2), F(1)), F(1), F(0)),
              AffinePiece(Interval(F(0), F(1, 2)), F(1), F(0)))
    f = PAMap(SEG1, halves)
    assert equals(f, identity(SEG1))
    assert f == identity(SEG1) and hash(f) == hash(identity(SEG1))
    assert f.pieces == PAMap.make(SEG1, halves).pieces == identity(SEG1).pieces


def test_direct_construction_rejects_conflicting_pieces():
    pieces = (AffinePiece(Interval(F(0), F(1, 2)), F(1), F(0)),
              AffinePiece(Interval(F(0), F(1, 2)), F(0), F(1, 4)))
    with pytest.raises(Conflict) as direct:
        PAMap(SEG1, pieces)
    with pytest.raises(Conflict) as made:
        PAMap.make(SEG1, pieces)
    assert str(direct.value) == str(made.value)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_generators_match_reference(name):
    pres = PRESETS[name]
    for _, m in pres.generators:
        assert _both_makes(pres.space, [(p.dom.lo, p.dom.hi, p.slope, p.offset) for p in m.pieces])[0] == "ok"
        assert outcome(invert, m) == outcome(reference.invert, m)
        for _, h in pres.generators:
            assert outcome(compose, m, h) == outcome(reference.compose, m, h)
            assert outcome(compose, invert(m), h) == outcome(reference.compose, reference.invert(m), h)


CIRCLE2 = Space(F(2), circle=True)
INVALID = {  # label: (space, rows, the error both kernels raise)
    "domain outside": (SEG1, [(F(1, 2), F(3, 2), F(1), F(0))],
                       ValueError("piece domain [1/2, 3/2] outside [0, 1]")),
    "domain below 0": (CIRCLE2, [(F(-1, 2), F(1), F(1), F(1))],
                       ValueError("piece domain [-1/2, 1] outside [0, 2]")),
    "image outside": (SEG1, [(F(0), F(1), F(2), F(0))], ValueError("piece image [0, 2] outside [0, 1]")),
    "decreasing image outside": (SEG1, [(F(0), F(1), F(-2), F(1))],
                                 ValueError("piece image [-1, 1] outside [0, 1]")),
    "point image outside": (CIRCLE2, [(F(1), F(1), F(0), F(3))], ValueError("piece image [3, 3] outside [0, 2]")),
    "overlapping": (SEG1, [(F(0), F(1, 2), F(1), F(0)), (F(1, 4), F(1), F(1, 2), F(1, 4))],
                    Conflict("overlapping pieces on [1/4, 1/2] with different functions")),
    "nested piece": (SEG1, [(F(0), F(1), F(1), F(0)), (F(1, 4), F(1, 2), F(1, 2), F(1, 4))],
                     Conflict("overlapping pieces on [1/4, 1/2] with different functions")),
    "conflicting point": (SEG1, [(F(0), F(1, 2), F(1), F(0)), (F(1, 4), F(1, 4), F(0), F(3, 4))],
                          Conflict("values disagree at 1/4: 1/4 vs 3/4")),
    "disagreeing endpoint": (SEG1, [(F(0), F(1, 2), F(1), F(0)), (F(1, 2), F(1), F(1, 2), F(0))],
                             Conflict("values disagree at 1/2: 1/2 vs 1/4")),
    "bad wrap": (CIRCLE2, [(F(0), F(1), F(1), F(1, 2)), (F(1), F(2), F(1, 2), F(1))],
                 Conflict("wrap point ill-defined: 1/2 vs 2")),
    "wrap through a point": (CIRCLE2, [(F(0), F(0), F(0), F(1)), (F(2), F(2), F(0), F(1, 2))],
                             Conflict("wrap point ill-defined: 1 vs 1/2")),
}


@pytest.mark.parametrize("label", sorted(INVALID))
def test_invalid_pieces_raise_as_reference(label):
    space, rows, error = INVALID[label]
    assert _both_makes(space, rows) == (type(error), str(error))


INVERT_ERRORS = {
    "zero slope": (SEG1, [(F(0), F(1), F(0), F(1, 2))], ZeroSlope("piece on [0, 1] has slope 0")),
    "non-injective": (SEG1, [(F(0), F(1, 2), F(1), F(0)), (F(1, 2), F(1), F(-1), F(1))],
                      NotInjective("overlapping pieces on [0, 1/2] with different functions")),
    # injective on [0, 2], but f(1/2) = 2 and f(1) = 0 are one point of the circle
    "non-injective mod the wrap": (CIRCLE2, [(F(0), F(1, 2), F(2), F(1)), (F(1), F(3, 2), F(1), F(-1))],
                                   NotInjective("wrap point ill-defined: 1 vs 1/2")),
}


@pytest.mark.parametrize("label", sorted(INVERT_ERRORS))
def test_invert_errors_match_reference(label):
    space, rows, error = INVERT_ERRORS[label]
    f = reference.make(space, _pieces(rows))
    assert outcome(invert, f) == outcome(reference.invert, f) == (type(error), str(error))


# -- the sorted sweep of `_canonical` against the reference -----------------

import kariforge.pamaps as kernel  # noqa: E402


@st.composite
def sorted_rows(draw):
    """(space, rows) with the rows sorted by lo and meeting only at endpoints,
    the lists `_canonical` sweeps: affine pieces between values drawn at the
    cuts of a grid, constant pieces, skipped cells (a partial map), and
    points at the cuts.  An end value or a point's value is sometimes another
    value than the cut's (a disagreeing junction), and on a circle a cut's
    value 0 or L sometimes its twin across the wrap.  The cuts often include
    0 and L, so rows end there."""
    L = draw(LENGTHS)
    circle = draw(st.booleans())
    cuts = draw(st.sets(grid(L), min_size=2, max_size=6))
    if draw(st.booleans()):
        cuts |= {F(0), L}
    cuts = sorted(cuts)
    ys = [draw(grid(L)) for _ in cuts]

    def value(i):
        kind = draw(st.sampled_from(["cut"] * 6 + ["twin", "other"]))
        if kind == "twin" and circle and ys[i] in (0, L):
            return L - ys[i]
        return draw(grid(L)) if kind == "other" else ys[i]

    rows = []
    for i, x in enumerate(cuts):
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            a = draw(st.sampled_from([F(0), F(0), F(1)]))  # a point keeps any slope
            rows.append((x, x, a, value(i) - a * x))
        if i + 1 == len(cuts):
            break
        x1 = cuts[i + 1]
        kind = draw(st.sampled_from(["skip", "affine", "affine", "constant"]))
        if kind == "affine":
            y0, y1 = value(i), value(i + 1)
            a = (y1 - y0) / (x1 - x)  # 0 when the ends agree: a constant piece
            rows.append((x, x1, a, y0 - a * x))
        elif kind == "constant":
            rows.append((x, x1, F(0), value(i)))
    return Space(L, circle), rows


@given(sorted_rows())
@settings(max_examples=400, deadline=None)
def test_sorted_sweep_matches_reference(case):
    """Identical rows, or the identical exception type and text; and on a
    sorted list, only a list the reference refuses leaves the sweep."""
    space, rows = case
    general = kernel._canonical_general
    left = []
    with mock.patch.object(kernel, "_canonical_general", lambda *args: left.append(1) or general(*args)):
        got = _both_makes(space, rows)
    assert (got[0] == "ok") == (not left)


def _refuse(*args):
    raise AssertionError("the general path ran")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_letters_compose_in_one_sweep(name, monkeypatch):
    letters = PRESETS[name].letters
    monkeypatch.setattr(kernel, "_canonical_general", _refuse)
    for m in letters.values():
        invert(m)
        for h in letters.values():
            compose(m, h)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_circle_homeos_make_compose_and_invert_in_one_sweep(data):
    L = data.draw(LENGTHS)
    space = Space(L, True)
    f, g = (PAMap.make(space, _pieces(data.draw(circle_homeo_rows(L)))) for _ in range(2))
    with mock.patch.object(kernel, "_canonical_general", _refuse):
        for h in (f, g, compose(f, g), compose(g, f)):
            assert PAMap.make(space, h.pieces) == h
            assert compose(invert(h), h) == identity(space)


def test_decreasing_segment_maps_compose_and_invert_in_one_sweep():
    """Maps with decreasing pieces: the preimages of f's rows under a
    decreasing piece come hi first, and an inverse's rows come in image
    order, so both must be reordered before the sweep."""
    flip = piecemap(SEG1, [(0, 1, -1, 1)])
    zig = piecemap(SEG1, [(0, F(1, 4), -1, 1), (F(1, 2), 1, 1, F(-1, 2))])  # injective, with a gap
    tent = piecemap(SEG1, [(0, F(1, 2), 2, 0), (F(1, 2), 1, -2, 2)])
    maps = [flip, zig, tent]
    with mock.patch.object(kernel, "_canonical_general", _refuse):
        composites = [compose(f, g) for f in maps for g in maps]
        inverses = [invert(f) for f in (flip, zig)]
    assert composites == [reference.compose(f, g) for f in maps for g in maps]
    assert inverses == [reference.invert(f) for f in (flip, zig)]


WORD_LETTERS =st.sampled_from(PRESET_NAMES).flatmap(
    lambda name: st.tuples(st.just(name), st.lists(
        st.tuples(st.sampled_from(PRESETS[name].names()), st.sampled_from([1, -1])), max_size=12)))


@given(WORD_LETTERS)
@settings(max_examples=120, deadline=None)
def test_word_apply_matches_reference(case):
    name, word = case
    pres = PRESETS[name]
    assert word_apply(pres, word).pieces == reference.word_apply(pres, word).pieces


def identity_seeded_fold(pres, word) -> PAMap:
    """The word's composite folded from the identity map."""
    m = identity(pres.space)
    for n, s in word:
        m = compose(m, pres.letters[pres.letter(n, s)])
    return m


def inverse_word(word):
    return tuple((n, -s) for n, s in reversed(word))


# random words, and words followed by their inverse (freely trivial, so the
# identity on total maps and a partial identity on thompson-v's)
FOLD_WORDS = st.tuples(WORD_LETTERS, st.booleans()).map(
    lambda c: (c[0][0], tuple(c[0][1]) + (inverse_word(c[0][1]) if c[1] else ())))


@given(FOLD_WORDS)
@settings(max_examples=200, deadline=None)
def test_word_fold_matches_the_identity_seeded_fold(case):
    """word_apply folds from the first letter's map, and is_identity_word
    compares its rows with the one identity row; both agree with the fold
    from the identity on every preset, the empty word included."""
    name, word = case
    pres = PRESETS[name]
    seeded = identity_seeded_fold(pres, word)
    got = word_apply(pres, word)
    assert got._core == seeded._core and got == seeded
    assert is_identity_word(pres, word) == (seeded.is_total() and seeded == identity(pres.space))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_word_fold_on_the_empty_word_and_single_letters(name):
    pres = PRESETS[name]
    assert word_apply(pres, ()) == identity(pres.space) and is_identity_word(pres, ())
    for n in pres.names():
        for s in (1, -1):
            for word in (((n, s),), ((n, s), (n, -s))):
                assert word_apply(pres, word) == identity_seeded_fold(pres, word)
    # a freely trivial word is the identity exactly when its maps are total
    trivial = is_identity_word(pres, ((pres.names()[-1], 1), (pres.names()[-1], -1)))
    assert trivial == (name != "thompson-v")
    if name == "psl2z":
        for text in ("ddd", "ee", "dddee", "dEeD"):
            word = parse_word(pres, text)
            seeded = identity_seeded_fold(pres, word)
            assert word_apply(pres, word) == seeded == identity(pres.space) and is_identity_word(pres, word)


def test_word_apply_inverts_each_letter_once(psl2z, monkeypatch):
    # the presentation keeps the inverses it checked when it was built, so a
    # word inverts nothing
    import kariforge.pamaps as kernel

    calls = []
    real = kernel.invert
    monkeypatch.setattr(kernel, "invert", lambda m: calls.append(m) or real(m))
    word = parse_word(psl2z, "DDEdDEEd")
    assert word_apply(psl2z, word).pieces == reference.word_apply(psl2z, word).pieces
    assert len(calls) == 0


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_enumerate_and_common_domain_match_reference(name):
    pres = PRESETS[name]
    for depth in range(4):
        got = enumerate_maps(pres, depth)
        assert [m.pieces for m in got] == [m.pieces for m in reference.enumerate_maps(pres, depth)]
        assert common_domain(pres, depth) == reference.common_domain(pres, depth)


@st.composite
def merged_sets(draw):
    return merge_intervals(Interval(*sorted(draw(st.tuples(grid(F(1), 8), grid(F(1), 8)))))
                           for _ in range(draw(st.integers(0, 4))))


@given(merged_sets(), merged_sets())
@settings(max_examples=200, deadline=None)
def test_intersect_interval_sets_matches_reference(a, b):
    assert intersect_interval_sets(a, b) == reference.intersect_interval_sets(a, b)


@pytest.mark.parametrize("budget", [0, -1])
def test_witness_rejects_budget_below_one(psl2z, budget):
    with pytest.raises(ValueError, match="budget must be >= 1"):
        nontriviality_witness(psl2z, parse_word(psl2z, "dd"), budget)


# -- one word engine: letters, composites and the breadth-first walk -------

from kariforge.freegroup import pa_oracle  # noqa: E402
from kariforge.pamaps import PAGroupPresentation  # noqa: E402


def test_presentation_keeps_its_inverses(psl2z):
    d, e = psl2z.map_for("d"), psl2z.map_for("e")
    assert psl2z.letters == {1: d, -1: invert(d), 2: e, -2: invert(e)}
    assert "letters" not in repr(psl2z)
    twin = PAGroupPresentation(psl2z.space, psl2z.generators)
    assert twin == psl2z and hash(twin) == hash(psl2z)


# generators a direct PAGroupPresentation(...) refuses, as make does
BAD_GENERATORS = {
    "zero slope": ((("z", piecemap(SEG1, [(0, 1, 0, F(1, 2))])),),
                   ZeroSlope("piece on [0, 1] has slope 0")),
    "not injective": ((("n", piecemap(SEG1, [(0, F(1, 2), 1, 0), (F(1, 2), 1, -1, 1)])),),
                      NotInjective("overlapping pieces on [0, 1/2] with different functions")),
    "other space": ((("x", identity(SEG1)), ("y", identity(CIRCLE1))),
                    SpaceMismatch("generator y lives on a different space")),
}


@pytest.mark.parametrize("label", sorted(BAD_GENERATORS))
def test_direct_presentation_validates(label):
    gens, error = BAD_GENERATORS[label]
    for build in (lambda: PAGroupPresentation(SEG1, gens), lambda: PAGroupPresentation.make(gens)):
        with pytest.raises(type(error)) as info:
            build()
        assert str(info.value) == str(error)
    with pytest.raises(ValueError, match="needs at least one generator"):
        PAGroupPresentation.make({})


def test_words_refuse_unknown_generators(psl2z):
    for decide in (word_apply, is_identity_word):
        with pytest.raises(UnknownGenerator, match="^z$"):
            decide(psl2z, (("d", 1), ("z", -1)))


def count_calls(monkeypatch, owner, attr):
    calls = []
    real = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_words_and_walks_invert_nothing(name, monkeypatch):
    import kariforge.pamaps as kernel

    pres = PRESETS[name]
    calls = count_calls(monkeypatch, kernel, "invert")
    word = tuple((n, s) for n in pres.names() for s in (-1, 1))
    word_apply(pres, word)
    is_identity_word(pres, word)
    nontriviality_witness(pres, word[:2], 1)
    enumerate_maps(pres, 2)
    common_domain(pres, 2)
    oracle = pa_oracle(pres)
    for w in [(1,), (-1,), (1, -1)]:
        oracle(w)
    assert calls == []


def short_words(name, max_size):
    letters = st.tuples(st.sampled_from(PRESETS[name].names()), st.sampled_from([1, -1]))
    return st.lists(letters, max_size=max_size).map(tuple)


@pytest.mark.parametrize("name", PRESET_NAMES)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_witness_matches_reference(name, data):
    pres = PRESETS[name]
    word = data.draw(short_words(name, 3))
    budget = data.draw(st.integers(1, 3))
    assert nontriviality_witness(pres, word, budget) == reference.nontriviality_witness(pres, word, budget)


@pytest.mark.parametrize("name", PRESET_NAMES)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_witness_candidates_lie_in_every_domain_tried(name, data):
    """Each candidate point comes from the common domain of every map
    composed so far, so applying a map to it never leaves a domain.  The
    empty word, and a word followed by its inverse, move no point where they
    are defined, so the search applies every map of the ball to every
    candidate and finds no witness."""
    pres = PRESETS[name]
    word = data.draw(short_words(name, 3))
    word = () if data.draw(st.booleans()) else word + inverse_word(word)
    budget = data.draw(st.integers(1, 3))
    assert nontriviality_witness(pres, word, budget) is None


@pytest.mark.parametrize("name", PRESET_NAMES)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_is_identity_word_agrees_with_pa_oracle(name, data):
    pres = PRESETS[name]
    word = data.draw(short_words(name, 6))
    names = pres.names()
    signed = tuple(names.index(n) + 1 if s > 0 else -names.index(n) - 1 for n, s in word)
    oracle = pa_oracle(pres)
    assert is_identity_word(pres, word) == oracle(signed)
    assert oracle.composite(signed).pieces == reference.word_apply(pres, word).pieces


@pytest.mark.parametrize("name", PRESET_NAMES)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_word_fold_matches_composites(name, data):
    import kariforge.pamaps as kernel

    pres = PRESETS[name]
    word = data.draw(short_words(name, 10))
    m, total = kernel.composites(pres)(tuple(pres.letter(n, s) for n, s in word))
    assert word_apply(pres, word) == m
    assert is_identity_word(pres, word) == ((m, total) == (identity(pres.space), True))


# -- is_identity_word: probe points first, then the fold ---------------------

# identity words that are not freely trivial: psl2z's relators (d^3 = e^2 = 1)
# and thompson-t's c^3, (ac)^2 and aBcBC, whose reverse moves 1/2
RELATORS = {"psl2z": ("ddd", "ee", "dddee"), "thompson-t": ("ccc", "acac", "aBcBC")}


@st.composite
def decided_words(draw):
    """A preset and one of its words: a random word of length <= 10, a word
    followed by its inverse, or a relator conjugated by a word."""
    name = draw(st.sampled_from(PRESET_NAMES))
    pres = PRESETS[name]
    word = draw(short_words(name, 10))
    shape = draw(st.sampled_from(("word", "trivial", "relator")[:3 if name in RELATORS else 2]))
    if shape == "trivial":
        return name, word + inverse_word(word)
    if shape == "relator":
        u = word[:4]
        return name, u + parse_word(pres, draw(st.sampled_from(RELATORS[name]))) + inverse_word(u)
    return name, word


@given(decided_words())
@settings(max_examples=300, deadline=None)
def test_is_identity_word_matches_the_fold(case):
    name, word = case
    pres = PRESETS[name]
    assert is_identity_word(pres, word) == reference.is_identity_word(pres, word)


@pytest.mark.parametrize("name", sorted(RELATORS))
def test_relators_are_identity_words(name):
    pres = PRESETS[name]
    for text in RELATORS[name]:
        word = parse_word(pres, text)
        assert is_identity_word(pres, word) and reference.is_identity_word(pres, word), text


def test_a_word_a_probe_refutes_composes_nothing(monkeypatch):
    # dEdEdE moves 0, thompson-v's aA leaves a's image at 1/2, and
    # thompson-t's abA moves a probe that its reverse Aba fixes
    calls = count_calls(monkeypatch, kernel, "compose")
    for name, text in (("psl2z", "dEdEdE"), ("thompson-v", "aA"), ("thompson-t", "abA")):
        pres = PRESETS[name]
        assert not is_identity_word(pres, parse_word(pres, text)), text
    assert calls == []
    psl2z = PRESETS["psl2z"]
    assert is_identity_word(psl2z, parse_word(psl2z, "dddee"))
    assert len(calls) == 4  # an identity word is still folded


# thompson-t's nontrivial words of length <= 4 that fix 0, 1/2 and 41/58
PROBES_FIXED = ("Aba", "ABa", "aaBA", "abAA", "Abba", "ABBa")


def fixes(m, x):
    try:
        return apply(m, x) == x
    except OutOfDomain:
        return False


def test_words_that_fix_the_probes_reach_the_fold(thompson_t, monkeypatch):
    composite = kernel.composites(thompson_t)
    letters = [(n, s) for n in thompson_t.names() for s in (1, -1)]
    one = identity(thompson_t.space)
    fixing = []
    for k in range(5):
        for word in itertools.product(letters, repeat=k):
            m, total = composite(tuple(thompson_t.letter(n, s) for n, s in word))
            if not (total and m == one) and all(fixes(m, x) for x in (F(0), F(1, 2), F(41, 58))):
                fixing.append(word)
    assert fixing == [parse_word(thompson_t, text) for text in PROBES_FIXED]
    calls = count_calls(monkeypatch, kernel, "compose")
    for word in fixing:
        before = len(calls)
        assert not is_identity_word(thompson_t, word)
        assert len(calls) - before == len(word) - 1


def test_word_apply_keeps_no_intermediate_composites(psl2z):
    """(dE)^100 composes 200 times; with every intermediate composite kept
    in a memo its peak was 3.4 MB."""
    import tracemalloc

    word = parse_word(psl2z, "dE" * 100)
    tracemalloc.start()
    try:
        word_apply(psl2z, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_witness_walks_the_ball_once(psl2z, monkeypatch):
    import kariforge.pamaps as kernel

    word = parse_word(psl2z, "ddd")
    calls = count_calls(monkeypatch, kernel, "compose")
    enumerate_maps(psl2z, 3)
    walk = len(calls)
    assert nontriviality_witness(psl2z, word, 3) is None
    # the word's fold starts from its first letter's map
    assert len(calls) - walk == walk + len(word) - 1


def test_witness_tries_the_identity():
    # a b moves 1/3, while a, a^-1, b and b^-1 all carry 1/3 to points a b fixes
    a = piecemap(SEG1, [(0, F(3, 4), F(1, 3), 0), (F(3, 4), F(7, 8), 2, F(-5, 4)), (F(7, 8), 1, 4, -3)])
    b = piecemap(SEG1, [(0, F(1, 8), 3, 0), (F(1, 8), F(3, 8), F(3, 2), F(3, 16)),
                        (F(3, 8), F(1, 2), 1, F(3, 8)), (F(1, 2), 1, F(1, 4), F(3, 4))])
    pres = PAGroupPresentation.make({"a": a, "b": b})
    word = parse_word(pres, "ab")
    assert nontriviality_witness(pres, word, 1) == reference.nontriviality_witness(pres, word, 1) == F(1, 3)


def test_common_domain_can_be_empty():
    # q carries [0, 1/4] onto [1/2, 3/4], so q and its inverse share no point
    pres = PAGroupPresentation.make({"q": piecemap(SEG1, [(0, F(1, 4), 1, F(1, 2))])})
    for depth in (1, 2):
        assert common_domain(pres, depth) == reference.common_domain(pres, depth) == ()
    assert nontriviality_witness(pres, parse_word(pres, "q"), 2) is None


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_enumerate_maps_composes_no_level_past_depth_and_no_domain(thompson_t, monkeypatch, depth):
    import kariforge.pamaps as kernel

    # every map of the ball of radius depth - 1 meets each of the 6 letters once
    below = len(reference.enumerate_maps(thompson_t, depth - 1)) if depth else 0
    composed = count_calls(monkeypatch, kernel, "compose")
    domains = count_calls(monkeypatch, PAMap, "domain")
    enumerate_maps(thompson_t, depth)
    assert len(composed) == 2 * len(thompson_t.generators) * below
    assert domains == []


@pytest.mark.xfail(strict=True, reason="V's word problem needs a normal form on the Cantor set: "
                                       "a composite partial off it never equals the total identity")
@pytest.mark.parametrize("text", ["pi0pi0", "aA"])
def test_thompson_v_identities(thompson_v, text):
    assert is_identity_word(thompson_v, parse_word(thompson_v, text))


# -- the map loader refuses malformed input ----------------------------------


def _map_obj(edit):
    obj = pamap_to_obj(identity(SEG1))
    edit(obj)
    return obj


def _set_piece(field, value):
    return lambda obj: obj["pieces"][0].__setitem__(field, value)


# (edit of the identity map's JSON form, the ValueError's text)
MALFORMED_MAPS = {
    "a 1.5": (_set_piece("a", 1.5), "pieces[0].a: not a rational string or JSON integer: 1.5"),
    "b true": (_set_piece("b", True), "pieces[0].b: not a rational string or JSON integer: true"),
    "b 1/0": (_set_piece("b", "1/0"), "pieces[0].b: zero denominator in '1/0'"),
    "a missing": (lambda obj: obj["pieces"][0].pop("a"), "missing field 'pieces[0].a'"),
    "dom of one": (_set_piece("dom", ["0"]), 'pieces[0].dom: not a list of two rationals: ["0"]'),
    "dom 0.5": (_set_piece("dom", [0, 0.5]), "pieces[0].dom: not a rational string or JSON integer: 0.5"),
    "piece 5": (lambda obj: obj["pieces"].__setitem__(0, 5), "pieces[0]: not a JSON object: 5"),
    "pieces {}": (lambda obj: obj.__setitem__("pieces", {}), "pieces: not a JSON list: {}"),
    "space missing": (lambda obj: obj.pop("space"), "missing field 'space'"),
    "length x": (lambda obj: obj["space"].__setitem__("length", "x"),
                 "space.length: Invalid literal for Fraction: 'x'"),
    "circle 1": (lambda obj: obj["space"].__setitem__("circle", 1), "space.circle: not a JSON boolean: 1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MAPS))
def test_malformed_map_raises_value_error_naming_the_field(case):
    edit, text = MALFORMED_MAPS[case]
    with pytest.raises(ValueError) as info:
        pamap_from_obj(_map_obj(edit))
    assert str(info.value) == text


@pytest.mark.parametrize("doc", [[1, 2], 5, "map", None])
def test_map_document_must_be_an_object(doc):
    with pytest.raises(ValueError, match="^map: not a JSON object"):
        pamap_from_obj(doc)


def test_map_rationals_may_be_json_integers():
    obj = {"space": {"length": 1, "circle": False}, "pieces": [{"dom": [0, 1], "a": 1, "b": 0}]}
    assert pamap_from_obj(obj) == identity(SEG1)


def test_malformed_presentation_names_the_generator(psl2z):
    from kariforge.pamaps import presentation_from_obj, presentation_to_obj

    obj = presentation_to_obj(psl2z)
    obj["e"]["pieces"][1]["a"] = 0.5
    with pytest.raises(ValueError, match=r"^generator e: pieces\[1\]\.a: not a rational"):
        presentation_from_obj(obj)
    with pytest.raises(ValueError, match="^presentation: not a JSON object"):
        presentation_from_obj([obj])


# -- the witness search tries each (map, candidate) pair once --------------


@st.composite
def shrinking_presentations(draw):
    """One or two injective circle maps, homeomorphisms with some pieces
    dropped, so the common domain may shrink at some word lengths and stay
    at others."""
    L = draw(LENGTHS)
    gens = {}
    for name in draw(st.sampled_from([("p",), ("p", "q")])):
        rows = draw(circle_homeo_rows(L))
        keep = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        gens[name] = reference.make(Space(L, True), _pieces([r for r, k in zip(rows, keep) if k] or rows[:1]))
    return PAGroupPresentation.make(gens)


@given(shrinking_presentations(), st.data())
@settings(max_examples=60, deadline=None)
def test_witness_matches_reference_on_shrinking_domains(pres, data):
    letters = st.tuples(st.sampled_from(pres.names()), st.sampled_from([1, -1]))
    word = data.draw(st.lists(letters, max_size=3).map(tuple))
    budget = data.draw(st.integers(1, 4))
    assert nontriviality_witness(pres, word, budget) == reference.nontriviality_witness(pres, word, budget)


def witness_applications(pres, word, budget, monkeypatch):
    """The witness search's result, its (map, point) applications of the
    ball's maps, and the points where it applied the word's map g."""
    import kariforge.pamaps as kernel

    # a copy of g that no walk of the ball returns, told apart by identity
    g = kernel.PAMap(pres.space, kernel.word_apply(pres, word).pieces)
    monkeypatch.setattr(kernel, "word_apply", lambda pres, word: g)
    calls = []
    real = kernel.apply
    monkeypatch.setattr(kernel, "apply", lambda f, x: calls.append((f, x)) or real(f, x))
    t = nontriviality_witness(pres, word, budget)
    return t, [(f, x) for f, x in calls if f is not g], [x for f, x in calls if f is g]


def test_witness_tries_each_map_once_while_the_candidates_stay(thompson_t, monkeypatch):
    # thompson-t's maps are total, so every level keeps the whole circle's
    # candidates, and a pair already tried cannot find a t on a later level
    t, tried, _ = witness_applications(thompson_t, parse_word(thompson_t, "aA"), 4, monkeypatch)
    assert t is None
    points = {x for _, x in tried}
    assert len(tried) == len(set(tried)) == len(enumerate_maps(thompson_t, 4)) * len(points)
    assert len(tried) == 2395  # 3,235 when every level retried the ball


def test_witness_applies_the_word_once_per_point(thompson_t, monkeypatch):
    t, tried, moved = witness_applications(thompson_t, parse_word(thompson_t, "aA"), 4, monkeypatch)
    assert t is None
    images = {apply(f, x) for f, x in tried}
    assert len(moved) == len(set(moved)) == len(images) == 64  # 2,395, one per (map, point), before


def test_witness_tries_every_map_on_new_candidates(thompson_v, monkeypatch):
    import kariforge.pamaps as kernel

    # thompson-v's common domain shrinks at every level, so the new
    # candidates must meet every map of the ball, the identity included
    word = parse_word(thompson_v, "aA")
    calls = []
    real = kernel.apply
    monkeypatch.setattr(kernel, "apply", lambda f, x: calls.append((f, x)) or real(f, x))
    assert nontriviality_witness(thompson_v, word, 2) is None
    assert common_domain(thompson_v, 2) != common_domain(thompson_v, 1)
    points = kernel._candidate_points(common_domain(thompson_v, 2))
    assert {(f, t) for f in enumerate_maps(thompson_v, 2) for t in points} <= set(calls)


# -- the int-pair kernel against the Fraction reference, answer by answer ---


def answer(fn, *args):
    """The result, or the exception's type and text."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is part of the answer
        return type(exc), str(exc)


@st.composite
def map_rows(draw, circle, L=None):
    """(space, rows) on a segment or a circle: a circle homeomorphism or a
    partial map, and now and then with random pieces added, so that building
    it must raise."""
    L = draw(LENGTHS) if L is None else L
    homeo = circle and draw(st.booleans())
    rows = draw(circle_homeo_rows(L) if homeo else partial_rows(L, circle))
    if draw(st.integers(0, 3)) == 0:
        rows = draw(st.permutations(rows + draw(st.lists(raw_row(L), min_size=1, max_size=2))))
    return Space(L, circle), rows


def probe_points(L):
    """Points of [0, L] on a grid of twelfths, and a few outside it."""
    return [L * F(k, 12) for k in range(-3, 16)]


def assert_same_map(f, r):
    """f, from the library, and r, built by the reference, answer alike."""
    assert f.pieces == r.pieces
    assert f == r and hash(f) == hash(r)
    assert f == PAMap(r.space, r.pieces) and hash(f) == hash(PAMap(r.space, r.pieces))
    domain = reference.merge_intervals(p.dom for p in r.pieces)
    assert f.domain() == domain
    assert f.is_total() == (domain == (Interval(F(0), r.space.length),))
    assert fixed_points(f) == reference.fixed_points(r)
    for x in probe_points(r.space.length):
        assert answer(apply, f, x) == answer(reference.apply, r, x)


def assert_same_balls(maps, depth):
    """enumerate_maps lists the same maps in the same exact order, for the
    presentation of the injective maps among `maps`."""
    gens = {}
    for i, m in enumerate(maps):
        if answer(invert, m)[0] == "ok":
            gens[f"g{i}"] = m
    if gens:
        pres = PAGroupPresentation.make(gens)
        got = enumerate_maps(pres, depth)
        assert [m.pieces for m in got] == [m.pieces for m in reference.enumerate_maps(pres, depth)]


def reference_is_circle_homeo(f):
    """is_circle_homeo from the reference's objects."""
    whole = (Interval(F(0), f.space.length),)
    if reference.merge_intervals(p.dom for p in f.pieces) != whole or any(p.slope == 0 for p in f.pieces):
        return False
    try:
        g = reference.invert(f)
    except (NotInjective, ZeroSlope):
        return False
    return reference.merge_intervals(p.dom for p in g.pieces) == whole


@pytest.mark.parametrize("circle", [False, True], ids=["segment", "circle"])
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_pair_kernel_answers_as_reference(circle, data):
    space, rows = data.draw(map_rows(circle))
    got = outcome(PAMap.make, space, _pieces(rows))
    assert got == outcome(reference.make, space, _pieces(rows))
    assert outcome(PAMap, space, tuple(_pieces(rows))) == got
    if got[0] != "ok":
        return
    f, r = PAMap.make(space, _pieces(rows)), reference.make(space, _pieces(rows))
    assert_same_map(f, r)
    assert answer(is_circle_homeo, f) == answer(reference_is_circle_homeo, r)
    inverse = outcome(invert, f)
    assert inverse == outcome(reference.invert, r)
    if inverse[0] == "ok":
        assert_same_map(invert(f), reference.invert(r))
    assert_same_balls([f], 3)


@pytest.mark.parametrize("circle", [False, True], ids=["segment", "circle"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_pair_kernel_composites_answer_as_reference(circle, data):
    L = data.draw(LENGTHS)
    valid = map_rows(circle, L).filter(lambda case: outcome(reference.make, case[0], _pieces(case[1]))[0] == "ok")
    f, g = (reference.make(space, _pieces(rows)) for space, rows in (data.draw(valid), data.draw(valid)))
    composed = outcome(compose, f, g)
    assert composed == outcome(reference.compose, f, g)
    if composed[0] == "ok":
        assert_same_map(compose(f, g), reference.compose(f, g))
    assert_same_balls([f, g], 2)


def test_canonical_rows_sort_in_exact_rational_order():
    # as int pairs (1, 2) < (1, 3), but 1/3 < 1/2: the pieces and the ball
    # must follow the rationals
    f = piecemap(SEG1, [(F(1, 2), 1, F(4, 3), F(-1, 3)), (F(1, 3), F(1, 2), 0, F(1, 3)), (0, F(1, 3), 1, 0)])
    assert [p.dom.lo for p in f.pieces] == [0, F(1, 3), F(1, 2)]
    assert f.pieces == reference.make(SEG1, f.pieces).pieces
    g = piecemap(SEG1, [(0, 1, F(1, 2), F(1, 3))])
    h = piecemap(SEG1, [(0, 1, F(1, 3), F(1, 2))])
    pres = PAGroupPresentation.make({"g": g, "h": h})
    assert [m.pieces for m in enumerate_maps(pres, 2)] == [m.pieces for m in reference.enumerate_maps(pres, 2)]


def test_messages_print_rationals_as_fractions_do():
    with pytest.raises(ValueError) as info:
        piecemap(SEG1, [(F(-1, 3), F(1, 2), 1, F(1, 3))])
    assert str(info.value) == "piece domain [-1/3, 1/2] outside [0, 1]"
    with pytest.raises(ValueError) as info:
        piecemap(SEG1, [(0, F(1, 2), 3, F(1, 4))])
    assert str(info.value) == "piece image [1/4, 7/4] outside [0, 1]"
    with pytest.raises(Conflict) as info:
        piecemap(CIRCLE1, [(0, F(1, 2), 1, F(1, 6)), (F(1, 2), 1, 1, F(-1, 4))])
    assert str(info.value) == "values disagree at 1/2: 2/3 vs 1/4"
    with pytest.raises(ZeroSlope) as info:
        invert(piecemap(SEG1, [(F(1, 3), F(2, 3), 0, F(1, 2))]))
    assert str(info.value) == "piece on [1/3, 2/3] has slope 0"
