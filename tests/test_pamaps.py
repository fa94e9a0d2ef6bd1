from fractions import Fraction as F

import pytest
from hypothesis import given, settings
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
    nontriviality_witness,
    pamap_from_obj,
    pamap_to_obj,
    parse_word,
    periodic_points,
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
