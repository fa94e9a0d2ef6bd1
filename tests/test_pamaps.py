from fractions import Fraction as F

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


WORD_LETTERS = st.sampled_from(PRESET_NAMES).flatmap(
    lambda name: st.tuples(st.just(name), st.lists(
        st.tuples(st.sampled_from(PRESETS[name].names()), st.sampled_from([1, -1])), max_size=12)))


@given(WORD_LETTERS)
@settings(max_examples=120, deadline=None)
def test_word_apply_matches_reference(case):
    name, word = case
    pres = PRESETS[name]
    assert word_apply(pres, word).pieces == reference.word_apply(pres, word).pieces


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
@settings(max_examples=30, deadline=None)
def test_is_identity_word_agrees_with_pa_oracle(name, data):
    pres = PRESETS[name]
    word = data.draw(short_words(name, 6))
    names = pres.names()
    signed = tuple(names.index(n) + 1 if s > 0 else -names.index(n) - 1 for n, s in word)
    oracle = pa_oracle(pres)
    assert is_identity_word(pres, word) == oracle(signed)
    assert oracle.composite(signed).pieces == reference.word_apply(pres, word).pieces


def test_witness_walks_the_ball_once(psl2z, monkeypatch):
    import kariforge.pamaps as kernel

    word = parse_word(psl2z, "ddd")
    calls = count_calls(monkeypatch, kernel, "compose")
    enumerate_maps(psl2z, 3)
    walk = len(calls)
    assert nontriviality_witness(psl2z, word, 3) is None
    assert len(calls) - walk == walk + len(word)


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
