import functools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import periodic_reference as reference
import witness_reference
from kariforge import pamaps, presets, verify
from kariforge.freegroup import (
    abelian_oracle,
    ball,
    canonical_classes,
    cyclic_oracle,
    free_oracle,
    pa_oracle,
    table_oracle,
)
from kariforge.pamaps import AffinePiece, Interval, PAMap, Space
from kariforge.tiles import (
    PlanAff,
    PlanComp,
    PlanProd,
    ZTile,
    ZTileSet,
    affine_tiles,
    atom,
    bit_max,
    pamap_plan,
    pamap_tiles,
    trim_tiles,
)
from kariforge.verify import (
    BitWindow,
    InconsistentPatch,
    PatchRow,
    TransitionGraph,
    VerifyError,
    WitnessFailure,
    build_orbit_patch,
    closed_walks,
    cont_window,
    disc,
    nonempty_rows,
    patch_check,
    periodic_soundness,
    plan_row,
    search_base_point,
    stacked_periodic_scan,
    witness_row,
)

IDENTITY_CIRCLE = pamaps.identity(Space(F(1), circle=True))


def walks_of(ts, n):
    return list(closed_walks(TransitionGraph.of(ts).succ, n))


# -- disc / cont ----------------------------------------------------------


def test_disc_zero():
    assert disc(0, -5, 5).bits == (0,) * 11


def test_disc_half():
    assert disc(F(1, 2), 0, 3).bits == (0, 1, 0, 1)


def test_disc_five_sevenths():
    w = disc(F(5, 7), 0, 6)
    assert w.bits == (0, 1, 1, 0, 1, 1, 1)
    assert sum(w.bits) == 5


def test_disc_rejects_negative():
    with pytest.raises(ValueError):
        disc(F(-1, 2), 0, 1)


def test_cont_all_ones():
    assert cont_window(BitWindow(0, (1,) * 9)) == 1


def test_cont_refuses_an_empty_window():
    with pytest.raises(ValueError, match="empty window"):
        cont_window(BitWindow(0, ()))


def test_cont_disc_exact_on_period():
    assert cont_window(disc(F(5, 7), 0, 6)) == F(5, 7)


def test_cont_disc_window_bound():
    y = F(1, 3)
    got = cont_window(disc(y, -300, 300))
    assert abs(got - y) <= F(1, 601)


@given(st.fractions(min_value=0, max_value=2, max_denominator=64),
       st.sampled_from([8, 64, 512]))
@settings(max_examples=80, deadline=None)
def test_cont_disc_bound_property(y, n):
    got = cont_window(disc(y, -n, n))
    assert abs(got - y) <= F(1, 2 * n + 1)


# -- witness rows ----------------------------------------------------------


def test_witness_identity_row():
    ts = affine_tiles(1, 0, 1, 1)
    row = witness_row(ts, F(1, 3), 16)
    assert [t.top for t in row] == [t.bottom() for t in row]


def test_witness_kari_piece():
    ts = affine_tiles(F(2, 3), F(-1, 3), 1, 1)
    row = witness_row(ts, F(5, 7), 32)
    assert len(row) == 65
    assert cont_window(BitWindow(-32, tuple(t.top for t in row))) != 0


def test_witness_out_of_range_rejected():
    ts = affine_tiles(F(2, 3), F(-1, 3), 1, 1)
    with pytest.raises(WitnessFailure):
        witness_row(ts, F(1, 4), 8)  # (2*(1/4)-1)/3 < 0


def test_witness_refuses_a_set_missing_a_row_tile(kari_tiles):
    row = witness_row(kari_tiles, F(5, 7), 8)
    missing = ZTileSet.make(kari_tiles.in_max, dict(kari_tiles.out_maxes),
                            [t for t in kari_tiles.tiles if t != row[3]], kari_tiles.source)
    with pytest.raises(WitnessFailure, match="witness tile not in set"):
        witness_row(missing, F(5, 7), 8)


def test_witness_through_union_and_wrap(kari, kari_tiles):
    for x in (F(0), F(1, 2), F(5, 7), F(9, 10)):
        row = witness_row(kari_tiles, x, 24)
        bits_in = tuple(t.top for t in row)
        bits_out = tuple(t.bottom() for t in row)
        assert bits_in == disc(x, -24, 24).bits
        assert bits_out == disc(pamaps.apply(kari, x) if x != F(1, 2) else F(1), -24, 24).bits


def test_witness_requires_plan():
    bare = ZTileSet.make(1, {"f": 1}, [ZTile(0, (("f", 0),), atom(0), atom(0))])
    with pytest.raises(ValueError):
        witness_row(bare, F(1, 3), 4)


def test_witness_on_group_tileset(psl2z, psl2z_family):
    row = witness_row(psl2z_family, F(1, 5), 12)
    assert len(row) == 25
    assert tuple(t.top for t in row) == disc(F(1, 5), -12, 12).bits
    d_out = tuple(t.bottom("d") for t in row)
    assert d_out == disc(pamaps.apply(psl2z.map_for("d"), F(1, 5)), -12, 12).bits


def test_witness_row_refuses_an_empty_window(kari_tiles):
    for N in (-1, -2):
        with pytest.raises(ValueError, match="empty window"):
            witness_row(kari_tiles, F(1, 3), N)
    with pytest.raises(ValueError, match="empty window"):
        plan_row(kari_tiles.source, F(1, 3), 3, 2, 1, 1)
    assert len(witness_row(kari_tiles, F(1, 3), 0)) == 1


@given(st.fractions(min_value=0, max_value=3, max_denominator=30), st.integers(-20, 0),
       st.integers(-1, 20))
@settings(max_examples=200, deadline=None)
def test_disc_matches_fraction_floors(y, n_from, length):
    assert disc(y, n_from, n_from + length).bits == witness_reference.disc_bits(y, n_from, n_from + length)


LENGTHS = [F(1), F(3, 2), F(2)]


@st.composite
def interval_maps(draw):
    """Total continuous piecewise affine maps of [0, L], not monotone."""
    L = draw(st.sampled_from(LENGTHS))
    fracs = st.fractions(min_value=0, max_value=L, max_denominator=6)
    xs = sorted(draw(st.sets(fracs, min_size=0, max_size=3)) - {F(0), L})
    xs = [F(0)] + xs + [L]
    ys = draw(st.lists(fracs, min_size=len(xs), max_size=len(xs), unique=True))
    pieces = []
    for (x0, x1), (y0, y1) in zip(zip(xs, xs[1:]), zip(ys, ys[1:])):
        slope = (y1 - y0) / (x1 - x0)
        pieces.append(AffinePiece(Interval(x0, x1), slope, y0 - slope * x0))
    return PAMap.make(Space(L, circle=False), pieces)


def row_outcome(fn, plan, x, N, m, target):
    try:
        return fn(plan, x, -N, N, m, m, target)
    except WitnessFailure as exc:
        return "no witness", str(exc)
    except ValueError as exc:
        return "error", str(exc)


@st.composite
def witness_cases(draw):
    """(plan, bit range, x, y_target): single maps, products with target
    dicts, and compositions after a product, at points in and out of range."""
    kind = draw(st.sampled_from(["interval", "circle", "psl2z", "after-product"]))
    fast = draw(st.booleans())
    if kind == "interval":
        f = draw(interval_maps())
    elif kind == "circle":
        f = draw(circle_homeos(max_denominator=6))
    else:
        pres = presets.psl2z()
        parts = tuple((name, pamap_plan(g, fast)) for name, g in pres.generators)
        m = bit_max(pres.space)
        x = draw(st.fractions(min_value=0, max_value=m + 1, max_denominator=12))
        if kind == "after-product":
            # the product's bottom row must match the next stage's top row
            parts = draw(st.sampled_from([parts[:1], parts[1:], parts]))
            return PlanComp(PlanProd(parts), parts[0][1]), m, x, None
        target = None
        if draw(st.booleans()) and x <= pres.space.length:
            target = {name: pamaps.apply(g, x) for name, g in pres.generators}
            if draw(st.booleans()):
                name = draw(st.sampled_from(sorted(target)))
                target[name] = pres.space.length - target[name]  # the other representative, or wrong
        return PlanProd(parts), m, x, target
    m = bit_max(f.space)
    x = draw(st.fractions(min_value=0, max_value=m + 1, max_denominator=12))
    target = None
    if draw(st.booleans()) and x <= f.space.length:
        target = pamaps.apply(f, x) if draw(st.booleans()) else f.space.length
    return pamap_plan(f, fast), m, x, target


@given(witness_cases(), st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_plan_row_matches_fraction_reference(case, N):
    plan, m, x, target = case
    got = row_outcome(plan_row, plan, x, N, m, target)
    assert got == row_outcome(witness_reference.plan_row, plan, x, N, m, target)


def count_leaves(monkeypatch):
    built = []
    real = verify._affine_row
    monkeypatch.setattr(verify, "_affine_row", lambda a, b, *rest: built.append((a, b)) or real(a, b, *rest))
    return built


def test_kari_row_builds_one_affine_row(kari_tiles, monkeypatch):
    built = count_leaves(monkeypatch)
    for x in (F(0), F(1, 3), F(1, 2), F(5, 7), F(1)):
        built.clear()
        witness_row(kari_tiles, x, 16)
        assert len(built) == 1


def test_wrapped_circle_row_builds_only_its_chosen_leaves(monkeypatch):
    sp = Space(F(1), circle=True)
    rot = PAMap.make(sp, [AffinePiece(Interval(F(0), F(2, 3)), F(1), F(1, 3)),
                          AffinePiece(Interval(F(2, 3), F(1)), F(1), F(-2, 3))])
    ts = pamap_tiles(rot, fast_path=False)
    built = count_leaves(monkeypatch)
    # 5/6 lies in the second piece: the first piece's wrap stage accepts it,
    # its scaling stage does not, and nothing of the first piece is built
    witness_row(ts, F(5, 6), 8)
    assert built == [(F(1), F(0)), (F(3), F(-2)), (F(1, 3), F(0)), (F(1), F(0))]


# -- nonemptiness ----------------------------------------------------------


def test_nonempty_identity():
    assert nonempty_rows(pamap_tiles(IDENTITY_CIRCLE))


def test_nonempty_kari(kari_tiles):
    assert nonempty_rows(kari_tiles)


def test_empty_single_mismatched_tile():
    ts = ZTileSet.make(1, {"f": 1}, [ZTile(0, (("f", 0),), atom(0), atom(1))])
    assert not nonempty_rows(ts)


@st.composite
def small_tilesets(draw):
    """Z and Z x G sets of up to 10 tiles on up to 5 atom labels, empty ones
    included: dead ends, self-loops and cycles with tails.  `()` draws sets
    with no output, over Z or over Z x G with no generators."""
    names = draw(st.sampled_from([(), ("f",), ("a", "b")]))
    side = st.integers(0, draw(st.integers(0, 4))).map(atom)
    bits = st.tuples(*[st.integers(0, 1) for _ in names])
    tiles = draw(st.lists(st.builds(lambda top, bs, l, r: ZTile(top, tuple(zip(names, bs)), l, r),
                                    st.integers(0, 1), bits, side, side), max_size=10))
    ts = ZTileSet.make(1, {n: 1 for n in names}, tiles)
    # a set over Z x G with no generators has no tiles
    group = draw(st.booleans()) and bool(names or not ts.tiles)
    return ZTileSet(1, ts.out_maxes, ts.tiles, generators=names) if group else ts


@given(small_tilesets())
@settings(max_examples=300, deadline=None)
def test_nonempty_rows_is_a_nonempty_trim(ts):
    trimmed = trim_tiles(ts)
    assert nonempty_rows(ts) == bool(trimmed.tiles)
    assert trimmed.generators == ts.generators


# -- periodic rows ----------------------------------------------------------


def test_periodic_rows_identity():
    rows = walks_of(pamap_tiles(IDENTITY_CIRCLE), 1)
    assert len(rows) == 2


def test_periodic_rows_rejects_zero():
    with pytest.raises(ValueError):
        walks_of(pamap_tiles(IDENTITY_CIRCLE), 0)


def test_periodic_rows_average_relation():
    ts = affine_tiles(F(2, 3), F(-1, 3), 1, 1)
    rows = walks_of(ts, 2)
    assert rows
    for row in rows:
        tiles = [ts.tiles[i] for i in row]
        top = F(sum(t.top for t in tiles), 2)
        bot = F(sum(t.bottom() for t in tiles), 2)
        assert bot == F(2, 3) * top - F(1, 3)
        if top == F(1, 2):
            assert bot == 0


def test_periodic_rows_marked_rotations():
    # identity carries are all 0, so every tile pair is adjacent: n=2 walks
    # are all four marked sequences, rotations listed separately
    ts = affine_tiles(1, 0, 1, 1)
    rows = set(walks_of(ts, 2))
    assert rows == {(0, 0), (0, 1), (1, 0), (1, 1)}


# -- soundness ----------------------------------------------------------


def test_soundness_identity():
    ts = pamap_tiles(IDENTITY_CIRCLE)
    assert periodic_soundness(ts, IDENTITY_CIRCLE, 4) == []


def test_soundness_kari_clean(kari, kari_tiles):
    assert periodic_soundness(kari_tiles, kari, 8) == []


def test_soundness_detects_corruption(kari, kari_tiles):
    tiles = list(kari_tiles.tiles)
    victim = tiles[0]
    flipped = ZTile(victim.top, (("f", 1 - victim.bottom()),), victim.left, victim.right)
    mutated = ZTileSet.make(kari_tiles.in_max, dict(kari_tiles.out_maxes),
                            [flipped] + tiles[1:])
    assert periodic_soundness(mutated, kari, 8)


def test_soundness_reports_rows_outside_the_domain(kari, kari_tiles):
    half = PAMap.make(kari.space, [p for p in kari.pieces if p.dom.hi <= F(1, 2)])
    assert half.domain() == (Interval(F(0), F(1, 2)),)
    outside = set()
    for n in range(1, 7):
        for row in walks_of(kari_tiles, n):
            avg = F(sum(kari_tiles.tiles[i].top for i in row), n) % 1
            if F(1, 2) < avg < 1:
                outside.add((n, row))
    violations = periodic_soundness(kari_tiles, half, 6)
    assert outside
    assert {(v["n"], tuple(v["cycle"])) for v in violations} == outside
    assert all(v["expected"] is None for v in violations)


# -- stacked scan ----------------------------------------------------------


def test_stacked_identity_positive_control():
    report = stacked_periodic_scan(pamap_tiles(IDENTITY_CIRCLE), 2, 2)
    assert {(r["n"], r["k"], r["shear"]) for r in report} >= {(1, 1, 0)}


def test_stacked_kari_empty(kari_tiles):
    assert stacked_periodic_scan(kari_tiles, 8, 6) == []


def test_shared_row_sums_give_the_same_reports(kari_tiles):
    from kariforge.verify import RowSums

    ident = pamap_tiles(IDENTITY_CIRCLE)
    for ts, f in ((kari_tiles, presets.kari_map()), (ident, IDENTITY_CIRCLE)):
        sums = RowSums.of(ts, 4)
        assert stacked_periodic_scan(ts, 4, 3, sums) == stacked_periodic_scan(ts, 4, 3)
        assert periodic_soundness(ts, f, 4, sums=sums) == periodic_soundness(ts, f, 4)
    with pytest.raises(ValueError, match="^row sums were found up to n = 4, not 5$"):
        stacked_periodic_scan(ident, 5, 3, RowSums.of(ident, 4))


def test_stacked_fixed_point_map_found():
    half = PAMap.make(Space(F(1), circle=False),
                      [AffinePiece(Interval(F(0), F(1)), F(1, 2), F(0))])
    report = stacked_periodic_scan(pamap_tiles(half), 2, 2)
    assert (1, 1, 0) in {(r["n"], r["k"], r["shear"]) for r in report}
    assert pamaps.fixed_points(half) != ()


def test_stacked_rows_are_vertically_consistent(psl2z):
    d = psl2z.map_for("d")
    ts = pamap_tiles(d)
    report = stacked_periodic_scan(ts, 2, 3)
    assert report, "order-3 map must stack"
    entry = report[0]
    rows = entry["rows"]
    assert len(rows) == entry["k"]
    for i in range(len(rows)):
        cur = [ts.tiles[j] for j in rows[i]]
        nxt_idx = rows[(i + 1) % len(rows)]
        nxt = [ts.tiles[j] for j in nxt_idx]
        bottoms = [t.bottom() for t in cur]
        tops = [t.top for t in nxt]
        if i + 1 < len(rows):
            assert bottoms == tops
        else:
            s = entry["shear"]
            n = entry["n"]
            assert bottoms == [tops[(m - s) % n] for m in range(n)]


def test_oracle_agreement_on_preset_generators(kari, psl2z, thompson_t):
    cases = [
        (kari, 6, 6),
        (psl2z.map_for("d"), 3, 6),
        (psl2z.map_for("e"), 2, 6),
        (thompson_t.map_for("a"), 2, 4),
        (thompson_t.map_for("b"), 2, 4),
        (thompson_t.map_for("c"), 4, 6),
    ]
    for m, n_max, k_max in cases:
        ts = pamap_tiles(m)
        found = {r["k"] for r in stacked_periodic_scan(ts, n_max, k_max)}
        oracle = {k for k in range(1, k_max + 1) if pamaps.periodic_points(m, k)}
        assert found == oracle
        assert periodic_soundness(ts, m, 3) == []


# -- closed-walk sums against walk enumeration -------------------------


def rotation_map(p, q):
    sp = Space(F(1), circle=True)
    r = F(p, q)
    if r == 0:
        return pamaps.identity(sp)
    return PAMap.make(sp, [AffinePiece(Interval(F(0), 1 - r), F(1), r),
                           AffinePiece(Interval(1 - r, F(1)), F(1), r - 1)])


@functools.lru_cache(maxsize=64)
def compiled(f):
    return pamap_tiles(f)


def flip_bottom(ts, i):
    t = ts.tiles[i]
    flipped = ZTile(t.top, ((ts.single_out(), 1 - t.bottom()),), t.left, t.right)
    return ZTileSet.make(ts.in_max, dict(ts.out_maxes), ts.tiles[:i] + (flipped,) + ts.tiles[i + 1:])


@st.composite
def walk_check_cases(draw):
    """(tile set, map) pairs: sound and unsound, with and without stacked
    configurations, and rows outside the map's domain."""
    kind = draw(st.sampled_from(["random", "rotation", "identity", "flipped", "half"]))
    kari = presets.kari_map()
    if kind == "random":
        f = draw(circle_homeos(max_denominator=4))
        return compiled(f), f
    if kind == "rotation":
        q = draw(st.integers(1, 6))
        f = rotation_map(draw(st.integers(0, q - 1)), q)
        return compiled(f), f
    if kind == "identity":
        f = IDENTITY_CIRCLE
        return draw(st.sampled_from([compiled(f), compiled(kari)])), f
    if kind == "flipped":
        ts = compiled(kari)
        return flip_bottom(ts, draw(st.integers(0, len(ts.tiles) - 1))), kari
    half = PAMap.make(kari.space, [p for p in kari.pieces if p.dom.hi <= F(1, 2)])
    return compiled(kari), half


@given(walk_check_cases(), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_periodic_checks_match_walk_enumeration(case, n_max, k_max):
    ts, f = case
    assert periodic_soundness(ts, f, n_max) == reference.periodic_soundness(ts, f, n_max)
    assert stacked_periodic_scan(ts, n_max, k_max) == reference.stacked_periodic_scan(ts, n_max, k_max)


@pytest.mark.parametrize("q", range(1, 8))
def test_stacked_scan_matches_walk_enumeration_on_rotations(q):
    # every shear of every (n, k) up to the box, where rows repeat under
    # rotation and most lattices are found before the last top word
    for p in range(q):
        ts = compiled(rotation_map(p, q))
        for n_max, k_max in [(q, q), (8, 6)]:
            assert stacked_periodic_scan(ts, n_max, k_max) == reference.stacked_periodic_scan(ts, n_max, k_max)


@st.composite
def successor_lists(draw):
    """Graphs on 1-8 tiles with at most three successors each, listed in
    any order: self-loops, tiles with no successor, sinks and tiles nothing
    reaches all occur."""
    size = draw(st.integers(1, 8))
    return [draw(st.lists(st.integers(0, size - 1), unique=True, max_size=3)) for _ in range(size)]


@given(successor_lists(), st.integers(1, 8))
@example([[0], [], [1, 0]], 3)  # a self-loop, a sink, and a tile nothing reaches
@example([[1], [2], [0, 3], [3]], 7)  # a 3-cycle beside a self-loop: walks of 7 need both
@settings(max_examples=300, deadline=None)
def test_closed_walks_match_the_unpruned_search(succ, n):
    assert list(closed_walks(succ, n)) == list(reference.closed_walks(succ, n))


@st.composite
def compiled_sets(draw):
    """Rotations by p/q, q <= 7, z-kari and z-kari with one bottom bit
    flipped."""
    kind = draw(st.sampled_from(["rotation", "kari", "flipped"]))
    if kind == "rotation":
        q = draw(st.integers(1, 7))
        return compiled(rotation_map(draw(st.integers(0, q - 1)), q))
    ts = compiled(presets.kari_map())
    if kind == "flipped":
        ts = flip_bottom(ts, draw(st.integers(0, len(ts.tiles) - 1)))
    return ts


@given(compiled_sets().map(lambda ts: TransitionGraph.of(ts).succ), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_closed_walks_match_the_unpruned_search_on_tile_sets(succ, n):
    assert list(closed_walks(succ, n)) == list(reference.closed_walks(succ, n))


# -- one label graph: the walk sums and successor lists read it -----------


def label_set(cells):
    """A tile set from (left, right, top, bottom) cells on int labels."""
    return ZTileSet.make(2, {"f": 2}, [ZTile(t, (("f", b),), atom(l), atom(r)) for l, r, t, b in cells])


@st.composite
def label_multigraph_sets(draw):
    """Tile sets on at most six labels with bits 0-2: self-loops, parallel
    tiles that carry different bits, sinks, sources and labels alone in
    their component all come up."""
    side = st.integers(0, draw(st.integers(0, 5)))
    bit = st.integers(0, 2)
    cells = draw(st.lists(st.tuples(side, side, bit, bit), min_size=1, max_size=14))
    if draw(st.booleans()):  # a parallel copy of some tile with other bits
        l, r, _, _ = draw(st.sampled_from(cells))
        cells.append((l, r, draw(bit), draw(bit)))
    return label_set(cells)


def assert_sums_match_the_tile_dp(ts, n_max):
    if n_max < 1:  # no length to search: refused, not an empty answer
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            verify.RowSums.of(ts, n_max)
        return
    rs = verify.RowSums.of(ts, n_max)
    succ = reference.successors(ts)
    assert rs.succ == succ
    assert rs.sums == reference.closed_walk_sums(succ, rs.tops, rs.bots, n_max)


# parallel tiles 0 -> 1 with different bits on a 2-cycle, a self-loop on 2
@example(label_set([(0, 1, 0, 0), (0, 1, 1, 2), (1, 0, 0, 1), (2, 2, 1, 0)]), 4)
# a source 3 and a sink 4 beside a 3-cycle
@example(label_set([(2, 0, 1, 1), (0, 1, 0, 2), (1, 2, 2, 0), (3, 1, 1, 1), (2, 4, 0, 0)]), 6)
@given(label_multigraph_sets(), st.integers(0, 7))
@settings(max_examples=400, deadline=None)
def test_label_walk_sums_match_the_tile_dp_on_multigraphs(ts, n_max):
    assert_sums_match_the_tile_dp(ts, n_max)


@given(compiled_sets(), st.integers(1, 12))
@example(compiled(presets.kari_map()), 12)
@settings(max_examples=60, deadline=None)
def test_label_walk_sums_match_the_tile_dp_on_tile_sets(ts, n_max):
    assert_sums_match_the_tile_dp(ts, n_max)


def test_successor_lists_are_the_per_tile_lists(kari_tiles, psl2z_family):
    sets = [kari_tiles, psl2z_family, compiled(rotation_map(2, 5)),
            label_set([(0, 1, 0, 0), (0, 1, 1, 2), (1, 0, 0, 1), (2, 2, 1, 0), (1, 3, 0, 0)])]
    for ts in sets:
        succ = TransitionGraph.of(ts).succ
        assert succ == reference.successors(ts)
        assert all(type(s) is tuple for s in succ)
        # tiles that share a right label share one tuple
        by_right = {}
        for t, s in zip(ts.tiles, succ):
            assert by_right.setdefault(t.right, s) is s


def cycle_tiles(start, tops, bots):
    """Tiles of one closed row, labels start, start + 1, ... around it."""
    n = len(tops)
    return [ZTile(t, (("f", b),), atom(start + i), atom(start + (i + 1) % n))
            for i, (t, b) in enumerate(zip(tops, bots))]


@pytest.mark.parametrize("rows, found", [
    # row 001 closes on itself with shear 0, row 011 only with shear 1
    ([((0, 0, 1), (0, 0, 1)), ((0, 1, 1), (1, 0, 1))], [(3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 2)]),
    # rows 01 and 02 close every (2, 1, s) but only (2, 2, 0); (2, 2, 1)
    # needs rows of sum 3, whose top words come later
    ([((0, 1), (0, 1)), ((0, 2), (2, 0)), ((1, 2), (0, 3)), ((0, 3), (2, 1))],
     [(2, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 1)]),
], ids=["shear", "length"])
def test_stacked_scan_finds_lattices_only_later_top_words_close(rows, found):
    ts = ZTileSet.make(3, {"f": 3}, [t for i, (tops, bots) in enumerate(rows)
                                     for t in cycle_tiles(10 * i, tops, bots)])
    n = len(rows[0][0])
    report = stacked_periodic_scan(ts, n, 2)
    assert report == reference.stacked_periodic_scan(ts, n, 2)
    assert [(r["n"], r["k"], r["shear"]) for r in report] == found


def test_kari_checks_list_no_walks(kari, kari_tiles, monkeypatch):
    listed = []
    real = verify.closed_walks
    monkeypatch.setattr(verify, "closed_walks", lambda succ, n: listed.append(n) or real(succ, n))
    assert periodic_soundness(kari_tiles, kari, 12) == []
    assert stacked_periodic_scan(kari_tiles, 12, 8) == []
    assert listed == []
    # a violating length lists its walks once, to report them
    assert periodic_soundness(flip_bottom(kari_tiles, 0), kari, 6)
    assert listed and len(listed) == len(set(listed))


def test_kari_clean_to_24(kari, kari_tiles):
    assert periodic_soundness(kari_tiles, kari, 24) == []
    assert stacked_periodic_scan(kari_tiles, 24, 12) == []


@pytest.mark.parametrize("n_max", [0, -1, -3])
def test_periodic_checks_need_a_length(n_max):
    """A bound below 1 searches nothing, so it is refused, not reported
    clean: with bound 2 both checks find something on these sets."""
    kari_tiles = compiled(presets.kari_map())
    half_turn = compiled(rotation_map(1, 2))
    assert len(periodic_soundness(kari_tiles, IDENTITY_CIRCLE, 2)) == 14
    assert {(r["n"], r["k"], r["shear"]) for r in stacked_periodic_scan(half_turn, 2, 2)} == {(2, 2, 0), (2, 2, 1)}
    refused = f"^n_max must be >= 1, got {n_max}$"
    with pytest.raises(ValueError, match=refused):
        verify.RowSums.of(kari_tiles, n_max)
    with pytest.raises(ValueError, match=refused):
        periodic_soundness(kari_tiles, IDENTITY_CIRCLE, n_max)
    with pytest.raises(ValueError, match=refused):
        stacked_periodic_scan(half_turn, n_max, 2)
    with pytest.raises(ValueError, match=f"^k_max must be >= 1, got {n_max}$"):
        stacked_periodic_scan(half_turn, 2, n_max)


# -- patches ----------------------------------------------------------


def test_patch_empty_is_valid(psl2z, psl2z_family):
    assert patch_check(psl2z_family, {}, pa_oracle(psl2z))
    assert patch_check(ZTileSet(0, (), (), generators=()), {}, pa_oracle(psl2z))


def test_patches_refuse_a_set_over_z(psl2z, kari_tiles):
    with pytest.raises(ValueError, match="^patch_check expects a tile set over Z x G, not over Z$"):
        patch_check(kari_tiles, {}, pa_oracle(psl2z))
    with pytest.raises(ValueError, match="^build_orbit_patch expects a tile set over Z x G, not over Z$"):
        build_orbit_patch(psl2z, kari_tiles, 1, 8, F(1, 5))


def test_orbit_patch_radius2(psl2z, psl2z_family):
    patch = build_orbit_patch(psl2z, psl2z_family, 2, 16, F(1, 5))
    assert len(patch) == 8  # ball of radius 2 in Z/3 * Z/2
    assert patch_check(psl2z_family, patch, pa_oracle(psl2z))


def test_orbit_patch_negative_control(psl2z, psl2z_family):
    patch = dict(build_orbit_patch(psl2z, psl2z_family, 1, 8, F(1, 5)))
    key = next(iter(patch))
    row = patch[key]
    wrong = list(row.tiles)
    donor = next(t for t in psl2z_family.tiles if t != wrong[0] and t.left is not wrong[0].left)
    wrong[0] = donor
    patch[key] = PatchRow(row.offset, tuple(wrong))
    assert not patch_check(psl2z_family, patch, pa_oracle(psl2z))


def test_patch_refuses_a_tile_outside_the_set(psl2z_family):
    # one element, one tile: no neighbor and no adjacency to check, so only
    # membership can refuse it
    known = set(psl2z_family.tiles)
    t = psl2z_family.tiles[0]
    outside = next(ZTile(t.top, t.bottoms, t.left, s.right) for s in psl2z_family.tiles
                   if ZTile(t.top, t.bottoms, t.left, s.right) not in known)
    assert patch_check(psl2z_family, {(): PatchRow(0, (t,))}, free_oracle)
    assert not patch_check(psl2z_family, {(): PatchRow(0, (outside,))}, free_oracle)


def test_patch_refuses_neighbours_whose_rows_disagree(psl2z, psl2z_family):
    # d's row comes from the orbit patch of 1/7, the others from 1/5's: each
    # row passes alone, but d's bottom bits do not match its neighbours' top bits
    oracle = pa_oracle(psl2z)
    patch = dict(build_orbit_patch(psl2z, psl2z_family, 1, 8, F(1, 5)))
    patch[(1,)] = build_orbit_patch(psl2z, psl2z_family, 1, 8, F(1, 7))[(1,)]
    assert all(patch_check(psl2z_family, {w: row}, oracle) for w, row in patch.items())
    assert not patch_check(psl2z_family, patch, oracle)


def test_patch_subpatch_monotone(psl2z, psl2z_family):
    patch = build_orbit_patch(psl2z, psl2z_family, 2, 12, F(1, 5))
    keys = sorted(patch)[:4]
    sub = {k: patch[k] for k in keys}
    assert patch_check(psl2z_family, sub, pa_oracle(psl2z))


def test_patch_inconsistent_keys_raise(psl2z, psl2z_family):
    patch = build_orbit_patch(psl2z, psl2z_family, 1, 8, F(1, 5))
    row = next(iter(patch.values()))
    other = next(r for r in patch.values() if r != row)
    bad = {(1, 1, 1): row, (): other}  # ddd equals the identity in the group
    with pytest.raises(InconsistentPatch):
        patch_check(psl2z_family, bad, pa_oracle(psl2z))


Z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
PATCH_ORACLES = {
    "free": lambda pres: free_oracle,
    "abelian": lambda pres: abelian_oracle,
    "cyclic3": lambda pres: cyclic_oracle(3),
    "z3-table": lambda pres: table_oracle(Z3, gens=[1, 2]),
    "psl2z": pa_oracle,
}


@pytest.fixture(scope="module")
def psl2z_patch(psl2z, psl2z_family):
    return build_orbit_patch(psl2z, psl2z_family, 2, 8, F(1, 5))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PATCH_ORACLES)), st.data())
def test_patch_check_normal_form_matches_pairwise(psl2z, psl2z_family, psl2z_patch, name, data):
    patch = psl2z_patch
    canon = canonical_classes(ball(2, 3), pa_oracle(psl2z))
    sub = {k: patch[k] for k in data.draw(st.lists(st.sampled_from(sorted(patch)), unique=True))}
    # other words for the same elements, carrying their row or a wrong one
    aliases = sorted(w for w in canon if canon[w] in sub and w not in sub)
    consistent = True
    for w in data.draw(st.lists(st.sampled_from(aliases), unique=True, max_size=3)) if aliases else ():
        donor = data.draw(st.sampled_from(sorted(patch)))
        sub[w] = patch[donor]
        consistent &= patch[donor] == patch[canon[w]]
    corrupt = bool(sub) and data.draw(st.booleans())
    if corrupt:
        key = data.draw(st.sampled_from(sorted(sub)))
        row = sub[key]
        donor = next(t for t in psl2z_family.tiles if t.left != row.tiles[0].left)
        sub[key] = PatchRow(row.offset, (donor,) + row.tiles[1:])
    items = data.draw(st.permutations(list(sub.items())))

    def outcome(oracle):
        try:
            return "ok", patch_check(psl2z_family, dict(items), oracle)
        except InconsistentPatch as exc:
            return "inconsistent", str(exc)

    oracle = PATCH_ORACLES[name](psl2z)
    via_nf = outcome(oracle)
    assert via_nf == outcome(lambda w: oracle(w))
    if name == "psl2z" and consistent and not corrupt:
        assert via_nf == ("ok", True)


def test_plan_row_refuses_what_it_cannot_encode():
    # a product part with outputs of its own passes no one value on
    ident = PlanAff(F(1), F(0))
    nested = PlanProd((("g", PlanProd((("a", ident), ("b", ident)))),))
    with pytest.raises(ValueError, match="^tile has several outputs; name one$"):
        plan_row(nested, F(1, 2), 0, 3, 1, 1)
    with pytest.raises(TypeError, match="^not a plan: 'x'$"):
        plan_row("x", F(1, 2), 0, 3, 1, 1)


def test_search_base_point(psl2z):
    z0 = search_base_point(psl2z, 2)
    assert 0 <= z0 <= 2


def test_search_base_point_skips_points_outside_a_domain():
    # the generator is the identity on [1/2, 1] only, so 0 has no orbit
    sp = Space(F(1), circle=False)
    half = PAMap.make(sp, [AffinePiece(Interval(F(1, 2), F(1)), F(1), F(0))])
    assert search_base_point(pamaps.PAGroupPresentation.make({"a": half}), 1) == 1


def test_search_base_point_reports_a_domain_with_no_point():
    # 0 and 1/50 are neighbours among the fractions of denominator <= 50,
    # so no candidate lies in [1/52, 1/51]
    narrow = PAMap.make(Space(F(1), circle=False), [AffinePiece(Interval(F(1, 52), F(1, 51)), F(1), F(0))])
    with pytest.raises(VerifyError, match="^no base point found$"):
        search_base_point(pamaps.PAGroupPresentation.make({"a": narrow}), 0)


def test_rows_and_patches_refuse_outputs_over_different_alphabets(psl2z, psl2z_family):
    mixed = ZTileSet(1, (("a", 1), ("b", 2)), (), source=psl2z_family.source, generators=("a", "b"))
    with pytest.raises(ValueError, match="^outputs use different alphabets$"):
        witness_row(mixed, F(1, 5), 4)
    with pytest.raises(ValueError, match="^outputs use different alphabets$"):
        build_orbit_patch(psl2z, mixed, 1, 4, F(1, 5))


def test_rows_and_patches_refuse_a_set_with_no_output(kari_tiles, psl2z, psl2z_family):
    bare = ZTileSet(1, (), (), source=kari_tiles.source)
    with pytest.raises(ValueError, match="^tile set has no output$"):
        witness_row(bare, F(1, 3), 4)
    bare = ZTileSet(1, (), (), source=psl2z_family.source, generators=())  # no generators, so no outputs
    with pytest.raises(ValueError, match="^tile set has no output$"):
        build_orbit_patch(psl2z, bare, 1, 4, F(1, 5))


def test_orbit_patch_needs_a_generation_plan(psl2z, psl2z_family):
    from kariforge.tiles import grouptileset_from_obj, tileset_to_obj

    loaded = grouptileset_from_obj(tileset_to_obj(psl2z_family))
    assert loaded == psl2z_family and loaded.source is None
    # a set over Z x G with no generators passes the generators check
    for ts in (loaded, ZTileSet(0, (), (), generators=())):
        with pytest.raises(ValueError, match="^group tile set carries no generation plan$"):
            build_orbit_patch(psl2z, ts, 1, 8, F(1, 5))


@st.composite
def circle_homeos(draw, max_denominator=8):
    # monotone dyadic-ish bijection of [0,1] fixing the ends, then a rotation
    fracs = st.fractions(min_value=0, max_value=1, max_denominator=max_denominator)
    inner_x = sorted(draw(st.sets(fracs, min_size=1, max_size=3)) - {F(0), F(1)})
    inner_y = sorted(draw(st.sets(fracs, min_size=len(inner_x), max_size=len(inner_x))
                          ) - {F(0), F(1)})
    if len(inner_y) != len(inner_x):
        inner_y = inner_x
    xs = [F(0)] + inner_x + [F(1)]
    ys = [F(0)] + inner_y + [F(1)]
    sp = Space(F(1), circle=True)
    pieces = []
    for (x0, x1), (y0, y1) in zip(zip(xs, xs[1:]), zip(ys, ys[1:])):
        slope = (y1 - y0) / (x1 - x0)
        pieces.append(AffinePiece(Interval(x0, x1), slope, y0 - slope * x0))
    g = PAMap.make(sp, pieces)
    c = draw(fracs)
    if c in (0, 1):
        return g
    rot = PAMap.make(sp, [
        AffinePiece(Interval(F(0), 1 - c), F(1), c),
        AffinePiece(Interval(1 - c, F(1)), F(1), c - 1),
    ])
    return pamaps.compose(rot, g)


@given(circle_homeos(), st.fractions(min_value=0, max_value=1, max_denominator=12))
@settings(max_examples=25, deadline=None)
def test_random_circle_homeo_end_to_end(f, x):
    assert pamaps.is_circle_homeo(f)
    ident = pamaps.identity(f.space)
    assert pamaps.equals(pamaps.compose(pamaps.invert(f), f), ident)
    ts = pamap_tiles(f)
    assert nonempty_rows(ts)
    assert periodic_soundness(ts, f, 3) == []
    row = witness_row(ts, x, 16)
    assert tuple(t.top for t in row) == disc(x, -16, 16).bits


def test_orbit_patch_over_z_times_z(kari):
    from kariforge.tiles import family_tiles

    pres = pamaps.PAGroupPresentation.make({"f": kari})
    gts = family_tiles(pres)
    assert len(gts.tiles) == 22
    patch = build_orbit_patch(pres, gts, 3, 12)
    assert len(patch) == 7  # the radius-3 ball of Z
    assert patch_check(gts, patch, pa_oracle(pres))
