import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiles_reference as reference
from kariforge import pamaps, presets, tiles
from kariforge.pamaps import Space
from kariforge.tiles import (
    AlphabetMismatch,
    EmptyTileSetError,
    GroupTileSet,
    HLabel,
    NotHomeo,
    ZTile,
    ZTileSet,
    affine_tiles,
    atom,
    carry_set,
    compose_tiles,
    family_tiles,
    grouptileset_from_obj,
    grouptileset_to_json,
    grouptileset_to_obj,
    label_from_obj,
    label_to_obj,
    pamap_tiles,
    product_tiles,
    tag,
    tileset_from_obj,
    tileset_to_json,
    tileset_to_obj,
    trim_tiles,
    tup,
    union_tiles,
)

IDENTITY_CIRCLE = pamaps.identity(Space(F(1), circle=True))


def relation_holds(ts, a, b):
    a, b = F(a), F(b)
    return all(t.bottom() == a * t.top + b + t.left.value - t.right.value for t in ts.tiles)


# -- carries -------------------------------------------------------------


def test_carry_set_examples():
    assert carry_set(F(2, 3), F(-1, 3)) == (F(-1, 3), F(0), F(1, 3), F(2, 3))
    assert carry_set(1, 0) == (F(0),)
    assert carry_set(F(4, 3), F(1, 3)) == (F(-1), F(-2, 3), F(-1, 3), F(0), F(1, 3), F(2, 3))


def test_carry_set_negative_slope_contains_zero():
    # the exact carry at n = 0 is always 0, so 0 must be available
    assert F(0) in carry_set(F(-1), F(1))


# -- affine tiles --------------------------------------------------------


def test_affine_identity_two_tiles():
    ts = affine_tiles(1, 0, 1, 1)
    assert len(ts.tiles) == 2
    assert {(t.top, t.bottom()) for t in ts.tiles} == {(0, 0), (1, 1)}


def test_affine_kari_counts():
    assert len(affine_tiles(F(2, 3), F(-1, 3), 1, 1).tiles) == 8
    assert len(affine_tiles(F(4, 3), F(1, 3), 1, 1).tiles) == 14


def test_affine_relation_reasserts():
    assert relation_holds(affine_tiles(F(2, 3), F(-1, 3), 1, 1), F(2, 3), F(-1, 3))
    assert relation_holds(affine_tiles(F(4, 3), F(1, 3), 1, 1), F(4, 3), F(1, 3))


def _outcome(build, *args):
    try:
        ts = build(*args)
    except (EmptyTileSetError, ValueError) as exc:
        return type(exc), str(exc)
    return ts.in_max, ts.out_maxes, ts.tiles, ts.source


@given(st.fractions(min_value=-3, max_value=3, max_denominator=6),
       st.fractions(min_value=-3, max_value=3, max_denominator=6),
       st.integers(-1, 3), st.integers(-1, 3))
@settings(max_examples=300, deadline=None)
def test_affine_tiles_match_fraction_reference(a, b, in_max, out_max):
    if a != 0:
        assert carry_set(a, b) == reference.carry_set(a, b)
    assert _outcome(affine_tiles, a, b, in_max, out_max) == _outcome(reference.affine_tiles, a, b, in_max, out_max)


def test_affine_empty():
    with pytest.raises(EmptyTileSetError):
        affine_tiles(1, 5, 1, 1)


def test_affine_zero_slope_rejected():
    with pytest.raises(ValueError):
        affine_tiles(0, 0, 1, 1)


# -- union ---------------------------------------------------------------


def test_union_doubles():
    a = affine_tiles(1, 0, 1, 1)
    u = union_tiles(a, a)
    assert len(u.tiles) == 2 * len(a.tiles)


def test_union_kari_sets():
    u = union_tiles(affine_tiles(F(4, 3), F(1, 3), 1, 1), affine_tiles(F(2, 3), F(-1, 3), 1, 1))
    assert len(u.tiles) == 22


def test_union_with_empty_set():
    a = affine_tiles(1, 0, 1, 1)
    empty = ZTileSet.make(1, {"f": 1}, [])
    u = union_tiles(a, empty)
    assert len(u.tiles) == len(a.tiles)
    assert all(t.left.kind == "tag" and t.left.value[0] == "L" for t in u.tiles)


def test_union_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        union_tiles(affine_tiles(1, 0, 1, 1), affine_tiles(1, 0, 2, 2))


def test_union_rows_never_cross_tags():
    u = union_tiles(affine_tiles(F(4, 3), F(1, 3), 1, 1), affine_tiles(F(2, 3), F(-1, 3), 1, 1))
    for t in u.tiles:
        for t2 in u.tiles:
            if t.right == t2.left:
                assert t.right.value[0] == t2.left.value[0]


# -- compose -------------------------------------------------------------


def test_compose_identity_sets():
    a = affine_tiles(1, 0, 1, 1)
    c = compose_tiles(a, a)
    assert len(c.tiles) == 2
    assert all(t.top == t.bottom() for t in c.tiles)


def test_compose_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        compose_tiles(affine_tiles(1, 0, 1, 1), affine_tiles(1, 0, 2, 2))


def test_compose_with_inverse_set_behaves_as_identity():
    from kariforge.verify import TransitionGraph, closed_walks, witness_row

    fwd = affine_tiles(F(2, 3), F(-1, 3), 1, 1)
    inv = affine_tiles(F(3, 2), F(1, 2), 1, 1)
    both = compose_tiles(fwd, inv)
    # witness rows come back bit for bit; periodic rows agree on averages
    for x in (F(5, 7), F(1, 2), F(13, 16)):
        row = witness_row(both, x, 24)
        assert all(t.top == t.bottom() for t in row)
    succ = TransitionGraph.of(both).succ
    for n in range(1, 5):
        for walk in closed_walks(succ, n):
            tiles = [both.tiles[i] for i in walk]
            assert sum(t.top for t in tiles) == sum(t.bottom() for t in tiles)


def test_compose_rows_factor_through_middle():
    from kariforge.verify import TransitionGraph, closed_walks

    A = affine_tiles(F(2, 3), F(-1, 3), 1, 1)
    B = affine_tiles(F(3, 2), F(1, 2), 1, 1)
    C = compose_tiles(A, B)
    a_tiles, b_tiles = set(A.tiles), set(B.tiles)
    succ = TransitionGraph.of(C).succ
    for walk in closed_walks(succ, 3):
        tiles = [C.tiles[i] for i in walk]
        mids = []
        for t in tiles:
            # reconstruct the operand tiles from the paired labels
            cand_a = next(x for x in a_tiles
                          if x.top == t.top and x.left is t.left.value[0] and x.right is t.right.value[0])
            cand_b = next(x for x in b_tiles
                          if x.bottom() == t.bottom() and x.left is t.left.value[1] and x.right is t.right.value[1])
            assert cand_a.bottom() == cand_b.top
            mids.append(cand_a.bottom())
        assert len(mids) == 3


# -- product -------------------------------------------------------------


def test_product_single_component_isomorphic():
    a = affine_tiles(F(2, 3), F(-1, 3), 1, 1)
    p = product_tiles([("f", a)])
    assert len(p.tiles) == len(a.tiles)
    assert {(t.top, t.bottom("f")) for t in p.tiles} == {(t.top, t.bottom()) for t in a.tiles}


def test_product_identities():
    a = affine_tiles(1, 0, 1, 1)
    p = product_tiles([("p", a), ("q", a)])
    assert len(p.tiles) == 2  # top bits must agree


def test_product_kari_component_count():
    a = affine_tiles(F(2, 3), F(-1, 3), 1, 1)
    b = affine_tiles(F(4, 3), F(1, 3), 1, 1)
    per_top = lambda ts, t: sum(1 for x in ts.tiles if x.top == t)
    expected = sum(per_top(a, t) * per_top(b, t) for t in (0, 1))
    p = product_tiles([("a", a), ("b", b)])
    assert len(p.tiles) == expected == 52


def test_product_projects_to_components():
    a = affine_tiles(F(2, 3), F(-1, 3), 1, 1)
    b = affine_tiles(F(4, 3), F(1, 3), 1, 1)
    p = product_tiles([("a", a), ("b", b)])
    a_tiles = set(a.tiles)
    for t in p.tiles:
        proj = ZTile(t.top, (("f", t.bottom("a")),), t.left.value[0], t.right.value[0])
        assert proj in a_tiles


def test_product_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        product_tiles([("p", affine_tiles(1, 0, 1, 1)), ("q", affine_tiles(1, 0, 2, 2))])


# -- pamap tiles ---------------------------------------------------------


def test_kari_fast_path_is_22(kari, kari_tiles):
    assert len(kari_tiles.tiles) == 22


def test_kari_tileset_golden_content(kari_tiles):
    # full independent re-derivation pinning the relation orientation
    # (bottom = a*top + b + left - right) and the union tag layout: the first
    # piece (slope 4/3) is tagged L, the second (slope 2/3) R
    def expected(a, b, grid, tagname):
        out = set()
        for t in (0, 1):
            for c in grid:
                for cp in grid:
                    u = a * t + b + c - cp
                    if u in (0, 1):
                        out.add((t, int(u), tag(tagname, atom(c)), tag(tagname, atom(cp))))
        return out

    thirds = [F(k, 3) for k in range(-3, 3)]
    want = expected(F(4, 3), F(1, 3), [c for c in thirds if -F(4, 3) < c < 1], "L")
    want |= expected(F(2, 3), F(-1, 3), [c for c in thirds if -F(2, 3) < c < 1], "R")
    got = {(t.top, t.bottom(), t.left, t.right) for t in kari_tiles.tiles}
    assert got == want


def test_kari_fast_path_piece_split(kari_tiles):
    lo = [t for t in kari_tiles.tiles
          if t.bottom() == F(4, 3) * t.top + F(1, 3) + t.left.value[1].value - t.right.value[1].value]
    hi = [t for t in kari_tiles.tiles
          if t.bottom() == F(2, 3) * t.top - F(1, 3) + t.left.value[1].value - t.right.value[1].value]
    assert len(lo) == 14 and len(hi) == 8


def test_identity_circle_two_tiles():
    assert len(pamap_tiles(IDENTITY_CIRCLE).tiles) == 2


def test_kari_general_path_bigger_but_sound(kari):
    from kariforge.verify import periodic_soundness

    general = pamap_tiles(kari, fast_path=False)
    assert len(general.tiles) > 22
    assert periodic_soundness(general, kari, 5) == []


def test_pamap_tiles_rejects_partial_maps(thompson_v):
    with pytest.raises(NotHomeo):
        pamap_tiles(thompson_v.map_for("a"))


def test_trim_preserves_golden_sets(kari_tiles):
    assert trim_tiles(kari_tiles) == kari_tiles


def test_non_integer_length_circle():
    from kariforge.verify import periodic_soundness, stacked_periodic_scan, witness_row

    sp = Space(F(3, 2), circle=True)
    ident = pamaps.identity(sp)
    ts = pamap_tiles(ident)
    assert ts.in_max == 2  # bits up to ceil(3/2)
    assert periodic_soundness(ts, ident, 4) == []
    found = {(r["n"], r["k"], r["shear"]) for r in stacked_periodic_scan(ts, 2, 2)}
    assert (1, 1, 0) in found  # the identity fixes everything
    row = witness_row(ts, F(5, 4), 16)
    assert len(row) == 33


def test_family_with_unsorted_generator_names(psl2z):
    renamed = pamaps.PAGroupPresentation.make(
        [("z", psl2z.map_for("d")), ("a", psl2z.map_for("e"))])
    gts = family_tiles(renamed)
    assert gts.generators == ("z", "a")
    t = gts.tiles[0]
    assert gts.phi(t, "z") == t.bottom("z")
    assert gts.psi(t, "a") == t.top


# -- family tiles --------------------------------------------------------


def test_family_single_generator_is_kari_22(kari):
    gts = family_tiles(pamaps.PAGroupPresentation.make({"f": kari}))
    assert isinstance(gts, GroupTileSet)
    assert len(gts.tiles) == 22
    assert gts.generators == ("f",)


def test_family_psl2z_valid(psl2z_family):
    gts = psl2z_family
    assert gts.generators == ("d", "e")
    assert len(gts.tiles) > 0
    for t in gts.tiles:
        assert gts.psi(t, "d") == gts.psi(t, "e") == t.top


def test_family_empty_presentation():
    with pytest.raises(ValueError):
        pamaps.PAGroupPresentation.make({})


# -- determinism and serialization ----------------------------------------


def test_generation_deterministic(kari):
    a = json.dumps(tileset_to_obj(pamap_tiles(kari)))
    b = json.dumps(tileset_to_obj(pamap_tiles(kari)))
    assert a == b


def test_tileset_roundtrip(kari_tiles):
    obj = json.loads(json.dumps(tileset_to_obj(kari_tiles)))
    assert tileset_from_obj(obj) == kari_tiles


def test_grouptileset_roundtrip(psl2z_family):
    obj = json.loads(json.dumps(grouptileset_to_obj(psl2z_family)))
    assert grouptileset_from_obj(obj) == psl2z_family


def test_label_roundtrip():
    lab = tup(tag("L", atom(F(-1, 3))), atom(F(2)))
    assert label_from_obj(json.loads(json.dumps(label_to_obj(lab)))) is lab
    atoms = {}
    obj = json.loads(json.dumps([label_to_obj(lab), label_to_obj(lab)]))
    assert label_from_obj(obj, atoms) is tup(lab, lab)
    assert atoms == {"-1/3": atom(F(-1, 3)), "2": atom(F(2))}


def test_json_shape_matches_contract(kari_tiles):
    obj = tileset_to_obj(kari_tiles)
    assert set(obj) == {"in_max", "outs", "tiles"}
    t = obj["tiles"][0]
    assert set(t) == {"top", "bottom", "left", "right"}
    assert isinstance(t["bottom"], dict)


# -- label-rank order and the JSON writers against tests/tiles_reference.py

# atoms whose floats tie (all read 1.0) or overflow, beside ordinary carries
TIE_ATOMS = [F(1), F(10**20 + 1, 10**20), F(10**20 + 2, 10**20), F(10**400), F(10**400 + 1),
             F(-10**400), F(0), F(-1, 3)]
atoms = st.one_of(st.sampled_from(TIE_ATOMS),
                  st.fractions(min_value=-3, max_value=3, max_denominator=12)).map(atom)


def labels(depth: int):
    if depth == 0:
        return atoms
    inner = labels(depth - 1)
    return st.one_of(atoms,
                     st.builds(tag, st.sampled_from(["L", "R", 'q"\u00e9']), inner),
                     st.lists(inner, min_size=1, max_size=3).map(lambda xs: tup(*xs)))


@st.composite
def tile_cases(draw):
    names = draw(st.sampled_from([("f",), ("a", "b")]))
    pool = draw(st.lists(labels(3), min_size=1, max_size=8))
    side = st.sampled_from(pool)
    bits = st.tuples(*[st.integers(0, 2) for _ in names])
    tiles = draw(st.lists(st.builds(lambda top, bs, l, r: ZTile(top, tuple(zip(names, bs)), l, r),
                                    st.integers(0, 2), bits, side, side), max_size=30))
    return names, tiles


@given(tile_cases(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_make_and_writers_match_reference(case, reverse_generators):
    names, tiles = case
    outs = {n: 2 for n in names}
    ts = ZTileSet.make(2, outs, tiles)
    assert ts.tiles == reference.make(2, outs, tiles).tiles
    assert tileset_to_json(ts) == reference.tileset_json(ts)
    g = GroupTileSet(names[::-1] if reverse_generators else names, 2, ts.out_maxes, ts.tiles)
    assert grouptileset_to_json(g) == reference.grouptileset_json(g)


def test_make_breaks_float_ties_exactly():
    carries = [F(10**20 + 2, 10**20), F(1), F(10**20 + 1, 10**20)]
    ts = ZTileSet.make(0, {"f": 0}, [ZTile(0, (("f", 0),), atom(c), atom(0)) for c in carries])
    assert [t.left.value for t in ts.tiles] == sorted(carries)


def test_writers_match_reference_on_empty_sets():
    for outs in ({"f": 1}, {}):
        ts = ZTileSet.make(1, outs, [])
        assert tileset_to_json(ts) == reference.tileset_json(ts)
        g = GroupTileSet(tuple(outs), 1, ts.out_maxes, ())
        assert grouptileset_to_json(g) == reference.grouptileset_json(g)
    no_outputs = ZTileSet.make(1, {}, [ZTile(0, (), atom(0), atom(1)), ZTile(1, (), tag("L", atom(0)), tup())])
    assert tileset_to_json(no_outputs) == reference.tileset_json(no_outputs)
    g = GroupTileSet((), 1, (), no_outputs.tiles)
    assert grouptileset_to_json(g) == reference.grouptileset_json(g)


# -- the label codec against tests/tiles_reference.py ----------------------

# tag names the JSON escaper must handle: quotes, backslashes, control and
# non-ASCII characters, and the empty name
TAG_NAMES = st.text(st.sampled_from(["L", "R", '"', "\\", "\n", "\t", "\u00e9", "\u2603", "\U0001d11e"]),
                    max_size=3)
MAX_DEPTH = 12


def label_depth(l: HLabel) -> int:
    if l.kind == "atom":
        return 0
    children = [l.value[1]] if l.kind == "tag" else l.value
    return 1 + max((label_depth(c) for c in children), default=0)


def label_nodes(labels) -> set:
    """(node, depth) for every node reachable from the (label, depth) pairs."""
    seen, todo = set(), list(labels)
    while todo:
        l, d = todo.pop()
        if (l, d) not in seen:
            seen.add((l, d))
            children = [l.value[1]] if l.kind == "tag" else l.value if l.kind == "tup" else ()
            todo.extend((c, d + 1) for c in children)
    return seen


@st.composite
def shared_labels(draw):
    """A pool of labels built bottom up: every new tag or tuple takes its
    children from the pool, the most recent first, so subtrees are shared
    and depths reach MAX_DEPTH; tuples may be empty."""
    pool = draw(st.lists(atoms, min_size=1, max_size=4))
    steps = st.tuples(st.booleans(), TAG_NAMES, st.lists(st.sampled_from([0, 0, 0, 1, 2, 5, 40]), max_size=3))
    for is_tag, name, picks in draw(st.lists(steps, max_size=30)):
        children = [pool[-1 - i % len(pool)] for i in picks]
        if is_tag:
            node = tag(name, children[0] if children else pool[-1])
        else:
            node = tup(*children)
        if label_depth(node) <= MAX_DEPTH:
            pool.append(node)
    return pool


@given(shared_labels(), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_label_writer_matches_reference(pool, depth):
    text = tiles._label_writer()
    for l in pool:
        assert text(l, depth) == reference.label_json(l).replace("\n", "\n" + " " * depth)


@given(shared_labels())
@settings(max_examples=300, deadline=None)
def test_label_reader_matches_reference(pool):
    objs = json.loads(json.dumps([label_to_obj(l) for l in pool]))
    mine, theirs = {}, {}
    for l, obj in zip(pool, objs):
        assert label_from_obj(obj, mine) is reference.label_from_obj(obj, theirs) is l
        assert label_from_obj(obj) is l
    assert mine == theirs


@given(shared_labels(), st.data())
@settings(max_examples=200, deadline=None)
def test_codec_matches_reference_on_shared_labels(pool, data):
    side = st.sampled_from(pool)
    tiles_ = data.draw(st.lists(st.builds(lambda top, b, l, r: ZTile(top, (("a", b), ("b", 1 - b)), l, r),
                                          st.integers(0, 1), st.integers(0, 1), side, side), max_size=20))
    ts = ZTileSet.make(1, {"a": 1, "b": 1}, tiles_)
    text = tileset_to_json(ts)
    assert text == reference.tileset_json(ts)
    back = tileset_from_obj(json.loads(text))
    assert back == ts and all(u.left is t.left and u.right is t.right for u, t in zip(back.tiles, ts.tiles))
    g = GroupTileSet(("b", "a"), 1, ts.out_maxes, ts.tiles)
    text = grouptileset_to_json(g)
    assert text == reference.grouptileset_json(g)
    assert grouptileset_from_obj(json.loads(text)).tiles == g.tiles


def test_writer_builds_each_label_node_once_per_depth(monkeypatch, psl2z_family):
    calls = []
    build = tiles._label_json
    monkeypatch.setattr(tiles, "_label_json", lambda l, depth, text: calls.append((l, depth)) or build(l, depth, text))
    psl_d = pamap_tiles(presets.load_preset("psl2z").map_for("d"))
    for ts, write, check in ((psl_d, tileset_to_json, reference.tileset_json),
                             (psl2z_family, grouptileset_to_json, reference.grouptileset_json)):
        calls.clear()
        assert write(ts) == check(ts)
        assert len(calls) == len(set(calls))
        assert set(calls) == label_nodes((l, 3) for t in ts.tiles for l in (t.left, t.right))
        assert len(calls) < sum(len(label_nodes([(t.left, 3)])) + len(label_nodes([(t.right, 3)]))
                                for t in ts.tiles)


def test_reader_finds_known_nodes_in_the_intern_table(monkeypatch, psl2z_family):
    obj = json.loads(grouptileset_to_json(psl2z_family))
    built = []
    new = HLabel.__new__

    def counting(cls, kind, value):
        built.append(kind)
        return new(cls, kind, value)

    def refuse(*args):
        raise AssertionError("the reader builds no node through tag() or tup()")

    monkeypatch.setattr(HLabel, "__new__", counting)
    monkeypatch.setattr(tiles, "tag", refuse)
    monkeypatch.setattr(tiles, "tup", refuse)
    back = grouptileset_from_obj(obj)
    assert back == psl2z_family
    assert set(built) <= {"atom"}  # one per distinct carry string; tags and tuples are found
    assert len(built) == len({l for t in back.tiles for l, _ in label_nodes([(t.left, 0), (t.right, 0)])
                              if l.kind == "atom"})


def test_reader_builds_a_new_node_once(monkeypatch):
    fresh = tag("never-seen-\u00e9", tup(atom(F(5, 7)), tup()))
    obj = json.loads(json.dumps(label_to_obj(fresh)).replace("never-seen", "also-new"))
    built = []
    new = HLabel.__new__
    monkeypatch.setattr(HLabel, "__new__", lambda cls, kind, value: built.append(kind) or new(cls, kind, value))
    l = label_from_obj([obj, obj, [obj]], {})
    # the inner tuples are interned with `fresh`; the new tag, the two new
    # tuples and the carry string are built once each, whatever their count
    assert sorted(built) == ["atom", "tag", "tup", "tup"]
    assert l is tup(l.value[0], l.value[0], tup(l.value[0]))


# -- malformed tile JSON ---------------------------------------------------


def _malformed_tile_files():
    """(case, JSON document, words the ValueError must contain)."""
    z = tileset_to_obj(ZTileSet.make(1, {"f": 1}, [ZTile(0, (("f", 1),), atom(0), tag("L", atom(F(1, 3))))]))
    g = grouptileset_to_obj(GroupTileSet(("a", "b"), 1, (("a", 1), ("b", 1)),
                                         (ZTile(1, (("a", 0), ("b", 1)), atom(0), atom(0)),)))

    def edit(doc, path, value):
        doc = json.loads(json.dumps(doc))
        *head, last = path
        node = doc
        for k in head:
            node = node[k]
        if value is KeyError:
            del node[last]
        else:
            node[last] = value
        return doc

    yield "label 5", edit(z, ("tiles", 0, "left"), 5), ["tile 0", "left", "not a label: 5"]
    yield "label null", edit(z, ("tiles", 0, "right"), None), ["tile 0", "right", "not a label: null"]
    yield "label [1, 2]", edit(z, ("tiles", 0, "left"), [1, 2]), ["tile 0", "left", "not a label: 1"]
    yield "tag name 3", edit(z, ("tiles", 0, "right"), {"tag": 3, "label": "0"}), ["tile 0", "right", "not a label"]
    yield "tag without label", edit(z, ("tiles", 0, "right"), {"tag": "L"}), ["tile 0", "right", "not a label"]
    yield "tag extra key", edit(z, ("tiles", 0, "right"), {"tag": "L", "label": "0", "x": 1}), ["tile 0", "right"]
    yield "bad carry", edit(z, ("tiles", 0, "left"), "1/0"), ["tile 0", "left", "zero denominator"]
    yield "top 0.5", edit(z, ("tiles", 0, "top"), 0.5), ["tile 0", "top", "not a JSON integer: 0.5"]
    yield "top true", edit(z, ("tiles", 0, "top"), True), ["tile 0", "top", "not a JSON integer: true"]
    yield "top '1'", edit(z, ("tiles", 0, "top"), "1"), ["tile 0", "top", 'not a JSON integer: "1"']
    yield "bottom 1.0", edit(z, ("tiles", 0, "bottom", "f"), 1.0), ["tile 0", "bottom", "f: not a JSON integer: 1.0"]
    yield "bottom list", edit(z, ("tiles", 0, "bottom"), [1]), ["tile 0", "bottom", "not a JSON object"]
    yield "no left", edit(z, ("tiles", 0, "left"), KeyError), ["tile 0", "missing field 'left'"]
    yield "tile 7", edit(z, ("tiles", 0), 7), ["tile 0", "not a JSON object: 7"]
    yield "in_max '1'", edit(z, ("in_max",), "1"), ["in_max", 'not a JSON integer: "1"']
    yield "outs true", edit(z, ("outs", "f"), True), ["outs", "f: not a JSON integer: true"]
    yield "no tiles", edit(z, ("tiles",), KeyError), ["no 'tiles' field"]
    yield "tiles object", edit(z, ("tiles",), {}), ["tiles", "not a JSON list"]
    yield "document [1, 2]", [1, 2], ["a tile set is a JSON object, not [1, 2]"]
    yield "document 5", 5, ["a tile set is a JSON object, not 5"]
    yield "psi true", edit(g, ("tiles", 0, "psi", "b"), True), ["tile 0", "psi", "b: not a JSON integer: true"]
    yield "psi disagree", edit(g, ("tiles", 0, "psi", "b"), 0), ["tile 0", "psi colors must agree"]
    yield ("psi unknown name", edit(g, ("tiles", 0, "psi"), {"a": 1, "zzz": 1}),
           ["tile 0", "psi: names ['a', 'zzz'] are not the generators ['a', 'b']"])
    yield ("psi missing name", edit(g, ("tiles", 0, "psi"), {"b": 1}),
           ["tile 0", "psi: names ['b'] are not the generators ['a', 'b']"])
    yield "phi 0.0", edit(g, ("tiles", 0, "phi", "a"), 0.0), ["tile 0", "phi", "a: not a JSON integer: 0.0"]
    yield "group label null", edit(g, ("tiles", 0, "left"), None), ["tile 0", "left", "not a label: null"]
    yield "generators string", edit(g, ("generators",), "ab"), ["generators", "not a JSON list of strings"]
    yield "generators 1", edit(g, ("generators",), [1, "b"]), ["generators", "not a JSON list of strings"]


MALFORMED = list(_malformed_tile_files())


@pytest.mark.parametrize("case, doc, words", MALFORMED, ids=[c for c, _, _ in MALFORMED])
def test_loaders_refuse_malformed_json(case, doc, words):
    load = grouptileset_from_obj if isinstance(doc, dict) and "generators" in doc else tileset_from_obj
    with pytest.raises(ValueError) as info:
        load(doc)
    assert all(w in str(info.value) for w in words), str(info.value)


def test_loaders_name_the_tile_at_fault(kari_tiles, psl2z_family):
    obj = tileset_to_obj(kari_tiles)
    obj["tiles"][13]["top"] = True
    with pytest.raises(ValueError, match="^tile 13: top: not a JSON integer: true$"):
        tileset_from_obj(obj)
    # true == 1 and 1.0 == 1 as dict keys, so a bits object equal to one
    # read before must still be checked
    obj = tileset_to_obj(kari_tiles)
    bits = obj["tiles"][0]["bottom"]
    obj["tiles"][21]["bottom"] = {n: float(v) for n, v in bits.items()}
    with pytest.raises(ValueError, match="^tile 21: bottom: f: not a JSON integer: [01].0$"):
        tileset_from_obj(obj)
    obj = grouptileset_to_obj(psl2z_family)
    phi = obj["tiles"][0]["phi"]
    obj["tiles"][-1]["phi"] = {h: bool(v) for h, v in phi.items()}
    with pytest.raises(ValueError, match=f"^tile {len(obj['tiles']) - 1}: phi: d: not a JSON integer"):
        grouptileset_from_obj(obj)


@pytest.fixture
def checked_make(monkeypatch):
    """ZTileSet.make, compared with the reference order on every call; the
    list holds the size of each set made."""
    sizes = []
    fast = ZTileSet.make

    def make(in_max, out_maxes, tiles, source=None):
        tiles = list(tiles)
        got = fast(in_max, out_maxes, tiles, source)
        assert got.tiles == reference.make(in_max, out_maxes, tiles).tiles
        sizes.append(len(got.tiles))
        return got

    monkeypatch.setattr(ZTileSet, "make", staticmethod(make))
    return sizes


@pytest.mark.parametrize("preset, fast_path", [("z-kari", True), ("z-kari", False), ("psl2z", True),
                                               ("thompson-t", True)])
def test_presets_match_reference(checked_make, preset, fast_path):
    # thompson-v's maps are partial, so no tile set compiles from them, and
    # the full thompson-t family has about 400,000 tiles: its generators are
    # compiled one by one
    pres = presets.load_preset(preset)
    if preset != "thompson-t":
        gts = family_tiles(pres, fast_path=fast_path)
        assert grouptileset_to_json(gts) == reference.grouptileset_json(gts)
    for _, f in pres.generators:
        ts = pamap_tiles(f, fast_path=fast_path)
        assert tileset_to_json(ts) == reference.tileset_json(ts)
    assert checked_make


def test_chain_matches_reference(checked_make):
    a = affine_tiles(F(2, 3), F(-1, 3), 1, 1)
    b = affine_tiles(F(4, 3), F(1, 3), 1, 1)
    u = union_tiles(a, b)
    c = compose_tiles(u, a)
    p = product_tiles([("g", trim_tiles(c)), ("h", union_tiles(c, b))])
    assert len(checked_make) == 6
    for ts in (a, b, u, c, p, trim_tiles(p)):
        assert tileset_to_json(ts) == reference.tileset_json(ts)
    g = GroupTileSet(("h", "g"), p.in_max, p.out_maxes, p.tiles)
    assert grouptileset_to_json(g) == reference.grouptileset_json(g)


def test_trim_tiles_does_not_revalidate(monkeypatch):
    a = affine_tiles(F(2, 3), F(-1, 3), 1, 1)
    ts = compose_tiles(union_tiles(a, affine_tiles(F(4, 3), F(1, 3), 1, 1)), a)
    calls = []
    check = ZTileSet.__post_init__

    def counting(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(ZTileSet, "__post_init__", counting)
    trimmed = trim_tiles(ts)
    assert calls == []
    assert len(trimmed.tiles) < len(ts.tiles)
    validated = ZTileSet(trimmed.in_max, trimmed.out_maxes, trimmed.tiles, trimmed.source)
    assert len(calls) == 1
    assert trimmed == validated and hash(trimmed) == hash(validated)
    assert trimmed.source is ts.source


def _bad_tile_sets():
    ok = ZTile(0, (("f", 0),), atom(0), atom(0))
    yield "top bit 2", lambda: ZTileSet.make(1, {"f": 1}, [ok, ZTile(2, (("f", 0),), atom(0), atom(0))])
    yield "bottom bit 2", lambda: ZTileSet.make(1, {"f": 1}, [ok, ZTile(0, (("f", 2),), atom(1), atom(0))])
    yield "outputs do not match", lambda: ZTileSet.make(1, {"f": 1}, [ZTile(0, (("g", 0),), atom(0), atom(0))])
    obj = tileset_to_obj(ZTileSet.make(1, {"f": 1}, [ok]))
    obj["tiles"] *= 2
    yield "duplicate tile", lambda: tileset_from_obj(obj)
    yield "bottom bit 3", lambda: GroupTileSet(("f",), 1, (("f", 1),), (ok, ZTile(1, (("f", 3),), atom(0), atom(0))))


@pytest.mark.parametrize("message, build", list(_bad_tile_sets()))
def test_constructors_still_validate(message, build):
    with pytest.raises(ValueError, match=message):
        build()


# -- witness-based completeness property ----------------------------------


@given(st.fractions(min_value=0, max_value=1, max_denominator=40))
@settings(max_examples=120, deadline=None)
def test_affine_completeness_on_random_rationals(x):
    from kariforge.verify import witness_row

    for a, b in ((F(2, 3), F(-1, 3)), (F(4, 3), F(1, 3))):
        if 0 <= a * x + b <= 1:
            ts = affine_tiles(a, b, 1, 1)
            row = witness_row(ts, x, 64)
            assert len(row) == 129


SLOPE_MENU = [F(1), F(-1), F(1, 2), F(-1, 2), F(2, 3), F(3, 2), F(4, 3), F(-2, 3), F(2)]
OFFSET_MENU = [F(0), F(1, 3), F(-1, 3), F(1, 2), F(1), F(3, 4), F(-1, 4)]


@given(st.sampled_from(SLOPE_MENU), st.sampled_from(OFFSET_MENU),
       st.fractions(min_value=0, max_value=2, max_denominator=30),
       st.sampled_from([1, 2]))
@settings(max_examples=200, deadline=None)
def test_affine_completeness_any_slope_sign(a, b, x, m):
    from kariforge.verify import witness_row

    if not (x <= m and 0 <= a * x + b <= m):
        return
    try:
        ts = affine_tiles(a, b, m, m)
    except EmptyTileSetError:
        assert False, "witnessable input but the tile set is empty"
    row = witness_row(ts, x, 48)
    assert tuple(t.top for t in row) == tuple(
        math.floor((n + 1) * x) - math.floor(n * x) for n in range(-48, 49))
