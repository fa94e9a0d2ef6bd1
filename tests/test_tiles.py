import json
import math
from collections import Counter
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
    write_json,
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
    candidates = reference.product_tiles([("a", a), ("b", b)])
    assert len(candidates.tiles) == expected == 52
    # the product keeps only the candidates that occur in a bi-infinite row
    p = product_tiles([("a", a), ("b", b)])
    assert p.tiles == trim_tiles(candidates).tiles
    assert len(p.tiles) == 42


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


def test_tiles_refuse_generators_they_do_not_carry(psl2z_family):
    t = psl2z_family.tiles[0]
    for read in (t.bottom, lambda h: psl2z_family.phi(t, h), lambda h: psl2z_family.psi(t, h)):
        with pytest.raises(KeyError, match="^'z'$"):
            read("z")


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
    obj = json.loads(json.dumps([label_to_obj(lab), label_to_obj(lab)]))
    assert label_from_obj(obj) is tup(lab, lab)


def test_json_shape_matches_contract(kari_tiles):
    obj = tileset_to_obj(kari_tiles)
    assert set(obj) == {"in_max", "outs", "tiles"}
    t = obj["tiles"][0]
    assert set(t) == {"top", "bottom", "left", "right"}
    assert isinstance(t["bottom"], dict)


def test_object_form_is_the_text_form(kari_tiles, psl2z_family, thompson_t):
    """One object writer for both kinds of set: tileset_to_obj(ts) is the
    document tileset_to_json(ts) writes, keys in the same order, and the
    one reader reads it back as ts, the document picking the kind."""
    assert grouptileset_to_obj is tileset_to_obj
    assert grouptileset_from_obj is tileset_from_obj
    ac = family_tiles(pamaps.PAGroupPresentation.make([g for g in thompson_t.generators if g[0] in "ac"]))
    for ts in (kari_tiles, psl2z_family, ac, ZTileSet.make(1, {"f": 1}, []),
               GroupTileSet(("a", "b"), 1, (("a", 1), ("b", 1)), ())):
        obj = tileset_to_obj(ts)
        text = tileset_to_json(ts)
        assert obj == json.loads(text)
        assert json.dumps(obj, indent=1) + "\n" == text
        group = isinstance(ts, GroupTileSet)
        assert ("generators" in obj) == group
        assert tileset_from_obj(obj) == ts


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


def _written(ts) -> list[str]:
    """The chunks write_json writes for ts: one per tile, then the closing text."""
    chunks: list[str] = []
    write_json(ts, chunks.append)
    assert len(chunks) == len(ts.tiles) + 1
    return chunks


@given(tile_cases(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_make_and_writers_match_reference(case, reverse_generators):
    names, tiles = case
    outs = {n: 2 for n in names}
    ts = ZTileSet.make(2, outs, tiles)
    assert ts.tiles == reference.make(2, outs, tiles).tiles
    assert tileset_to_json(ts) == "".join(_written(ts)) == reference.tileset_json(ts)
    g = GroupTileSet(names[::-1] if reverse_generators else names, 2, ts.out_maxes, ts.tiles)
    assert tileset_to_json(g) == "".join(_written(g)) == reference.grouptileset_json(g)


def test_make_breaks_float_ties_exactly():
    carries = [F(10**20 + 2, 10**20), F(1), F(10**20 + 1, 10**20)]
    ts = ZTileSet.make(0, {"f": 0}, [ZTile(0, (("f", 0),), atom(c), atom(0)) for c in carries])
    assert [t.left.value for t in ts.tiles] == sorted(carries)


def test_writers_match_reference_on_empty_sets():
    for outs in ({"f": 1}, {}):
        ts = ZTileSet.make(1, outs, [])
        assert tileset_to_json(ts) == "".join(_written(ts)) == reference.tileset_json(ts)
        g = GroupTileSet(tuple(outs), 1, ts.out_maxes, ())
        assert tileset_to_json(g) == "".join(_written(g)) == reference.grouptileset_json(g)
    no_outputs = ZTileSet.make(1, {}, [ZTile(0, (), atom(0), atom(1)), ZTile(1, (), tag("L", atom(0)), tup())])
    assert tileset_to_json(no_outputs) == "".join(_written(no_outputs)) == reference.tileset_json(no_outputs)
    g = GroupTileSet((), 1, (), no_outputs.tiles)
    assert tileset_to_json(g) == "".join(_written(g)) == reference.grouptileset_json(g)


def test_writer_does_not_hold_the_document(thompson_t):
    """Into a sink that drops its input, write_json of the thompson-t family
    over a and c (3,680 tiles) keeps the label texts and one tile's text; a
    writer that held every tile's text and the joined document peaked at
    3.3 times the document's length."""
    import tracemalloc

    ac = family_tiles(pamaps.PAGroupPresentation.make([g for g in thompson_t.generators if g[0] in "ac"]))
    assert len(ac.tiles) == 3680
    length = len(tileset_to_json(ac))
    tracemalloc.start()
    try:
        write_json(ac, lambda text: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < length / 2


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
    labels = tiles._LabelTable()
    id_of = labels.numbering()
    ids = [id_of(l) for l in pool]
    text = tiles._label_texts(labels.nodes)
    for l, i in zip(pool, ids):
        assert text(i, depth) == reference.label_json(l).replace("\n", "\n" + " " * depth)


@given(shared_labels())
@settings(max_examples=300, deadline=None)
def test_label_reader_matches_reference(pool):
    objs = json.loads(json.dumps([label_to_obj(l) for l in pool]))
    theirs = {}
    for l, obj in zip(pool, objs):
        assert label_from_obj(obj) is reference.label_from_obj(obj, theirs) is l


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
    text = tileset_to_json(g)
    assert text == reference.grouptileset_json(g)
    assert grouptileset_from_obj(json.loads(text)).tiles == g.tiles


def table_label(nodes, i) -> HLabel:
    """The label that nodes[i] of a label table stands for."""
    kind, value = nodes[i]
    if kind == "atom":
        return atom(F(*value))
    if kind == "tag":
        return tag(value[0], table_label(nodes, value[1]))
    return tup(*(table_label(nodes, c) for c in value))


def test_writer_builds_each_label_node_once_per_depth(monkeypatch, psl2z_family):
    """Each distinct (label, depth) is built once, whether the writer is
    given a set or the rows gen compiles."""
    calls = []
    build = tiles._label_text
    monkeypatch.setattr(tiles, "_label_text", lambda nodes, i, depth, text:
                        calls.append((table_label(nodes, i), depth)) or build(nodes, i, depth, text))
    psl2z = presets.load_preset("psl2z")
    psl_d = pamap_tiles(psl2z.map_for("d"))
    for ts, rows, check in ((psl_d, tiles.pamap_rows(psl2z.map_for("d")), reference.tileset_json),
                            (psl2z_family, tiles.family_rows(psl2z), reference.grouptileset_json)):
        for source in (ts, rows):
            calls.clear()
            assert "".join(_written(source)) == check(ts)
            assert len(calls) == len(set(calls))
            assert set(calls) == label_nodes((l, 3) for t in ts.tiles for l in (t.left, t.right))
            assert len(calls) < sum(len(label_nodes([(t.left, 3)])) + len(label_nodes([(t.right, 3)]))
                                    for t in ts.tiles)


def test_reader_finds_known_nodes_in_the_intern_table(monkeypatch, psl2z_family):
    obj = json.loads(tileset_to_json(psl2z_family))
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
    l = label_from_obj([obj, obj, [obj]])
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
    with pytest.raises(ValueError) as info:
        tileset_from_obj(doc)
    assert all(w in str(info.value) for w in words), str(info.value)


def test_sets_refuse_unsorted_or_several_outputs_and_empty_products():
    with pytest.raises(ValueError, match="^output names must be sorted$"):
        ZTileSet(1, (("g", 1), ("f", 1)), ())
    with pytest.raises(ValueError, match="^tile set has several outputs$"):
        ZTileSet.make(1, {"f": 1, "g": 1}, []).single_out()
    with pytest.raises(ValueError, match="^empty product$"):
        product_tiles([])


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
    """_Rows.ordered, the one order of every set that ZTileSet.make or a
    compile makes, compared on every call with the reference make of the
    same tiles; the list holds the size of each set ordered."""
    sizes = []
    fast = tiles._Rows.ordered

    def ordered(rows):
        got = fast(rows)
        label = rows.labels.hlabels(tiles._sides(rows.tiles))

        def as_tiles(rs):
            return tuple(ZTile(top, bottoms, label[l], label[r]) for top, bottoms, l, r in rs)
        assert as_tiles(got.tiles) == reference.make(rows.in_max, dict(rows.out_maxes), as_tiles(rows.tiles)).tiles
        sizes.append(len(got.tiles))
        return got

    monkeypatch.setattr(tiles._Rows, "ordered", ordered)
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
        assert tileset_to_json(gts) == reference.grouptileset_json(gts)
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
    assert tileset_to_json(g) == reference.grouptileset_json(g)


def test_trim_tiles_does_not_revalidate(monkeypatch):
    a = affine_tiles(F(2, 3), F(-1, 3), 1, 1)
    # compose_tiles trims its result, so the untrimmed composite comes from the reference
    ts = reference.compose_tiles(union_tiles(a, affine_tiles(F(4, 3), F(1, 3), 1, 1)), a)
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


def test_compiled_rows_run_the_set_checks():
    """The rows gen writes pass the checks a ZTileSet or GroupTileSet runs
    (`_check_rows`), with the same messages."""
    labels = tiles._LabelTable()
    a = labels.intern("atom", (0, 1))

    def rows(*cells, generators=None):
        return tiles._Rows(1, (("f", 1),), [(top, ((name, bit),), a, a) for top, name, bit in cells], None,
                           labels, generators=generators)

    cases = [("top bit 2", rows((0, "f", 0), (2, "f", 0))),
             ("bottom bit 2", rows((0, "f", 2))),
             ("outputs do not match", rows((0, "g", 0))),
             ("outputs must match the generators", rows((0, "f", 0), generators=("g",)))]
    for message, bad in cases:
        with pytest.raises(ValueError, match=message):
            bad.checked()
    assert len(rows((1, "f", 1), (0, "f", 0), generators=("f",)).checked().tiles) == 2


def test_group_set_runs_the_z_checks_on_itself(monkeypatch):
    """GroupTileSet checks its own fields with ZTileSet's checks, whose
    texts it keeps, and builds no ZTileSet to do so."""
    built = []
    init = ZTileSet.__init__
    monkeypatch.setattr(ZTileSet, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    ok = ZTile(0, (("f", 0),), atom(0), atom(0))
    for message, tiles in (("duplicate tile", (ok, ok)),
                           ("top bit 2 out of range", (ZTile(2, (("f", 0),), atom(0), atom(0)),)),
                           ("tile outputs do not match", (ZTile(0, (), atom(0), atom(0)),))):
        with pytest.raises(ValueError, match=message):
            GroupTileSet(("f",), 1, (("f", 1),), tiles)
    with pytest.raises(ValueError, match="outputs must match the generators"):
        GroupTileSet(("g",), 1, (("f", 1),), (ok,))
    assert GroupTileSet(("f",), 1, (("f", 1),), (ok,)).tiles == (ok,)
    assert built == []


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


# -- trimmed compose/product nodes, one trim per plan node ----------------

from kariforge.tiles import (PlanAff, PlanComp, PlanProd, PlanUnion, TileSetError, build_plan,  # noqa: E402
                             pamap_plan)
from test_verify import circle_homeos, interval_maps  # noqa: E402


def test_labels_hash_and_compare_by_identity():
    assert "__hash__" not in vars(HLabel) and "__eq__" not in vars(HLabel)
    l = tup(atom(F(1, 3)), tag("L", atom(0)))
    assert l is tup(atom(F(1, 3)), tag("L", atom(0)))
    assert hash(l) == object.__hash__(l)


def built(build, *args):
    """("ok", the set's fields and source) or ("error", the exception's type and text)."""
    try:
        ts = build(*args)
    except (TileSetError, ValueError) as exc:
        return "error", type(exc), str(exc)
    return "ok", ts.in_max, ts.out_maxes, ts.tiles, ts.source


@given(st.one_of(circle_homeos(max_denominator=4), interval_maps()), st.booleans())
@settings(max_examples=25, deadline=None)
def test_build_plan_matches_reference_on_maps(f, fast_path):
    plan, m = pamap_plan(f, fast_path), tiles.bit_max(f.space)
    assert built(build_plan, plan, m, m) == built(reference.build_plan, plan, m, m)


def test_build_plan_refuses_what_is_not_a_plan():
    with pytest.raises(TypeError, match="^not a plan: 'x'$"):
        build_plan("x", 1, 1)
    with pytest.raises(TypeError, match="^not a plan: 'x'$"):
        build_plan(PlanUnion(PlanAff(F(1), F(0)), "x"), 1, 1)


AFFINE_MENU = [PlanAff(a, b) for a, b in ((F(1), F(0)), (F(2, 3), F(-1, 3)), (F(4, 3), F(1, 3)),
                                           (F(-1), F(1)), (F(1, 2), F(1, 4)), (F(3, 2), F(-1, 2)))]


def small_plans(max_leaves=3):
    """Plans over a few affine leaves, with unions and compositions."""
    leaves = st.sampled_from(AFFINE_MENU)
    return st.recursive(leaves, lambda sub: st.one_of(st.builds(PlanUnion, sub, sub), st.builds(PlanComp, sub, sub)),
                        max_leaves=max_leaves)


def product_parts():
    """1-3 plans over bits 0..1: small plans, or a circle homeomorphism's plan
    with at most one small plan beside it, so no product has more than about
    15,000 candidate tiles."""
    homeo_plans = st.builds(pamap_plan, circle_homeos(max_denominator=3), st.booleans())
    return st.one_of(st.lists(small_plans(2), min_size=1, max_size=3),
                     st.lists(small_plans(), min_size=0, max_size=1).flatmap(
                         lambda rest: homeo_plans.map(lambda p: [p] + rest)).flatmap(st.permutations))


@given(product_parts())
@settings(max_examples=40, deadline=None)
def test_build_plan_matches_reference_on_products(parts):
    plan = PlanProd(tuple((f"g{i}", p) for i, p in enumerate(parts)))
    assert built(build_plan, plan, 1, 1) == built(reference.build_plan, plan, 1, 1)


def untrimmed_sets(m):
    """Untrimmed single-output sets over bits 0..m: affine sets, their unions
    and reference compositions (every candidate, dead or not)."""
    affine = st.sampled_from(AFFINE_MENU).map(lambda p: affine_or_empty(p, m))
    return st.recursive(affine, lambda sub: st.one_of(st.builds(union_tiles, sub, sub),
                                                      st.builds(reference.compose_tiles, sub, sub)),
                        max_leaves=3)


def affine_or_empty(p, m):
    try:
        return affine_tiles(p.a, p.b, m, m)
    except EmptyTileSetError:
        return ZTileSet.make(m, {"f": m}, [], source=p)


def product_candidates(sets) -> int:
    """Tiles of the reference's untrimmed product of the sets: one per choice
    of a tile from each set, all with the same top bit."""
    tops = Counter(t.top for t in sets[0].tiles)
    for ts in sets[1:]:
        here = Counter(t.top for t in ts.tiles)
        tops = Counter({top: n * here[top] for top, n in tops.items()})
    return sum(tops.values())


def compose_candidates(A, B) -> int:
    """Tiles of the reference's untrimmed composition of A and B: one per
    pair whose middle bits agree."""
    tops = Counter(t.top for t in B.tiles)
    return sum(tops[t.bottom()] for t in A.tiles)


@given(st.sampled_from([1, 2]), st.data())
@settings(max_examples=60, deadline=None)
def test_compose_and_product_are_trimmed_reference(m, data):
    # two reference compositions can compose to 159,736 candidates (one
    # probe), and three can make a product of 57 million, which the
    # reference builds tile by tile: both steps draw below a cap
    A, B = data.draw(st.tuples(untrimmed_sets(m), untrimmed_sets(m))
                     .filter(lambda sets: compose_candidates(*sets) <= 15_000))
    assert built(compose_tiles, A, B) == built(lambda: trim_tiles(reference.compose_tiles(A, B)))
    parts = data.draw(st.lists(untrimmed_sets(m), min_size=1, max_size=3)
                      .filter(lambda sets: product_candidates(sets) <= 15_000))
    parts = [(f"g{i}", c) for i, c in enumerate(parts)]
    assert built(product_tiles, parts) == built(lambda: trim_tiles(reference.product_tiles(parts)))
    for ts in (A, B):
        assert trim_tiles(ts).tiles == reference.trim_tiles(ts).tiles


def plan_nodes(plan) -> set:
    if isinstance(plan, PlanAff):
        return {plan}
    parts = [p for _, p in plan.parts] if isinstance(plan, PlanProd) else [plan.first, plan.second]
    return {plan}.union(*map(plan_nodes, parts))


@pytest.mark.parametrize("preset, fast_path", [("z-kari", False), ("psl2z", True), ("psl2z", False)])
def test_trim_runs_once_per_distinct_plan_node_on_the_reference_sizes(monkeypatch, preset, fast_path):
    """Each node is trimmed once, and a compose or product node hands the
    trim as many candidates as the reference's untrimmed node has tiles, so
    the trims see the sets, by size, that they saw when every candidate was
    a tile."""
    pres = presets.load_preset(preset)
    plan = PlanProd(tuple((name, pamap_plan(f, fast_path)) for name, f in pres.generators))
    seen = {}
    for mod in (tiles, reference):
        calls = seen[mod] = []
        trim = mod.trim_tiles
        monkeypatch.setattr(mod, "trim_tiles", lambda ts, calls=calls, trim=trim:
                            calls.append((repr(ts.source), len(ts.tiles))) or trim(ts))
    gts = family_tiles(pres, fast_path=fast_path)
    ref = reference.build_plan(plan, gts.in_max, gts.in_max)
    assert sorted(seen[tiles]) == sorted(seen[reference])
    assert sorted(source for source, _ in seen[tiles]) == sorted(map(repr, plan_nodes(plan)))
    assert gts.tiles == ref.tiles


# -- plan nodes as rows over one label table -------------------------------


def root_plans():
    kari, psl2z = presets.kari_map(), presets.load_preset("psl2z")
    yield pamap_plan(kari, False), tiles.bit_max(kari.space)
    for fast_path in (True, False):
        yield PlanProd(tuple((name, pamap_plan(f, fast_path)) for name, f in psl2z.generators)), 2


@pytest.mark.parametrize("plan, m", list(root_plans()))
def test_build_plan_validates_once_per_root(monkeypatch, plan, m):
    calls = []
    check = ZTileSet.__post_init__
    monkeypatch.setattr(ZTileSet, "__post_init__", lambda self: calls.append(len(self.tiles)) or check(self))
    ts = build_plan(plan, m, m)
    assert calls == [len(ts.tiles)]


def test_family_tiles_validates_its_root_once(monkeypatch, psl2z):
    calls = []
    check = ZTileSet.__post_init__
    monkeypatch.setattr(ZTileSet, "__post_init__", lambda self: calls.append(len(self.tiles)) or check(self))
    gts = family_tiles(psl2z)
    assert calls == [len(gts.tiles)]
    # a set built directly or loaded is still checked in full
    calls.clear()
    assert GroupTileSet(gts.generators, gts.in_max, gts.out_maxes, gts.tiles) == gts
    assert grouptileset_from_obj(grouptileset_to_obj(gts)) == gts
    assert calls == [len(gts.tiles)] * 2
    # the rows gen writes pass the same check
    rows = build_plan(gts.source, gts.in_max, gts.in_max, tiles._LabelTable())
    few = tiles._Rows(rows.in_max, rows.out_maxes, rows.tiles, rows.source, rows.labels,
                      generators=gts.generators[:1])
    with pytest.raises(ValueError, match="outputs must match the generators"):
        few.checked()


def test_union_nodes_skip_the_trim_walk(monkeypatch, kari, psl2z):
    """A union of trimmed nodes is trimmed: its trim runs no _alive walk,
    while every other node's trim runs one."""
    walks = []
    alive = tiles._alive
    monkeypatch.setattr(tiles, "_alive", lambda n, ls, rs: walks.append(len(ls)) or alive(n, ls, rs))
    trims = []
    trim = tiles.trim_tiles

    def counted(ts):
        before = len(walks)
        out = trim(ts)
        trims.append((type(ts.source), len(walks) - before))
        return out
    monkeypatch.setattr(tiles, "trim_tiles", counted)
    pamap_tiles(kari, fast_path=False)
    family_tiles(psl2z)
    assert {n for kind, n in trims if kind is PlanUnion} == {0}
    assert {n for kind, n in trims if kind is not PlanUnion} == {1}


@given(circle_homeos(max_denominator=4), st.booleans())
@settings(max_examples=20, deadline=None)
def test_compile_interns_only_the_labels_of_its_tiles(f, fast_path):
    before = set(HLabel._interned.values())
    ts = pamap_tiles(f, fast_path=fast_path)
    nodes = {l for l, _ in label_nodes((l, 0) for t in ts.tiles for l in (t.left, t.right))}
    assert set(HLabel._interned.values()) - before <= nodes


# -- label-level steps: the label-graph trim, flat keys, the side memo -----


@st.composite
def label_multigraphs(draw):
    """Tiles as (left, right) pairs over a few labels, ints or tuples of ids
    as a compose or product node's candidates have.  Self-loops, sinks,
    sources and parallel edges (tiles drawn again) come up."""
    ids = st.one_of(st.integers(0, 6), st.tuples(st.integers(0, 2), st.integers(0, 2)))
    side = st.sampled_from(draw(st.lists(ids, min_size=1, max_size=8, unique=True)))
    edges = draw(st.lists(st.tuples(side, side), max_size=30))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=6))
    return edges


def alive(lefts, rights) -> list[int]:
    """tiles._alive on the label graph tiles._label_ids numbers."""
    sides, ls, rs = tiles._label_ids(lefts, rights)
    assert [sides[v] for v in ls] == list(lefts) and [sides[v] for v in rs] == list(rights)
    assert len(set(sides)) == len(sides)
    return tiles._alive(len(sides), ls, rs)


@given(label_multigraphs())
@settings(max_examples=400, deadline=None)
def test_alive_matches_the_tile_graph_reference(edges):
    lefts, rights = [l for l, _ in edges], [r for _, r in edges]
    assert alive(lefts, rights) == reference.alive(lefts, rights)


def test_alive_needs_both_sides_live():
    # s -> a -> (b <-> c, with parallel edges) -> d -> z, and a loop on e:
    # into the cycle from a source, out of it into a sink
    edges = [("s", "a"), ("a", "b"), ("b", "c"), ("c", "b"), ("c", "b"), ("c", "d"), ("d", "z"),
             ("e", "e"), ((0, 1), (0, 1)), ((0, 1), "b")]
    lefts, rights = [l for l, _ in edges], [r for _, r in edges]
    assert alive(lefts, rights) == reference.alive(lefts, rights) == [2, 3, 4, 7, 8, 9]
    assert alive([], []) == []


SMALL_FRACTIONS = st.builds(F, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def affine_pieces(draw):
    """A piece and the bit range m of its space.  Half the domains are the
    preimage of [0, m] clipped to [0, m], the fast path's own case, moved
    by a small step one time in two; slopes are often 0."""
    m = draw(st.integers(1, 3))
    a = draw(st.one_of(st.just(F(0)), SMALL_FRACTIONS))
    b = draw(SMALL_FRACTIONS)
    lo, hi = sorted(draw(st.lists(SMALL_FRACTIONS, min_size=2, max_size=2)))
    if draw(st.booleans()):
        if a == 0:
            lo, hi = F(0), F(m)
        else:
            x1, x2 = sorted(((0 - b) / a, (m - b) / a))
            lo, hi = max(x1, F(0)), min(x2, F(m))
            if lo > hi:
                lo, hi = hi, lo
        step = draw(st.sampled_from([F(0), F(0), F(1, 4), F(-1, 4)]))
        lo, hi = sorted((lo + step * draw(st.integers(0, 1)), hi + step * draw(st.integers(0, 1))))
    return pamaps.AffinePiece(pamaps.Interval(lo, hi), a, b), m


@given(affine_pieces())
@settings(max_examples=1000, deadline=None)
def test_fast_path_test_matches_the_preimage_reference(piece_m):
    piece, m = piece_m
    assert tiles._fast_path_ok(piece, m) == reference.fast_path_ok(piece, m)


def test_fast_path_test_on_fixed_pieces():
    Iv, P = pamaps.Interval, pamaps.AffinePiece
    cases = [
        (P(Iv(0, 2), 0, 1), 2, True),  # slope 0: the whole range, offset inside it
        (P(Iv(0, 2), 0, 3), 2, False),  # offset outside [0, m]
        (P(Iv(0, 1), 0, 1), 2, False),  # slope 0 on part of the range
        (P(Iv(0, 1), 2, 0), 2, True),  # [0, m] pulls back to [0, 1]
        (P(Iv(1, 2), -2, 4), 2, True),  # falling: pulls back to [1, 2]
        (P(Iv(F(1, 2), 2), -2, 4), 2, False),  # a domain wider than the pullback
        (P(Iv(1, 2), 1, -1), 2, True),  # pulls back to [1, 3], clipped to [1, 2]
        (P(Iv(0, 2), 1, 3), 2, False),  # the preimage misses [0, m]
    ]
    for piece, m, want in cases:
        assert tiles._fast_path_ok(piece, m) == reference.fast_path_ok(piece, m) == want, piece


# tag names that share a prefix, and atoms whose floats tie or overflow
PREFIX_NAMES = st.sampled_from(["", "L", "LL", "L\x00", "LR", "R"])
FLAT_ATOMS = st.sampled_from(TIE_ATOMS + [F(10**20), F(10**20 + 1), F(-10**20), F(-10**20 - 1)]).map(atom)


@st.composite
def label_pools(draw):
    """Labels built bottom up from a few atoms: tags and tuples of 0-3
    children, taken from anywhere in the pool or from its newest labels."""
    pool = draw(st.lists(FLAT_ATOMS, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 25))):
        child = st.one_of(st.sampled_from(pool), st.sampled_from(pool[-2:]))
        if draw(st.booleans()):
            pool.append(tag(draw(PREFIX_NAMES), draw(child)))
        else:
            pool.append(tup(*draw(st.lists(child, max_size=3))))
    return pool


def assert_flat_order(pool):
    """Flat keys, built once per id of one label table, order every pair as
    the nested reference keys do, and only a label's own key equals it;
    `HLabel.sort_key` reads the same key off a table of its own."""
    labels = tiles._LabelTable()
    id_of = labels.numbering()
    ids = [id_of(l) for l in pool]
    flat = labels.flat_keys(ids)
    keys = [(l, flat[i], reference.label_key(l)) for l, i in zip(pool, ids)]
    assert all(l.sort_key() == k for l, k, _ in keys)
    for x, kx, rx in keys:
        for y, ky, ry in keys:
            assert (kx < ky) == (rx < ry), (x, y)
            assert (kx == ky) == (x is y), (x, y)


@given(st.one_of(label_pools(), shared_labels()))
@settings(max_examples=300, deadline=None)
def test_flat_keys_order_labels_as_the_nested_reference(pool):
    assert_flat_order(pool)


def test_flat_keys_on_prefixes_lengths_and_exact_atoms():
    a, b = atom(0), atom(1)
    pool = [tup(tup(a), b), tup(tup(a, b)), tup(), tup(tup()), tup(tup(), tup()), tup(a), tup(a, a),
            tag("L", tup(a)), tag("L", tup(a, b)), tag("LL", a), tag("", a), tag("L", tag("L", a)),
            atom(10**20), atom(10**20 + 1), atom(10**400), atom(10**400 + 1), atom(-10**400)]
    assert_flat_order(pool)
    sides = ZTileSet.make(0, {"f": 0}, [ZTile(0, (("f", 0),), l, a) for l in pool])
    assert sides.tiles == reference.make(0, {"f": 0}, [ZTile(0, (("f", 0),), l, a) for l in pool]).tiles


def _long_tuple(last):
    return ["1/3"] * 6 + [last]


# side values for the loader: labels that repeat, a tag with its keys in the
# other order, labels whose text shares a long prefix, and malformed values,
# true, 1 and 1.0 among them, each of which may repeat
VALID_SIDES = ["0", "1/3", ["0", "1/3"], ["1/3", "0"], [], [[]],
               {"tag": "L", "label": "0"}, {"label": "0", "tag": "L"}, {"label": ["0"], "tag": "R"},
               _long_tuple("0"), _long_tuple("1"), [_long_tuple("0")], [_long_tuple("1")]]
LOADER_SIDES = VALID_SIDES + [True, 1, 1.0, None, [True], [1], [1.0], {"tag": "L", "label": True},
                              {"tag": "L", "label": 1}, {"tag": "L"}, {"tag": 1, "label": "0"}, "1/0",
                              [["0", False]]]
# documents of valid labels only, which load, and of any side values
SIDE_ROWS = st.sampled_from([VALID_SIDES, LOADER_SIDES]).flatmap(lambda sides: st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.sampled_from(sides), st.sampled_from(sides)),
    max_size=12))


def per_occurrence_load(doc):
    """("ok", tiles) or ("error", text) of a tile document with each side
    label decoded where it occurs, through the unmemoized reader; a valid
    label must also be the reference's."""
    try:
        found = []
        for i, t in enumerate(doc["tiles"]):
            sides = []
            for field in ("left", "right"):
                try:
                    sides.append(label_from_obj(t[field]))
                except ValueError as exc:
                    raise ValueError(f"tile {i}: {field}: {exc}") from None
                assert sides[-1] is reference.label_from_obj(t[field])
            found.append(ZTile(t["top"], (("f", t["bottom"]["f"]),), *sides))
        return "ok", ZTileSet(1, (("f", 1),), tuple(found)).tiles
    except ValueError as exc:
        return "error", str(exc)


def memo_load(doc):
    try:
        return "ok", tileset_from_obj(doc).tiles
    except ValueError as exc:
        return "error", str(exc)


@given(SIDE_ROWS)
@settings(max_examples=400, deadline=None)
def test_loader_decodes_each_side_as_the_reference(rows):
    doc = json.loads(json.dumps({"in_max": 1, "outs": {"f": 1}, "tiles": [
        {"top": top, "bottom": {"f": bit}, "left": l, "right": r} for top, bit, l, r in rows]}))
    assert memo_load(doc) == per_occurrence_load(doc)


def test_loader_tells_true_one_and_one_point_zero_apart():
    def doc(*sides):
        return {"in_max": 1, "outs": {"f": 1},
                "tiles": [{"top": 0, "bottom": {"f": 0}, "left": s, "right": "0"} for s in sides]}

    for bad, shown in ((True, "true"), (1, "1"), (1.0, "1.0"), ({"tag": "L", "label": True}, "true")):
        for sides, at in (((bad,), 0), ((bad, bad), 0), (("1", bad), 1), ((["0"], [bad]), 1)):
            text = f"tile {at}: left: not a label: "
            with pytest.raises(ValueError) as info:
                tileset_from_obj(doc(*sides))
            assert str(info.value).startswith(text) and shown in str(info.value)
            assert memo_load(doc(*sides)) == per_occurrence_load(doc(*sides))
    # values no JSON load makes: a Fraction, which marshal refuses, and a tuple
    for odd in (F(1, 3), ("0",)):
        assert memo_load(doc(odd))[0] == "error"
        assert memo_load(doc(odd)) == per_occurrence_load(doc(odd))
    ts = tileset_from_obj(doc({"tag": "L", "label": "0"}, {"label": "1", "tag": "L"},
                              _long_tuple("0"), _long_tuple("1")))
    assert [t.left for t in ts.tiles] == [tag("L", atom(0)), tag("L", atom(1)),
                                          label_from_obj(_long_tuple("0")), label_from_obj(_long_tuple("1"))]
