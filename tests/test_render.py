from fractions import Fraction as F

import pytest

from kariforge import pamaps, render, tiles
from kariforge.pamaps import Space
from kariforge.render import TooLarge, render_tileset
from kariforge.tiles import ZTile, ZTileSet, atom, family_tiles, pamap_tiles, tag, tup


def test_identity_svg():
    ts = pamap_tiles(pamaps.identity(Space(F(1), circle=True)))
    svg = render_tileset(ts)
    assert svg.startswith("<svg")
    assert svg.count("<rect") == 2


def test_kari_svg_has_22_cells(kari_tiles):
    svg = render_tileset(kari_tiles)
    assert svg.count("<rect") == 22


def test_render_deterministic(kari_tiles):
    assert render_tileset(kari_tiles) == render_tileset(kari_tiles)


def test_group_tileset_render(kari):
    gts = family_tiles(pamaps.PAGroupPresentation.make({"f": kari}))
    svg = render_tileset(gts)
    assert svg.count("<rect") == 22
    assert "f-field" in svg


def test_one_renderer_for_both_kinds(kari_tiles):
    # the set's generators pick the caption: a set over Z x G with no generators has one
    caption = "tile x at (n,g):"
    empty_group = render_tileset(ZTileSet(0, (), (), generators=()))
    assert caption in empty_group and "<rect" not in empty_group
    assert caption not in render_tileset(ZTileSet.make(0, {}, []))
    assert caption not in render_tileset(kari_tiles)


def test_too_large():
    tiles = [ZTile(0, (("f", 0),), atom(F(i)), atom(F(i))) for i in range(501)]
    ts = ZTileSet.make(0, {"f": 0}, tiles)
    with pytest.raises(TooLarge):
        render_tileset(ts)


def label_nodes(labels) -> set:
    """Every label node reachable from `labels`."""
    seen, todo = set(), list(labels)
    while todo:
        l = todo.pop()
        if l not in seen:
            seen.add(l)
            todo.extend([l.value[1]] if l.kind == "tag" else l.value if l.kind == "tup" else [])
    return seen


def test_label_text_once_per_distinct_label(monkeypatch, kari_tiles, psl2z_family):
    # each distinct label node's text is built once per drawing, shared
    # subtrees included, and each side label reads as its repr
    calls = []
    fold = tiles._fold
    monkeypatch.setattr(tiles, "_fold", lambda node, *specs: fold(lambda l: calls.append(l) or node(l), *specs))
    for ts in (kari_tiles, psl2z_family):
        sides = {t.left for t in ts.tiles} | {t.right for t in ts.tiles}
        calls.clear()
        svg = render_tileset(ts)
        assert sorted(calls, key=id) == sorted(label_nodes(sides), key=id)
        assert len(calls) > len(sides)
        text = tiles._label_reprs(render._esc)
        assert all(text(l) == render._esc(repr(l)) and text(l) in svg for l in sides)


def test_label_text_escapes_tag_names():
    inner = tag("a<&>b", tup(atom(F(-1, 3)), tag("&lt;", atom(0))))
    given = [ZTile(0, (("f", 0),), inner, tup(inner, inner, tup())), ZTile(1, (("f", 1),), tag("x>", inner), inner)]
    ts = ZTileSet.make(1, {"f": 1}, given)
    text = tiles._label_reprs(render._esc)
    for t in ts.tiles:
        for l in (t.left, t.right):
            assert text(l) == render._esc(repr(l))
    assert text(inner) == "a&lt;&amp;&gt;b:(-1/3,&amp;lt;:0)"
    for svg in (render_tileset(ts), render_tileset(ZTileSet(1, ts.out_maxes, ts.tiles, generators=("f",)))):
        assert "&amp;lt;" in svg and "<&" not in svg
