from fractions import Fraction as F

import pytest

from kariforge import pamaps, render
from kariforge.pamaps import Space
from kariforge.render import TooLarge, render_grouptileset, render_tileset
from kariforge.tiles import GroupTileSet, ZTile, ZTileSet, atom, family_tiles, pamap_tiles, tag, tup


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
    svg = render_grouptileset(gts)
    assert svg.count("<rect") == 22
    assert "f-field" in svg


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
    # subtrees included, and each side label reads as label_text
    calls = []
    build = render._node_text
    monkeypatch.setattr(render, "_node_text", lambda l, text: calls.append(l) or build(l, text))
    for ts, draw in ((kari_tiles, render_tileset), (psl2z_family, render_grouptileset)):
        sides = {t.left for t in ts.tiles} | {t.right for t in ts.tiles}
        calls.clear()
        svg = draw(ts)
        assert sorted(calls, key=id) == sorted(label_nodes(sides), key=id)
        assert len(calls) > len(sides)
        texts = render._label_texts(ts.tiles)
        assert all(texts[l] == render._esc(render.label_text(l)) and texts[l] in svg for l in sides)


def test_label_text_escapes_tag_names():
    inner = tag("a<&>b", tup(atom(F(-1, 3)), tag("&lt;", atom(0))))
    tiles = [ZTile(0, (("f", 0),), inner, tup(inner, inner, tup())), ZTile(1, (("f", 1),), tag("x>", inner), inner)]
    ts = ZTileSet.make(1, {"f": 1}, tiles)
    texts = render._label_texts(ts.tiles)
    for t in ts.tiles:
        for l in (t.left, t.right):
            assert texts[l] == render._esc(render.label_text(l))
    assert texts[inner] == "a&lt;&amp;&gt;b:(-1/3,&amp;lt;:0)"
    for svg in (render_tileset(ts), render_grouptileset(GroupTileSet(("f",), 1, ts.out_maxes, ts.tiles))):
        assert "&amp;lt;" in svg and "<&" not in svg
