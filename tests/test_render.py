from fractions import Fraction as F

import pytest

from kariforge import pamaps, render
from kariforge.pamaps import Space
from kariforge.render import TooLarge, render_grouptileset, render_tileset
from kariforge.tiles import ZTile, ZTileSet, atom, family_tiles, pamap_tiles


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


def test_label_text_once_per_distinct_label(monkeypatch, kari_tiles, psl2z_family):
    calls = []
    text = render.label_text
    monkeypatch.setattr(render, "label_text", lambda l: calls.append(l) or text(l))
    for ts, draw in ((kari_tiles, render_tileset), (psl2z_family, render_grouptileset)):
        calls.clear()
        draw(ts)
        distinct = {t.left for t in ts.tiles} | {t.right for t in ts.tiles}
        assert sorted(calls, key=id) == sorted(distinct, key=id)
