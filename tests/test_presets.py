from fractions import Fraction as F

import pytest

from kariforge import pamaps, presets
from kariforge.pamaps import apply, equals, identity, is_circle_homeo
from kariforge.presets import PRESETS, UnknownPreset, load_preset


def test_preset_names():
    assert set(PRESETS) == {"z-kari", "psl2z", "thompson-t", "thompson-v"}
    with pytest.raises(KeyError):
        load_preset("nope")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_each_preset_is_built_once(name):
    pres = load_preset(name)
    assert load_preset(name) is pres
    assert pres == PRESETS[name]()


def test_unknown_preset_is_not_stored():
    for _ in range(2):
        with pytest.raises(UnknownPreset, match="unknown preset 'nope'"):
            load_preset("nope")
    assert set(presets._BUILT) <= set(PRESETS)


def test_z_kari_is_fixed_point_free_homeo(kari):
    assert is_circle_homeo(kari)
    assert pamaps.fixed_points(kari) == ()
    assert apply(kari, F(3, 4)) == F(1, 6)
    assert apply(kari, F(1, 4)) == F(2, 3)


def test_psl2z_generator_values(psl2z):
    d, e = psl2z.map_for("d"), psl2z.map_for("e")
    assert apply(e, F(1, 2)) == F(3, 2)
    assert apply(e, F(3, 2)) == F(1, 2)
    assert apply(d, F(0)) == F(1)
    assert apply(d, F(1)) == F(3, 2)
    assert apply(d, F(3, 2)) == F(0)  # d cycles the three arcs


def test_psl2z_torsion(psl2z):
    d, e = psl2z.map_for("d"), psl2z.map_for("e")
    ident = identity(psl2z.space)
    assert equals(pamaps.compose(d, pamaps.compose(d, d)), ident)
    assert equals(pamaps.compose(e, e), ident)
    assert not equals(d, ident) and not equals(pamaps.compose(d, d), ident)


def test_thompson_t_total_circle_maps(thompson_t):
    for _, m in thompson_t.generators:
        assert is_circle_homeo(m)


def test_thompson_t_c_has_order_three(thompson_t):
    c = thompson_t.map_for("c")
    assert equals(pamaps.compose(c, pamaps.compose(c, c)), identity(thompson_t.space))


def test_thompson_v_domains(thompson_v):
    a = thompson_v.map_for("a")
    assert a.domain() == (
        pamaps.Interval(F(0), F(1, 3)),
        pamaps.Interval(F(2, 3), F(7, 9)),
        pamaps.Interval(F(8, 9), F(1)),
    )
    assert pamaps.invert(a).domain() == (
        pamaps.Interval(F(0), F(1, 9)),
        pamaps.Interval(F(2, 9), F(1, 3)),
        pamaps.Interval(F(2, 3), F(1)),
    )


def test_presentation_json_roundtrip(psl2z):
    obj = pamaps.presentation_to_obj(psl2z)
    back = pamaps.presentation_from_obj(obj)
    assert back.names() == psl2z.names()
    for name in back.names():
        assert equals(back.map_for(name), psl2z.map_for(name))
