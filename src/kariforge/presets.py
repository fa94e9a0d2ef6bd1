"""Built-in map families.

All constants are exact rationals transcribed from the defining case formulas
of the corresponding group actions:

* ``z-kari``    -- the fixed-point-free circle map generating a Z action.
* ``psl2z``     -- the modular group on the circle [0,2], generators d (order
  3) and e (order 2).  d is the composite e∘a of the order-2 element e with
  the parabolic dyadic map a(x) = x/2 | x-1/2 | 2x-2; written out it is the
  rotation-like map below.
* ``thompson-t`` -- the three standard dyadic circle maps generating T.
* ``thompson-v`` -- four partial triadic maps on [0,1] whose common composite
  domain is the middle-thirds Cantor set; they generate V.
"""

from __future__ import annotations

from fractions import Fraction as F

from .pamaps import AffinePiece, Interval, PAGroupPresentation, PAMap, Space


def _pm(space: Space, triples) -> PAMap:
    pieces = [AffinePiece(Interval(F(lo), F(hi)), F(a), F(b)) for (lo, hi, a, b) in triples]
    return PAMap.make(space, pieces)


def kari_map() -> PAMap:
    sp = Space(F(1), circle=True)
    return _pm(sp, [
        (0, F(1, 2), F(4, 3), F(1, 3)),
        (F(1, 2), 1, F(2, 3), F(-1, 3)),
    ])


def z_kari() -> PAGroupPresentation:
    return PAGroupPresentation.make({"f": kari_map()})


def psl2z() -> PAGroupPresentation:
    sp = Space(F(2), circle=True)
    d = _pm(sp, [
        (0, 1, F(1, 2), 1),
        (1, F(3, 2), 1, F(1, 2)),
        (F(3, 2), 2, 2, -3),
    ])
    e = _pm(sp, [
        (0, 1, 1, 1),
        (1, 2, 1, -1),
    ])
    return PAGroupPresentation.make({"d": d, "e": e})


def thompson_t() -> PAGroupPresentation:
    sp = Space(F(1), circle=True)
    a = _pm(sp, [
        (0, F(1, 2), F(1, 2), 0),
        (F(1, 2), F(3, 4), 1, F(-1, 4)),
        (F(3, 4), 1, 2, -1),
    ])
    b = _pm(sp, [
        (0, F(1, 2), 1, 0),
        (F(1, 2), F(3, 4), F(1, 2), F(1, 4)),
        (F(3, 4), F(7, 8), 1, F(-1, 8)),
        (F(7, 8), 1, 2, -1),
    ])
    c = _pm(sp, [
        (0, F(1, 2), F(1, 2), F(3, 4)),
        (F(1, 2), F(3, 4), 2, -1),
        (F(3, 4), 1, 1, F(-1, 4)),
    ])
    return PAGroupPresentation.make({"a": a, "b": b, "c": c})


def thompson_v() -> PAGroupPresentation:
    sp = Space(F(1), circle=False)
    a = _pm(sp, [
        (0, F(1, 3), F(1, 3), 0),
        (F(2, 3), F(7, 9), 1, F(-4, 9)),
        (F(8, 9), 1, 3, -2),
    ])
    b = _pm(sp, [
        (0, F(1, 3), 1, 0),
        (F(2, 3), F(7, 9), F(1, 3), F(4, 9)),
        (F(8, 9), F(25, 27), 1, F(-4, 27)),
        (F(26, 27), 1, 3, -2),
    ])
    c = _pm(sp, [
        (0, F(1, 3), F(1, 3), F(8, 9)),
        (F(2, 3), F(7, 9), 3, -2),
        (F(8, 9), 1, 1, F(-2, 9)),
    ])
    pi0 = _pm(sp, [
        (0, F(1, 3), F(1, 3), F(2, 3)),
        (F(2, 3), F(7, 9), 3, -2),
        (F(8, 9), 1, 1, 0),
    ])
    return PAGroupPresentation.make({"a": a, "b": b, "c": c, "pi0": pi0})


PRESETS = {
    "z-kari": z_kari,
    "psl2z": psl2z,
    "thompson-t": thompson_t,
    "thompson-v": thompson_v,
}


class UnknownPreset(KeyError):
    """A name not in PRESETS.  It prints its message as given, where str()
    of a plain KeyError would quote it."""

    def __str__(self):
        return self.args[0]


def load_preset(name: str) -> PAGroupPresentation:
    build = PRESETS.get(name)
    if build is None:
        raise UnknownPreset(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return build()
