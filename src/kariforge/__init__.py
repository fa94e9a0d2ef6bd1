"""kariforge: exact piecewise affine maps compiled to Wang tile sets."""

from .pamaps import (
    AffinePiece,
    Interval,
    PAGroupPresentation,
    PAMap,
    Space,
    apply,
    common_domain,
    compose,
    equals,
    fixed_points,
    invert,
    is_circle_homeo,
    is_identity_word,
    nontriviality_witness,
    periodic_points,
    union,
    word_apply,
)
from .presets import PRESETS, load_preset
from .tiles import (
    GroupTileSet,
    ZTile,
    ZTileSet,
    affine_tiles,
    carry_set,
    compose_tiles,
    family_tiles,
    pamap_tiles,
    product_tiles,
    union_tiles,
)
from .verify import (
    BitWindow,
    cont_window,
    disc,
    nonempty_rows,
    patch_check,
    periodic_soundness,
    stacked_periodic_scan,
    witness_row,
)

__version__ = "0.1.0"
