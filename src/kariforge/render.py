"""Deterministic SVG pictures of tile sets.

Each tile is a square quartered by its diagonals: west carries the left
(incoming) side label, east the right (outgoing) one, north the input bit,
south the output bit(s).  Sets over Z x G split the north field per
generator and add a caption block naming the matching rules.
"""

from __future__ import annotations

from .tiles import ZTile, ZTileSet, _label_reprs

MAX_TILES = 500
CELL = 84
PAD = 10


class TooLarge(Exception):
    pass


def check_size(n: int) -> None:
    """Refuse a picture of n tiles when n exceeds MAX_TILES."""
    if n > MAX_TILES:
        raise TooLarge(f"{n} tiles exceed the {MAX_TILES} tile limit")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x, y, s, size=9, anchor="middle") -> str:
    """A text element showing s, which is already escaped."""
    return (f'<text x="{x}" y="{y}" font-size="{size}" font-family="monospace" '
            f'text-anchor="{anchor}">{s}</text>')


def _tile_cell(x0: int, y0: int, west: str, east: str, norths: list[str], souths: list[str]) -> list[str]:
    """The elements of one tile; west and east are escaped already."""
    c = CELL
    parts = [
        f'<rect x="{x0}" y="{y0}" width="{c}" height="{c}" fill="white" stroke="black" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + c}" y2="{y0 + c}" stroke="black" stroke-width="0.4"/>',
        f'<line x1="{x0 + c}" y1="{y0}" x2="{x0}" y2="{y0 + c}" stroke="black" stroke-width="0.4"/>',
        _text(x0 + 12, y0 + c // 2 + 3, west, anchor="start"),
        _text(x0 + c - 12, y0 + c // 2 + 3, east, anchor="end"),
    ]
    for i, s in enumerate(norths):
        cx = x0 + (i + 1) * c // (len(norths) + 1)
        parts.append(_text(cx, y0 + 14, _esc(s)))
    for i, s in enumerate(souths):
        cx = x0 + (i + 1) * c // (len(souths) + 1)
        parts.append(_text(cx, y0 + c - 7, _esc(s)))
    return parts


def _grid(n: int) -> tuple[int, int]:
    cols = max(1, int(n ** 0.5 + 0.9999))
    rows = (n + cols - 1) // cols
    return cols, rows


def _document(body: list[str], width: int, height: int) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def render_tileset(ts: ZTileSet) -> str:
    """The picture of ts; the set's generators pick each tile's north and
    south fields and the caption."""
    check_size(len(ts.tiles))
    cols, rows = _grid(len(ts.tiles))
    width = PAD + cols * (CELL + PAD)
    height = PAD + rows * (CELL + PAD)
    gens = ts.generators
    if gens is not None:

        def fields(t: ZTile) -> tuple[list[str], list[str]]:
            return [f"{h}:{t.bottom(h)}" for h in gens], [str(t.top)]
        lines = ["tile x at (n,g):", "right(x) = left of the tile at (n+1,g)"]
        lines += [f"{h}-field of x = input bit of the tile at (n,g{h}')" for h in gens]
        caption = [_text(PAD, height + 14 * (j + 1), _esc(s), size=10, anchor="start")
                   for j, s in enumerate(lines)]
        height += 48 + 14 * len(gens)
    else:
        def fields(t: ZTile) -> tuple[list[str], list[str]]:
            souths = [f"{n}:{v}" for n, v in t.bottoms] if len(t.bottoms) > 1 else [str(t.bottom())]
            return [str(t.top)], souths
        caption = []
    # escaping maps each character on its own, and only tag names hold characters to escape
    text = _label_reprs(_esc)
    body: list[str] = []
    for i, t in enumerate(ts.tiles):
        x0 = PAD + (i % cols) * (CELL + PAD)
        y0 = PAD + (i // cols) * (CELL + PAD)
        body.extend(_tile_cell(x0, y0, text(t.left), text(t.right), *fields(t)))
    return _document(body + caption, width, height)
