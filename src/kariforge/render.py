"""Deterministic SVG pictures of tile sets.

Each tile is a square quartered by its diagonals: west carries the left
(incoming) side label, east the right (outgoing) one, north the input bit,
south the output bit(s).  Group tile sets split the north field per
generator and add a caption block naming the matching rules.
"""

from __future__ import annotations

from .tiles import GroupTileSet, HLabel, ZTile, ZTileSet

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


def _node_text(l: HLabel, text) -> str:
    """repr(l) escaped for SVG, given text(child) for each of l's children.
    Escaping maps each character on its own, so the escaped texts of the
    children join into the escaped text of the node."""
    if l.kind == "atom":
        return repr(l)  # digits, "-" and "/": nothing to escape
    if l.kind == "tag":
        name, inner = l.value
        return f"{_esc(name)}:{text(inner)}"
    return "(" + ",".join([text(x) for x in l.value]) + ")"


def _label_texts(tiles) -> dict[HLabel, str]:
    """repr of each side label, escaped for SVG and keyed by label;
    the text of each distinct label node is built once, so shared subtrees
    cost one step."""
    texts: dict[HLabel, str] = {}

    def text(l: HLabel) -> str:
        s = texts.get(l)
        if s is None:
            s = texts[l] = _node_text(l, text)
        return s

    for t in tiles:
        if t.left not in texts:
            text(t.left)
        if t.right not in texts:
            text(t.right)
    return texts


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


def render_tileset(ts: ZTileSet | GroupTileSet) -> str:
    """The picture of ts, a ZTileSet or a GroupTileSet; the set's type picks
    each tile's north and south fields and the caption."""
    check_size(len(ts.tiles))
    cols, rows = _grid(len(ts.tiles))
    width = PAD + cols * (CELL + PAD)
    height = PAD + rows * (CELL + PAD)
    if isinstance(ts, GroupTileSet):
        gens = ts.generators

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
    texts = _label_texts(ts.tiles)
    body: list[str] = []
    for i, t in enumerate(ts.tiles):
        x0 = PAD + (i % cols) * (CELL + PAD)
        y0 = PAD + (i // cols) * (CELL + PAD)
        body.extend(_tile_cell(x0, y0, texts[t.left], texts[t.right], *fields(t)))
    return _document(body + caption, width, height)
