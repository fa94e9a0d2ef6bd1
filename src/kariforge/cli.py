"""Command line front end.

Exit codes: 0 clean, 1 usage or input error, 2 a periodic configuration was
found, 3 a soundness violation was found.  Rationals on every surface are
exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import freegroup, pamaps, presets, render, tiles, verify


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _output(path, produce) -> None:
    """produce(write), with write going to the file at path (default
    stdout).  The file is opened only here, so a command that fails before
    its output is ready leaves none."""
    if path is None:
        produce(sys.stdout.write)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            produce(fh.write)


def cmd_gen(args) -> int:
    fast = args.fast_path != "off"
    if args.preset:
        pres = presets.load_preset(args.preset)
        if len(pres.generators) == 1:
            ts = tiles.pamap_tiles(pres.generators[0][1], fast_path=fast)
        else:
            ts = tiles.family_tiles(pres, fast_path=fast)
    else:
        ts = tiles.pamap_tiles(pamaps.pamap_from_obj(_read_json(args.map)), fast_path=fast)
    _output(args.out, lambda write: tiles.write_json(ts, write))
    # the count goes to stderr when stdout carries the document
    print(f"{len(ts.tiles)} tiles", file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_verify(args) -> int:
    for flag, bound in (("--max-n", args.max_n), ("--max-k", args.max_k)):
        if bound < 1:  # a bound below 1 searches nothing and would report clean
            raise ValueError(f"{flag} must be >= 1, got {bound}")
    ts = tiles.tileset_from_obj(_read_json(args.tiles))
    if isinstance(ts, tiles.GroupTileSet):
        print("verify expects a tile set over Z, not a group tile set", file=sys.stderr)
        return 1
    report: dict = {"nonempty": verify.nonempty_rows(ts)}
    sums = verify.RowSums.of(ts, args.max_n)  # one walk search for both checks
    periodic = verify.stacked_periodic_scan(ts, args.max_n, args.max_k, sums)
    report["periodic"] = periodic
    violations = []
    oracle_points = []
    if args.map:
        f = pamaps.pamap_from_obj(_read_json(args.map))
        violations = verify.periodic_soundness(ts, f, args.max_n, sums=sums)
        if not f.is_total():
            oracle_points = None  # the exact solver needs a total map
        else:
            oracle_points = [{"k": k, "points": [[str(iv.lo), str(iv.hi)] for iv in pts]}
                             for k, pts in enumerate(pamaps.power_fixed_points(f, args.max_k), 1) if pts]
    report["soundness_violations"] = violations
    report["oracle_periodic_points"] = oracle_points
    text = _report_json(report)
    _output(args.out, lambda write: write(text))
    if violations:
        return 3
    if periodic:
        return 2
    return 0


def _violation_json(v: dict) -> str:
    """Text of a soundness violation at depth 2 of `json.dumps(report, indent=1)`;
    its cycle, a closed walk, has at least one tile."""
    expected = v["expected"]
    return ('  {\n   "n": ' + str(v["n"])
            + ',\n   "cycle": [\n    ' + ",\n    ".join(map(str, v["cycle"]))
            + '\n   ],\n   "top_avg": ' + encode_basestring_ascii(v["top_avg"])
            + ',\n   "bottom_avg": ' + encode_basestring_ascii(v["bottom_avg"])
            + ',\n   "expected": ' + ("null" if expected is None else encode_basestring_ascii(expected))
            + "\n  }")


def _report_json(report: dict) -> str:
    """`json.dumps(report, indent=1) + "\n"` for a verify report.  The
    soundness violations, which can number thousands, are written field by
    field; the other entries are few and go through json.dumps, indented one
    level deeper (a JSON text has no raw newline inside a string)."""
    entries = []
    for key, value in report.items():
        if key == "soundness_violations" and value:
            text = "[\n" + ",\n".join(map(_violation_json, value)) + "\n ]"
        else:
            text = json.dumps(value, indent=1).replace("\n", "\n ")
        entries.append(encode_basestring_ascii(key) + ": " + text)
    return "{\n " + ",\n ".join(entries) + "\n}\n"


def cmd_simulate(args) -> int:
    f = pamaps.pamap_from_obj(_read_json(args.map))
    x = pamaps.rat(args.x)
    ts = tiles.pamap_tiles(f)
    try:
        row = verify.witness_row(ts, x, args.window)
    except verify.WitnessFailure as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        return 1
    name = ts.single_out()
    ns = range(-args.window, args.window + 1)
    print("n:      " + " ".join(f"{n:>3}" for n in ns))
    print("in:     " + " ".join(f"{t.top:>3}" for t in row))
    print("out:    " + " ".join(f"{t.bottom(name):>3}" for t in row))
    print("left:   " + " ".join(repr(t.left) for t in row))
    print(f"witness row valid; encodes x = {x}, f(x) = {pamaps.apply(f, x)}")
    return 0


def cmd_group(args) -> int:
    pres = presets.load_preset(args.preset)
    word = pamaps.parse_word(pres, args.word)
    if args.is_identity:
        print("true" if pamaps.is_identity_word(pres, word) else "false")
        return 0
    t = pamaps.nontriviality_witness(pres, word, args.budget)
    if t is None:
        print("unknown")
    else:
        print(f"witness t = {t}")
    return 0


def cmd_freegroup(args) -> int:
    problem = freegroup.problem_from_obj(_read_json(args.problem))
    try:
        verdict = freegroup.empty_finite(problem, args.budget)
    except freegroup.BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    print("empty" if verdict else "nonempty")
    return 0


def cmd_render(args) -> int:
    obj = _read_json(args.tiles)
    try:
        # a set has one tile per entry of the document's list, so an
        # oversized file is refused before a tile is decoded
        if isinstance(obj, dict) and isinstance(obj.get("tiles"), list):
            render.check_size(len(obj["tiles"]))
        svg = render.render_tileset(tiles.tileset_from_obj(obj))
    except render.TooLarge as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return 1
    _output(args.out, lambda write: write(svg))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not 2: verify exits 2 on a periodic configuration
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared after it."""
    ap = _Parser(prog="kariforge",
                 description="piecewise affine maps -> Wang tile sets, with verification")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a tile set from a map file or preset")
    src = g.add_mutually_exclusive_group(required=True)
    src.add_argument("--map", help="piecewise map JSON file")
    src.add_argument("--preset", help="preset name: " + ", ".join(sorted(presets.PRESETS)))
    g.add_argument("--out", help="output file (default stdout)")
    g.add_argument("--fast-path", choices=["on", "off"], default="on")

    v = sub.add_parser("verify", help="verify a tile set; exit 2 on periodicity, 3 on violation")
    v.add_argument("--tiles", required=True)
    v.add_argument("--map", help="map JSON for soundness and periodic point checks")
    v.add_argument("--max-n", type=int, default=8)
    v.add_argument("--max-k", type=int, default=6)
    v.add_argument("--out", help="report file (default stdout)")

    s = sub.add_parser("simulate", help="print the witness row encoding a rational")
    s.add_argument("--map", required=True)
    s.add_argument("--x", required=True, help='rational like "5/7"')
    s.add_argument("--window", type=int, default=16)

    gr = sub.add_parser("group", help="word problem / nontriviality on a preset")
    gr.add_argument("--preset", required=True)
    gr.add_argument("--word", required=True, help="like ddd or de'; uppercase or ' inverts")
    mode = gr.add_mutually_exclusive_group(required=True)
    mode.add_argument("--is-identity", action="store_true")
    mode.add_argument("--witness", action="store_true")
    gr.add_argument("--budget", type=int, default=4)

    fg = sub.add_parser("freegroup", help="pattern-family emptiness over a free group")
    fg.add_argument("--problem", required=True, help="pattern problem JSON file")
    fg.add_argument("--budget", type=int, default=freegroup.DEFAULT_BUDGET)

    r = sub.add_parser("render", help="draw a tile set as SVG")
    r.add_argument("--tiles", required=True)
    r.add_argument("--out", help="SVG file (default stdout)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up by name: the shared parser may predate a wrapper that
        # replaced a cmd_* function on this module (bench/tracing.py does)
        return globals()[f"cmd_{args.command}"](args)
    except (pamaps.PAMapError, tiles.TileSetError, verify.VerifyError,
            ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
