"""Command line front end.

Exit codes: 0 clean, 1 usage or input error, 2 a periodic configuration was
found, 3 a soundness violation was found.  Rationals on every surface are
exact "p/q" strings; the KARIFORGE_BUDGET environment variable overrides
search budgets.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import freegroup, pamaps, presets, render, tiles, verify


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, indent=1) + "\n"


def _budget(default: int) -> int:
    env = os.environ.get("KARIFORGE_BUDGET")
    return int(env) if env else default


def _load_tiles(path: str):
    obj = _read_json(path)
    if isinstance(obj, dict) and "generators" in obj:
        return tiles.grouptileset_from_obj(obj)
    return tiles.tileset_from_obj(obj)


def cmd_gen(args) -> int:
    fast = args.fast_path != "off"
    if args.preset:
        pres = presets.load_preset(args.preset)
        if len(pres.generators) == 1:
            ts = tiles.pamap_tiles(pres.generators[0][1], fast_path=fast)
            text = tiles.tileset_to_json(ts)
        else:
            ts = tiles.family_tiles(pres, fast_path=fast)
            text = tiles.grouptileset_to_json(ts)
    else:
        f = pamaps.pamap_from_obj(_read_json(args.map))
        ts = tiles.pamap_tiles(f, fast_path=fast)
        text = tiles.tileset_to_json(ts)
    _write_text(args.out, text)
    print(f"{len(ts.tiles)} tiles")
    return 0


def cmd_verify(args) -> int:
    for flag, bound in (("--max-n", args.max_n), ("--max-k", args.max_k)):
        if bound < 1:  # a bound below 1 searches nothing and would report clean
            raise ValueError(f"{flag} must be >= 1, got {bound}")
    ts = _load_tiles(args.tiles)
    if isinstance(ts, tiles.GroupTileSet):
        print("verify expects a tile set over Z, not a group tile set", file=sys.stderr)
        return 1
    report: dict = {"nonempty": verify.nonempty_rows(ts)}
    periodic = verify.stacked_periodic_scan(ts, args.max_n, args.max_k)
    report["periodic"] = periodic
    violations = []
    oracle_points = []
    if args.map:
        f = pamaps.pamap_from_obj(_read_json(args.map))
        violations = verify.periodic_soundness(ts, f, args.max_n)
        if not f.is_total():
            oracle_points = None  # the exact solver needs a total map
        else:
            # one power chain: f^k = f o f^(k-1), the power periodic_points builds
            power = f
            for k in range(1, args.max_k + 1):
                if k > 1:
                    power = pamaps.compose(f, power)
                pts = pamaps.fixed_points(power)
                if pts:
                    oracle_points.append({"k": k, "points": [[str(iv.lo), str(iv.hi)] for iv in pts]})
    report["soundness_violations"] = violations
    report["oracle_periodic_points"] = oracle_points
    _write_text(args.out, _dump(report))
    if violations:
        return 3
    if periodic:
        return 2
    return 0


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
    print("left:   " + " ".join(render.label_text(t.left) for t in row))
    print(f"witness row valid; encodes x = {x}, f(x) = {pamaps.apply(f, x)}")
    return 0


def cmd_group(args) -> int:
    pres = presets.load_preset(args.preset)
    word = pamaps.parse_word(pres, args.word)
    if args.is_identity:
        print("true" if pamaps.is_identity_word(pres, word) else "false")
        return 0
    budget = _budget(args.budget)
    t = pamaps.nontriviality_witness(pres, word, budget)
    if t is None:
        print("unknown")
    else:
        print(f"witness t = {t}")
    return 0


def cmd_freegroup(args) -> int:
    problem = freegroup.problem_from_obj(_read_json(args.problem))
    budget = _budget(args.budget)
    try:
        verdict = freegroup.empty_finite(problem, budget)
    except freegroup.BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    print("empty" if verdict else "nonempty")
    return 0


def cmd_render(args) -> int:
    ts = _load_tiles(args.tiles)
    try:
        if isinstance(ts, tiles.GroupTileSet):
            svg = render.render_grouptileset(ts)
        else:
            svg = render.render_tileset(ts)
    except render.TooLarge as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return 1
    _write_text(args.out, svg)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared after it."""
    ap = argparse.ArgumentParser(prog="kariforge",
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
