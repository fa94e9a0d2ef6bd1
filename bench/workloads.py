"""The benchmark's workloads: seeded inputs, the op list and the known answers.

``build(name, seed, workdir, wrap_oracle)`` does a workload's set-up (preset
loading, input generation, files and tile sets prepared before the first op)
and returns its op list.  Each op's ``run`` is the timed call; its ``check``
compares the output with an answer from ``reference`` and runs untimed.
Where a CLI command exists the op calls ``kariforge.cli.main`` in-process
with its output captured; otherwise it calls the public library function.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from kariforge import cli, freegroup, pamaps, presets, render, tiles, verify

import gen
import reference as ref

NAMES = ("compile", "verify", "group", "witness")


class Mismatch(Exception):
    """An op's output disagrees with its known answer."""


@dataclass
class CliResult:
    code: object
    stdout: str
    stderr: str
    out: str | None = None  # the file named by --out, if any


@dataclass
class Op:
    name: str
    kind: str
    size: dict
    run: Callable[[], object]
    # raises Mismatch; may return size fields known only from the output
    check: Callable[[object], dict | None]
    digest: Callable[[object], str] = field(default=None, repr=False)
    repeat: int = 1  # runs in a row per pass; short ops get several samples

    def __post_init__(self):
        self.size["repeat"] = self.repeat

    def describe(self) -> dict:
        return {"name": self.name, "kind": self.kind, "size": dict(self.size)}

    def fingerprint(self, output) -> str:
        """Cheap digest of an output; later passes must reproduce pass 1's."""
        if self.digest is not None:
            return self.digest(output)
        h = hashlib.sha256()
        if isinstance(output, CliResult):
            h.update(repr((output.code, output.stdout, output.stderr)).encode())
            if output.out is not None and os.path.exists(output.out):
                h.update(_file_digest(output.out).encode())
        else:
            h.update(repr(output).encode())
        return h.hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(obj))
    return path


def _dump(obj) -> str:
    """The CLI's JSON layout, so a written file can be compared bit for bit."""
    return json.dumps(obj, indent=1) + "\n"


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}/{label}")


def run_cli(argv: list[str], out: str | None = None) -> CliResult:
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, so.getvalue(), se.getvalue(), out)


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def expect_exit(res: CliResult, codes) -> None:
    expect(res.code in codes, f"exit {res.code}, expected {codes}: {res.stderr.strip()[:200]}")


# Runs in a row per pass for ops of a few milliseconds: the host's speed
# changes from one moment to the next, and an op's median needs more samples
# than the few passes of a run give.
SHORT_REPEAT = 5


def build(name: str, seed: int, workdir: str, wrap_oracle=lambda o: o) -> list[Op]:
    return BUILDERS[name](seed, workdir, wrap_oracle)


# ---------------------------------------------------------------------------
# Shared checks


def check_row(row, x: Fraction, specs: dict, N: int, out_max: int) -> None:
    """A witness row must carry the balanced encoding of x on top and of
    f_h(x) on each output h, and be a connected row."""
    expect(len(row) == 2 * N + 1, f"row has {len(row)} tiles")
    expect(tuple(t.top for t in row) == ref.beatty(x, -N, N), f"top bits do not encode {x}")
    for h, spec in specs.items():
        y = ref.eval_map(spec, x)
        expect(ref.encodes([t.bottom(h) for t in row], y, spec.length, -N, out_max),
               f"{h} bits do not encode f({x}) = {y}")
    expect(all(u.right is v.left for u, v in zip(row, row[1:])), "row is not connected")


def check_row_in(ts, row, x: Fraction, specs: dict, N: int) -> None:
    known = frozenset(ts.tiles)
    expect(all(t in known for t in row), f"row for {x} leaves the set")
    check_row(row, x, specs, N, ts.out_maxes[0][1])


def check_rows_in(ts, xs, specs: dict, N: int) -> None:
    for x in xs:
        check_row_in(ts, verify.witness_row(ts, x, N), x, specs, N)


def check_ztile_file(path: str, spec: gen.MapSpec, xs, count: int | None = None) -> int:
    """Round trip, witness rows and n <= 3 soundness of a single-map tile
    file; returns its tile count."""
    text = _read(path)
    ts = tiles.tileset_from_obj(json.loads(text))
    expect(count is None or len(ts.tiles) == count, f"{len(ts.tiles)} tiles, expected {count}")
    expect(_dump(tiles.tileset_to_obj(ts)) == text, "tile JSON does not round-trip")
    f = pamaps.pamap_from_obj(spec.to_obj())
    planned = dataclasses.replace(ts, source=tiles.pamap_plan(f))
    check_rows_in(planned, xs, {ts.single_out(): spec}, 32)
    expect(verify.periodic_soundness(ts, f, 3) == [], "periodic rows of length <= 3 violate the map")
    return len(ts.tiles)


def check_group_file(path: str, pres, specs: dict, xs) -> int:
    """Round trip and witness rows of a group tile file."""
    text = _read(path)
    gts = tiles.grouptileset_from_obj(json.loads(text))
    expect(_dump(tiles.grouptileset_to_obj(gts)) == text, "group tile JSON does not round-trip")
    return check_group_set(gts, pres, specs, xs)


def check_group_set(gts, pres, specs: dict, xs) -> int:
    """Witness rows of a group tile set, and its JSON form read back as the
    same set (the text is a function of that form)."""
    back = tiles.grouptileset_from_obj(tiles.grouptileset_to_obj(gts))
    expect((back.generators, back.in_max, back.out_maxes, back.tiles)
           == (gts.generators, gts.in_max, gts.out_maxes, gts.tiles),
           "group tile JSON form does not read back as the same set")
    plan = tiles.PlanProd(tuple((h, tiles.pamap_plan(m)) for h, m in pres.generators))
    check_rows_in(dataclasses.replace(gts, source=plan), xs, specs, 32)
    return len(gts.tiles)


def check_tile_count_line(res: CliResult, n: int) -> None:
    expect(res.stdout == f"{n} tiles\n", f"printed {res.stdout.strip()!r} for {n} tiles")


# ---------------------------------------------------------------------------
# compile: the tile compiler and JSON writing

# Strata of gen.work_estimate with two random maps each, so that sizes span
# two decades.  The maps come from a fixed corpus and the seed picks their
# variants (gen.variant), which keeps the work of every seed the same.  Maps
# with an estimate up to RENDER_ESTIMATE are also rendered.
COMPILE_STRATA = tuple((lo, hi, 2) for lo, hi in zip(
    (0, 25, 35, 50, 70, 100, 140, 200, 280), (25, 35, 50, 70, 100, 140, 200, 280, 400)))
RENDER_ESTIMATE = 100


def compile_workload(seed: int, wd: str, wrap_oracle) -> list[Op]:
    maps = gen.seeded_homeos("compile", COMPILE_STRATA, _rng(seed, "maps"))
    prng = _rng(seed, "points")
    points = lambda length: [gen.rational(prng, Fraction(0), length, 997) for _ in range(3)]
    psl = presets.load_preset("psl2z")
    tt = presets.load_preset("thompson-t")
    ops: list[Op] = []
    rendered: list[tuple[str, str]] = []

    def gen_preset(preset: str, xs):
        out = os.path.join(wd, f"{preset}.json")

        def check(res: CliResult):
            expect_exit(res, (0,))
            if preset == "z-kari":
                n = check_ztile_file(out, ref.KARI, xs, count=22)
            else:
                n = check_group_file(out, psl, ref.PSL2Z, xs)
            check_tile_count_line(res, n)
            return {"tiles": n}

        ops.append(Op(f"gen:{preset}", "gen", {"preset": preset},
                      lambda: run_cli(["gen", "--preset", preset, "--out", out], out), check,
                      repeat=SHORT_REPEAT))
        rendered.append((preset, out))

    def gen_map(label: str, spec: gen.MapSpec, size: dict, xs, repeat: int):
        src = _write_json(os.path.join(wd, f"{label}-map.json"), spec.to_obj())
        out = os.path.join(wd, f"{label}.json")

        def check(res: CliResult):
            expect_exit(res, (0,))
            n = check_ztile_file(out, spec, xs)
            check_tile_count_line(res, n)
            return {"tiles": n}

        ops.append(Op(f"gen:{label}", "gen", dict(size, pieces=len(spec.pieces)),
                      lambda: run_cli(["gen", "--map", src, "--out", out], out), check, repeat=repeat))
        return out

    def family(gens: str, xs):
        # No CLI command builds a subset of a preset, so the op is the library
        # call; the check reads its JSON form back.
        pres = pamaps.PAGroupPresentation.make({h: tt.map_for(h) for h in gens})

        def check(gts):
            return {"tiles": check_group_set(gts, pres, {h: ref.THOMPSON_T[h] for h in gens}, xs)}

        ops.append(Op(f"family:thompson-t-{gens}", "family", {"generators": gens},
                      lambda: tiles.family_tiles(pres), check,
                      digest=lambda gts: hashlib.sha256(repr(gts.tiles).encode()).hexdigest()))

    gen_preset("z-kari", points(Fraction(1)))
    gen_preset("psl2z", points(Fraction(2)))
    family("ac", points(Fraction(1)))
    family("bc", points(Fraction(1)))
    # each generator of the presets on its own: fixed sizes between the
    # seeded maps
    for h, spec in list(ref.PSL2Z.items()) + list(ref.THOMPSON_T.items()):
        family_name = "psl2z" if spec.length == 2 else "thompson-t"
        label = f"{family_name}-{h}"
        xs = points(spec.length)
        rendered.append((label, gen_map(label, spec, {"preset": family_name, "generator": h}, xs,
                                        SHORT_REPEAT)))
    for i, (spec, est) in enumerate(maps):
        out = gen_map(f"rand-{i:02d}", spec, dict(spec.describe(), estimate=est), points(Fraction(1)),
                      SHORT_REPEAT if est <= RENDER_ESTIMATE else 1)
        if est <= RENDER_ESTIMATE:
            rendered.append((f"rand-{i:02d}", out))
    for label, path in rendered:
        svg = os.path.join(wd, f"{label}.svg")

        def check(res: CliResult, path=path, svg=svg):
            n = len(json.loads(_read(path))["tiles"])
            if n > render.MAX_TILES:
                expect_exit(res, (1,))
                expect("too large" in res.stderr, "oversized set refused without a reason")
                return
            expect_exit(res, (0,))
            expect(_read(svg).count("<rect ") == n, "SVG does not draw one square per tile")

        ops.append(Op(f"render:{label}", "render", {"set": label},
                      lambda path=path, svg=svg: run_cli(["render", "--tiles", path, "--out", svg], svg),
                      check, repeat=SHORT_REPEAT))
    return ops


# ---------------------------------------------------------------------------
# verify: closed-walk search, soundness and the stacked periodic scan


def verify_workload(seed: int, wd: str, wrap_oracle) -> list[Op]:
    rng = _rng(seed, "verify")
    kari_path = _write_json(os.path.join(wd, "z-kari.json"),
                            tiles.tileset_to_obj(tiles.pamap_tiles(presets.kari_map())))
    kari_map = _write_json(os.path.join(wd, "z-kari-map.json"), ref.KARI.to_obj())
    id_map = _write_json(os.path.join(wd, "identity-map.json"), gen.identity_map().to_obj())
    ops: list[Op] = []

    def compiled(label: str, spec: gen.MapSpec) -> tuple[str, str, int]:
        ts = tiles.pamap_tiles(pamaps.pamap_from_obj(spec.to_obj()))
        path = _write_json(os.path.join(wd, f"{label}.json"), tiles.tileset_to_obj(ts))
        return path, _write_json(os.path.join(wd, f"{label}-map.json"), spec.to_obj()), len(ts.tiles)

    def add(label, tiles_path, map_path, n, k, size, check_report):
        out = os.path.join(wd, f"report-{label}.json")
        argv = ["verify", "--tiles", tiles_path, "--map", map_path,
                "--max-n", str(n), "--max-k", str(k), "--out", out]
        ops.append(Op(f"verify:{label}", "verify", dict(size, max_n=n, max_k=k),
                      lambda: run_cli(argv, out),
                      lambda res: check_report(res, json.loads(_read(out))),
                      repeat=SHORT_REPEAT if n <= 6 else 1))

    def clean(res, report):
        expect_exit(res, (0,))
        expect(report["nonempty"] is True, "z-kari rows reported empty")
        expect(report["periodic"] == [], "z-kari has a periodic configuration")
        expect(report["soundness_violations"] == [], "z-kari violates its own map")
        expect(report["oracle_periodic_points"] == [], "z-kari map has periodic points")

    for n, k in ((6, 4), (8, 6), (10, 6), (12, 8)):
        add(f"z-kari-{n}-{k}", kari_path, kari_map, n, k, {"set": "z-kari", "tiles": 22}, clean)

    walks = {}

    def every_row_violates(res, report):
        expect_exit(res, (3,))
        if "n" not in walks:
            walks["n"] = ref.closed_walks_total(json.loads(_read(kari_path)), 10)
        viol = report["soundness_violations"]
        expect(len(viol) == walks["n"], f"{len(viol)} violations, {walks['n']} periodic rows")
        expect(all(v["top_avg"] != v["bottom_avg"] for v in viol), "a violation maps x to x")
        expect(report["oracle_periodic_points"] == [{"k": k, "points": [["0", "1"]]} for k in (1, 2)],
               "identity map: every point is periodic")

    add("identity-10-2", kari_path, id_map, 10, 2, {"set": "z-kari", "tiles": 22}, every_row_violates)

    # Bounds per denominator q: one with a periodic configuration and two
    # that stop one short of q in either direction.  The seed picks p = 1 or
    # q - 1, mirror images of each other that cost the same to check.
    for q in range(2, 8):
        p = rng.choice((1, q - 1))
        tpath, mpath, count = compiled(f"rot-{p}-{q}", gen.rotation(p, q))
        for n, k in ((q, q), (q - 1, 8), (8, q - 1)):

            def rotation(res, report, q=q, n=n, k=k):
                expected = ref.rotation_exit(q, n, k)
                expect_exit(res, (expected,))
                expect(report["soundness_violations"] == [], "rotation violates its own map")
                if expected == 2:
                    first = report["periodic"][0]
                    expect((first["n"], first["k"], first["shear"]) == (q, q, 0),
                           f"first lattice {first['n'], first['k'], first['shear']}, expected {(q, q, 0)}")
                ks = [e["k"] for e in report["oracle_periodic_points"]]
                expect(ks == [j for j in range(1, k + 1) if j % q == 0], f"periodic point orders {ks}")

            add(f"rot-{p}-{q}-{n}-{k}", tpath, mpath, n, k, {"p": p, "q": q, "tiles": count}, rotation)

    def sound(res, report):
        expect_exit(res, (0, 2))
        expect(report["nonempty"] is True, "a circle homeomorphism has no rows")
        expect(report["soundness_violations"] == [], "random map violates its own map")

    # Many small maps of about the same size: the median op falls among them.
    for i, (spec, est) in enumerate(gen.seeded_homeos("verify", ((0, 30, 10), (30, 60, 10)), rng)):
        tpath, mpath, count = compiled(f"rand-{i}", spec)
        add(f"rand-{i}", tpath, mpath, 4, 3, dict(spec.describe(), estimate=est, tiles=count), sound)
    return ops


# ---------------------------------------------------------------------------
# group: word problems and the free-group pattern families


def group_workload(seed: int, wd: str, wrap_oracle) -> list[Op]:
    rng = _rng(seed, "group")
    psl = presets.load_preset("psl2z")
    tv = presets.load_preset("thompson-v")
    ops: list[Op] = []
    answers: dict = {}

    def answer(key, fn):
        if key not in answers:
            answers[key] = fn()
        return answers[key]

    # Word lengths and problem shapes are fixed; the seed picks the letters
    # and the words, so every seed asks for about the same work.
    for i in range(48):
        word = gen.psl2z_word(rng, 1 + i % 12)
        want = "true\n" if ref.psl2z_nf(ref.letters_of_text(word)) == () else "false\n"

        def check(res, want=want):
            expect_exit(res, (0,))
            expect(res.stdout == want, f"printed {res.stdout.strip()!r}, expected {want.strip()}")

        ops.append(Op(f"is-identity:{i:02d}", "is-identity", {"length": len(word), "word": word},
                      lambda word=word: run_cli(["group", "--preset", "psl2z", "--word", word,
                                                 "--is-identity"]),
                      check, repeat=SHORT_REPEAT))

    def patterns_match(label, words, key, expected_fn):
        def check(pats):
            want = answer(label, lambda: expected_fn(words, key))
            expect(sorted(p.cells for p in pats) == want, f"{label}: patterns differ from the reference")
        return check

    ball4 = gen.ball_words(2, 4)
    ops.append(Op("perg:psl2z-4", "perg", {"radius": 4, "words": len(ball4)},
                  lambda: freegroup.perg_forbidden(wrap_oracle(freegroup.pa_oracle(psl)), 2, 4),
                  patterns_match("perg-psl2z", ball4, ref.psl2z_key, ref.perg_patterns)))
    ops.append(Op("xleq1:psl2z-4", "xleq1", {"radius": 4, "words": len(ball4)},
                  lambda: freegroup.xleq1_forbidden(wrap_oracle(freegroup.pa_oracle(psl)), 2, 4),
                  patterns_match("xleq1-psl2z", ball4, ref.psl2z_key, ref.xleq1_patterns)))

    def bichromatic(coloring):
        errors = ref.bichromatic_errors(coloring, ball4, ref.psl2z_key, (1,), 3)
        expect(not errors, "; ".join(errors[:3]))

    ops.append(Op("sft:psl2z-4", "sft", {"radius": 4, "words": len(ball4)},
                  lambda: freegroup.simple_sft_check(wrap_oracle(freegroup.pa_oracle(psl)), 2, 4, (1,)),
                  bichromatic))
    ball5 = gen.ball_words(2, 5)
    ops.append(Op("perg:abelian-5", "perg", {"radius": 5, "words": len(ball5)},
                  lambda: freegroup.perg_forbidden(wrap_oracle(freegroup.abelian_oracle), 2, 5),
                  patterns_match("perg-abelian", ball5, lambda w: ref.exponent_vector(w, 2),
                                 ref.perg_patterns)))

    def ball_size(maps):
        expect(len(maps) == ref.psl2z_ball_size(8), f"{len(maps)} maps, expected the radius-8 ball")

    ops.append(Op("enumerate:psl2z-8", "enumerate", {"radius": 8},
                  lambda: pamaps.enumerate_maps(psl, 8), ball_size))

    def cantor(ivs):
        inside = all(any(lo <= iv.lo and iv.hi <= hi for lo, hi in ref.THOMPSON_V_DEPTH3) for iv in ivs)
        expect(inside, "common domain leaves the four Cantor intervals")
        kept = all(any(iv.lo <= x <= iv.hi for iv in ivs) for x in ref.THOMPSON_V_KEPT)
        expect(kept, "common domain lost one of 0, 2/3, 8/9, 1")

    ops.append(Op("common-domain:thompson-v-3", "common-domain", {"radius": 3},
                  lambda: pamaps.common_domain(tv, 3), cantor))

    for i in range(24):
        obj = gen.pattern_problem(rng, alphabet=2 + i % 2, patterns=1 + i % 4)
        path = _write_json(os.path.join(wd, f"problem-{i:02d}.json"), obj)
        pats = [[(gen.parse_word_str(c["word"]), c["letter"]) for c in p["cells"]] for p in obj["patterns"]]
        support = {w for p in pats for w, _ in p}

        def check(res, pats=pats, alphabet=obj["alphabet"]):
            expect_exit(res, (0,))
            want = "empty\n" if ref.brute_force_empty(alphabet, pats) else "nonempty\n"
            expect(res.stdout == want, f"printed {res.stdout.strip()!r}, expected {want.strip()}")

        ops.append(Op(f"freegroup:{i:02d}", "freegroup",
                      {"alphabet": obj["alphabet"], "patterns": len(pats), "support": len(support)},
                      lambda path=path: run_cli(["freegroup", "--problem", path]), check,
                      repeat=SHORT_REPEAT))
    return ops


# ---------------------------------------------------------------------------
# witness: witness rows, simulate and orbit patches on prepared tile sets


def witness_workload(seed: int, wd: str, wrap_oracle) -> list[Op]:
    rng = _rng(seed, "witness")
    kari_ts = tiles.pamap_tiles(presets.kari_map())
    psl = presets.load_preset("psl2z")
    psl_gts = tiles.family_tiles(psl)
    kari_map = _write_json(os.path.join(wd, "z-kari-map.json"), ref.KARI.to_obj())
    N = 256
    ops: list[Op] = []

    def rows(label, ts, specs, length, count, repeat=1):
        # one point in each of count equal slices of the interval: the work
        # of a row depends on the piece its point falls in
        for j in range(count):
            x = gen.rational(rng, length * j / count, length * (j + 1) / count, 997)
            ops.append(Op(f"row:{label}-{j}", "row", {"set": label, "tiles": len(ts.tiles), "N": N,
                                                       "x": str(x)},
                          lambda ts=ts, x=x: verify.witness_row(ts, x, N),
                          lambda row, ts=ts, x=x: check_row_in(ts, row, x, specs, N), repeat=repeat))

    # Many cheap z-kari rows and fewer dearer rows on deeper plans, so that
    # the median op is a z-kari row and the tail a psl2z row with its point
    # in [0, 3/2), where rows cost the most.
    rows("z-kari", kari_ts, {"f": ref.KARI}, Fraction(1), 30, SHORT_REPEAT)
    for i, (spec, est) in enumerate(gen.seeded_homeos("witness", ((50, 100, 1), (100, 200, 1)), rng)):
        ts = tiles.pamap_tiles(pamaps.pamap_from_obj(spec.to_obj()))
        rows(f"rand-{i}", ts, {"f": spec}, Fraction(1), 4)
    rows("psl2z", psl_gts, ref.PSL2Z, Fraction(2), 12)

    for j in range(4):
        x = gen.rational(rng, Fraction(0), Fraction(1), 97)

        def check(res, x=x):
            expect_exit(res, (0,))
            lines = res.stdout.splitlines()
            bits = tuple(int(b) for b in lines[1].split()[1:])
            expect(bits == ref.beatty(x, -16, 16), "simulate prints the wrong input bits")
            expect(lines[-1] == f"witness row valid; encodes x = {x}, f(x) = {ref.eval_map(ref.KARI, x)}",
                   f"simulate printed {lines[-1]!r}")

        ops.append(Op(f"simulate:z-kari-{j}", "simulate", {"window": 16, "x": str(x)},
                      lambda x=x: run_cli(["simulate", "--map", kari_map, "--x", str(x), "--window", "16"]),
                      check, repeat=SHORT_REPEAT))

    bases = [gen.rational(rng, Fraction(0), Fraction(2), 50) for _ in range(3)] + [None]
    for j, z0 in enumerate(bases):
        def run(z0=z0):
            patch = verify.build_orbit_patch(psl, psl_gts, 2, 16, z0)
            return patch, verify.patch_check(psl_gts, patch, wrap_oracle(freegroup.pa_oracle(psl)))

        def check(out):
            patch, ok = out
            expect(ok is True, "orbit patch fails its own check")
            expect(len(patch) == ref.psl2z_ball_size(2), f"patch has {len(patch)} elements")

        ops.append(Op(f"patch:psl2z-{j}", "patch", {"radius": 2, "N": 16, "z0": str(z0)}, run, check))
    return ops


PARAMETERS = {
    "denominators": gen.DENOMINATORS,
    "random_maps": "drawn into strata from the corpus seeds 'compile', 'verify' and 'witness'; "
                   "the run's seed picks one of " + ", ".join(gen.VARIANTS) + " for each",
    "compile_strata": COMPILE_STRATA,
    "render_estimate": RENDER_ESTIMATE,
    "rationals": "q uniform in 1..max_den, then k/q with k uniform in 0..q, scaled to the interval",
    "psl2z_words": "48 words, lengths 1..12 four times each, letters uniform in d D e E",
    "pattern_problems": "24 problems, alphabet 2 + i % 2, 1 + i % 4 patterns of 2 cells from the radius-2 ball",
}

BUILDERS = {
    "compile": compile_workload,
    "verify": verify_workload,
    "group": group_workload,
    "witness": witness_workload,
}
