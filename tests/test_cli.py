import hashlib
import json
from fractions import Fraction as F

import pytest

from kariforge import pamaps, presets
from kariforge.cli import main
from kariforge.pamaps import Space
from kariforge.presets import kari_map
from kariforge.tiles import tileset_from_obj


@pytest.fixture
def kari_map_file(tmp_path):
    path = tmp_path / "kari-map.json"
    path.write_text(json.dumps(pamaps.pamap_to_obj(kari_map())))
    return str(path)


@pytest.fixture
def identity_map_file(tmp_path):
    path = tmp_path / "id-map.json"
    path.write_text(json.dumps(pamaps.pamap_to_obj(pamaps.identity(Space(F(1), circle=True)))))
    return str(path)


def test_gen_preset_kari(tmp_path, capsys):
    out = tmp_path / "kari.json"
    assert main(["gen", "--preset", "z-kari", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "22 tiles"
    obj = json.loads(out.read_text())
    assert len(obj["tiles"]) == 22


def test_gen_map_identity(identity_map_file, tmp_path, capsys):
    out = tmp_path / "id.json"
    assert main(["gen", "--map", identity_map_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "2 tiles"


def test_gen_preset_psl2z_group(tmp_path, capsys):
    out = tmp_path / "psl.json"
    assert main(["gen", "--preset", "psl2z", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("tiles")
    obj = json.loads(out.read_text())
    assert obj["generators"] == ["d", "e"]


def test_gen_bad_preset(capsys):
    assert main(["gen", "--preset", "nope"]) == 1
    assert "error" in capsys.readouterr().err


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--preset", "z-kari", "--out", str(a)])
    main(["gen", "--preset", "z-kari", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the files written by earlier releases; the writers must keep them
@pytest.mark.parametrize("preset, tiles_sha, svg_sha", [
    ("z-kari", "7efa7d4f3c7b6201b62ff0f7a8289c4ecf1f662dd10cc78ff47d349df3a61583",
     "50cf6d58bb5f1f62d64eb3e3653e5e53f0cfeaf4fb271b224e738758c44bd839"),
    ("psl2z", "55a2d8946c429461ab6d8336acc8c7eb9d0abfcb3e23c1d035c1607fb3468ea9",
     "a51a957e25a7f5a78033c335f9ca0f64bca946793ce1a7300a70cb88e0e0708f"),
], ids=["z-kari", "psl2z"])
def test_gen_and_render_golden_bytes(tmp_path, preset, tiles_sha, svg_sha):
    out, svg = tmp_path / "tiles.json", tmp_path / "tiles.svg"
    assert main(["gen", "--preset", preset, "--out", str(out)]) == 0
    assert _sha256(out) == tiles_sha
    assert main(["render", "--tiles", str(out), "--out", str(svg)]) == 0
    assert _sha256(svg) == svg_sha


def test_gen_map_golden_bytes(tmp_path, capsys):
    src, out = tmp_path / "b-map.json", tmp_path / "b.json"
    src.write_text(json.dumps(pamaps.pamap_to_obj(presets.thompson_t().map_for("b"))))
    assert main(["gen", "--map", str(src), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "450 tiles\n"
    assert _sha256(out) == "6beb64546e1a0bf86edf2fac130146773db4ce0a0ce86231628eb929e56989ae"


def test_gen_fast_path_off_still_verifies(tmp_path, kari_map_file, capsys):
    tiles_file = tmp_path / "general.json"
    assert main(["gen", "--preset", "z-kari", "--fast-path", "off", "--out", str(tiles_file)]) == 0
    count = int(capsys.readouterr().out.split()[0])
    assert count > 22
    code = main(["verify", "--tiles", str(tiles_file), "--map", kari_map_file,
                 "--max-n", "5", "--max-k", "4", "--out", str(tmp_path / "rep.json")])
    assert code == 0


def test_gen_verify_roundtrip_identical(tmp_path, kari_map_file):
    out = tmp_path / "kari.json"
    main(["gen", "--preset", "z-kari", "--out", str(out)])
    from kariforge.tiles import pamap_tiles

    loaded = tileset_from_obj(json.loads(out.read_text()))
    assert loaded == pamap_tiles(kari_map())


def test_verify_kari_clean(tmp_path, kari_map_file, capsys):
    tiles_file = tmp_path / "kari.json"
    main(["gen", "--preset", "z-kari", "--out", str(tiles_file)])
    rep_file = tmp_path / "report.json"
    code = main(["verify", "--tiles", str(tiles_file), "--map", kari_map_file,
                 "--max-n", "6", "--max-k", "4", "--out", str(rep_file)])
    assert code == 0
    report = json.loads(rep_file.read_text())
    assert report["nonempty"] is True
    assert report["periodic"] == []
    assert report["soundness_violations"] == []
    assert report["oracle_periodic_points"] == []


def test_verify_identity_periodic_exit2(tmp_path, identity_map_file):
    tiles_file = tmp_path / "id.json"
    main(["gen", "--map", identity_map_file, "--out", str(tiles_file)])
    rep = tmp_path / "rep.json"
    code = main(["verify", "--tiles", str(tiles_file), "--max-n", "2", "--max-k", "2",
                 "--out", str(rep)])
    assert code == 2
    report = json.loads(rep.read_text())
    assert any(r["n"] == 1 and r["k"] == 1 for r in report["periodic"])


def test_verify_partial_map_reports_rows_outside_domain(tmp_path):
    tiles_file = tmp_path / "kari.json"
    main(["gen", "--preset", "z-kari", "--out", str(tiles_file)])
    kari = kari_map()
    half = pamaps.PAMap.make(kari.space, [p for p in kari.pieces if p.dom.hi <= F(1, 2)])
    map_file = tmp_path / "half.json"
    map_file.write_text(json.dumps(pamaps.pamap_to_obj(half)))
    rep = tmp_path / "rep.json"
    code = main(["verify", "--tiles", str(tiles_file), "--map", str(map_file),
                 "--max-n", "5", "--max-k", "2", "--out", str(rep)])
    assert code == 3  # 5-periodic rows average in (1/2, 1)
    report = json.loads(rep.read_text())
    violations = report["soundness_violations"]
    assert violations and all(v["expected"] is None for v in violations)
    assert report["oracle_periodic_points"] is None  # the exact solver needs a total map


def test_verify_corrupted_exit3(tmp_path, kari_map_file):
    tiles_file = tmp_path / "kari.json"
    main(["gen", "--preset", "z-kari", "--out", str(tiles_file)])
    obj = json.loads(tiles_file.read_text())
    obj["tiles"][0]["bottom"]["f"] = 1 - obj["tiles"][0]["bottom"]["f"]
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(obj))
    code = main(["verify", "--tiles", str(bad_file), "--map", kari_map_file,
                 "--max-n", "6", "--max-k", "2", "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_simulate(kari_map_file, capsys):
    assert main(["simulate", "--map", kari_map_file, "--x", "5/7", "--window", "8"]) == 0
    out = capsys.readouterr().out
    assert "witness row valid" in out
    assert "f(x) = 1/7" in out


def test_simulate_all_zero(identity_map_file, capsys):
    assert main(["simulate", "--map", identity_map_file, "--x", "0", "--window", "4"]) == 0
    out = capsys.readouterr().out
    assert "in:       0   0   0   0   0   0   0   0   0" in out


def test_simulate_out_of_domain(tmp_path, capsys):
    half = pamaps.PAMap.make(Space(F(1), circle=False),
                             [pamaps.AffinePiece(pamaps.Interval(F(0), F(1, 2)), F(1), F(0))])
    path = tmp_path / "half.json"
    path.write_text(json.dumps(pamaps.pamap_to_obj(half)))
    assert main(["simulate", "--map", str(path), "--x", "3/4", "--window", "4"]) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("args", [["--x", "1/3", "--window", "-2"],
                                  ["--x", "1/0"],
                                  ["--x", "abc"]])
def test_simulate_refuses_bad_input(kari_map_file, capsys, args):
    assert main(["simulate", "--map", kari_map_file] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_group_is_identity(capsys):
    assert main(["group", "--preset", "psl2z", "--word", "ddd", "--is-identity"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["group", "--preset", "psl2z", "--word", "e", "--is-identity"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_group_witness(capsys):
    assert main(["group", "--preset", "thompson-v", "--word", "a", "--witness", "--budget", "3"]) == 0
    assert capsys.readouterr().out.startswith("witness t = ")


def test_group_witness_unknown_for_identity(capsys):
    assert main(["group", "--preset", "psl2z", "--word", "ee", "--witness", "--budget", "2"]) == 0
    assert capsys.readouterr().out.strip() == "unknown"


def test_budget_env_override(monkeypatch, tmp_path, capsys):
    problem = {"alphabet": 2, "patterns": [
        {"cells": [{"word": "x1", "letter": 0}, {"word": "x2", "letter": 0}]}]}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(problem))
    monkeypatch.setenv("KARIFORGE_BUDGET", "1")
    assert main(["freegroup", "--problem", str(path)]) == 1
    assert "budget" in capsys.readouterr().err
    monkeypatch.delenv("KARIFORGE_BUDGET")
    assert main(["freegroup", "--problem", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "nonempty"


def test_render_cli(tmp_path):
    tiles_file = tmp_path / "kari.json"
    main(["gen", "--preset", "z-kari", "--out", str(tiles_file)])
    svg = tmp_path / "kari.svg"
    assert main(["render", "--tiles", str(tiles_file), "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    svg2 = tmp_path / "kari2.svg"
    main(["render", "--tiles", str(tiles_file), "--out", str(svg2)])
    assert svg.read_bytes() == svg2.read_bytes()


def test_render_group_cli(tmp_path):
    tiles_file = tmp_path / "psl.json"
    main(["gen", "--preset", "psl2z", "--out", str(tiles_file)])
    svg = tmp_path / "psl.svg"
    assert main(["render", "--tiles", str(tiles_file), "--out", str(svg)]) == 0
    assert "d-field" in svg.read_text()


def test_verify_rejects_group_tiles(tmp_path, capsys):
    tiles_file = tmp_path / "psl.json"
    main(["gen", "--preset", "psl2z", "--out", str(tiles_file)])
    assert main(["verify", "--tiles", str(tiles_file)]) == 1


def _kari_tiles_edited(tmp_path, edit) -> str:
    path = tmp_path / "kari.json"
    main(["gen", "--preset", "z-kari", "--out", str(path)])
    obj = json.loads(path.read_text())
    path.write_text(json.dumps(edit(obj)))
    return str(path)


def _set_tile_field(i, field, value):
    def edit(obj):
        obj["tiles"][i][field] = value
        return obj
    return edit


# malformed tile files: (edit of the z-kari file, words of the error line)
MALFORMED_TILES = {
    "label 5": (_set_tile_field(2, "left", 5), "tile 2: left: not a label: 5"),
    "label null": (_set_tile_field(3, "right", None), "tile 3: right: not a label: null"),
    "label [1, 2]": (_set_tile_field(0, "left", [1, 2]), "tile 0: left: not a label: 1"),
    "tag name 3": (_set_tile_field(1, "right", {"tag": 3, "label": "0"}), "tile 1: right: not a label"),
    "top 0.5": (_set_tile_field(4, "top", 0.5), "tile 4: top: not a JSON integer: 0.5"),
    "top true": (_set_tile_field(5, "top", True), "tile 5: top: not a JSON integer: true"),
    "top '1'": (_set_tile_field(6, "top", "1"), 'tile 6: top: not a JSON integer: "1"'),
    "document [1, 2]": (lambda obj: [1, 2], "a tile set is a JSON object, not [1, 2]"),
    "document 5": (lambda obj: 5, "a tile set is a JSON object, not 5"),
}


@pytest.mark.parametrize("command", ["render", "verify"])
@pytest.mark.parametrize("case", list(MALFORMED_TILES))
def test_malformed_tile_file_is_an_error(tmp_path, kari_map_file, capsys, command, case):
    edit, words = MALFORMED_TILES[case]
    argv = [command, "--tiles", _kari_tiles_edited(tmp_path, edit), "--out", str(tmp_path / "out")]
    if command == "verify":
        argv += ["--map", kari_map_file]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {words}\n" or (err.startswith(f"error: {words}") and err.count("\n") == 1)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_group_witness_refuses_budget_below_one(budget, capsys):
    assert main(["group", "--preset", "psl2z", "--word", "dd", "--witness", "--budget", budget]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: budget must be >= 1, got {budget}\n"


# -- verify's periodic-point oracle: one power chain ----------------------

import pamaps_reference  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_verify import circle_homeos  # noqa: E402


@pytest.fixture(scope="module")
def kari_tiles_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "kari.json"
    main(["gen", "--preset", "z-kari", "--out", str(path)])
    return path


def oracle_report(tiles_file, f, max_k):
    """verify's oracle_periodic_points for map f; the tile set only sets the exit code."""
    map_file = tiles_file.with_name("map.json")
    map_file.write_text(json.dumps(pamaps.pamap_to_obj(f)))
    rep = tiles_file.with_name("rep.json")
    main(["verify", "--tiles", str(tiles_file), "--map", str(map_file),
          "--max-n", "1", "--max-k", str(max_k), "--out", str(rep)])
    return json.loads(rep.read_text())["oracle_periodic_points"]


def per_k_points(f, max_k):
    out = []
    for k in range(1, max_k + 1):
        pts = pamaps_reference.periodic_points(f, k)
        if pts:
            out.append({"k": k, "points": [[str(iv.lo), str(iv.hi)] for iv in pts]})
    return out


def rotation(p, q):
    sp, r = Space(F(1), circle=True), F(p, q)
    return pamaps.PAMap.make(sp, [pamaps.AffinePiece(pamaps.Interval(F(0), 1 - r), F(1), r),
                                  pamaps.AffinePiece(pamaps.Interval(1 - r, F(1)), F(1), r - 1)])


@pytest.mark.parametrize("q", range(2, 8))
def test_verify_oracle_matches_per_k_periodic_points_on_rotations(kari_tiles_file, q):
    for p in range(1, q):
        f = rotation(p, q)
        got = oracle_report(kari_tiles_file, f, 8)
        assert got == per_k_points(f, 8)
        if F(p, q).denominator == q:
            assert [e["k"] for e in got] == [k for k in range(1, 9) if k % q == 0]


@given(circle_homeos(), st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_verify_oracle_matches_per_k_periodic_points_on_homeos(kari_tiles_file, f, max_k):
    assert oracle_report(kari_tiles_file, f, max_k) == per_k_points(f, max_k)


@pytest.mark.parametrize("max_k", [1, 2, 5, 8])
def test_verify_builds_one_power_chain(kari_tiles_file, monkeypatch, max_k):
    calls = []
    compose = pamaps.compose
    monkeypatch.setattr(pamaps, "compose", lambda f, g: calls.append(1) or compose(f, g))
    oracle_report(kari_tiles_file, kari_map(), max_k)
    assert len(calls) == max_k - 1


# -- verify's search bounds ------------------------------------------------


@pytest.mark.parametrize("flag, value", [("--max-n", "0"), ("--max-n", "-1"), ("--max-k", "0"), ("--max-k", "-2")])
def test_verify_refuses_bounds_below_one(tmp_path, identity_map_file, capsys, flag, value):
    # with these bounds the identity's tile set would report clean having searched nothing
    tiles_file = tmp_path / "id.json"
    main(["gen", "--map", identity_map_file, "--out", str(tiles_file)])
    argv = ["verify", "--tiles", str(tiles_file), "--map", identity_map_file,
            "--max-n", "2", "--max-k", "2", "--out", str(tmp_path / "rep.json")]
    argv[argv.index(flag) + 1] = value
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {flag} must be >= 1, got {value}\n"
    assert not (tmp_path / "rep.json").exists()


# -- malformed map and pattern-problem files --------------------------------


def _map_file(tmp_path, edit) -> str:
    obj = pamaps.pamap_to_obj(kari_map())
    path = tmp_path / "bad-map.json"
    path.write_text(json.dumps(edit(obj)))
    return str(path)


def _with(path, value):
    def edit(obj):
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return obj
    return edit


# (edit of the z-kari map file, the error line after "error: ")
MALFORMED_MAPS = {
    "a 1.5": (_with(("pieces", 0, "a"), 1.5), "pieces[0].a: not a rational string or JSON integer: 1.5"),
    "document [1, 2]": (lambda obj: [1, 2], "map: not a JSON object: [1, 2]"),
    "circle 'yes'": (_with(("space", "circle"), "yes"), 'space.circle: not a JSON boolean: "yes"'),
}


@pytest.mark.parametrize("command", ["gen", "simulate", "verify"])
@pytest.mark.parametrize("case", list(MALFORMED_MAPS))
def test_malformed_map_file_is_an_error(tmp_path, capsys, command, case):
    edit, words = MALFORMED_MAPS[case]
    map_file = _map_file(tmp_path, edit)
    if command == "gen":
        argv = ["gen", "--map", map_file, "--out", str(tmp_path / "out")]
    elif command == "simulate":
        argv = ["simulate", "--map", map_file, "--x", "1/3"]
    else:
        tiles_file = tmp_path / "kari.json"
        main(["gen", "--preset", "z-kari", "--out", str(tiles_file)])
        argv = ["verify", "--tiles", str(tiles_file), "--map", map_file, "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {words}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, words", [
    (_with(("patterns",), {}), "patterns: not a JSON list: {}"),
    (_with(("alphabet",), 2.7), "alphabet: not a JSON integer: 2.7"),
    (_with(("patterns", 0, "cells", 0, "letter"), "0"), 'patterns[0]: cells[0].letter: not a JSON integer: "0"'),
    (_with(("patterns", 0, "cells"), [{"word": "x1", "letter": 0}, {"word": "x1", "letter": 1}]),
     "patterns[0]: cells[1].word: a second cell at 'x1'"),
    (_with(("patterns", 0, "cells", 0, "letter"), 7), "patterns[0]: cells[0].letter: 7 is not a letter of the 2-letter alphabet"),
], ids=["patterns {}", "alphabet 2.7", "letter '0'", "cell repeated", "letter 7"])
def test_malformed_problem_file_is_an_error(tmp_path, capsys, edit, words):
    obj = {"alphabet": 2, "patterns": [{"cells": [{"word": "x1", "letter": 0}]}]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(edit(obj)))
    assert main(["freegroup", "--problem", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {words}\n"
    assert captured.out == ""


# -- the README's command lines parse --------------------------------------

import shlex  # noqa: E402
from pathlib import Path  # noqa: E402

from kariforge.cli import build_parser  # noqa: E402


def readme_commands() -> list[list[str]]:
    """Each `kariforge ...` line of the README's "Command line" block, split into words."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("kariforge ")]


def test_readme_command_lines_parse():
    commands = readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        build_parser().parse_args(argv[1:])  # exits with status 2 on an unknown command or flag
