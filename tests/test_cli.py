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


def test_gen_failed_compile_writes_no_file(tmp_path, capsys):
    # thompson-v's maps are partial, so its compile fails before --out is opened
    out = tmp_path / "v.json"
    assert main(["gen", "--preset", "thompson-v", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: generator a: map is not total on its interval\n"
    assert not out.exists()


def test_gen_refuses_a_map_that_is_not_a_circle_homeomorphism(tmp_path, capsys):
    doubling = {"space": {"length": "1", "circle": True},
                "pieces": [{"dom": ["0", "1/2"], "a": "2", "b": "0"},
                           {"dom": ["1/2", "1"], "a": "2", "b": "-1"}]}
    map_file = tmp_path / "doubling.json"
    map_file.write_text(json.dumps(doubling))
    out = tmp_path / "tiles.json"
    assert main(["gen", "--map", str(map_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: map is not a circle homeomorphism\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["gen", "--preset", "nope"],
                                  ["group", "--preset", "nope", "--word", "d", "--is-identity"]])
def test_unknown_preset_message_is_bare(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == ("error: unknown preset 'nope'; choose from "
                                       "['psl2z', 'thompson-t', 'thompson-v', 'z-kari']\n")


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
    # its compose and union labels nest deeper than psl2z's
    svg = tmp_path / "b.svg"
    assert main(["render", "--tiles", str(out), "--out", str(svg)]) == 0
    assert _sha256(svg) == "81401ca77170bcd75d778f0e72f5718ab236babda263449b5be189b35424cec7"


def test_gen_to_stdout_writes_only_the_document(tmp_path, capsys):
    # without --out the tile count goes to stderr, so stdout is a tile file verify reads
    assert main(["gen", "--preset", "z-kari"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "22 tiles\n"
    tiles_file = tmp_path / "piped.json"
    tiles_file.write_text(captured.out)
    rep = tmp_path / "rep.json"
    assert main(["verify", "--tiles", str(tiles_file), "--max-n", "4", "--max-k", "2", "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["nonempty"] is True


def test_python_m_kariforge_runs_the_cli():
    import os
    import subprocess
    import sys

    import kariforge

    src = os.path.dirname(os.path.dirname(os.path.abspath(kariforge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "kariforge", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "verify" in done.stdout
    done = subprocess.run([sys.executable, "-m", "kariforge", "verify", "--max-n", "3"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "the following arguments are required: --tiles" in done.stderr


@pytest.mark.parametrize("module", ["kariforge", "kariforge.cli"])
def test_main_guards_run_the_cli_in_process(module, monkeypatch, capsys):
    """`python -m kariforge` and `python -m kariforge.cli`, run in this
    process, so a line tracer sees their `__main__` code."""
    import runpy
    import sys
    import warnings

    monkeypatch.setattr(sys, "argv", [module, "group", "--preset", "psl2z", "--word", "ddd", "--is-identity"])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exit_:
        # runpy warns that kariforge.cli is already imported, as the test
        # module imported it; `python -m` starts from a fresh process
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module(module, run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out == "true\n"


@pytest.mark.parametrize("argv", [["verify", "--max-n", "3"],  # no --tiles
                                  [],
                                  ["nope"],
                                  ["verify", "--tiles", "t.json", "--max-n", "abc"],
                                  ["group", "--preset", "psl2z", "--word", "d", "--is-identity", "--witness"]])
def test_usage_errors_exit_1(argv, capsys):
    # 2 is verify's code for a periodic configuration, so usage errors use 1
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--max-n" in capsys.readouterr().out


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


def _circle_identity():
    return pamaps.identity(Space(F(1), circle=True))


def _half_kari():
    kari = kari_map()
    return pamaps.PAMap.make(kari.space, [p for p in kari.pieces if p.dom.hi <= F(1, 2)])


# (map, map the tiles are compiled from, --max-n, --max-k, exit code, sha256 of
# the report written before soundness and the scan shared one walk search);
# `rotation` is defined with the oracle tests below
REPORTS = {
    "z-kari": (kari_map, kari_map, 8, 6, 0, "7ab83bd559a1292aa15427cac26a5d8c4181f000959491086bd6a5c4b1e7a711"),
    "rot-1-7": (lambda: rotation(1, 7), lambda: rotation(1, 7), 7, 7, 2,
                "2294841e811b02923fe1d83979725de484e41e1c18e086ded6f9e3b0abbeb874"),
    "identity": (_circle_identity, _circle_identity, 4, 3, 2,
                 "75eafebba121903fb1afde7b6b54d02516849ad41c00b791dda700f1df7e2832"),
    "half-kari": (_half_kari, kari_map, 5, 2, 3, "d0ef878486d29b532a9c3d32db97f7090529d2ab4be5a5425e6c9b264220ba21"),
}


@pytest.mark.parametrize("case", list(REPORTS))
def test_verify_report_bytes_with_one_walk_search(tmp_path, monkeypatch, case):
    from kariforge import verify

    f, compiled, max_n, max_k, code, sha = REPORTS[case]
    map_file, src_file = tmp_path / "map.json", tmp_path / "src.json"
    map_file.write_text(json.dumps(pamaps.pamap_to_obj(f())))
    src_file.write_text(json.dumps(pamaps.pamap_to_obj(compiled())))
    tiles_file, rep = tmp_path / "tiles.json", tmp_path / "rep.json"
    assert main(["gen", "--map", str(src_file), "--out", str(tiles_file)]) == 0
    searches = []
    real = verify._closed_walk_sums
    monkeypatch.setattr(verify, "_closed_walk_sums", lambda *args: searches.append(1) or real(*args))
    assert main(["verify", "--tiles", str(tiles_file), "--map", str(map_file), "--max-n", str(max_n),
                 "--max-k", str(max_k), "--out", str(rep)]) == code
    assert _sha256(rep) == sha
    assert len(searches) == 1


def test_verify_asks_nonempty_rows_and_numbers_the_labels_once(tmp_path, kari_map_file, monkeypatch):
    from kariforge import tiles, verify

    tiles_file = tmp_path / "kari.json"
    assert main(["gen", "--preset", "z-kari", "--out", str(tiles_file)]) == 0
    calls = []
    for module, name in ((verify, "nonempty_rows"), (tiles, "_tile_label_ids")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    assert main(["verify", "--tiles", str(tiles_file), "--map", kari_map_file, "--max-n", "4",
                 "--max-k", "2", "--out", str(tmp_path / "rep.json")]) == 0
    assert sorted(calls) == ["_tile_label_ids", "nonempty_rows"]


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


def test_simulate_without_a_witness(kari_map_file, capsys):
    # 2 lies outside z-kari's input bits 0..1, so no row encodes it
    assert main(["simulate", "--map", kari_map_file, "--x", "2", "--window", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no witness: input 2 not encodable in bits 0..1\n"


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


# (preset, word, budget, answer): words that move 0, words whose first
# witness is not 0, and words that fix every point they reach
WITNESS_ANSWERS = [
    ("z-kari", "f", 4, "witness t = 0"), ("z-kari", "fF", 4, "unknown"),
    ("psl2z", "de", 4, "witness t = 0"), ("psl2z", "ee", 4, "unknown"), ("psl2z", "ddd", 4, "unknown"),
    ("thompson-t", "aB", 4, "witness t = 0"), ("thompson-t", "Aba", 4, "witness t = 1/3"),
    ("thompson-t", "ccc", 4, "unknown"),
    ("thompson-v", "a", 4, "witness t = 0"), ("thompson-v", "Aba", 4, "witness t = 1/27"),
    ("thompson-v", "pi0pi0", 2, "unknown"),
]


@pytest.mark.parametrize("preset, word, budget, answer", WITNESS_ANSWERS)
def test_group_witness_answers_on_every_preset(capsys, preset, word, budget, answer):
    assert main(["group", "--preset", preset, "--word", word, "--witness", "--budget", str(budget)]) == 0
    assert capsys.readouterr().out == answer + "\n"


def test_group_witness_unknown_for_identity(capsys):
    assert main(["group", "--preset", "psl2z", "--word", "ee", "--witness", "--budget", "2"]) == 0
    assert capsys.readouterr().out.strip() == "unknown"


def test_budget_comes_from_the_flag_only(monkeypatch, tmp_path, capsys):
    problem = {"alphabet": 2, "patterns": [
        {"cells": [{"word": "x1", "letter": 0}, {"word": "x2", "letter": 0}]}]}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(problem))
    assert main(["freegroup", "--problem", str(path), "--budget", "1"]) == 1
    assert "budget" in capsys.readouterr().err
    # the environment no longer overrides the default budget
    monkeypatch.setenv("KARIFORGE_BUDGET", "1")
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
    # a set over Z x G with no generators is still one
    no_generators = tmp_path / "none.json"
    no_generators.write_text(json.dumps({"generators": [], "in_max": 1, "outs": {}, "tiles": []}))
    for path in (tiles_file, no_generators):
        capsys.readouterr()
        assert main(["verify", "--tiles", str(path), "--out", str(tmp_path / "report.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: verify expects a tile set over Z, not a group tile set\n"
        assert not (tmp_path / "report.json").exists()


def _no_output_tiles(tmp_path) -> str:
    """A tile file over Z whose set and tile have no output."""
    path = tmp_path / "none.json"
    path.write_text(json.dumps({"in_max": 1, "outs": {}, "tiles": [{"top": 0, "bottom": {}, "left": "0",
                                                                    "right": "0"}]}))
    return str(path)


def test_render_says_a_tile_has_no_output(tmp_path, capsys):
    assert main(["render", "--tiles", _no_output_tiles(tmp_path), "--out", str(tmp_path / "o.svg")]) == 1
    assert capsys.readouterr().err == "error: tile has no output\n"
    assert not (tmp_path / "o.svg").exists()


def test_verify_says_a_set_has_no_output(tmp_path, capsys):
    assert main(["verify", "--tiles", _no_output_tiles(tmp_path), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == "error: tile set has no output\n"
    assert not (tmp_path / "r.json").exists()


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


def _deep_tile_file(tmp_path, depth: int, copies: int = 1) -> str:
    """A set holding `copies` copies of one tile whose side labels nest
    `depth` lists deep, written as text, as json.dumps refuses such depths."""
    label = "[" * depth + '"0"' + "]" * depth
    tile = '{"top": 0, "bottom": {"f": 0}, "left": ' + label + ', "right": ' + label + "}"
    path = tmp_path / "deep.json"
    path.write_text('{"in_max": 1, "outs": {"f": 1}, "tiles": [' + ", ".join([tile] * copies) + "]}")
    return str(path)


@pytest.mark.parametrize("command, code", [("render", 0), ("verify", 2)])
def test_tile_file_nested_700_deep_is_read(tmp_path, capsys, command, code):
    """The label folds take one frame per nesting level, so a label 700
    lists deep is read, drawn and searched like any other."""
    out = tmp_path / "out"
    assert main([command, "--tiles", _deep_tile_file(tmp_path, 700), "--out", str(out)]) == code
    assert capsys.readouterr().err == ""
    assert out.exists()


@pytest.mark.parametrize("command", ["render", "verify"])
def test_duplicate_tile_nested_700_deep_is_named(tmp_path, capsys, command):
    """A tile given twice is refused by name, however deep its labels: the
    refusal formats the tile, and a label's repr takes one frame per
    nesting level, as the reader does."""
    out = tmp_path / "out"
    assert main([command, "--tiles", _deep_tile_file(tmp_path, 700, copies=2), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: duplicate tile ZTile(top=0")
    assert not out.exists()


@pytest.mark.parametrize("command", ["render", "verify"])
def test_deeply_nested_tile_file_is_an_error(tmp_path, capsys, command):
    """A side label 995 lists deep is more than json.load nests: it is
    refused with one error line, not a traceback."""
    out = tmp_path / "out"
    assert main([command, "--tiles", _deep_tile_file(tmp_path, 995), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: nesting too deep for the reader (RecursionError)\n"
    assert not out.exists()


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_freegroup_refuses_budget_below_one(budget, tmp_path, capsys):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"alphabet": 2, "patterns": [{"cells": [{"word": "x1", "letter": 0}]}]}))
    assert main(["freegroup", "--problem", str(path), "--budget", budget]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: budget must be >= 1, got {budget}\n"


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_group_witness_refuses_budget_below_one(budget, capsys):
    assert main(["group", "--preset", "psl2z", "--word", "dd", "--witness", "--budget", budget]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: budget must be >= 1, got {budget}\n"


# -- verify's periodic-point oracle: one power chain ----------------------

import pamaps_reference  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
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


# -- gen writes the compiled rows from the label table ---------------------

import tiles_reference  # noqa: E402
from kariforge import tiles  # noqa: E402


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("gen")


@given(circle_homeos(max_denominator=4), st.booleans())
@settings(max_examples=25, deadline=None)
def test_gen_map_bytes_match_the_reference_writer(gen_dir, f, fast_path):
    map_file, out = gen_dir / "map.json", gen_dir / "tiles.json"
    map_file.write_text(json.dumps(pamaps.pamap_to_obj(f)))
    argv = ["gen", "--map", str(map_file), "--out", str(out), "--fast-path", "on" if fast_path else "off"]
    assert main(argv) == 0
    want = tiles_reference.tileset_json(tiles.pamap_tiles(f, fast_path=fast_path))
    assert out.read_bytes() == want.encode("utf-8")


def test_gen_checks_its_rows_before_opening_the_file(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise ValueError("top bit 9 out of range")

    monkeypatch.setattr(tiles, "_check_rows", refuse)
    out = tmp_path / "kari.json"
    assert main(["gen", "--preset", "z-kari", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: top bit 9 out of range\n"
    assert not out.exists()


def test_gen_interns_no_label(tmp_path, kari_map_file):
    """gen compiles to rows over a label table of its own and writes them,
    so the process-wide HLabel intern table does not grow.  A fresh process
    shows it whatever labels other tests interned."""
    import os
    import subprocess
    import sys

    runs = [["gen", "--map", kari_map_file, "--out", str(tmp_path / "map.json")],
            ["gen", "--preset", "z-kari", "--out", str(tmp_path / "kari.json")],
            ["gen", "--preset", "psl2z", "--out", str(tmp_path / "psl2z.json")]]
    script = ("import json, sys\n"
              "from kariforge import cli, tiles\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    before = len(tiles.HLabel._interned)\n"
              "    assert cli.main(argv) == 0\n"
              "    print('grew', len(tiles.HLabel._interned) - before)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(tiles.__file__)))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert [line for line in done.stdout.splitlines() if line.startswith("grew")] == ["grew 0"] * 3


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

from kariforge.cli import _parse, build_parser  # noqa: E402


def readme_commands() -> list[list[str]]:
    """Each `kariforge ...` line of the README's "Command line" block, split into words."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("kariforge ")]


def test_readme_command_lines_parse():
    commands = readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        _parse(argv[1:])  # exits with status 1 on an unknown command or flag


# -- main parses a line once, as parse_args does ---------------------------

GROUP = ["group", "--preset", "psl2z", "--word", "ddd"]
PARSE_CASES = [
    [], ["-h"], ["--help"], ["nope"], ["--", "gen"], ["-x", "gen"],
    ["verify", "--help"], ["group", "-h"], ["verify", "--tiles", "t.json", "--h"],
    ["verify", "--max-n", "3"],  # no --tiles
    ["render"], ["gen", "--map"],
    GROUP + ["--is-identity", "--witness"],  # exclusive flags
    ["gen", "--map", "m.json", "--preset", "z-kari"],
    ["verify", "--tiles", "t.json", "--max-n", "abc"],
    ["gen", "--preset", "z-kari", "--fast-path", "maybe"],
    ["group", "--pres", "psl2z", "--wor", "ddd", "--is-id"],  # abbreviations
    ["group", "--preset", "psl2z", "--w", "ddd", "--is-identity"],  # ambiguous: --word or --witness
    ["simulate", "--map", "m.json", "--x=-1/2"],
    ["simulate", "--map", "m.json", "--x", "-1/2"],  # -1/2 reads as a flag
    GROUP + ["--witness", "--budget", "-1"],  # -1 reads as a number
    ["verify", "--tiles=t.json", "--max-k", "2", "--out", "r.json"],
    ["gen", "--", "--preset", "z-kari"],
    GROUP + ["--is-identity", "--"],
    GROUP + ["--is-identity", "--", "extra"],
    GROUP + ["--is-identity", "--bogus"],
    GROUP + ["--is-identity", "extra"],
    ["freegroup", "--problem", "p.json", "--budget", "7", "--problem", "q.json"],
]


def _parse_outcome(parse, argv, capsys):
    """(namespace or None, stdout, stderr, exit code or None) of parse(argv)."""
    try:
        args, code = parse(list(argv)), None
    except SystemExit as exc:
        args, code = None, exc.code
    out, err = capsys.readouterr()
    return args, out, err, code


@pytest.mark.parametrize("argv", PARSE_CASES + [argv[1:] for argv in readme_commands()], ids=" ".join)
def test_one_pass_parse_matches_parse_args(argv, capsys):
    """main's parse gives parse_args's namespace, output and exit code; a
    line with an argument its command's parser leaves over is refused by
    the top-level parser, as parse_args refuses it."""
    assert _parse_outcome(_parse, argv, capsys) == _parse_outcome(build_parser().parse_args, argv, capsys)


# -- render refuses an oversized file before decoding it -------------------


def _oversized(tmp_path, obj, copies):
    """obj with its tiles list repeated `copies` times, written to a file."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(obj, tiles=obj["tiles"] * copies)))
    return str(path)


@pytest.mark.parametrize("preset, copies", [("z-kari", 23), ("psl2z", 3)])
def test_render_refuses_an_oversized_file_before_decoding(tmp_path, capsys, monkeypatch, preset, copies):
    from kariforge import tiles

    small = tmp_path / "small.json"
    main(["gen", "--preset", preset, "--out", str(small)])
    obj = json.loads(small.read_text())
    n = len(obj["tiles"]) * copies
    assert n > 500
    decoded = []  # one entry per side label read
    labels = tiles._obj_labels

    def counting_labels():
        read = labels()
        return lambda obj: decoded.append(1) or read(obj)

    monkeypatch.setattr(tiles, "_obj_labels", counting_labels)
    capsys.readouterr()
    # the repeated tiles would be refused as duplicates; size is checked first
    assert main(["render", "--tiles", _oversized(tmp_path, obj, copies), "--out", str(tmp_path / "o.svg")]) == 1
    assert capsys.readouterr().err == f"too large: {n} tiles exceed the 500 tile limit\n"
    assert decoded == []
    assert not (tmp_path / "o.svg").exists()
    # a set of at most 500 tiles is still decoded and drawn
    assert main(["render", "--tiles", str(small), "--out", str(tmp_path / "o.svg")]) == 0
    assert len(decoded) == 2 * len(obj["tiles"])


# -- output does not depend on the hash seed --------------------------------


def test_gen_and_render_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    import os
    import subprocess
    import sys

    import kariforge

    src = os.path.dirname(os.path.dirname(os.path.abspath(kariforge.__file__)))
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out, svg = tmp_path / f"psl2z-{seed}.json", tmp_path / f"psl2z-{seed}.svg"
        for argv in (["gen", "--preset", "psl2z", "--out", str(out)],
                     ["render", "--tiles", str(out), "--out", str(svg)]):
            subprocess.run([sys.executable, "-m", "kariforge.cli", *argv], env=env, check=True,
                           stdout=subprocess.DEVNULL)
        assert _sha256(out) == "55a2d8946c429461ab6d8336acc8c7eb9d0abfcb3e23c1d035c1607fb3468ea9"
        assert _sha256(svg) == "a51a957e25a7f5a78033c335f9ca0f64bca946793ce1a7300a70cb88e0e0708f"


# -- the verify report writer -------------------------------------------------


def _texts():
    """Rationals as verify writes them, and any text, to reach the escapes."""
    return st.one_of(st.fractions().map(str), st.text(max_size=6))


def _records(**fields):
    """Dicts with the given keys in the given order, as verify builds them."""
    return st.tuples(*fields.values()).map(lambda values: dict(zip(fields, values)))


def _reports():
    ints = st.integers(0, 40)
    lattice = _records(n=ints, k=ints, shear=ints, rows=st.lists(st.lists(ints, max_size=4), max_size=3))
    violation = _records(n=st.integers(1, 12), cycle=st.lists(st.integers(0, 500), min_size=1, max_size=6),
                         top_avg=_texts(), bottom_avg=_texts(), expected=st.one_of(st.none(), _texts()))
    points = _records(k=st.integers(1, 8), points=st.lists(st.tuples(_texts(), _texts()).map(list), max_size=3))
    return _records(nonempty=st.booleans(), periodic=st.lists(lattice, max_size=3),
                    soundness_violations=st.lists(violation, max_size=4),
                    oracle_periodic_points=st.one_of(st.none(), st.lists(points, max_size=3)))


@given(_reports())
@example({"nonempty": True, "periodic": [], "soundness_violations": [], "oracle_periodic_points": None})
@example({"nonempty": False, "periodic": [], "soundness_violations": [], "oracle_periodic_points": []})
# k >= 2, a shear > 0 and rows of one tile, as verify reports them
@example({"nonempty": True, "periodic": [{"n": 1, "k": 1, "shear": 0, "rows": [[7]]},
                                          {"n": 1, "k": 3, "shear": 0, "rows": [[5], [12], [5]]},
                                          {"n": 3, "k": 2, "shear": 2, "rows": [[0, 14, 9], [3, 3, 11]]}],
          "soundness_violations": [], "oracle_periodic_points": [{"k": 1, "points": [["0", "0"]]}]})
@settings(max_examples=200, deadline=None)
def test_report_writer_equals_json_dumps(report):
    from kariforge.cli import _report_json

    assert _report_json(report) == json.dumps(report, indent=1) + "\n"
