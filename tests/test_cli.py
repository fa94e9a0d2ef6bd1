import json
from fractions import Fraction as F

import pytest

from kariforge import pamaps
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
