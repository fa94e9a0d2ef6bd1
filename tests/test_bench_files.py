"""Every committed BENCH_*.json carries what a performance claim needs.

A BENCH file records one performance change: the parent and change shas,
the seeds, and per workload the median and quartiles of both sides for each
end-to-end metric that BENCHMARK.json names, with the count of pairs the
change won.  A file transcribed from an older CHANGES.md entry says so
(`"transcribed": true`) and holds null where that entry gives no number.
"""

import glob
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def end_to_end_metrics() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["end_to_end"]]


def test_bench_files_exist():
    assert [os.path.basename(p) for p in BENCH_FILES][:2] == ["BENCH_10.json", "BENCH_11.json"]


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_has_shas_seeds_quartiles_and_wins(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    transcribed = doc.get("transcribed", False)
    assert transcribed in (True, False)
    for side in ("parent_sha", "change_sha"):
        assert re.fullmatch("[0-9a-f]{40}", doc[side]), side
    assert doc["parent_sha"] != doc["change_sha"]
    assert doc["workloads"]

    def number(v, where):
        ok = type(v) in (int, float) or (transcribed and v is None)
        assert ok, f"{where}: {v!r}"

    for name, w in doc["workloads"].items():
        seeds = w["seeds"]
        assert seeds and all(type(s) is int for s in seeds) and len(set(seeds)) == len(seeds), name
        assert w["pairs"] == len(seeds), name
        for metric in end_to_end_metrics():
            m = w["metrics"][metric]
            for side in ("parent", "change"):
                stats = [m[side][stat] for stat in ("q1", "median", "q3")]
                for stat, v in zip(("q1", "median", "q3"), stats):
                    number(v, f"{name}.{metric}.{side}.{stat}")
                if None not in stats:
                    assert stats == sorted(stats), f"{name}.{metric}.{side}: {stats}"
            wins = m["pairs_change_lower"]
            assert (transcribed and wins is None) or (type(wins) is int and 0 <= wins <= w["pairs"]), \
                f"{name}.{metric}.pairs_change_lower: {wins!r}"
