"""Seeded end-to-end benchmark of kariforge.

    python3 bench/run.py --workload compile|verify|group|witness|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs no build.  Each workload
runs in a fresh single-threaded process (bench/worker.py) as a closed loop:
one caller, each op issued after the previous one returns.  Op times are
scaled to a host of nominal speed by a probe loop timed before every op
(see scaled_runs).  With ``--trace 0`` one untraced process measures for
``--seconds`` and the end-to-end metrics are reported.  With ``--trace 1`` an untraced and a traced process
each measure for half of ``--seconds``; the per-layer metrics come from the
traced one and ``trace.overhead_s`` is the difference of their wall_s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw measurements,
spans, op sizes and the environment go to ``.bench_out/``.  The exit code is
1 when an op failed or disagreed with its known answer, 2 on a usage or
environment error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 170  # the whole run, set-up included, must end before this
PROBE_NOMINAL_S = 0.001  # scaled times read as if the probe loop took 1 ms
PROBE_WINDOW = 10


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(times: list[float]) -> tuple[float, float]:
    """Value with exactly ten values above it, and its percentile (nearest
    rank); the maximum when there are ten values or fewer."""
    s = sorted(times)
    i = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s)


def scaled_runs(raw: dict) -> list[tuple[int, int, float]]:
    """(pass, op, seconds) of every op run, scaled to a host of nominal speed.

    The host's speed swings by tens of percent over seconds and minutes, so
    a run's time is multiplied by PROBE_NOMINAL_S over the median time of
    the probe loop (worker.probe) across the PROBE_WINDOW runs on each side
    of it.  A change to the program moves the op times, never the probe.
    """
    probes = [r[3] for r in raw["runs"]]
    out = []
    for k, (p, i, t, _) in enumerate(raw["runs"]):
        local = statistics.median(probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1])
        out.append((p, i, t * PROBE_NOMINAL_S / local))
    return out


def setup_seconds(raw: dict) -> float:
    """Import time plus the median of the set-ups, each scaled like the op
    runs by the probe loop's time just before it."""
    scale = lambda t, probe: t * PROBE_NOMINAL_S / probe
    setups = [scale(t, p) for t, p in zip(raw["setup_repeats_s"], raw["setup_probe_s"])]
    return scale(raw["import_s"], raw["import_probe_s"]) + statistics.median(setups)


def end_to_end(raw: dict) -> dict:
    """wall_s is the median pass, as the sum of its scaled op times; each
    op's time is the median of its scaled runs."""
    runs: list[list[float]] = [[] for _ in raw["ops"]]
    walls: dict[int, float] = {}
    for p, i, t in scaled_runs(raw):
        runs[i].append(t)
        walls[p] = walls.get(p, 0.0) + t
    per_op = [statistics.median(r) for r in runs]
    tail_s, tail_pct = tail(per_op)
    return {
        "wall_s": statistics.median(walls.values()),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_tail_ms": 1000 * tail_s,
        "setup_s": setup_seconds(raw),
        "peak_rss_mb": raw["peak_rss_mb"],
        "_op_tail_pct": tail_pct,
        "_ops": len(per_op),
        "_op_ms": [1000 * t for t in per_op],
        "_raw_wall_s": statistics.median(p["wall_s"] for p in raw["passes"]),
        "_probe_median_ms": 1000 * statistics.median(r[3] for r in raw["runs"]),
    }


def per_layer(raw: dict, names: list[str]) -> dict:
    out = {}
    for name in names:
        values = [layer.get(name, 0) for layer in raw["layers"]]
        out[name] = statistics.median(values)
    return out


def environment() -> dict:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "kariforge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": h.hexdigest(),
        "nproc": nproc,
        "loadavg": os.getloadavg(),
        "KARIFORGE_BUDGET": "unset" if "KARIFORGE_BUDGET" not in os.environ
        else "set in the caller's environment; unset for the run",
    }


def _commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def run_worker(workload: str, seed: int, seconds: float, traced: int,
               tmp_root: str, out: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("KARIFORGE_BUDGET", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced),
             "--tmp", tmp, "--out", out],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return load_json(out)


def run_workload(name: str, seed: int, seconds: float, traced: int, bench: dict,
                 deadline: float) -> tuple[dict, dict]:
    """Returns (metrics, report) for one workload."""
    out_dir = os.path.join(ROOT, ".bench_out")
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_root, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{traced}")
    share = seconds / 2 if traced else seconds
    plain = run_worker(name, seed, share, 0, tmp_root, stem + "-plain.json", deadline)
    e2e = end_to_end(plain)
    raws = [plain]
    if traced:
        raw = run_worker(name, seed, share, 1, tmp_root, stem + "-traced.json", deadline)
        raws.append(raw)
        names = [m["name"] for m in bench["per_layer"] if m["name"] != "trace.overhead_s"]
        metrics = per_layer(raw, names)
        metrics["trace.overhead_s"] = end_to_end(raw)["wall_s"] - e2e["wall_s"]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in bench["end_to_end"]}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    attempted = sum(r["attempted"] for r in raws)
    failures = [f for r in raws for f in r["failures"]]
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "environment": environment(),
        "end_to_end": e2e,
        "fail_ratio": len(failures) / attempted,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "passes": [len(r["passes"]) for r in raws],
        "ops": [dict(op, scaled_ms=t) for op, t in zip(plain["ops"], e2e.pop("_op_ms"))],
        "bound_at_import": raws[-1].get("bound_at_import"),
        "not_wrapped": raws[-1].get("not_wrapped"),
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, report


def print_report(name: str, metrics: dict, report: dict) -> None:
    e2e = report["end_to_end"]
    print(f"[{name}] seed {report['seed']}, {report['seconds']} s, passes {report['passes']}, "
          f"ops per pass {e2e['_ops']}, attempted {report['attempted']}, "
          f"failed {report['failed']}, fail_ratio {report['fail_ratio']:.4f}")
    for metric, v in metrics.items():
        extra = ""
        if metric == "op_tail_ms":
            extra = f"  (p{e2e['_op_tail_pct']:.1f} of {e2e['_ops']} ops)"
        print(f"[{name}] {metric} = {v['value']:.6g} {v['unit']}{extra}")
    for f in report["failures"][:10]:
        print(f"[{name}] FAILED pass {f['pass']} {f['op']}: {f['error'].strip().splitlines()[-1]}")


def main(argv=None) -> int:
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "kariforge", "__init__.py")):
        print(f"error: no kariforge sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    bench = load_json(bench_path)
    manifest = load_json(os.path.join(HERE, "manifest.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    if args.workload == "all":
        deadline = time.monotonic() + DEADLINE_S * len(chosen)
        for case in manifest["excluded"]:
            print(f"excluded: {case['case']}: {case['reason']}")
    metrics, attempted, failed = {}, 0, 0
    for name in chosen:
        try:
            m, report = run_workload(name, args.seed, args.seconds, args.trace, bench, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print_report(name, m, report)
        attempted += report["attempted"]
        failed += report["failed"]
        metrics.update(m if len(chosen) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
