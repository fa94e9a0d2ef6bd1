"""Runs one workload in a fresh process and writes its raw measurements.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --tmp DIR --out FILE

The process imports the program, sets the workload up SETUP_REPEATS times
(each into a fresh directory), then runs the op list as a closed loop, one
op after another, pass after pass, until the passes have taken
``--seconds`` and there have been at least two.  A short op runs
``op.repeat`` times in a row each pass, so that its median rests on more
than a few samples.  The probe loop runs before every op run and its time is
recorded beside the op's.  All ops of a pass run before any is checked, so
checking adds nothing to a pass.  The first pass is checked against the
known answers; every later run must reproduce its output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

SETUP_REPEATS = 5


def probe():
    """Fixed pure-Python work timed before every op run.  Its time tracks
    how fast the host runs this process at that moment."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i % 97, i % 89 + 1) * Fraction(3, 7)
    d = {}
    for i in range(400):
        d[(i % 50, i)] = d.get((i % 50, i), 0) + i
    return acc


def probe_median(runs: int = 5) -> float:
    times = []
    for _ in range(runs):
        t = perf_counter()
        probe()
        times.append(perf_counter() - t)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import_probe_s = probe_median()
    t0 = perf_counter()
    from kariforge import cli, freegroup, pamaps, presets, render, tiles, verify  # noqa: F401
    import_s = perf_counter() - t0

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    wrap_oracle = tracer.oracle if tracer else (lambda o: o)
    setup_times, setup_probes = [], []
    for i in range(SETUP_REPEATS):
        wd = os.path.join(args.tmp, f"setup-{i}")
        os.mkdir(wd)
        setup_probes.append(probe_median())
        t = perf_counter()
        ops = workloads.build(args.workload, args.seed, wd, wrap_oracle)
        setup_times.append(perf_counter() - t)
    described = [op.describe() for op in ops]
    if tracer:
        tracer.install()

    passes, layer_passes, span_passes, failures = [], [], [], []
    runs: list[list] = []  # [pass, op index, seconds, probe seconds] per op run
    fingerprints: list = [None] * len(ops)
    attempted = 0
    # --seconds counts pass time only, so checking the first pass does not
    # cut into the measurement; every op gets at least two passes
    measured = 0.0
    while len(passes) < 2 or measured < args.seconds:
        p = len(passes)
        execs: list[list] = [[] for _ in ops]  # per op: (output, error) of each run
        first = last = None
        for i, op in enumerate(ops):
            for _ in range(op.repeat):
                t = perf_counter()
                probe()
                start = perf_counter()
                if tracer:
                    tracer.op = (p, i)
                try:
                    out, err = op.run(), None
                except Exception:
                    out, err = None, traceback.format_exc(limit=4)
                end = perf_counter()
                if tracer:
                    tracer.op = None
                first = start if first is None else first
                last = end
                runs.append([p, i, end - start, start - t])
                execs[i].append((out, err))
        passes.append({"wall_s": last - first})
        measured += last - first
        if tracer:
            layer = tracing.summarize(tracer.spans, tracer.counts)
            layer["tiles.labels_interned"] = len(tiles.HLabel._interned)
            layer_passes.append(layer)
            span_passes.append(list(tracer.spans))
            tracer.reset()
        for i, op in enumerate(ops):
            # an op's repeats write the same files, so pass 1 checks the last
            # run, whose files are on disk, and every run must match it
            for j, (out, err) in reversed(list(enumerate(execs[i]))):
                attempted += 1
                if err is None:
                    try:
                        if fingerprints[i] is None:
                            extra = op.check(out)
                            if extra:
                                op.size.update(extra)
                            fingerprints[i] = op.fingerprint(out)
                        elif op.fingerprint(out) != fingerprints[i]:
                            err = "output differs from the checked run"
                    except workloads.Mismatch as exc:
                        err = f"mismatch: {exc}"
                    except Exception:
                        err = traceback.format_exc(limit=4)
                if err is not None:
                    failures.append({"pass": p, "op": op.name, "run": j, "error": err})
        del execs
    if tracer:
        tracer.uninstall()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "import_s": import_s,
        "import_probe_s": import_probe_s,
        "setup_repeats_s": setup_times,
        "setup_probe_s": setup_probes,
        "passes": passes,
        "runs": runs,
        "ops": [dict(d, size=op.size) for d, op in zip(described, ops)],
        "op_list": described,
        "generators": workloads.PARAMETERS,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "budget_env": os.environ.get("KARIFORGE_BUDGET"),
    }
    if tracer:
        result["layers"] = layer_passes
        result["bound_at_import"] = tracer.bound_at_import
        result["not_wrapped"] = {m: sorted(v) for m, v in tracing.NOT_WRAPPED.items()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer:
        with open(args.out + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "passes": span_passes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
