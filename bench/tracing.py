"""Spans around calls into the program's modules, recorded from outside it.

``Tracer.install`` replaces the public functions of each kariforge module
(and the ``PAMap.make`` staticmethod) with wrappers that record a span per
call while a timed op runs.  Calls made through module globals go through
the wrappers; names another module bound with ``from ... import`` at import
time do not, and ``bound_at_import`` lists them.  Spans are kept in memory
as ``[name, start, end, parent, op]`` and summarised per pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

MODULES = ("pamaps", "tiles", "verify", "freegroup", "cli", "render", "presets")

# Helpers called once per label, tile, word or piece: a span each would cost
# more than the work they do, so their time counts toward their caller.
NOT_WRAPPED = {
    "pamaps": {"rat", "rat_str", "merge_intervals", "intersect_interval_sets", "interval_set_contains"},
    "tiles": {"atom", "tag", "tup", "label_to_obj", "label_from_obj", "tile_to_obj", "tile_from_obj"},
    "freegroup": {"w_reduce", "w_mul", "w_inv", "word_from_str", "word_to_str"},
}

JSON_FUNCTIONS = ("tileset_to_obj", "tileset_from_obj", "grouptileset_to_obj", "grouptileset_from_obj")


def _trim(counts, args, result):
    counts["tiles.trim_tiles.tiles_in"] += len(args[0].tiles)
    counts["tiles.trim_tiles.tiles_out"] += len(result.tiles)


def _product(counts, args, result):
    counts["tiles.product_tiles.tiles_out"] += len(result.tiles)


def _soundness(counts, args, result):
    counts["verify.periodic_soundness.violations"] += len(result)


def _scan(counts, args, result):
    counts["verify.stacked_periodic_scan.found"] += len(result)


def _classes(counts, args, result):
    counts["freegroup.canonical_classes.words"] += len(args[0])
    counts["freegroup.canonical_classes.classes"] += len(set(result.values()))


def _colorings(counts, args, result):
    problem = args[0]
    support = {w for pat in problem.patterns for w in pat.support()}
    counts["freegroup.empty_finite.colorings"] += problem.alphabet_size ** len(support)


HOOKS = {
    "tiles.trim_tiles": _trim,
    "tiles.product_tiles": _product,
    "verify.periodic_soundness": _soundness,
    "verify.stacked_periodic_scan": _scan,
    "freegroup.canonical_classes": _classes,
    "freegroup.empty_finite": _colorings,
}
GENERATORS = {"verify.closed_walks": "verify.closed_walks.walks"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None  # id of the timed op in progress, else None
        self._undo: list = []
        self.bound_at_import: list[str] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"kariforge.{m}") for m in MODULES}
        for m, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in NOT_WRAPPED.get(m, ())):
                    self._patch(mod, attr, self._wrap(f"{m}.{attr}", fn))
        PAMap = mods["pamaps"].PAMap
        self._patch(PAMap, "make", staticmethod(self._wrap("pamaps.PAMap.make", PAMap.make)))
        for m, mod in mods.items():
            for attr, fn in vars(mod).items():
                owner = getattr(fn, "__module__", "") or ""
                if (inspect.isfunction(fn) and owner.startswith("kariforge.")
                        and owner != mod.__name__):
                    self.bound_at_import.append(f"{m}.{attr} -> {owner[len('kariforge.'):]}.{fn.__name__}")
        self.bound_at_import.append("presets.PRESETS values -> presets.<preset functions>")

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        hook = HOOKS.get(name)
        walk_key = GENERATORS.get(name)
        tracer = self

        if walk_key is not None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.op is None:
                    return fn(*args, **kwargs)
                return _count_items(fn(*args, **kwargs), counts, walk_key)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result
        return traced

    def oracle(self, fn):
        """Count calls and true answers of a word-problem oracle."""
        counts, tracer = self.counts, self

        def counted(w):
            answer = fn(w)
            if tracer.op is not None:
                counts["freegroup.oracle.calls"] += 1
                counts["freegroup.oracle.true"] += answer
            return answer
        return counted

    def reset(self) -> None:
        del self.spans[:]
        self.counts.clear()


def _count_items(it, counts, key):
    for item in it:
        counts[key] += 1
        yield item


# ---------------------------------------------------------------------------
# Summaries


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, s[1]), min(hi, s[2])
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append((s[2] - s[1]) - covered)
    return out


def summarize(spans, counts) -> dict:
    """Per-function calls and self time, plus the hook counts, for one pass."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for s, t in zip(spans, self_times(spans)):
        calls[s[0]] += 1
        self_s[s[0]] += t
    out = {f"{name}.calls": n for name, n in calls.items()}
    out.update({f"{name}.self_s": t for name, t in self_s.items()})
    for m in MODULES:
        out[f"{m}.self_s"] = sum(t for name, t in self_s.items() if name.startswith(m + "."))
    out["tiles.json.self_s"] = sum(self_s[f"tiles.{f}"] for f in JSON_FUNCTIONS)
    out.update(counts)
    tin = counts["tiles.trim_tiles.tiles_in"]
    out["tiles.trim_tiles.kept_ratio"] = counts["tiles.trim_tiles.tiles_out"] / tin if tin else 0.0
    calls_o = counts["freegroup.oracle.calls"]
    out["freegroup.oracle.hit_ratio"] = counts["freegroup.oracle.true"] / calls_o if calls_o else 0.0
    out["trace.spans"] = len(spans)
    return out
