"""Run the mutation table: each mutant edits one file of src/kariforge in a
temporary copy of src/, and the tests named for it must then fail.

    python tools/mutants.py

It runs every mutant in MUTANTS.  Their tests first run on an unmutated
copy, where they must pass.  Each mutant then runs its own
tests (`pytest -x`) against its copy under a per-mutant timeout; a failed
test or a timeout kills it.  Prints one line per mutant and exits 1 when a
mutant survives, when its old text does not occur exactly once in its
file (a stale entry), or when pytest cannot run its tests.  Standard
library only; pytest runs in a subprocess.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/kariforge
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


def _gens(name: str, path: str, old: str, new: str, *tests: str) -> Mutant:
    return Mutant(f"generators {name}", path, old, new, tests)


# Each Z or Z x G decision tests `generators is None`; a set over Z x G with
# no generators is `()`, so a truthiness test at any site reads it as over Z.
# `tiles._tile_obj`'s test has no entry: a `()` set holds no tiles, so no
# test can tell its truthiness mutant from the source.
MUTANTS = [
    _gens("_check_rows", "tiles.py",
          "if generators is not None and sorted(names) != sorted(generators):",
          "if generators and sorted(names) != sorted(generators):",
          "tests/test_tiles.py::test_group_set_runs_the_z_checks_on_itself"),
    _gens("ZTileSet.__post_init__", "tiles.py",
          "_check_rows(self.in_max, self.out_maxes, self.generators, _distinct_bits(self.tiles))",
          "_check_rows(self.in_max, self.out_maxes, self.generators or None, _distinct_bits(self.tiles))",
          "tests/test_tiles.py::test_group_set_runs_the_z_checks_on_itself"),
    _gens("_Rows.of", "tiles.py",
          "rows, ts.source, labels, generators=ts.generators)",
          "rows, ts.source, labels, generators=ts.generators or None)",
          "tests/test_tiles.py::test_object_form_is_the_text_form"),
    _gens("trim_tiles", "tiles.py",
          "source=ts.source,\n                        generators=ts.generators)",
          "source=ts.source,\n                        generators=ts.generators or None)",
          "tests/test_verify.py::test_nonempty_rows_is_a_nonempty_trim"),
    _gens("_head", "tiles.py",
          'return {} if gens is None else {"generators": list(gens)}',
          'return {} if not gens else {"generators": list(gens)}',
          "tests/test_tiles.py::test_object_form_is_the_text_form"),
    _gens("tileset_from_obj", "tiles.py",
          "                if gens is None:\n                    top = t[(key := \"top\")]",
          "                if not gens:\n                    top = t[(key := \"top\")]",
          "tests/test_tiles.py::test_loaders_refuse_malformed_json[psi of no generators]"),
    _gens("render_tileset", "render.py", "if gens is not None:", "if gens:",
          "tests/test_render.py::test_one_renderer_for_both_kinds"),
    _gens("cmd_verify", "cli.py", "if ts.generators is not None:", "if ts.generators:",
          "tests/test_cli.py::test_verify_rejects_group_tiles"),
    _gens("patch_check", "verify.py",
          'if gts.generators is None:\n        raise ValueError("patch_check',
          'if not gts.generators:\n        raise ValueError("patch_check',
          "tests/test_verify.py::test_patch_empty_is_valid"),
    _gens("build_orbit_patch", "verify.py",
          'if gts.generators is None:\n        raise ValueError("build_orbit_patch',
          'if not gts.generators:\n        raise ValueError("build_orbit_patch',
          "tests/test_verify.py::test_orbit_patch_needs_a_generation_plan"),
    # `()` is refused wherever a tile would need a psi color
    Mutant("() refusal in _check_rows", "tiles.py",
           "        if generators == ():\n            raise ValueError(_NO_GENERATORS)\n", "",
           ("tests/test_tiles.py::test_writers_match_reference_on_empty_sets",)),
    Mutant("() refusal in _psi_top", "tiles.py",
           "    if not gens:\n        raise ValueError(_NO_GENERATORS)\n", "",
           ("tests/test_tiles.py::test_loaders_refuse_malformed_json[psi of no generators]",)),
    # the probe points refute a word before it is composed, and only a
    # word that fixes both is folded
    Mutant("probes answer true", "pamaps.py",
           "    return word_apply(pres, word)._core == (_identity_row(pres.space),)",
           "    return True",
           ("tests/test_pamaps.py::test_words_that_fix_the_probes_reach_the_fold",)),
    Mutant("probes skipped", "pamaps.py",
           "        if y != x:\n            return False\n", "",
           ("tests/test_pamaps.py::test_a_word_a_probe_refutes_composes_nothing",)),
    # a decreasing piece meets f's rows from its hi down, and an inverse's
    # rows come in image order: each is put in lo order for the one sweep
    Mutant("compose sweep order", "pamaps.py",
           "        if qan < 0:  # a decreasing q meets f's rows from its hi down\n"
           "            out[block:] = out[block:][::-1]\n", "",
           ("tests/test_pamaps.py::test_decreasing_segment_maps_compose_and_invert_in_one_sweep",)),
    # on a circle, a map defined at one of 0 and L is read at the other too
    Mutant("compose wrap at 0", "pamaps.py",
           "        return ((0, 1, 0, 1, 0, 1, *_at(an, ad, Ln, Ld, bn, bd)),) + fs\n",
           "        return fs\n",
           ("tests/test_pamaps.py::test_compose_across_the_wrap",)),
    Mutant("compose wrap at L", "pamaps.py",
           "        return fs + ((Ln, Ld, Ln, Ld, 0, 1, *fs[0][6:]),)  # the first row's value at 0 is its offset\n",
           "        return fs\n",
           ("tests/test_pamaps.py::test_compose_across_the_wrap",)),
    Mutant("_value wrap at 0", "pamaps.py",
           "    for lon, lod, hin, hid, an, ad, bn, bd in _across_wrap(f._core, sp):\n",
           "    for lon, lod, hin, hid, an, ad, bn, bd in f._core:\n",
           ("tests/test_pamaps.py::test_apply_across_the_wrap",)),
    Mutant("invert sweep order", "pamaps.py",
           "    if len(inv) > 1:  # by lo, so `_canonical` takes its sweep\n"
           "        inv.sort(key=_exact_key(inv, 1))\n", "",
           ("tests/test_pamaps.py::test_decreasing_segment_maps_compose_and_invert_in_one_sweep",)),
    # one memoized fold builds every label form
    Mutant("fold memo", "tiles.py", "            memo[k] = v\n", "",
           ("tests/test_tiles.py::test_fold_builds_each_distinct_node_once",)),
    # a comprehension is a frame of its own on CPython 3.11
    Mutant("fold two frames per level", "tiles.py", "tup_of(list(map(f, value)))",
           "tup_of([f(c) for c in value])",
           ("tests/test_cli.py::test_tile_file_nested_700_deep_is_read",)),
    Mutant("reader key by identity", "tiles.py", "        return marshal.dumps(obj)\n",
           "        return id(obj)\n",
           ("tests/test_tiles.py::test_loading_a_family_reads_each_label_node_once",)),
    Mutant("reader key refused", "tiles.py", "    except ValueError:\n        return id(obj)\n",
           "    except ValueError:\n        raise\n",
           ("tests/test_tiles.py::test_reader_refuses_what_marshal_refuses",)),
    Mutant("writer label slots swapped", "tiles.py",
           "write(sep + before + label(l) + between + label(r) + after)",
           "write(sep + before + label(r) + between + label(l) + after)",
           ("tests/test_tiles.py::test_object_form_is_the_text_form",)),
    # a generator expression is a frame of its own, as a comprehension is
    Mutant("repr two frames per level", "tiles.py", "        return _label_reprs(str)(self)\n",
           '        if self.kind == "tup":\n'
           '            return "(" + ",".join(repr(l) for l in self.value) + ")"\n'
           "        return _label_reprs(str)(self)\n",
           ("tests/test_cli.py::test_duplicate_tile_nested_700_deep_is_named",)),
    Mutant("writer re-indent", "tiles.py", '.replace("\\n", "\\n ") + close + closing',
           " + close + closing",
           ("tests/test_tiles.py::test_label_writer_matches_reference",)),
    # a command's parser parses its line once; what it leaves over goes to
    # the top-level parser, which refuses it
    Mutant("dispatch ignores leftover arguments", "cli.py",
           "        if not rest:\n            return args\n", "        return args\n",
           ("tests/test_cli.py::test_one_pass_parse_matches_parse_args",)),
    Mutant("nested too deeply", "cli.py", "    except RecursionError:", "    except ZeroDivisionError:",
           ("tests/test_cli.py::test_deeply_nested_tile_file_is_an_error",)),
    # a set with no output is refused before its alphabet is read
    Mutant("no-output refusal in _out_max", "verify.py",
           '    if not ts.out_maxes:\n        raise ValueError("tile set has no output")\n', "",
           ("tests/test_verify.py::test_rows_and_patches_refuse_a_set_with_no_output",)),
    # the walk search keeps every walk whose top sum is kept, and only those
    Mutant("walk search sum bound off by one", "verify.py",
           "if at_least[T + lo[r][u]] <= T + hi[r][u]:", "if at_least[T + lo[r][u]] < T + hi[r][u]:",
           ("tests/test_verify.py::test_scan_searches_only_the_walks_whose_top_sum_is_on_a_loop",)),
    Mutant("walk search reach one level off", "verify.py",
           "to_go, before = reach[r], top_sums[d - 1]", "to_go, before = reach[r + 1], top_sums[d - 1]",
           ("tests/test_verify.py::test_periodic_checks_match_walk_enumeration",)),
    # closed_walks is the walk search on the tile graph; a walk is its edges' left ends
    Mutant("closed walks read off the edges' right ends", "verify.py",
           "yield tuple(map(lefts.__getitem__, path))", "yield tuple(map(rights.__getitem__, path))",
           ("tests/test_verify.py::test_closed_walks_match_the_unpruned_search",)),
    Mutant("soundness search keyed on bottom sums", "verify.py",
           "{key // width for key in bad}", "{key % width for key in bad}",
           ("tests/test_verify.py::test_pruned_checks_match_walk_enumeration_on_fixed_point_maps",)),
    # two-cell patterns are built with their cells sorted by word
    Mutant("two-cell pattern cells unsorted", "freegroup.py", "            if g < h:\n",
           "            if True:\n",
           ("tests/test_freegroup.py::test_pattern_families_equal_the_pattern_make_lists",)),
    Mutant("one label graph", "tiles.py",
           "return _label_ids([t.left for t in ts.tiles], [t.right for t in ts.tiles])",
           "return _label_ids([t.right for t in ts.tiles], [t.left for t in ts.tiles])",
           ("tests/test_verify.py::test_periodic_checks_match_walk_enumeration",)),
]


def _pytest(src: str, tests: tuple[str, ...], timeout: float) -> str:
    """"passed", "failed", "timeout" or "error": pytest on these tests with
    the package imported from `src`."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *(os.path.join(ROOT, t) for t in tests)]
    try:
        # run from src's parent, so a test's scratch files (.hypothesis) go there
        code = subprocess.run(cmd, cwd=os.path.dirname(src), env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "failed"}.get(code, "error")


def _copy_src(into: str) -> str:
    src = os.path.join(into, "src")
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def run(m: Mutant) -> str:
    """"killed", "survived", "stale" (m.old does not occur exactly once) or
    "error" (pytest could not run m's tests)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = _copy_src(tmp)
        path = os.path.join(src, "kariforge", m.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(m.old) != 1:
            return "stale"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(m.old, m.new))
        result = _pytest(src, m.tests, TIMEOUT_S)
    return {"passed": "survived", "failed": "killed", "timeout": "killed"}.get(result, "error")


def main(table: list[Mutant] = MUTANTS) -> int:
    tests = tuple(dict.fromkeys(t for m in table for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        clean = _pytest(_copy_src(tmp), tests, TIMEOUT_S * len(table))
    if clean != "passed":
        print(f"the mutants' tests do not pass on the unmutated source: {clean}")
        return 1
    bad = 0
    for m in table:
        result = run(m)
        bad += result != "killed"
        print(f"{result:8} {m.name}")
    print(f"{len(table) - bad} of {len(table)} mutants killed")
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main())
