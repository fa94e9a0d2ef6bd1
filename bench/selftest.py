"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Checks that a seed fixes the op list byte for byte, that the known-answer
references agree with the acceptance suite's versions and the program on
small cases, and that the span arithmetic is right on a hand-built tree.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
import random
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from kariforge import freegroup, pamaps, presets, tiles, verify  # noqa: E402

import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def acceptance_module():
    path = os.path.join(ROOT, "tests", "test_acceptance.py")
    spec = importlib.util.spec_from_file_location("acceptance", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TempDirs(unittest.TestCase):
    def setUp(self):
        base = os.path.join(ROOT, ".bench_tmp")
        os.makedirs(base, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="selftest-", dir=base)

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def build(self, name, seed, label):
        wd = os.path.join(self.tmp, label)
        os.mkdir(wd)
        ops = workloads.build(name, seed, wd)
        files = {}
        for f in sorted(os.listdir(wd)):
            with open(os.path.join(wd, f), "rb") as fh:
                files[f] = fh.read()
        return json.dumps([op.describe() for op in ops]).encode(), files


class SeedTest(TempDirs):
    def test_same_seed_same_op_list_and_inputs(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                a = self.build(name, 7, f"{name}-a")
                b = self.build(name, 7, f"{name}-b")
                c = self.build(name, 8, f"{name}-c")
                self.assertEqual(a, b)
                self.assertNotEqual(a[0], c[0])

    def test_variants_compile_to_sets_of_one_size(self):
        spec = gen.circle_homeo(random.Random(4))
        sizes = {len(tiles.pamap_tiles(pamaps.pamap_from_obj(gen.variant(spec, k).to_obj())).tiles)
                 for k in range(len(gen.VARIANTS))}
        self.assertEqual(len(sizes), 1)

    def test_strata_are_filled(self):
        maps = gen.stratified_homeos(random.Random(3), workloads.COMPILE_STRATA)
        self.assertEqual(len(maps), sum(n for _, _, n in workloads.COMPILE_STRATA))
        for lo, hi, n in workloads.COMPILE_STRATA:
            self.assertEqual(sum(lo < est <= hi for _, est in maps), n)

    def test_random_maps_are_circle_homeomorphisms(self):
        rng = random.Random(11)
        for i in range(40):
            spec = gen.variant(gen.circle_homeo(rng), i % len(gen.VARIANTS))
            f = pamaps.pamap_from_obj(spec.to_obj())
            self.assertTrue(pamaps.is_circle_homeo(f))
            for x in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(5, 6)):
                self.assertEqual(ref.eval_map(spec, x), pamaps.apply(f, x))


class ReferenceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.acc = acceptance_module()

    def test_normal_form_matches_acceptance_suite(self):
        letters = [("d", 1), ("d", -1), ("e", 1), ("e", -1)]
        for n in range(7):
            for word in itertools.product(letters, repeat=n):
                self.assertEqual(ref.psl2z_nf(word) == (), self.acc._free_product_trivial(word), word)

    def test_normal_form_matches_the_maps(self):
        pres = presets.psl2z()
        rng = random.Random(5)
        for _ in range(40):
            text = gen.psl2z_word(rng, 8)
            word = pamaps.parse_word(pres, text)
            self.assertEqual(ref.psl2z_nf(ref.letters_of_text(text)) == (),
                             pamaps.is_identity_word(pres, word), text)

    def test_ball_sizes(self):
        self.assertEqual(ref.psl2z_ball_size(2), 8)
        self.assertEqual(ref.psl2z_ball_size(8), 106)
        self.assertEqual(len(pamaps.enumerate_maps(presets.psl2z(), 5)), ref.psl2z_ball_size(5))

    def test_ball_words_match_the_library(self):
        for p, r in ((1, 3), (2, 3), (3, 2)):
            self.assertEqual(gen.ball_words(p, r), freegroup.ball(p, r))

    def test_brute_force_matches_acceptance_suite(self):
        rng = random.Random(9)
        for i in range(60):
            obj = gen.pattern_problem(rng, 2 + i % 2, 1 + i % 5, 1 + i % 3)
            pats = [[(gen.parse_word_str(c["word"]), c["letter"]) for c in p["cells"]]
                    for p in obj["patterns"]]
            problem = freegroup.problem_from_obj(obj)
            want = self.acc._brute_force_empty(problem)
            self.assertEqual(ref.brute_force_empty(obj["alphabet"], pats), want)
            self.assertEqual(freegroup.empty_finite(problem), want)

    def test_exponent_vectors_match_the_abelian_oracle(self):
        for w in gen.ball_words(2, 4):
            self.assertEqual(ref.exponent_vector(w, 2) == (0, 0), freegroup.abelian_oracle(w))

    def test_pattern_references_match_the_library_on_small_balls(self):
        words = gen.ball_words(2, 2)
        oracle = freegroup.pa_oracle(presets.psl2z())
        got = sorted(p.cells for p in freegroup.perg_forbidden(oracle, 2, 2))
        self.assertEqual(got, ref.perg_patterns(words, ref.psl2z_key))
        got = sorted(p.cells for p in freegroup.xleq1_forbidden(oracle, 2, 2))
        self.assertEqual(got, ref.xleq1_patterns(words, ref.psl2z_key))

    def test_bichromatic_check_flags_a_monochromatic_edge(self):
        words = gen.ball_words(2, 2)
        coloring = freegroup.simple_sft_check(freegroup.pa_oracle(presets.psl2z()), 2, 2, (1,))
        self.assertEqual(ref.bichromatic_errors(coloring, words, ref.psl2z_key, (1,), 3), [])
        flat = {g: 0 for g in coloring}
        self.assertTrue(ref.bichromatic_errors(flat, words, ref.psl2z_key, (1,), 3))

    def test_beatty_matches_disc(self):
        for y in (Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(1), Fraction(3, 2)):
            self.assertEqual(ref.beatty(y, -9, 9), verify.disc(y, -9, 9).bits)

    def test_closed_walk_count_matches_the_enumerator(self):
        ts = tiles.pamap_tiles(presets.kari_map())
        succ = verify.TransitionGraph.of(ts).succ
        want = sum(sum(1 for _ in verify.closed_walks(succ, n)) for n in range(1, 7))
        self.assertEqual(ref.closed_walks_total(tiles.tileset_to_obj(ts), 6), want)

    def test_rotation_rule_matches_the_scan(self):
        for q in (2, 3, 4):
            ts = tiles.pamap_tiles(pamaps.pamap_from_obj(gen.rotation(1, q).to_obj()))
            for n, k in ((2, 2), (3, 4), (4, 3), (4, 4)):
                found = verify.stacked_periodic_scan(ts, n, k)
                self.assertEqual(2 if found else 0, ref.rotation_exit(q, n, k), (q, n, k))

    def test_transcribed_presets_match(self):
        pairs = [(ref.KARI, presets.kari_map())]
        pairs += [(ref.PSL2Z[h], presets.psl2z().map_for(h)) for h in "de"]
        pairs += [(ref.THOMPSON_T[h], presets.thompson_t().map_for(h)) for h in "abc"]
        for spec, m in pairs:
            self.assertEqual(pamaps.pamap_from_obj(spec.to_obj()), m)


class SpanTest(unittest.TestCase):
    def test_self_time_on_a_hand_built_tree(self):
        spans = [
            ["root", 0.0, 10.0, -1, 0],
            ["a", 1.0, 4.0, 0, 0],
            ["a.child", 2.0, 3.0, 1, 0],
            ["b", 5.0, 7.0, 0, 0],
            ["c", 6.0, 8.0, 0, 0],    # overlaps b: covered once
            ["d", 9.0, 12.0, 0, 0],   # sticks out of root: clipped
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 2.0, 2.0, 3.0])

    def test_summary_sums_per_function_and_module(self):
        spans = [
            ["tiles.build_plan", 0.0, 4.0, -1, 0],
            ["tiles.trim_tiles", 1.0, 2.0, 0, 0],
            ["tiles.build_plan", 2.0, 3.5, 0, 0],
            ["pamaps.apply", 5.0, 5.5, -1, 1],
        ]
        s = tracing.summarize(spans, tracing.Counter())
        self.assertEqual(s["tiles.build_plan.calls"], 2)
        self.assertEqual(s["tiles.build_plan.self_s"], 1.5 + 1.5)
        self.assertEqual(s["tiles.self_s"], 4.0)
        self.assertEqual(s["pamaps.self_s"], 0.5)

    def test_tracer_captures_calls_through_module_globals(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.op = 0
            tiles.pamap_tiles(presets.kari_map())
            tracer.op = None
            s = tracing.summarize(tracer.spans, tracer.counts)
        finally:
            tracer.uninstall()
        self.assertGreater(s["tiles.build_plan.calls"], 1)  # the recursion
        self.assertEqual(s["tiles.trim_tiles.calls"], s["tiles.build_plan.calls"])
        self.assertFalse(hasattr(tiles.build_plan, "__wrapped__"))  # restored
        self.assertFalse(hasattr(pamaps.PAMap.make, "__wrapped__"))
        self.assertIn("verify.atom -> tiles.atom", tracer.bound_at_import)

    def test_tail_has_ten_values_above(self):
        value, pct = run.tail([float(i) for i in range(1, 41)])
        self.assertEqual((value, pct), (30.0, 75.0))


class ManifestTest(unittest.TestCase):
    def test_benchmark_and_manifest_agree(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        with open(os.path.join(HERE, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.NAMES))
        self.assertEqual(list(manifest["workloads"]), list(workloads.NAMES))
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(manifest["per_layer"]))
        self.assertTrue({m["name"] for m in bench["end_to_end"]} <= set(manifest["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
