"""End-to-end acceptance suite: one test per criterion, timed, with an
explicit pass/fail line printed for each (run with -s to watch them)."""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from kariforge import pamaps, tiles
from kariforge.cli import main
from kariforge.freegroup import (
    Pattern,
    PatternProblem,
    abelian_oracle,
    empty_finite,
    free_oracle,
    pa_oracle,
    perg_forbidden,
    xleq1_forbidden,
)
from kariforge.pamaps import Space, compose, equals, identity, periodic_points
from kariforge.presets import kari_map, psl2z, thompson_v
from kariforge.tiles import ZTile, ZTileSet, affine_tiles, family_tiles, pamap_tiles
from kariforge.verify import (
    build_orbit_patch,
    cont_window,
    disc,
    nonempty_rows,
    patch_check,
    periodic_soundness,
    stacked_periodic_scan,
    witness_row,
)


@contextmanager
def criterion(num, limit_s, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_s else "FAIL (over time budget)"
    print(f"{status} criterion {num} [{elapsed:.2f}s / {limit_s}s]: {description}")
    assert elapsed < limit_s


def _random_rational(rng, lo, hi, max_den=997):
    q = rng.randint(1, max_den)
    return lo + (hi - lo) * F(rng.randint(0, q), q)


def test_criterion_1_tile_count_golden(tmp_path, capsys):
    with criterion(1, 1.0, "z-kari preset compiles to the 22-tile set, split 8 + 14"):
        out = tmp_path / "kari.json"
        assert main(["gen", "--preset", "z-kari", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "22 tiles"
        ts = pamap_tiles(kari_map())
        assert len(ts.tiles) == 22

        def satisfies(t, a, b):
            return t.bottom() == a * t.top + b + t.left.value[1].value - t.right.value[1].value

        low_slope = [t for t in ts.tiles if satisfies(t, F(2, 3), F(-1, 3))]
        high_slope = [t for t in ts.tiles if satisfies(t, F(4, 3), F(1, 3))]
        assert len(low_slope) == 8
        assert len(high_slope) == 14


def test_criterion_2_encoding_identity():
    with criterion(2, 5.0, "cont(disc(y)) windows within 1/(2N+1) for 200 random rationals"):
        rng = random.Random(20260809)
        for _ in range(200):
            y = _random_rational(rng, F(0), F(1))
            for n in (8, 64, 512):
                got = cont_window(disc(y, -n, n))
                assert abs(got - y) <= F(1, 2 * n + 1)


def test_criterion_3_completeness_witness_rows():
    with criterion(3, 30.0, "witness rows succeed for 1000 random in-domain rationals, N=64"):
        rng = random.Random(424242)
        low = affine_tiles(F(4, 3), F(1, 3), 1, 1)
        high = affine_tiles(F(2, 3), F(-1, 3), 1, 1)
        union22 = pamap_tiles(kari_map())
        for i in range(1000):
            if i % 2 == 0:
                x = _random_rational(rng, F(0), F(1, 2))
                row = witness_row(low, x, 64)
            else:
                x = _random_rational(rng, F(1, 2), F(1))
                row = witness_row(high, x, 64)
            assert len(row) == 129
            assert len(witness_row(union22, x, 64)) == 129


def _single_tile_mutants(ts):
    existing = set(ts.tiles)
    out_name = ts.single_out()
    pools = {}
    for t in ts.tiles:
        pools.setdefault(t.left.value[0], set()).add(t.left)
        pools.setdefault(t.right.value[0], set()).add(t.right)
    labels = tiles._LabelTable()
    id_of, key = labels.numbering(), labels.flat_keys()
    pools = {k: sorted(v, key=lambda l: key(id_of(l))) for k, v in pools.items()}
    mutants = []
    for i, t in enumerate(ts.tiles):
        candidates = []
        for db in (-1, 1):
            if 0 <= t.top + db <= ts.in_max:
                candidates.append(ZTile(t.top + db, t.bottoms, t.left, t.right))
            flipped = t.bottom() + db
            if 0 <= flipped <= ts.out_max():
                candidates.append(ZTile(t.top, ((out_name, flipped),), t.left, t.right))
        for lab in pools[t.left.value[0]]:
            if lab is not t.left:
                candidates.append(ZTile(t.top, t.bottoms, lab, t.right))
                break
        for lab in pools[t.right.value[0]]:
            if lab is not t.right:
                candidates.append(ZTile(t.top, t.bottoms, t.left, lab))
                break
        for c in candidates:
            if c not in existing:
                mutants.append((i, c))
    return mutants


def test_criterion_4_soundness_and_mutation_suite():
    with criterion(4, 60.0, "periodic rows sound to n=10; single-tile corruptions >=95% detected"):
        kari = kari_map()
        ts = pamap_tiles(kari)
        assert periodic_soundness(ts, kari, 10) == []

        mutants = _single_tile_mutants(ts)
        assert mutants
        detected = 0
        for i, corrupt in enumerate(m for m in mutants):
            idx, tile = corrupt
            tiles = list(ts.tiles)
            tiles[idx] = tile
            mutated = ZTileSet.make(ts.in_max, dict(ts.out_maxes), tiles)
            if (periodic_soundness(mutated, kari, 8)
                    or not nonempty_rows(mutated)
                    or stacked_periodic_scan(mutated, 4, 2)):
                detected += 1
        assert detected >= 0.95 * len(mutants), f"{detected}/{len(mutants)} detected"


def test_criterion_5_aperiodicity_evidence():
    with criterion(5, 60.0, "no stacked periodicity to (8,6) and no periodic points to k=6; "
                            "identity control flags (1,1)"):
        kari = kari_map()
        ts = pamap_tiles(kari)
        assert stacked_periodic_scan(ts, 8, 6) == []
        for k in range(1, 7):
            assert periodic_points(kari, k) == ()
        ident = identity(Space(F(1), circle=True))
        control = stacked_periodic_scan(pamap_tiles(ident), 2, 2)
        assert (1, 1, 0) in {(r["n"], r["k"], r["shear"]) for r in control}


def _free_product_trivial(word):
    # normal form in <d | d^3> * <e | e^2>
    stack = []
    for name, sign in word:
        order = 3 if name == "d" else 2
        exp = sign % order
        if stack and stack[-1][0] == name:
            exp = (stack[-1][1] + exp) % order
            stack.pop()
        if exp:
            stack.append((name, exp))
    return not stack


def test_criterion_6_group_algebra():
    with criterion(6, 10.0, "psl2z: d^3 = e^2 = 1, (de)^k != 1 to k=10; words to length 6 "
                            "match the free product Z/3 * Z/2"):
        pres = psl2z()
        ident = identity(pres.space)
        d, e = pres.map_for("d"), pres.map_for("e")
        assert equals(compose(d, compose(d, d)), ident)
        assert equals(compose(e, e), ident)
        de = compose(d, e)
        acc = de
        for _ in range(10):
            assert not equals(acc, ident)
            acc = compose(acc, de)

        atoms = {("d", 1): d, ("d", -1): pamaps.invert(d),
                 ("e", 1): e, ("e", -1): pamaps.invert(e)}
        step_cache = {}
        layer = [((), ident)]
        for _ in range(6):
            nxt = []
            for word, m in layer:
                for sym, atom_map in atoms.items():
                    key = (m, sym)
                    if key not in step_cache:
                        step_cache[key] = compose(m, atom_map)
                    nxt.append((word + (sym,), step_cache[key]))
            layer = nxt
            for word, m in layer:
                assert equals(m, ident) == _free_product_trivial(word), word


def test_criterion_7_group_patch_witness():
    with criterion(7, 30.0, "psl2z tile family carries a valid radius-2 orbit patch"):
        pres = psl2z()
        gts = family_tiles(pres)
        assert len(gts.tiles) > 0
        patch = build_orbit_patch(pres, gts, radius=2, N=16, z0=F(1, 5))
        assert len(patch) == 8  # the radius-2 ball of Z/3 * Z/2
        assert patch_check(gts, patch, pa_oracle(pres))


def test_criterion_8_thompson_v_domain_refinement():
    # imported here: bench/selftest.py loads this module by its path, without tests/ on sys.path
    import pamaps_reference as reference

    with criterion(8, 30.0, "thompson-v common domain at depth 3 sits inside the four "
                            "Cantor intervals and keeps 0, 2/3, 8/9, 1"):
        pres = thompson_v()
        got = pamaps.common_domain(pres, 3)
        target = (
            pamaps.Interval(F(0), F(1, 9)),
            pamaps.Interval(F(2, 9), F(1, 3)),
            pamaps.Interval(F(2, 3), F(7, 9)),
            pamaps.Interval(F(8, 9), F(1)),
        )
        assert reference.intersect_interval_sets(got, target) == got
        for point in (F(0), F(2, 3), F(8, 9), F(1)):
            assert any(iv.contains(point) for iv in got)


def _brute_force_empty(problem):
    support = sorted({w for p in problem.patterns for w in p.support()})
    for values in itertools.product(range(problem.alphabet_size), repeat=len(support)):
        coloring = dict(zip(support, values))
        if all(any(coloring[w] != letter for w, letter in p.cells) for p in problem.patterns):
            return False
    return True


def test_criterion_9_free_group_decisions():
    with criterion(9, 10.0, "emptiness verdicts match brute force; X<=1 is nonempty; "
                            "Per_{Z^2} forbids the commutator patterns"):
        families = [
            PatternProblem(3, tuple(Pattern.make({(): a}) for a in range(3))),
            PatternProblem(2, (Pattern.make({(): 0}),)),
            PatternProblem(2, tuple(Pattern.make({(): a, (1,): a}) for a in range(2))),
        ]
        for problem in families:
            assert empty_finite(problem) is _brute_force_empty(problem)

        xleq1 = PatternProblem(2, tuple(xleq1_forbidden(free_oracle, 2, 2)))
        assert empty_finite(xleq1) is False

        pats = perg_forbidden(abelian_oracle, 2, 2)
        assert Pattern.make({(1, 2): 0, (2, 1): 1}) in pats
        assert Pattern.make({(1, 2): 1, (2, 1): 0}) in pats
