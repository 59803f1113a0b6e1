#!/usr/bin/env python3
"""Self-tests of the benchmark's oracle, order statistics, ruler and comparison.

usage: python3 perfbench/selftest.py

Kept out of the library's pytest suite (its testpaths is tests/), so the
tier-1 run does not grow. Needs the standard library and the sources under
src/, which it puts on the import path itself.
"""

from __future__ import annotations

import itertools
import random
import statistics
import sys
import unittest
from fractions import Fraction

import compare
import oracle
import ruler
import stats
from workloads import SRC, Deck, DeepTerms, _status_outcome

sys.path.insert(0, str(SRC))  # DeepTerms imports trispinor
F = Fraction


def forward(p, count):
    v = list(p[3:])
    while len(v) < count:
        v.append(p[0] * v[-1] + p[1] * v[-2] + p[2] * v[-3])
    return v[:count]


class OracleTest(unittest.TestCase):
    def test_tribonacci_terms(self):
        self.assertEqual(oracle.terms(oracle.TRIBONACCI, 0, 11),
                         [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149])
        self.assertEqual(oracle.terms(oracle.TRIBONACCI, 10, 1), [149])

    def test_matrix_power_matches_forward_iteration(self):
        rng = random.Random(7)
        for _ in range(20):
            p = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6))
            n = rng.randint(0, 60)
            self.assertEqual(oracle.terms(p, n, 4), forward(p, n + 4)[n:])

    def test_slice_check_accepts_good_and_rejects_bad(self):
        p = (F(3, 4), F(-5, 3), F(2), F(1, 2), F(1), F(-3, 4))
        good = forward(p, 201)
        self.assertTrue(oracle.slice_ok(p, good, 200))
        for k in (0, 2, 3, 100, 197, 200):
            bad = list(good)
            bad[k] += F(1, 7)
            self.assertFalse(oracle.slice_ok(p, bad, 200), k)
        self.assertFalse(oracle.slice_ok(p, good[:-1], 200))
        self.assertTrue(oracle.slice_ok(p, good[:-1], 199))
        self.assertTrue(oracle.slice_ok(p, good[:4], 3))

    def test_repeated_roots(self):
        self.assertTrue(oracle.has_repeated_root(F(3), F(-3), F(1)))   # (x-1)^3
        self.assertTrue(oracle.has_repeated_root(F(2), F(-1), F(0)))   # x(x-1)^2
        self.assertTrue(oracle.has_repeated_root(F(0), F(0), F(0)))    # x^3
        self.assertFalse(oracle.has_repeated_root(F(0), F(1), F(0)))   # x(x-1)(x+1)
        self.assertFalse(oracle.has_repeated_root(F(1), F(1), F(1)))

    def test_repeated_roots_agree_with_discriminant(self):
        for r, s, t in itertools.product(range(-3, 4), repeat=3):
            b, c, d = -r, -s, -t
            disc = 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2
            self.assertEqual(oracle.has_repeated_root(F(r), F(s), F(t)), disc == 0, (r, s, t))

    def test_expected_status(self):
        trib = oracle.TRIBONACCI
        self.assertEqual({i: oracle.expected_status(i, trib) for i in oracle.IDENTITIES},
                         {i: "tolered_pass" if i == "binet" else "exact_pass"
                          for i in oracle.IDENTITIES})
        delta_zero = tuple(map(F, (2, 0, -1, 1, 2, 3)))
        self.assertEqual(oracle.expected_status("summation", delta_zero), "skipped")
        self.assertEqual(oracle.expected_status("determinant", delta_zero), "skipped")
        self.assertEqual(oracle.expected_status("binet", tuple(map(F, (3, -3, 1, 0, 1, 1)))),
                         "skipped")

    def test_status_outcome(self):
        ok = _status_outcome([("norm", "exact_pass", "exact_pass")])
        self.assertEqual((ok.failed, ok.wrong, ok.blame), (False, False, []))
        fail = _status_outcome([("binet", "fail", "tolered_pass")])
        self.assertEqual((fail.failed, fail.wrong, fail.blame), (True, False, ["binet"]))
        wrong = _status_outcome([("summation", "exact_pass", "skipped")])
        self.assertEqual((wrong.failed, wrong.wrong), (True, True))


class DeckTest(unittest.TestCase):
    def test_each_pass_deals_every_value_once(self):
        deck = Deck(random.Random(3), "abcde")
        for _ in range(3):
            self.assertEqual(sorted(deck.draw() for _ in range(5)), list("abcde"))

    def test_deep_terms_blocks_cover_every_cell(self):
        workload = DeepTerms(random.Random(4))
        blocks = workload.blocks()
        for _ in range(2):
            block = next(blocks)
            self.assertEqual(len(block), len(workload.decks))
            for kind in DeepTerms.KINDS:
                ns = sorted(n for k, _, _, n in block if k == kind)
                self.assertEqual(len(ns), 2 * DeepTerms.STRATA)
                self.assertTrue(16 <= ns[0] and ns[-1] <= 4096, ns)

    def test_deep_terms_rational_cells_deal_the_fixed_corpus(self):
        cell = (DeepTerms.STRATA - 1, "seq_slice", True)
        corpus = DeepTerms.rational_corpus(cell)
        self.assertEqual(corpus, DeepTerms.rational_corpus(cell))
        self.assertNotEqual(corpus, DeepTerms.rational_corpus((0, "seq_slice", True)))
        self.assertTrue(all(-5 <= v.numerator <= 5 and v.denominator <= 4
                            for values, _ in corpus for v in values))
        self.assertEqual(sorted(b for _, b in corpus),
                         sorted(list(range(DeepTerms.BINS)) * (DeepTerms.CORPUS // DeepTerms.BINS)))
        workload = DeepTerms(random.Random(5))
        dealt = [workload._draw(cell) for _ in range(DeepTerms.CORPUS)]
        self.assertEqual(sorted(dealt), sorted(corpus))

    def test_deep_terms_integer_cells_draw_fresh_sets(self):
        cell = (DeepTerms.STRATA - 1, "seq_term", False)
        workload = DeepTerms(random.Random(6))
        dealt = [workload._draw(cell) for _ in range(DeepTerms.BINS)]
        self.assertEqual(sorted(b for _, b in dealt), list(range(DeepTerms.BINS)))
        self.assertTrue(all(v.denominator == 1 for values, _ in dealt for v in values))
        self.assertGreater(len({values for values, _ in dealt}), 1)


class StatsTest(unittest.TestCase):
    def test_tail_keeps_ten_beyond(self):
        values = [float(x) for x in range(1, 101)]
        random.Random(1).shuffle(values)
        self.assertEqual(stats.tail(values), (90.0, 90.0, 10))
        value, pct, beyond = stats.tail([float(x) for x in range(1, 19)])
        self.assertEqual((value, beyond), (8.0, 10))
        self.assertAlmostEqual(pct, 100 * 8 / 18)

    def test_tail_with_too_few_samples(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (1.0, 100 / 3, 2))
        with self.assertRaises(ValueError):
            stats.tail([])

    def test_quartiles_match_statistics(self):
        rng = random.Random(2)
        values = [rng.random() for _ in range(10)]
        self.assertEqual(list(stats.quartiles(values)), statistics.quantiles(values, n=4))
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_spread(self):
        self.assertAlmostEqual(stats.spread([9.0, 10.0, 10.0, 11.0]), 0.15)
        self.assertEqual(stats.spread([0.0, 0.0]), 0.0)


class RulerTest(unittest.TestCase):
    def fake(self, readings, start=0.0):
        clock = itertools.count(start, 0.01)
        r = ruler.Ruler(clock=lambda: next(clock), work=lambda: None)
        r.readings = list(readings)
        return r

    def test_scale_uses_readings_on_both_sides(self):
        r = self.fake([9.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 9.0])
        ref = ruler.REFERENCE_S
        self.assertAlmostEqual(r.scale(1.0, 4), ref / 2.0)  # median of 1,1,1,3,3,3
        self.assertAlmostEqual(r.scale(1.0, 0), ref / 1.0)  # only readings after
        self.assertAlmostEqual(r.scale(1.0, 8), ref / 3.0)  # only readings before

    def test_drift_cancels(self):
        slow = self.fake([2 * ruler.REFERENCE_S] * 6)
        fast = self.fake([ruler.REFERENCE_S] * 6)
        self.assertAlmostEqual(slow.scale(0.8, 3), fast.scale(0.4, 3))
        self.assertAlmostEqual(fast.scale(0.4, 3), 0.4)
        self.assertAlmostEqual(slow.factor(), 0.5)

    def test_reads_in_threes_when_due(self):
        r = self.fake([])
        r.read()
        self.assertEqual(r.mark(), ruler.NEIGHBOURS)
        r.read_if_due()  # the fake clock has moved 0.01 s per call
        self.assertEqual(r.mark(), ruler.NEIGHBOURS)
        r._last -= ruler.EVERY_S
        r.read_if_due()
        self.assertEqual(r.mark(), 2 * ruler.NEIGHBOURS)
        for x in r.readings:
            self.assertAlmostEqual(x, 0.01)

    def test_chunk_is_fixed_work(self):
        self.assertEqual(ruler.chunk(), ruler.chunk())
        self.assertGreater(ruler.chunk().denominator.bit_length(), 100)


def _runs(values, workload="w", start_seed=0):
    return [{"workload": workload, "trace": 0, "seed": start_seed + i,
             "metrics": {"m": {"value": v, "unit": "s"}}} for i, v in enumerate(values)]


class CompareTest(unittest.TestCase):
    LOWER = {"name": "m", "unit": "s", "better": "lower", "bound": 0.1}
    HIGHER = {"name": "m", "unit": "1/s", "better": "higher", "bound": 0.1}

    def judge(self, spec, before, after):
        paired = list(zip(before, after))
        return compare.verdict(spec, before, after, paired)

    def test_same_is_ok(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        self.assertEqual(self.judge(self.LOWER, base, list(reversed(base))), "ok")

    def test_regression(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        self.assertEqual(self.judge(self.LOWER, base, [v * 1.3 for v in base]), "regression")
        self.assertEqual(self.judge(self.HIGHER, base, [v * 0.7 for v in base]), "regression")

    def test_gain(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
        self.assertEqual(self.judge(self.LOWER, base, [v * 0.8 for v in base]), "gain")
        self.assertEqual(self.judge(self.HIGHER, base, [v * 1.2 for v in base]), "gain")

    def test_wide_spread_is_unresolved(self):
        base = [1.0, 1.5, 0.6, 1.0, 1.4, 0.7, 1.0, 1.3, 0.8, 1.0]
        self.assertEqual(self.judge(self.LOWER, base, [v * 1.15 for v in base]), "unresolved")

    def test_pairs_by_seed_then_order(self):
        before = _runs([1.0, 2.0, 3.0])
        after = _runs([30.0, 10.0], start_seed=1)
        self.assertEqual(compare.pairs(before, after, "m"), [(2.0, 30.0), (3.0, 10.0)])
        self.assertEqual(compare.pairs(before, _runs([5.0], start_seed=9), "m"), [(1.0, 5.0)])

    def test_table_flags_regression(self):
        bench = {"end_to_end": [self.LOWER], "per_layer": []}
        _, regressed = compare.compare(_runs([1.0] * 5), _runs([1.5] * 5), bench)
        self.assertTrue(regressed)
        lines, regressed = compare.compare(_runs([1.0] * 5), _runs([1.0] * 5), bench)
        self.assertFalse(regressed)
        self.assertTrue(lines[1].endswith("ok"))


if __name__ == "__main__":
    unittest.main()
