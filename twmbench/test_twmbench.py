"""Tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s twmbench
"""

import json
import os
import random
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import line_digest, percentile, unit_verdicts, verdict_digest  # noqa: E402
from workloads import WORKLOADS, content_seeds  # noqa: E402


def unit_line(scheme, cls, fault, all_, any_):
    return (f'{{"type":"unit","scheme":"{scheme}","class":"{cls}","fault":{fault},'
            f'"describe":"SAF(0) @w{fault}.b0","detected_all":{json.dumps(all_)},'
            f'"detected_any":{json.dumps(any_)}}}').encode()


def stream(units, seconds="0.5"):
    return b"\n".join(
        [b'{"type":"campaign_begin","total_faults":%d}' % len(units)]
        + [unit_line(*u) for u in units]
        + [b'{"type":"campaign_end","seconds":' + seconds.encode() + b',"cells":[]}', b""])


UNITS = [("twm", "saf", i, i % 3 != 0, i % 5 != 0) for i in range(40)] + \
        [("tomt", "cfid:inter@4096", i, i % 2 == 0, True) for i in range(25)]


class Percentiles(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(percentile(xs, 50), 50)
        self.assertEqual(percentile(xs, 90), 90)
        self.assertEqual(percentile(xs, 100), 100)
        self.assertEqual(percentile([5.0], 90), 5.0)
        self.assertEqual(percentile([3, 1, 2], 90), 3)
        with self.assertRaises(ValueError):
            percentile(xs, 0)


class Digests(unittest.TestCase):
    def test_parse_unit_records(self):
        parsed = unit_verdicts(stream(UNITS))
        self.assertEqual(parsed, UNITS)

    def test_digest_ignores_emission_order(self):
        shuffled = UNITS[:]
        random.Random(3).shuffle(shuffled)
        self.assertEqual(verdict_digest(shuffled), verdict_digest(UNITS))
        self.assertEqual(line_digest(stream(shuffled)), line_digest(stream(UNITS)))

    def test_digest_ignores_run_metadata(self):
        self.assertEqual(line_digest(stream(UNITS, "0.5")), line_digest(stream(UNITS, "9.75")))

    def test_digest_sees_every_verdict_bit(self):
        base = verdict_digest(UNITS)
        for k in (3, 4):  # detected_all, detected_any
            flipped = [list(u) for u in UNITS]
            flipped[17][k] = not flipped[17][k]
            flipped = [tuple(u) for u in flipped]
            self.assertNotEqual(verdict_digest(flipped), base)
            self.assertNotEqual(line_digest(stream(flipped)), line_digest(stream(UNITS)))
        self.assertNotEqual(verdict_digest(UNITS[:-1]), base)

    def test_digest_is_stable(self):
        # The traced driver computes the same string in C++; pin the format.
        self.assertEqual(verdict_digest([("twm", "saf", 0, True, True)]), "9591048e-1")
        self.assertRegex(verdict_digest(UNITS), r"^[0-9a-f]{8}-65$")


class Specs(unittest.TestCase):
    def test_same_seed_same_spec(self):
        for make, _ in WORKLOADS.values():
            self.assertEqual(json.dumps(make(5)), json.dumps(make(5)))

    def test_seed_moves_only_the_seeded_workloads(self):
        for name, (make, _) in WORKLOADS.items():
            changes = make(1) != make(2)
            self.assertEqual(changes, name in ("seed-mix", "service-replay"), name)

    def test_content_seeds_are_nonzero_and_distinct(self):
        for seed in range(200):
            seeds = content_seeds(seed, 4)
            self.assertEqual(len(set(seeds)), 4)
            self.assertTrue(all(0 < s < 2**32 for s in seeds))

    def test_workload_shapes(self):
        mid = WORKLOADS["mid-list"][0](1)
        self.assertEqual((mid["memory"]["words"], mid["seeds"]), (4096, [0]))
        huge = WORKLOADS["huge-sparse"][0](1)
        self.assertEqual((huge["memory"]["words"], huge["run"]["regions"]), (1 << 18, 4))
        self.assertEqual(len(WORKLOADS["seed-mix"][0](1)["seeds"]), 4)
        self.assertEqual(len(WORKLOADS["service-replay"][0](1)["seeds"]), 2)
        for make, _ in WORKLOADS.values():
            run = make(1)["run"]
            self.assertEqual((run["simd"], run["schedule"], run["backend"]),
                             ("auto", "repack", "packed"))
            self.assertLessEqual(run["threads"], 4)


if __name__ == "__main__":
    unittest.main()
