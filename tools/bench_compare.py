#!/usr/bin/env python3
"""Bench regression gate: compare a BENCH_coverage.json against the baseline.

CI runs  bench_coverage --backend=packed --json=BENCH_coverage.json
and then

    tools/bench_compare.py bench/baseline/BENCH_coverage.json \
        build/BENCH_coverage.json --max-drop 0.25

The gate fails (exit 1) when

  * the packed campaign throughput (`packed_faults_per_sec`) dropped more
    than --max-drop (default 25%) below the committed baseline — the
    absolute floor; it catches catastrophic regressions but is deliberately
    slack because the baseline machine and the runner differ,
  * the packed-over-scalar ratio (`speedup`) dropped more than --max-drop
    below the baseline's ratio — this one is measured within a single run
    on the same machine, so it is runner-speed-independent and catches a
    refactor that quietly gives back the bit-parallel win even on a runner
    much faster or slower than the baseline host,
  * the bench reported a verdict mismatch (`verdicts_equal` false) — a
    correctness regression dressed up as a speed number is still a failure,
  * either JSON is missing a compared key.

Fields that describe the workload (faults, words, width, seeds) are checked
for identity: a throughput number only means something against the same
workload.  Informational fields (scalar throughput, scheduler counters,
the settling and huge-memory rows) are printed but never gate.

Exit codes: 0 pass, 1 regression/mismatch, 2 usage or unreadable input.
"""

import argparse
import json
import signal
import sys

# Dying quietly when piped into `head` beats a BrokenPipeError traceback.
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

GATE_KEY = "packed_faults_per_sec"
RATIO_KEY = "speedup"
WORKLOAD_KEYS = ("bench", "march", "words", "width", "faults", "seeds")
# Carried through and printed, never gated (yet): the scheduler fields are
# attribution data and will grow a gate once a few runners' numbers are in.
INFO_KEYS = ("threads", "scalar_faults_per_sec", "faults_simulated",
             "mean_live_lanes", "lane_occupancy",
             "session_elements_total", "session_elements_executed",
             "addresses_walked",
             "settling_faults", "settling_seeds",
             "settling_faults_per_sec", "settling_lane_occupancy",
             "huge_words", "huge_faults", "huge_regions",
             "huge_faults_per_sec", "huge_slots_peak",
             "huge_addresses_walked")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument("current", help="freshly measured JSON")
    ap.add_argument("--max-drop", type=float, default=0.25,
                    help="maximum tolerated fractional drop of "
                         f"{GATE_KEY} (default 0.25)")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    failed = False

    for key in WORKLOAD_KEYS:
        if base.get(key) != cur.get(key):
            print(f"FAIL workload drift: {key}: baseline={base.get(key)!r} "
                  f"current={cur.get(key)!r}")
            failed = True

    if cur.get("verdicts_equal") is not True:
        print(f"FAIL verdicts_equal: {cur.get('verdicts_equal')!r} "
              "(packed/scalar or cross-region verdict mismatch)")
        failed = True

    try:
        b = float(base[GATE_KEY])
        c = float(cur[GATE_KEY])
    except (KeyError, TypeError, ValueError) as e:
        print(f"FAIL {GATE_KEY} missing or non-numeric: {e}")
        sys.exit(1)

    floor = b * (1.0 - args.max_drop)
    ratio = c / b if b else float("inf")
    verdict = "PASS" if c >= floor else "FAIL"
    if c < floor:
        failed = True
    print(f"{verdict} {GATE_KEY}: baseline {b:.0f} -> current {c:.0f} "
          f"({ratio:.2f}x, floor {floor:.0f} at max drop "
          f"{args.max_drop:.0%})")

    # Runner-speed-independent gate: the packed-over-scalar ratio is
    # measured within one run, so it must hold wherever the bench executes.
    try:
        rb = float(base[RATIO_KEY])
        rc = float(cur[RATIO_KEY])
    except (KeyError, TypeError, ValueError) as e:
        print(f"FAIL {RATIO_KEY} missing or non-numeric: {e}")
        sys.exit(1)
    rfloor = rb * (1.0 - args.max_drop)
    rverdict = "PASS" if rc >= rfloor else "FAIL"
    if rc < rfloor:
        failed = True
    print(f"{rverdict} {RATIO_KEY}: baseline {rb:.2f}x -> current {rc:.2f}x "
          f"(floor {rfloor:.2f}x at max drop {args.max_drop:.0%})")

    for key in INFO_KEYS:
        if key in base or key in cur:
            print(f"info {key}: baseline={base.get(key)} current={cur.get(key)}")

    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
