"""CPU cost per event of the coupled three-system runner.

Runs `run_coupled` with the binary law at N = 400 and N = 1000, each with
slack = extra = 0 (the exact event-driven N-BBM) and slack = extra = 4,
and prints the CPU microseconds per event over --runs runs of each
(median and quartiles).  For each size and slack it first checks that the
runner reproduces the dict reference (tests/coupled_reference.py): equal
events, checks and final positions of all three systems.

With --baseline DIR it also loads `run_coupled` from the nbbm package in
DIR (another checkout, or its src directory), runs the two in --runs
alternating pairs, and prints the per-pair ratio new/old of the CPU time
per event, and whether the two took the same sample path.

    PYTHONPATH=src python benchmarks/coupled_per_event.py \\
        --horizon 4 --runs 10 --seed 1
    PYTHONPATH=src python benchmarks/coupled_per_event.py --baseline ../old
"""

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from baseline import load_baseline  # noqa: E402
from coupled_reference import run_coupled_dicts  # noqa: E402
from nbbm.engine import ReproductionLaw  # noqa: E402
from nbbm.selection import run_coupled  # noqa: E402

BASELINE = "selection.run_coupled"  # what --baseline DIR loads
FINALS = ("final_plus", "final_mid", "final_minus")


def same_path(a, b) -> bool:
    return ((a.events, a.checks) == (b.events, b.checks)
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in FINALS))


def quartiles(values) -> str:
    q = np.percentile(values, [25, 50, 75])
    return f"median {q[1]:.4g}, quartiles {q[0]:.4g}-{q[2]:.4g}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--horizon", type=float, default=4.0)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--baseline", metavar="DIR",
                    help="checkout, or its src directory, whose run_coupled "
                         "is timed against the library's")
    args = ap.parse_args()
    law = ReproductionLaw.binary()
    runners = {"new": run_coupled}
    if args.baseline:
        runners["old"] = load_baseline(args.baseline, BASELINE)
    for n in (400, 1000):
        for slack in (0, 4):
            kw = dict(horizon=args.horizon, seed=args.seed, slack=slack,
                      extra=slack)
            res = {k: run(law, n, **kw) for k, run in runners.items()}
            assert same_path(res["new"], run_coupled_dicts(law, n, **kw))
            us = {k: [] for k in runners}
            for i in range(args.runs):
                for k in sorted(runners, reverse=i % 2 == 1):
                    t = time.process_time()
                    out = runners[k](law, n, **kw)
                    us[k].append((time.process_time() - t) / out.events * 1e6)
            print(f"N = {n}, slack = extra = {slack}: "
                  f"{res['new'].events} events")
            for k, v in us.items():
                print(f"  {k} CPU µs per event: {quartiles(v)}")
            if args.baseline:
                ratio = np.array(us["new"]) / np.array(us["old"])
                print(f"  new/old per pair: "
                      f"{' '.join(f'{r:.3f}' for r in ratio)}; "
                      f"{quartiles(ratio)}; same sample path: "
                      f"{same_path(res['new'], res['old'])}")
    print(f"horizon {args.horizon:g}, seed {args.seed}, {args.runs} runs "
          f"each; equal to the dict reference at slack = extra = 0 and 4")


if __name__ == "__main__":
    main()
