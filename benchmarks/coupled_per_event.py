"""CPU cost per event of the coupled three-system runner.

Runs `run_coupled` with the binary law at N = 400 and N = 1000, each with
slack = extra = 0 (the exact event-driven N-BBM) and slack = extra = 4,
and prints the CPU microseconds per event over --runs runs of each
(median and quartiles).  For one run per size it first checks that the
runner reproduces the dict reference (tests/coupled_reference.py): equal
events, checks and final positions of all three systems.

    PYTHONPATH=src python benchmarks/coupled_per_event.py \\
        --horizon 4 --runs 10 --seed 1
"""

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from coupled_reference import run_coupled_dicts  # noqa: E402
from nbbm.engine import ReproductionLaw  # noqa: E402
from nbbm.selection import run_coupled  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--horizon", type=float, default=4.0)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    law = ReproductionLaw.binary()
    for n in (400, 1000):
        kw = dict(horizon=args.horizon, seed=args.seed, slack=4, extra=4)
        res, ref = run_coupled(law, n, **kw), run_coupled_dicts(law, n, **kw)
        assert (res.events, res.checks) == (ref.events, ref.checks)
        for name in ("final_plus", "final_mid", "final_minus"):
            assert np.array_equal(getattr(res, name), getattr(ref, name)), name
        for slack in (0, 4):
            us = []
            for _ in range(args.runs):
                t = time.process_time()
                res = run_coupled(law, n, horizon=args.horizon,
                                  seed=args.seed, slack=slack, extra=slack)
                us.append((time.process_time() - t) / res.events * 1e6)
            q = np.percentile(us, [25, 50, 75])
            print(f"N = {n}, slack = extra = {slack}: {res.events} events, "
                  f"CPU us per event median {q[1]:.1f}, "
                  f"quartiles {q[0]:.1f}-{q[2]:.1f}")
    print(f"horizon {args.horizon:g}, seed {args.seed}, {args.runs} runs "
          f"each; equal to the dict reference at slack = extra = 4")


if __name__ == "__main__":
    main()
