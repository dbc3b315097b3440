"""Cost of the batched barrier runner at one replica, against the old one.

Runs the per-replica reference runner (tests/barrier_reference.py) and
`run_bbbm` in alternating pairs on the ROADMAP item-3 geometry (a = 8,
A = 3, y = 3, zeta = 6, epsilon = 0.01, dt = 0.05) at one replica, and
prints the CPU seconds per run and the per-pair ratio new/old (median and
quartiles).  The batched runner draws a step's trials as one batch, so the
two sample paths part at the first step with two trials; each run is
checked for its own invariants (one trial per wall hit, a last count equal
to the final population) and both sides' wall hits are printed.

    PYTHONPATH=src python benchmarks/barrier_one_replica.py \\
        --horizon 100 --pairs 30 --seed 0
"""

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from barrier_reference import _barrier_run  # noqa: E402
from nbbm.engine import ReproductionLaw, SimConfig  # noqa: E402
from nbbm.kernels import IntervalParams  # noqa: E402
from nbbm.selection import run_bbbm  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--horizon", type=float, default=100.0)
    ap.add_argument("--pairs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    cfg = SimConfig(ReproductionLaw.binary(), interval=IntervalParams(8.0),
                    dt=0.05, horizon=args.horizon, seed=args.seed, A=3.0,
                    epsilon=0.01, y=3.0, zeta=6.0)
    runs = {"old": lambda: _barrier_run(cfg, "bbbm", 0),
            "new": lambda: run_bbbm(cfg)[0]}
    cpu = {k: [] for k in runs}
    out = {}
    for i in range(args.pairs):
        for k in (("old", "new") if i % 2 == 0 else ("new", "old")):
            t = time.process_time()
            out[k] = runs[k]()
            cpu[k].append(time.process_time() - t)
    print(f"T = {args.horizon:g}, seed {args.seed}:")
    for k, res in out.items():
        assert res.trials_run == res.wall_hits, k
        assert res.series.columns["count"][-1] == len(res.final_positions), k
        print(f"{k}: {res.wall_hits} wall hits, {len(res.final_positions)} "
              f"particles at the end")
    quart = [25, 50, 75]
    for k, v in cpu.items():
        q = np.percentile(v, quart)
        print(f"{k} CPU s per run: median {q[1]:.3f}, "
              f"quartiles {q[0]:.3f}-{q[2]:.3f}")
    ratio = np.array(cpu["new"]) / np.array(cpu["old"])
    q = np.percentile(ratio, quart)
    print(f"new/old per pair: median {q[1]:.3f}, quartiles "
          f"{q[0]:.3f}-{q[2]:.3f}, new slower in {int((ratio > 1).sum())} "
          f"of {args.pairs}")


if __name__ == "__main__":
    main()
