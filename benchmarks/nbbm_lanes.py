"""Cost of the batched N-BBM step lane against the one-replica-at-a-time one.

Runs the reference lane (tests/nbbm_reference.py) and `run_nbbm` in
alternating pairs, binary law, dt = 0.1, at (N, replicas) = (1000, 1),
(1000, 4) and (100, 32), and prints for each lane the CPU seconds per run
and the particle-steps per CPU second (medians and quartiles), then the
per-pair ratio new/old of the CPU seconds.  The two lanes draw from
different streams, so their outputs agree in law only; each line also
gives both lanes' mean final med_0.5 over replicas as a sanity check.

    PYTHONPATH=src python benchmarks/nbbm_lanes.py --horizon 200 --pairs 10
"""

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from nbbm.engine import ReproductionLaw, SimConfig  # noqa: E402
from nbbm.selection import run_nbbm  # noqa: E402
from nbbm_reference import run_nbbm_reference  # noqa: E402

SHAPES = ((1000, 1), (1000, 4), (100, 32))
DT = 0.1


def particle_steps(res) -> float:
    """Sampled count times the time since the previous sample, summed and
    counted in steps of DT."""
    return sum(float(np.sum(s.columns["count"][1:] * np.diff(s.times)))
               for s in res.series) / DT


def quartiles(values) -> str:
    q = np.percentile(values, [25, 50, 75])
    return f"median {q[1]:.4g}, quartiles {q[0]:.4g}-{q[2]:.4g}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--horizon", type=float, default=200.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for n, replicas in SHAPES:
        cfg = SimConfig(ReproductionLaw.binary(), dt=DT, horizon=args.horizon,
                        replicas=replicas, seed=args.seed, n_select=n)
        runs = {"old": run_nbbm_reference, "new": run_nbbm}
        cpu = {k: [] for k in runs}
        out = {}
        for i in range(args.pairs):
            for k in (("old", "new") if i % 2 == 0 else ("new", "old")):
                t = time.process_time()
                out[k] = runs[k](cfg)
                cpu[k].append(time.process_time() - t)
        print(f"N = {n}, {replicas} replicas, T = {args.horizon:g}: final "
              f"med_0.5 old {out['old'].med_matrix(0.5)[:, -1].mean():.2f}, "
              f"new {out['new'].med_matrix(0.5)[:, -1].mean():.2f}")
        for k, v in cpu.items():
            rate = particle_steps(out[k]) / np.array(v)
            print(f"  {k} CPU s per run: {quartiles(v)}; particle-steps/s: "
                  f"{quartiles(rate)}")
        ratio = np.array(cpu["new"]) / np.array(cpu["old"])
        print(f"  new/old per pair: {quartiles(ratio)}, new slower in "
              f"{int((ratio > 1).sum())} of {args.pairs}")


if __name__ == "__main__":
    main()
