"""Cost of one call to the segment step, a baseline step against the library.

Runs a baseline step and `ensemble.step_segments` in alternating pairs,
binary law, h = 0.05, from a fixed state:

- n = 1, 50 and 1,000 trial particles at height 3 with drift -1 and the
  origin as the only wall, as in `breakout_trials` (n = 1 is one trial);
- n = 33,600 particles from the reference profile on (0, 8), drift -mu,
  absorbed at the origin and at the upper wall 8, as in the killed ensemble
  at 32 replicas of A = 4, with one scalar span;
- n = 50 trial lineages with per-particle spans, as in the barrier runner's
  trial pool: most step through [t0, t0 + h], some were launched within the
  step (shorter spans) and some relaunched a step earlier (longer spans).
  Only the library runs this case; a baseline without per-particle spans
  skips it.

The baseline is the reference step of tests/ensemble_reference.py (one
exponential clock and one uniform per wall for every particle), or, with
--baseline DIR, the `step_segments` of the nbbm package in DIR (another
checkout, or its src directory), which measures a change to the library
step itself.  Every call steps the same state, so all calls of a size do the
same work.  Prints for each kernel the CPU µs per call and the particle-steps
per CPU second (medians and quartiles over the pairs), then the per-pair
ratio new/old of the CPU time.

    PYTHONPATH=src python benchmarks/segment_step.py --pairs 10
    PYTHONPATH=src python benchmarks/segment_step.py --baseline ../old
"""

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from baseline import load_baseline  # noqa: E402
from nbbm.engine import ReproductionLaw, rng_stream  # noqa: E402
from nbbm.ensemble import hperp_flat, step_segments  # noqa: E402
from nbbm.kernels import IntervalParams  # noqa: E402

H = 0.05
TRIAL_SIZES = (1, 50, 1000)
KILLED_A, KILLED_WIDTH, KILLED_REPLICAS = 4.0, 8.0, 32
POOL_SIZE = 50
BASELINE = "ensemble.step_segments"  # what --baseline DIR loads
# calls per timed sample, so each sample runs for at least a few ms
CALLS = {1: 2000, 50: 1000, 1000: 200}


def cases():
    """(label, n, keyword arguments of the step) for each size."""
    for n in TRIAL_SIZES:
        yield (f"trials, n = {n}", n,
               dict(pos=np.full(n, 3.0), tag=np.arange(n, dtype=np.int64),
                    drift=-1.0, upper=None, t0=0.0, h=H))
    iv = IntervalParams(KILLED_WIDTH)
    pos, rep = hperp_flat(KILLED_A, iv, KILLED_REPLICAS, rng_stream(0, 0, 0))
    yield (f"killed, n = {len(pos)}, upper wall", len(pos),
           dict(pos=pos, tag=rep, drift=-iv.mu, upper=KILLED_WIDTH, t0=0.0,
                h=H))
    # 40 lineages at the step start, 6 launched within the step and 4
    # relaunched at the previous step's end, at heights 0.5 to 3
    rng = rng_stream(0, 1, 0)
    t0 = np.concatenate((np.full(40, 1.0), 1.0 + H * rng.random(6),
                         np.full(4, 1.0 - H)))
    yield (f"pool, n = {POOL_SIZE}, per-particle spans", POOL_SIZE,
           dict(pos=rng.uniform(0.5, 3.0, POOL_SIZE),
                tag=np.arange(POOL_SIZE, dtype=np.int64), drift=-1.0,
                upper=None, t0=t0, h=1.0 + H - t0))


def quartiles(values) -> str:
    q = np.percentile(values, [25, 50, 75])
    return f"median {q[1]:.4g}, quartiles {q[0]:.4g}-{q[2]:.4g}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--baseline", metavar="DIR",
                    help="checkout, or its src directory, whose nbbm step "
                         "is the baseline (default: "
                         "tests/ensemble_reference.py)")
    args = ap.parse_args()
    law = ReproductionLaw.binary()
    if args.baseline:
        old = load_baseline(args.baseline, BASELINE)
    else:
        import ensemble_reference
        old = ensemble_reference.step_segments
    for label, n, kw in cases():
        kernels = {"old": old, "new": step_segments}
        if isinstance(kw["h"], np.ndarray):
            del kernels["old"]  # the baseline steps one scalar span
        calls = CALLS.get(n, 20)
        rngs = {k: rng_stream(args.seed, i, 0) for i, k in enumerate(kernels)}
        us = {k: [] for k in kernels}
        for i in range(args.pairs):
            for k in sorted(kernels, reverse=i % 2 == 1):
                step, rng = kernels[k], rngs[k]
                t = time.process_time()
                for _ in range(calls):
                    step(kw["pos"], kw["tag"], t0=kw["t0"], h=kw["h"],
                         drift=kw["drift"], law=law, rng=rng,
                         upper=kw["upper"])
                us[k].append((time.process_time() - t) / calls * 1e6)
        print(f"{label}, {calls} calls per sample, {args.pairs} pairs:")
        for k, v in us.items():
            rate = n / (np.array(v) * 1e-6)
            print(f"  {k} CPU µs per call: {quartiles(v)}; particle-steps/s: "
                  f"{quartiles(rate)}")
        if len(us) == 2:
            ratio = np.array(us["new"]) / np.array(us["old"])
            print(f"  new/old per pair: {quartiles(ratio)}, new slower in "
                  f"{int((ratio > 1).sum())} of {args.pairs}")


if __name__ == "__main__":
    main()
