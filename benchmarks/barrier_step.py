"""CPU cost of the batched barrier runner, against another checkout's.

Runs `run_bbbm` and a baseline's in alternating pairs on the perfbench
barrier-breakout geometry (a = 8, A = 3, epsilon = 0.01, y = 3, zeta = 6,
dt = 0.05, 24 replicas to T = 10), then `run_bflat` and a baseline's on
the geometry of REFERENCE_CASES kw4 in tests/test_selection.py (a = 5,
A = 0.5, epsilon = 1e-6, y = 2, zeta = 6, delta_color = 0.005, dt = 0.05,
T = 60) at 4 replicas, the first case with trials among the coloured
modes.  The baseline is the nbbm package in --baseline DIR (another
checkout, or its src directory), run on a config built from its own
classes.  For each pair it prints the ratio new/old of the CPU seconds,
and whether the two runs are identical: every series column and time,
counter, colour statistic, barrier piece and final position.  The pairs
alternate which runner goes first.

    PYTHONPATH=src python benchmarks/barrier_step.py --baseline ../old \\
        --pairs 10 --seed 1
"""

import argparse
import importlib
import time

import numpy as np

from baseline import load_baseline
from nbbm.selection import run_bbbm, run_bflat

# the library's runner of each case, and what --baseline DIR loads for it
RUNNERS = {"bbbm": run_bbbm, "bflat": run_bflat}
BASELINES = {"bbbm": "selection.run_bbbm", "bflat": "selection.run_bflat"}
CASES = {
    "bbbm": dict(a=8.0, dt=0.05, horizon=10.0, replicas=24, A=3.0,
                 epsilon=0.01, y=3.0, zeta=6.0),
    "bflat": dict(a=5.0, dt=0.05, horizon=60.0, replicas=4, A=0.5,
                  epsilon=1e-6, y=2.0, zeta=6.0, delta_color=0.005),
}
COUNTERS = ("mode", "trials_run", "suppressed_breakouts", "clamped_responses",
            "reinjected", "wall_hits", "depth_capped", "breakout_waits",
            "breakout_wait_time", "colour_stats", "pieces", "peak_count",
            "max_pop")


def config(run, seed: int, a: float, **kw):
    """The case's config, built from the classes of the runner's package."""
    mod = importlib.import_module(run.__module__)
    return mod.SimConfig(mod.ReproductionLaw.binary(),
                         interval=mod.IntervalParams(a), seed=seed, **kw)


def identical(new, old) -> bool:
    """Whether two runs' results agree bit for bit, replica by replica."""
    if len(new) != len(old):
        return False
    for x, y in zip(new, old):
        sx, sy = x.series, y.series
        if (list(sx.columns) != list(sy.columns)
                or not np.array_equal(sx.times, sy.times)
                or not all(np.array_equal(sx.columns[k], sy.columns[k],
                                          equal_nan=True) for k in sx.columns)
                or any(getattr(x, k) != getattr(y, k) for k in COUNTERS)
                # the two packages' BarrierPiece classes never compare equal
                or list(map(vars, x.path.pieces)) != list(map(vars,
                                                            y.path.pieces))
                or not np.array_equal(x.final_positions, y.final_positions)):
            return False
    return True


def quartiles(values) -> str:
    q = np.percentile(values, [25, 50, 75])
    return f"median {q[1]:.4g}, quartiles {q[0]:.4g}-{q[2]:.4g}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", metavar="DIR", required=True,
                    help="checkout, or its src directory, whose barrier "
                         "runners are timed against the library's")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    for mode, kw in CASES.items():
        pair = {"new": RUNNERS[mode],
                "old": load_baseline(args.baseline, BASELINES[mode])}
        cfgs = {k: config(run, args.seed, **kw) for k, run in pair.items()}
        ratios, same = [], True
        print(f"run_{mode}, {kw['replicas']} replicas to T = "
              f"{kw['horizon']:g}:")
        for i in range(args.pairs):
            cpu, res = {}, {}
            for k in sorted(pair, reverse=i % 2 == 1):
                t = time.process_time()
                res[k] = pair[k](cfgs[k])
                cpu[k] = time.process_time() - t
            ratios.append(cpu["new"] / cpu["old"])
            ok = identical(res["new"], res["old"])
            same &= ok
            print(f"  pair {i + 1}: new {cpu['new']:.3f} s, old "
                  f"{cpu['old']:.3f} s, new/old {ratios[-1]:.3f}, "
                  f"identical: {ok}")
        faster = sum(r < 1.0 for r in ratios)
        print(f"  new/old: {quartiles(ratios)}; faster in {faster} of "
              f"{args.pairs}; identical in every pair: {same}")
    print(f"seed {args.seed}, {args.pairs} alternating pairs per case")


if __name__ == "__main__":
    main()
