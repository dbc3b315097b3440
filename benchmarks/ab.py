"""CPU cost of one layer of nbbm, alone or against another checkout's.

    PYTHONPATH=src python benchmarks/ab.py LAYER [--baseline DIR] [--pairs P]
        [--seed S]

LAYER is one of the cases tables below, each at fixed sizes, binary law
unless a case names another:

- segment: `ensemble.step_segments`, h = 0.05, on fixed states: n = 1, 50
  and 1,000 trial particles at height 3 with drift -1 and the origin as
  the only wall, as in `breakout_trials`; the 33,600 particles of the
  killed ensemble at 32 replicas of A = 4 on (0, 8), drift -mu, absorbed at
  both walls; 50 trial lineages with per-particle spans, as in the barrier
  runner's trial pool (40 step through [t0, t0 + h], 6 were launched
  within the step, 4 relaunched a step earlier).  Every call steps the
  same state.
- coupled: `selection.run_coupled`, N = 400 and 1000, each with
  slack = extra = 0 (the exact event-driven N-BBM) and 4, horizon 4; and
  N = 400, slack = extra = 4 under the law q = (0.2, 0, 0.5, 0.3) of the
  tests' `mixed_law`, whose deaths (k = 0) and three-child families make
  culls kill several particles in one event.
- barrier: `selection.run_bbbm` in the perfbench barrier-breakout geometry
  (a = 8, A = 3, epsilon = 0.01, y = 3, zeta = 6, dt = 0.05, 24 replicas,
  T = 10), and `selection.run_bflat` in tests/test_selection.py's
  REFERENCE_CASES kw4 geometry (a = 5, A = 0.5, epsilon = 1e-6, y = 2,
  zeta = 6, delta_color = 0.005, dt = 0.05, T = 60) at 4 replicas, and
  `selection.run_bsharp` in the kw5 geometry (a = 5, A = 2, epsilon = 1e9,
  y = 2, zeta = 6, delta_color = 0.005, no breakout at zeta, dt = 0.05,
  T = 12) at 4 replicas, whose origin hits make blues and whose trials
  carry two payload columns.  No blue expires before T = 12: at desk scale
  the first expiry is two cells of the sharp grid away (see run_bsharp).
- nbbm: `selection.run_nbbm`, dt = 0.1, T = 200, at (N, replicas) =
  (1000, 1), (1000, 4), (1000, 8) and (100, 32), and at (1000, 4) with one
  record at the horizon, where only the lane's branching budget bounds a
  block of steps.  Since 0.14.0 the lane draws a block's branchings before
  its steps' normals, so against a 0.13.0 or older baseline its results
  are no longer identical; they agree in law.

With --baseline DIR (another checkout, or its src directory) the same
function of the nbbm package in DIR runs in alternating pairs with the
library's, each side on arguments built from its own package's classes and
on the same seed.  Prints per case the CPU µs per work unit and the units
per CPU second (medians and quartiles over the samples), then each pair's
ratio new/old of the CPU time, the pairs in which new was faster, and
whether the two results were identical, entry for entry, in every pair.
"""

import argparse
import importlib
import importlib.util
import pathlib
import sys
import time

import numpy as np

from nbbm.engine import rng_stream
from nbbm.ensemble import hperp_flat
from nbbm.kernels import IntervalParams

H = 0.05


def load(name: str, src: str | None = None):
    """The function `name` (`module.function`) of the library, or of the
    nbbm package in src, a directory that holds `nbbm/` or `src/nbbm/`.

    That package is imported under the name `nbbm_baseline`, so that it
    does not replace the nbbm package under test.
    """
    module, func = name.rsplit(".", 1)
    if src is None:
        return getattr(importlib.import_module(f"nbbm.{module}"), func)
    base = pathlib.Path(src).resolve()
    root = next((r for r in (base / "nbbm", base / "src" / "nbbm")
                 if (r / "__init__.py").is_file()), None)
    if root is None:
        sys.exit(f"--baseline {src}: holds neither nbbm/ nor src/nbbm/")
    spec = importlib.util.spec_from_file_location(
        "nbbm_baseline", root / "__init__.py",
        submodule_search_locations=[str(root)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules["nbbm_baseline"] = pkg
    spec.loader.exec_module(pkg)
    return getattr(importlib.import_module(f"nbbm_baseline.{module}"), func)


def _module(fn, name: str):
    """The module `name` of the package `fn` belongs to."""
    return importlib.import_module(
        f"{fn.__module__.rpartition('.')[0]}.{name}")


def segment(step, seed: int, calls: int, **kw):
    """`calls` steps of one state on one stream; units: particle-steps."""
    law = _module(step, "engine").ReproductionLaw.binary()
    rng = rng_stream(seed, 0, 0)

    def sample():
        for _ in range(calls):
            out = step(law=law, rng=rng, **kw)
        return out, calls * len(kw["pos"])
    return sample


def coupled(run, seed: int, n: int, q=None, **kw):
    """One coupled run under the law q, binary if None; units: events."""
    law_cls = _module(run, "engine").ReproductionLaw
    law = law_cls.binary() if q is None else law_cls(q)

    def sample():
        out = run(law, n, seed=seed, **kw)
        return out, out.events
    return sample


def simulate(run, seed: int, a: float | None = None, **kw):
    """One run of a SimConfig runner; units: particle-steps, the recorded
    counts times the time since the previous record, in steps of dt."""
    eng = _module(run, "engine")
    interval = None if a is None else _module(run, "kernels").IntervalParams(a)
    cfg = eng.SimConfig(eng.ReproductionLaw.binary(), interval=interval,
                        seed=seed, **kw)

    def sample():
        out = run(cfg)
        series = out.series if hasattr(out, "series") else \
            [r.series for r in out]
        return out, sum(float(np.sum(s.columns["count"][1:]
                                     * np.diff(s.times)))
                        for s in series) / cfg.dt
    return sample


def _segment_cases():
    for n, calls in ((1, 2000), (50, 1000), (1000, 200)):
        yield (f"trials, n = {n}", dict(
            calls=calls, pos=np.full(n, 3.0), tag=np.arange(n),
            drift=-1.0, upper=None, t0=0.0, h=H))
    iv = IntervalParams(8.0)
    pos, rep = hperp_flat(4.0, iv, 32, rng_stream(0, 0, 0))
    yield (f"killed, n = {len(pos)}, upper wall", dict(
        calls=20, pos=pos, tag=rep, drift=-iv.mu, upper=8.0, t0=0.0, h=H))
    rng = rng_stream(0, 1, 0)
    t0 = np.concatenate((np.full(40, 1.0), 1.0 + H * rng.random(6),
                         np.full(4, 1.0 - H)))
    yield ("pool, n = 50, per-particle spans", dict(
        calls=1000, pos=rng.uniform(0.5, 3.0, 50), tag=np.arange(50),
        drift=-1.0, upper=None, t0=t0, h=1.0 + H - t0))


# each layer: its work unit, what one sample runs, and its cases as
# (label, function, the sample's arguments)
LAYERS = {
    "segment": ("particle-step", segment, [
        (label, "ensemble.step_segments", kw)
        for label, kw in _segment_cases()]),
    "coupled": ("event", coupled, [
        (f"N = {n}, slack = extra = {s}", "selection.run_coupled",
         dict(n=n, horizon=4.0, slack=s, extra=s))
        for n in (400, 1000) for s in (0, 4)] + [
        ("N = 400, slack = extra = 4, q = (0.2, 0, 0.5, 0.3)",
         "selection.run_coupled",
         dict(n=400, q=(0.2, 0.0, 0.5, 0.3), horizon=4.0, slack=4,
              extra=4))]),
    "barrier": ("particle-step", simulate, [
        ("bbbm, 24 replicas, T = 10", "selection.run_bbbm",
         dict(a=8.0, dt=0.05, horizon=10.0, replicas=24, A=3.0,
              epsilon=0.01, y=3.0, zeta=6.0)),
        ("bflat, 4 replicas, T = 60", "selection.run_bflat",
         dict(a=5.0, dt=0.05, horizon=60.0, replicas=4, A=0.5,
              epsilon=1e-6, y=2.0, zeta=6.0, delta_color=0.005)),
        ("bsharp, 4 replicas, T = 12", "selection.run_bsharp",
         dict(a=5.0, dt=0.05, horizon=12.0, replicas=4, A=2.0,
              epsilon=1e9, y=2.0, zeta=6.0, delta_color=0.005,
              zeta_breakout=False))]),
    "nbbm": ("particle-step", simulate, [
        (f"N = {n}, {r} replicas, T = 200", "selection.run_nbbm",
         dict(n_select=n, replicas=r, dt=0.1, horizon=200.0))
        for n, r in ((1000, 1), (1000, 4), (1000, 8), (100, 32))] + [
        ("N = 1000, 4 replicas, T = 200, one record", "selection.run_nbbm",
         dict(n_select=1000, replicas=4, dt=0.1, horizon=200.0,
              sample_every=200.0))]),
}


def same(a, b) -> bool:
    """Whether two results agree entry for entry, across the classes of two
    packages: arrays by dtype, shape and value (NaN equal to NaN), lists,
    tuples and dicts item by item, other objects by their fields."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype
                and np.array_equal(a, b, equal_nan=True))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(same, a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(same(a[k], b[k]) for k in a))
    if hasattr(a, "__dict__"):
        return (type(a).__name__ == type(b).__name__
                and hasattr(b, "__dict__") and same(vars(a), vars(b)))
    return bool(a == b) or (a != a and b != b)


def quartiles(values) -> str:
    q = np.percentile(values, [25, 50, 75])
    return f"median {q[1]:.4g}, quartiles {q[0]:.4g}-{q[2]:.4g}"


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("layer", choices=LAYERS)
    ap.add_argument("--baseline", metavar="DIR",
                    help="checkout, or its src directory, whose function "
                         "runs against the library's")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    unit, make, cases = LAYERS[args.layer]
    for label, name, kw in cases:
        sides = {"new": load(name)}
        if args.baseline:
            sides["old"] = load(name, args.baseline)
        us = {k: [] for k in sides}
        identical = True
        for i in range(args.pairs):
            out = {}
            for k in sorted(sides, reverse=i % 2 == 1):
                sample = make(sides[k], args.seed, **kw)
                t = time.process_time()
                out[k], units = sample()
                us[k].append((time.process_time() - t) / units * 1e6)
            if args.baseline:
                identical &= same(out["new"], out["old"])
        print(f"{name} {label}, {args.pairs} samples:")
        for k in sides:
            print(f"  {k} CPU µs per {unit}: {quartiles(us[k])}; {unit}s "
                  f"per CPU s: {quartiles(1e6 / np.array(us[k]))}")
        if args.baseline:
            ratio = np.array(us["new"]) / np.array(us["old"])
            print(f"  new/old per pair: {' '.join(f'{r:.3f}' for r in ratio)}"
                  f"; {quartiles(ratio)}; new faster in "
                  f"{int((ratio < 1.0).sum())} of {args.pairs}; identical "
                  f"in every pair: {identical}")
    print(f"seed {args.seed}")


if __name__ == "__main__":
    main()
