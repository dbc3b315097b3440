"""Span tracing from outside the program, for the per-layer benchmark run.

`Tracer.install` wraps the public nbbm functions named in `COVERAGE` at
every module attribute that holds them, so callers that imported a function
by name (`selection` imports `breakout_trials`, `cli` imports the runners)
call the wrapper too.  Each call records a span (name, start, end, parent
span) in memory; `write_spans` writes them out when the run ends.  Self time
is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

from workloads import BARRIER, BARRIER_COUNTERS, COUPLED, FRONT, KILLED

ALL = frozenset((FRONT, BARRIER, COUPLED, KILLED))

# Every wrapped function, with the workloads that must call it.  On every
# other workload it must record no call: that is the trace-coverage
# self-check, so a call site that moves cannot leave a dead wrapper behind.
COVERAGE = {
    "cli.main": {FRONT, BARRIER, COUPLED},
    "cli.parse_config": {FRONT, BARRIER, KILLED},
    "levy.recentering": {FRONT, COUPLED},
    "kernels.sine_exp_density": ALL,
    "selection.run_nbbm": {FRONT},
    "selection.med_alpha": {FRONT, BARRIER},
    "selection.run_bbbm": {BARRIER},
    "ensemble.breakout_trials": {BARRIER},
    "kernels.barrier_f": {BARRIER},
    "selection.run_coupled": {COUPLED},
    "ensemble.killed_ensemble": {KILLED},
    "ensemble.hperp_flat": {BARRIER, KILLED},
    "engine.sample_offspring": ALL,
    "kernels.w_Z": {BARRIER, KILLED},
    "kernels.w_Y": {BARRIER, KILLED},
    "runio.write_series_csv": {FRONT, BARRIER, KILLED},
    "runio.save_population": {FRONT},
    "runio.read_series_csv": {FRONT},
    "stats.speed_estimate": {FRONT},
    "stats.oracle_Z": {KILLED},
}


def _trials(args, kwargs, result) -> dict:
    return {"trials": int(kwargs["n_trials"])}


def _bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _events(args, kwargs, result) -> dict:
    return {"events": result.events, "checks": result.checks}


# Exact work counts taken from a wrapped call's arguments or result.
_EXTRA = {
    "ensemble.breakout_trials": _trials,
    "runio.write_series_csv": _bytes,
    "runio.save_population": _bytes,
    "selection.run_coupled": _events,
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of the traced run, with its unit."""
    units = {}
    for name in COVERAGE:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "ensemble.breakout_trials.trials": "count",
        "runio.write_series_csv.bytes": "bytes",
        "runio.save_population.bytes": "bytes",
        "selection.run_coupled.events": "count",
        "selection.run_coupled.checks": "count",
        "selection.run_coupled.us_per_event": "us",
    })
    for k in BARRIER_COUNTERS:
        units[f"selection.barrier.{k}"] = "count"
    units["selection.barrier.installed_per_breakout"] = "ratio"
    units["work.particle_steps"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Wraps nbbm's public functions and keeps their spans in memory."""

    def __init__(self) -> None:
        # (name, start, end, index of the parent span or -1)
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.extra: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self._stack, self.extra
        post = _EXTRA.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if post is not None:
                for key, val in post(args, kwargs, result).items():
                    extra[f"{name}.{key}"] += val
            return result

        return wrapper

    def install(self) -> None:
        import nbbm.cli  # noqa: F401  loads every module that holds a name

        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("nbbm.")]
        for name in COVERAGE:
            mod, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"nbbm.{mod}"], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patched.append((m, key, val))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, val in reversed(self._patched):
            setattr(m, key, val)
        self._patched.clear()

    def summary(self) -> dict[str, float]:
        """calls, total time and self time per wrapped name, plus extras."""
        out: dict[str, float] = {}
        for name in COVERAGE:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, t0, t1, _), covered in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - covered
        out.update(self.extra)
        return out

    def write_spans(self, path, origin: float) -> None:
        """CSV of every span, times in seconds from `origin`."""
        with open(path, "w") as f:
            f.write("span,name,start_s,end_s,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{t0 - origin:.9f},{t1 - origin:.9f},"
                        f"{parent}\n")
