"""The benchmark's workloads: inputs from a seed, timed body, output checks.

Each workload has three parts:

- `config(seed)` returns the INI run description for a seed, or None when
  the workload takes no config file;
- `body(ctx)` is the timed region: the first runner call up to the last
  output written;
- `verify(ctx)` reads the run's own outputs back, raises `CheckFailed` when
  one is wrong, and returns the exact work counters.

Bodies reach nbbm through module attributes (`cli.main`, `ensemble.hperp_flat`,
...) at call time, so the traced run's wrappers see every call.  Nothing here
imports nbbm at module level: the parent process imports this file for the
config text without paying for numpy and scipy.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FRONT = "nbbm-front"
BARRIER = "barrier-breakout"
COUPLED = "coupled-triple"
KILLED = "killed-ensemble"


class CheckFailed(Exception):
    """An output of the run is missing or wrong."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Context:
    """What a body and its check see: output dir, config file, parsed config
    and seed."""

    out: Path
    config: Path | None
    cfg: object | None
    seed: int


@dataclass(frozen=True)
class Workload:
    config: Callable[[int], str | None]
    body: Callable[[Context], None]
    verify: Callable[[Context], dict]
    # the counter from verify that throughput is quoted in
    work: str = "particle_steps"


def read_series(path: Path) -> dict[int, dict[str, list[float]]]:
    """series.csv as {replica: {column: values}}, parsed independently of
    nbbm.runio so the check does not trust the reader it would test."""
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    _check(header[:2] == ["replica", "t"], f"{path.name}: bad header {header}")
    out: dict[int, dict[str, list[float]]] = {}
    for r in body:
        cols = out.setdefault(int(r[0]), {k: [] for k in header[1:]})
        for k, v in zip(header[1:], r[1:]):
            cols[k].append(float(v))
    return out


def particle_steps(series: dict[int, dict[str, list[float]]],
                   dt: float) -> int:
    """Particle-steps from the count series: each sampled count times the
    steps since the previous sample, summed over samples and replicas."""
    total = 0
    for cols in series.values():
        steps = [round(t / dt) for t in cols["t"]]
        for j in range(1, len(steps)):
            total += int(cols["count"][j]) * (steps[j] - steps[j - 1])
    return total


def _finite(series: dict[int, dict[str, list[float]]], columns) -> bool:
    return all(math.isfinite(v) for cols in series.values()
               for k in columns for v in cols[k])


# ---------------------------------------------------------------------------
# nbbm-front: the user's "time to a speed estimate" path (ROADMAP item 2,
# and item 4's replica batching).  simulate --mode nbbm with a checkpoint,
# then report --series.  Exercises the step lane, med_alpha and runio; never
# reaches the segment kernel, the trials or the coupling.

FRONT_N = 1000
FRONT_DT = 0.1
FRONT_REPLICAS = 4
FRONT_HORIZON = 200.0
# ROADMAP item 2: step-lane speed at N = 1000, dt = 0.1, with its error bar.
FRONT_SPEED = 0.929
FRONT_SPEED_SE = 0.002
# Two-sided 99.9% Student-t quantile at FRONT_REPLICAS - 1 = 3 degrees of
# freedom: the report's standard error comes from only four slopes.
FRONT_T999 = 12.924


def _front_config(seed: int) -> str:
    return (f"[law]\nq2 = 1.0\n\n[selection]\nN = {FRONT_N}\n\n"
            f"[run]\nmode = nbbm\ndt = {FRONT_DT}\nhorizon = {FRONT_HORIZON}\n"
            f"replicas = {FRONT_REPLICAS}\nseed = {seed}\nthreads = 1\n")


def _front_body(ctx: Context) -> None:
    from nbbm import cli

    rc = cli.main(["simulate", "--config", str(ctx.config),
                   "--out", str(ctx.out), "--checkpoint"])
    _check(rc == 0, f"simulate exited {rc}")
    rc = cli.main(["report", "--series", str(ctx.out / "series.csv"),
                   "--out", str(ctx.out)])
    _check(rc == 0, f"report exited {rc}")


def _front_verify(ctx: Context) -> dict:
    verdicts = json.loads((ctx.out / "verdicts.json").read_text())["verdicts"]
    speed = [v for v in verdicts if v["name"] == "speed_med_0.5"]
    _check(len(speed) == 1 and speed[0]["verdict"] == "info",
           f"no speed estimate in verdicts.json: {verdicts}")
    slope, se = speed[0]["slope"], speed[0]["stderr"]
    tol = FRONT_T999 * math.hypot(se, FRONT_SPEED_SE)
    _check(abs(slope - FRONT_SPEED) <= tol,
           f"speed {slope:.4f} +- {se:.4f} is more than {tol:.4f} "
           f"from {FRONT_SPEED}")
    _check((ctx.out / "final.ckpt").is_file(), "no checkpoint written")
    series = read_series(ctx.out / "series.csv")
    _check(len(series) == FRONT_REPLICAS, f"{len(series)} replicas in series")
    return {"particle_steps": particle_steps(series, FRONT_DT),
            "speed_slope": slope, "speed_stderr": se}


# ---------------------------------------------------------------------------
# barrier-breakout: simulate --mode bbbm in the ROADMAP item-3 geometry, for
# items 1 and 3.  Time goes to the Python bookkeeping of _barrier_run and to
# one breakout_trials call per wall hit.  Work depends on the sample path
# and its spread across paths grows with the horizon (per-replica
# particle-steps vary by about 13% at T = 10 and 26% at T = 30), so the run
# is short and wide: 24 replicas to T = 10 keep the total work within a few
# percent between seeds, with 20 to 40 wall hits, and every replica far
# below the 200k population cap.

BARRIER_A_WIDTH = 8.0
BARRIER_A = 3.0
BARRIER_DT = 0.05
BARRIER_HORIZON = 10.0
BARRIER_REPLICAS = 24
# the default [selection] alphas
BARRIER_ALPHA = 0.5
_RUNINFO_COUNTERS = ("wall_hits", "trials_run", "suppressed_breakouts",
                     "reinjected", "depth_capped", "clamped_responses")
# breakouts = installed + suppressed: the base of installed-per-breakout.
BARRIER_COUNTERS = _RUNINFO_COUNTERS + ("installed", "breakouts")


def _barrier_config(seed: int) -> str:
    return (f"[law]\nq2 = 1.0\n\n[interval]\na = {BARRIER_A_WIDTH}\n\n"
            f"[bbbm]\nA = {BARRIER_A}\nepsilon = 0.01\ny = 3.0\nzeta = 6.0\n\n"
            f"[run]\nmode = bbbm\ndt = {BARRIER_DT}\n"
            f"horizon = {BARRIER_HORIZON}\nreplicas = {BARRIER_REPLICAS}\n"
            f"seed = {seed}\nthreads = 1\n")


def _barrier_body(ctx: Context) -> None:
    from nbbm import cli

    rc = cli.main(["simulate", "--config", str(ctx.config),
                   "--out", str(ctx.out)])
    _check(rc == 0, f"simulate exited {rc}")


def _barrier_verify(ctx: Context) -> dict:
    from nbbm.engine import hperp_count
    from nbbm.kernels import IntervalParams

    rows = json.loads((ctx.out / "runinfo.json").read_text())["barrier"]
    _check(len(rows) == BARRIER_REPLICAS, f"{len(rows)} replicas in runinfo")
    for row in rows:
        _check(row["trials_run"] == row["wall_hits"],
               f"replica {row['replica']}: {row['trials_run']} trials for "
               f"{row['wall_hits']} wall hits")
    series = read_series(ctx.out / "series.csv")
    med = f"med_{BARRIER_ALPHA:g}"
    plain = [k for k in next(iter(series.values())) if k != med]
    _check(_finite(series, plain), "non-finite value in a series column")
    # med_alpha is -inf by definition while fewer than ceil(alpha n_med)
    # particles are alive, which happens after a barrier rise; it must be
    # finite at every other sample.
    need = math.ceil(BARRIER_ALPHA * hperp_count(
        BARRIER_A, IntervalParams(BARRIER_A_WIDTH)))
    for r, cols in series.items():
        for c, m in zip(cols["count"], cols[med]):
            _check(math.isfinite(m) if c >= need else m == -math.inf,
                   f"replica {r}: {med} = {m} at count {c:g}")
    counters = {k: sum(row[k] for row in rows) for k in _RUNINFO_COUNTERS}
    counters["installed"] = sum(len(row["pieces"]) for row in rows)
    counters["breakouts"] = (counters["installed"]
                             + counters["suppressed_breakouts"])
    counters["particle_steps"] = particle_steps(series, BARRIER_DT)
    return counters


# ---------------------------------------------------------------------------
# coupled-triple: nbbm couple, the exact event-driven N-BBM selection layer
# (ROADMAP item 2's reference lane).  Pure per-event dict work: branching
# cascade, three kill rules, re-pairing scans and the O(N log N) invariant
# check on every event, no arrays.  The horizon gives about 2000 events.

COUPLED_N = 400
COUPLED_HORIZON = 10.0


def _coupled_body(ctx: Context) -> None:
    from nbbm import cli

    rc = cli.main(["couple", "--n", str(COUPLED_N), "--slack", "4",
                   "--extra", "4", "--horizon", str(COUPLED_HORIZON),
                   "--seed", str(ctx.seed), "--out", str(ctx.out)])
    _check(rc == 0, f"couple exited {rc}")


def _coupled_verify(ctx: Context) -> dict:
    rows = json.loads((ctx.out / "runinfo.json").read_text())["coupled"]
    _check(len(rows) == 1, f"{len(rows)} replicas in runinfo")
    _check(all(r["dominance_verified"] for r in rows),
           "dominance not verified")
    return {"events": sum(r["events"] for r in rows),
            "checks": sum(r["checks"] for r in rows)}


# ---------------------------------------------------------------------------
# killed-ensemble: ensemble.killed_ensemble called directly (no CLI mode
# exists), then stats.oracle_Z, for item 1.  The segment step at full width:
# 32 replicas of about 1050 particles, so numpy throughput counts and Python
# overhead does not.  oracle_Z refuses fewer than 30 replicas.

KILLED_A_WIDTH = 8.0
KILLED_A = 4.0
KILLED_DT = 0.05
KILLED_HORIZON = 20.0
KILLED_REPLICAS = 32
KILLED_RECORD_EVERY = 1.0
# rng_stream lane for the direct call; the library's runners use lanes 1-5.
KILLED_LANE = 0


def _killed_config(seed: int) -> str:
    return (f"[law]\nq2 = 1.0\n\n[interval]\na = {KILLED_A_WIDTH}\n\n"
            f"[bbbm]\nA = {KILLED_A}\n\n"
            f"[run]\ndt = {KILLED_DT}\nhorizon = {KILLED_HORIZON}\n"
            f"sample_every = {KILLED_RECORD_EVERY}\n"
            f"replicas = {KILLED_REPLICAS}\nseed = {seed}\nthreads = 1\n")


def _killed_body(ctx: Context) -> None:
    import numpy as np

    from nbbm import engine, ensemble, runio, stats

    cfg = ctx.cfg
    iv = cfg.interval
    rng = engine.rng_stream(cfg.seed, 0, KILLED_LANE)
    pos0, rep0 = ensemble.hperp_flat(cfg.A, iv, cfg.replicas, rng)
    n_rec = round(cfg.horizon / cfg.sample_every)
    record = np.arange(n_rec + 1) * cfg.sample_every
    res = ensemble.killed_ensemble(
        cfg.law, iv, drift_rate=-iv.mu, replicas=cfg.replicas, dt=cfg.dt,
        record_times=record, rng=rng, positions0=pos0, replica0=rep0)
    report = stats.oracle_Z(res.Z[0], res.Z[-1])
    series = [stats.StatsSeries(record, {
        "count": res.count[:, r].astype(float), "Z": res.Z[:, r],
        "Y": res.Y[:, r], "R_cum": res.r_cum[:, r]}, replica=r)
        for r in range(cfg.replicas)]
    ident = {"workload": KILLED, "seed": cfg.seed, "a": iv.a, "A": cfg.A,
             "dt": cfg.dt, "horizon": cfg.horizon,
             "replicas": cfg.replicas, "lane": KILLED_LANE}
    runio.write_series_csv(ctx.out / "series.csv", series,
                           runio.canonical_hash(ident))
    verdict = {"name": "martingale_Z",
               "verdict": "pass" if report.passed else "fail",
               "line": report.line()}
    (ctx.out / "verdicts.json").write_text(
        json.dumps({"verdicts": [verdict]}, indent=2, sort_keys=True) + "\n")


def _killed_verify(ctx: Context) -> dict:
    verdicts = json.loads((ctx.out / "verdicts.json").read_text())["verdicts"]
    _check(verdicts[0]["verdict"] == "pass", verdicts[0]["line"])
    series = read_series(ctx.out / "series.csv")
    _check(len(series) == KILLED_REPLICAS, f"{len(series)} replicas in series")
    _check(_finite(series, ("count", "Z", "Y", "R_cum")),
           "non-finite value in a series column")
    return {"particle_steps": particle_steps(series, KILLED_DT)}


WORKLOADS = {
    FRONT: Workload(_front_config, _front_body, _front_verify),
    BARRIER: Workload(_barrier_config, _barrier_body, _barrier_verify),
    COUPLED: Workload(lambda seed: None, _coupled_body, _coupled_verify,
                      work="events"),
    KILLED: Workload(_killed_config, _killed_body, _killed_verify),
}
