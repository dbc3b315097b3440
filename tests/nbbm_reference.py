"""Reference N-BBM step lane: one replica at a time.

This is the per-replica `_nbbm_replica` that the batched step lane in
`nbbm.selection.run_nbbm` replaced, kept unchanged as the reference lane,
together with the keep-the-rightmost helper it calls.  Each replica draws
from its own stream rng_stream(seed, replica, nbbm lane) and takes
ceil(horizon / dt) full steps.  The batched lane draws from one stream for
all replicas, so the two lanes agree in law, not sample path by sample
path: per-replica statistics such as the front speed must agree within
their standard errors.
"""

from __future__ import annotations

import math

import numpy as np

from nbbm.engine import SimConfig, rng_stream, sample_offspring
from nbbm.levy import recentering
from nbbm.selection import _LANE_NBBM, NbbmResult, _initial_front, med_alpha
from nbbm.stats import StatsSeries


def _trim_rightmost(pos: np.ndarray, n_keep: int, *aligned: np.ndarray):
    """Keep the n_keep right-most entries of pos and the same entries of each
    aligned array; returns (pos, *aligned).  Ties are arbitrary, which has
    probability zero for continuous positions.
    """
    if n_keep < 1:
        raise ValueError(f"n_keep must be >= 1, got {n_keep!r}")
    if len(pos) <= n_keep:
        return (pos, *aligned)
    cut = len(pos) - n_keep
    keep = np.argpartition(pos, cut)[cut:]
    return (pos[keep], *(a[keep] for a in aligned))


def _nbbm_replica(cfg: SimConfig, horizon: float, sample_steps: int,
                  replica: int, branches: list | None):
    n_sel = cfg.n_select
    rng = rng_stream(cfg.seed, replica, _LANE_NBBM)
    pos = _initial_front(n_sel, rng)
    parent = -1 - np.arange(n_sel, dtype=np.int64)
    p_branch = -math.expm1(-cfg.law.beta0 * cfg.dt)
    n_steps = int(math.ceil(horizon / cfg.dt - 1e-9))

    times = [0.0]
    meds = {al: [med_alpha(pos, al, n_sel)] for al in cfg.alphas}
    counts = [len(pos)]
    for i in range(n_steps):
        pos = pos + rng.normal(0.0, math.sqrt(cfg.dt), len(pos))
        branching = rng.random(len(pos)) < p_branch
        if branching.any():
            ks = sample_offspring(cfg.law, int(branching.sum()), rng)
            if branches is not None:
                row = len(branches)
                branches.extend(zip([(i + 1) * cfg.dt] * len(ks),
                                    parent[branching].tolist(),
                                    pos[branching].tolist(), ks.tolist()))
                parent = np.concatenate([
                    parent[~branching],
                    np.repeat(np.arange(row, row + len(ks)), ks)])
            pos = np.concatenate([pos[~branching],
                                  np.repeat(pos[branching], ks)])
        if branches is None:
            pos, = _trim_rightmost(pos, n_sel)
        else:
            pos, parent = _trim_rightmost(pos, n_sel, parent)
        if (i + 1) % sample_steps == 0 or i == n_steps - 1:
            times.append((i + 1) * cfg.dt)
            counts.append(len(pos))
            for al in cfg.alphas:
                meds[al].append(med_alpha(pos, al, n_sel))

    columns = {"count": np.asarray(counts, dtype=float)}
    for al in cfg.alphas:
        columns[f"med_{al:g}"] = np.asarray(meds[al])
    return StatsSeries(np.asarray(times), columns, replica=replica), pos


def run_nbbm_reference(cfg: SimConfig) -> NbbmResult:
    """All cfg.replicas replicas of the reference lane, one after another,
    with the horizon and sampling defaults of `run_nbbm`."""
    cfg.validate()
    horizon = cfg.horizon if cfg.horizon is not None \
        else 20.0 * math.log(cfg.n_select) ** 3
    sample_steps = max(1, round((cfg.sample_every or horizon / 256.0)
                                / cfg.dt))
    runs = [_nbbm_replica(cfg, horizon, sample_steps, r, None)
            for r in range(cfg.replicas)]
    constants = recentering(cfg.n_select) if cfg.n_select >= 16 else None
    return NbbmResult([s for s, _ in runs], cfg.n_select, constants, horizon,
                      cfg.dt, final_positions=[p for _, p in runs])
