"""Reference flat-array lanes: the killed ensemble and batched fugitive
trials as they stood before the segment step moved into one kernel.

`killed_ensemble` and `breakout_trials` here are the loops that
`nbbm.ensemble.step_segments` replaced, kept unchanged as the reference:
on the same generator the library functions must return the same arrays,
bit for bit, in every output field.
"""

from __future__ import annotations

import math

import numpy as np

from nbbm.engine import CapacityError, ReproductionLaw, sample_offspring
from nbbm.ensemble import KilledEnsembleResult, TrialBatch
from nbbm.kernels import IntervalParams, w_Y, w_Z


def _record_steps(record_times, dt: float) -> tuple[np.ndarray, list[int]]:
    rec = np.asarray(record_times, dtype=float)
    if rec.ndim != 1 or len(rec) == 0:
        raise ValueError("record_times must be a nonempty 1-d sequence")
    if np.any(rec < 0.0) or np.any(np.diff(rec) <= 0.0):
        raise ValueError("record_times must be nonnegative and strictly increasing")
    steps = []
    for t in rec:
        k = int(round(t / dt))
        if abs(t - k * dt) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(
                f"record time {t!r} is not a multiple of dt = {dt!r}")
        steps.append(k)
    return rec, steps



def killed_ensemble(law: ReproductionLaw, iv: IntervalParams, *,
                    drift_rate: float, replicas: int, dt: float,
                    record_times, rng: np.random.Generator,
                    positions0: np.ndarray, replica0: np.ndarray,
                    max_segments: int = 20_000_000_000) -> KilledEnsembleResult:
    """Branching diffusion on (0, a), absorbed at both walls, per replica.

    Resolution of a segment whose bridge test fires for both walls favours
    the lower one; such double hits have probability of order
    exp(-2 a^2 / dt) and are irrelevant at any sane step size.
    """
    rec, rec_steps = _record_steps(record_times, dt)
    a = iv.a
    pos = np.asarray(positions0, dtype=float).copy()
    rep = np.asarray(replica0, dtype=np.int64).copy()
    if pos.shape != rep.shape or pos.ndim != 1:
        raise ValueError("positions0 and replica0 must be matching 1-d arrays")
    if len(pos) and (pos.min() <= 0.0 or pos.max() >= a):
        raise ValueError("initial positions must lie strictly inside (0, a)")
    if len(rep) and (rep.min() < 0 or rep.max() >= replicas):
        raise ValueError("replica ids must lie in [0, replicas)")

    n_rec = len(rec)
    Z = np.zeros((n_rec, replicas))
    Y = np.zeros((n_rec, replicas))
    count = np.zeros((n_rec, replicas), dtype=np.int64)
    r_cum = np.zeros((n_rec, replicas))
    r_acc = np.zeros(replicas)

    def snapshot(row: int) -> None:
        if len(pos):
            Z[row] = np.bincount(rep, weights=w_Z(pos, iv), minlength=replicas)
            Y[row] = np.bincount(rep, weights=w_Y(pos, iv), minlength=replicas)
            count[row] = np.bincount(rep, minlength=replicas)
        r_cum[row] = r_acc

    row = 0
    if rec_steps[0] == 0:
        snapshot(0)
        row = 1

    scale = 1.0 / law.beta0
    segments = 0
    for step in range(1, rec_steps[-1] + 1):
        work_pos, work_rep = pos, rep
        work_rem = np.full(len(pos), dt)
        out_pos, out_rep = [], []
        while len(work_pos):
            n = len(work_pos)
            segments += n
            if segments > max_segments:
                raise CapacityError(
                    f"segment budget {max_segments} exhausted at step {step}")
            tb = rng.exponential(scale, n)
            seg = np.minimum(tb, work_rem)
            x2 = (work_pos + drift_rate * seg
                  + rng.standard_normal(n) * np.sqrt(seg))
            # exponent >= 0 exactly when the endpoints straddle the wall,
            # so the min folds the sure-hit case into the same expression
            p_lo = np.exp(np.minimum(-2.0 * work_pos * x2 / seg, 0.0))
            p_hi = np.exp(np.minimum(
                -2.0 * (a - work_pos) * (a - x2) / seg, 0.0))
            dead_lo = rng.random(n) < p_lo
            dead_hi = ~dead_lo & (rng.random(n) < p_hi)
            if dead_hi.any():
                r_acc += np.bincount(work_rep[dead_hi], minlength=replicas)
            alive = ~(dead_lo | dead_hi)
            fin = alive & (tb >= work_rem)
            out_pos.append(x2[fin])
            out_rep.append(work_rep[fin])
            br = alive & ~fin
            n_br = int(br.sum())
            if n_br == 0:
                break
            k = sample_offspring(law, n_br, rng)
            work_pos = np.repeat(x2[br], k)
            work_rep = np.repeat(work_rep[br], k)
            work_rem = np.repeat((work_rem - tb)[br], k)
        pos = np.concatenate(out_pos) if out_pos else np.empty(0)
        rep = (np.concatenate(out_rep) if out_rep
               else np.empty(0, dtype=np.int64))
        if row < n_rec and rec_steps[row] == step:
            snapshot(row)
            row += 1

    return KilledEnsembleResult(
        record_times=rec, Z=Z, Y=Y, count=count, r_cum=r_cum,
        final_positions=pos, final_replica=rep)



def breakout_trials(law: ReproductionLaw, iv: IntervalParams, A: float,
                    epsilon: float, y: float, zeta: float, *, n_trials: int,
                    dt: float, rng: np.random.Generator,
                    censor_weight_mult: float = 40.0,
                    censor_count: int = 20_000,
                    collect_line: bool = False,
                    zeta_breakout: bool = True,
                    max_segments: int = 2_000_000_000) -> TrialBatch:
    """Vectorized fugitive trials, all started at height y above the line.

    Works in line coordinates (drift -1, freeze at 0); the line rises at
    1 - mu in the lab frame from a - y, so a freeze at local time s maps to
    lab position a - y + (1 - mu) s.  All trials share the step clock.
    zeta_breakout = False drops the reaching-zeta clause from the breakout
    classification (weight and censor clauses stay).
    """
    if not y > 0.0 or not zeta > 0.0:
        raise ValueError("y and zeta must be > 0")
    a, mu = iv.a, iv.mu
    n_trials = int(n_trials)
    threshold = epsilon * math.exp(A)

    xi = np.full(n_trials, float(y))
    trial = np.arange(n_trials, dtype=np.int64)
    z_acc = np.zeros(n_trials)
    y_acc = np.zeros(n_trials)
    n_frozen = np.zeros(n_trials, dtype=np.int64)
    sigma = np.zeros(n_trials)
    censored = np.zeros(n_trials, dtype=bool)
    hit_zeta = np.zeros(n_trials, dtype=bool)
    fr_trial, fr_time, fr_pos = [], [], []

    scale = 1.0 / law.beta0
    segments = 0
    n_steps = int(math.ceil(zeta / dt - 1e-9))
    for step in range(n_steps):
        if not len(xi):
            break
        s0 = step * dt
        h = min(dt, zeta - s0)
        work_xi, work_trial = xi, trial
        work_rem = np.full(len(xi), h)
        out_xi, out_trial = [], []
        while len(work_xi):
            n = len(work_xi)
            segments += n
            if segments > max_segments:
                raise CapacityError(
                    f"segment budget {max_segments} exhausted at s = {s0:.6g}")
            tb = rng.exponential(scale, n)
            seg = np.minimum(tb, work_rem)
            x2 = work_xi - seg + rng.standard_normal(n) * np.sqrt(seg)
            p_hit = np.exp(np.minimum(-2.0 * work_xi * x2 / seg, 0.0))
            frozen = rng.random(n) < p_hit
            if frozen.any():
                s_hit = s0 + (h - work_rem[frozen]) + seg[frozen]
                ft = work_trial[frozen]
                lab = a - y + (1.0 - mu) * s_hit
                z_acc += np.bincount(ft, weights=w_Z(lab, iv),
                                     minlength=n_trials)
                y_acc += np.bincount(ft, weights=w_Y(lab, iv),
                                     minlength=n_trials)
                n_frozen += np.bincount(ft, minlength=n_trials)
                np.maximum.at(sigma, ft, s_hit)
                if collect_line:
                    fr_trial.append(ft.copy())
                    fr_time.append(s_hit.copy())
                    fr_pos.append(lab.copy())
            alive = ~frozen
            fin = alive & (tb >= work_rem)
            out_xi.append(x2[fin])
            out_trial.append(work_trial[fin])
            br = alive & ~fin
            n_br = int(br.sum())
            if n_br == 0:
                break
            k = sample_offspring(law, n_br, rng)
            work_xi = np.repeat(x2[br], k)
            work_trial = np.repeat(work_trial[br], k)
            work_rem = np.repeat((work_rem - tb)[br], k)
        xi = np.concatenate(out_xi) if out_xi else np.empty(0)
        trial = (np.concatenate(out_trial) if out_trial
                 else np.empty(0, dtype=np.int64))
        over = (z_acc > censor_weight_mult * threshold) | \
               (n_frozen > censor_count)
        if over.any() and len(xi):
            drop = over[trial]
            if drop.any():
                censored |= np.isin(np.arange(n_trials), trial[drop])
                xi, trial = xi[~drop], trial[~drop]

    if len(xi):
        hit_zeta[np.unique(trial)] = True
        sigma[hit_zeta] = zeta
    out = TrialBatch(
        n_frozen=n_frozen,
        Z=z_acc,
        Y=y_acc,
        W_y=y * math.exp(-y) * n_frozen,
        sigma_max=sigma,
        hit_zeta=hit_zeta,
        censored=censored,
        is_breakout=(z_acc > threshold)
        | (hit_zeta if zeta_breakout else False)
        | censored,
    )
    if collect_line:
        out.frozen_trial = (np.concatenate(fr_trial) if fr_trial
                            else np.empty(0, dtype=np.int64))
        out.frozen_time = (np.concatenate(fr_time) if fr_time
                           else np.empty(0))
        out.frozen_pos = (np.concatenate(fr_pos) if fr_pos
                          else np.empty(0))
        line_at_cap = a - y + (1.0 - mu) * zeta
        out.alive_trial = trial.copy()
        out.alive_pos = xi + line_at_cap
    return out
