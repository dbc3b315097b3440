"""Flat-array particle lanes: the one segment step and the runs built on it.

Positions live in numpy arrays tagged with replica or trial ids, so millions
of particles advance per step without per-particle Python work.
`step_segments` is the step, written once: within [t0, t0 + h] every
particle is handled exactly, with a fresh exponential branch clock per
segment (memoryless, so no clock state survives a step), a Gaussian move, a
Brownian-bridge test against each wall and a branch into k children at the
branch point with the rest of the step.  The killed ensemble, the batched
fugitive trials and the barrier runners in `selection` all advance through
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import CapacityError, ReproductionLaw, sample_offspring
from .kernels import IntervalParams, sine_exp_density, w_Y, w_Z

__all__ = [
    "bridge_hit_prob",
    "step_segments",
    "KilledEnsembleResult",
    "hperp_flat",
    "killed_ensemble",
    "TrialBatch",
    "breakout_trials",
]


def bridge_hit_prob(x1, x2, seg, wall):
    """P(a Brownian bridge from x1 to x2 over `seg` touches `wall`), elementwise.

    exp(-2 (x1 - wall)(x2 - wall) / seg), which is 1 whenever the endpoints
    straddle the wall; exact for a single wall, so absorption against one
    wall preserves the killed kernel at any step size.  exp is evaluated
    only where the exponent is above -746: below that it is exactly 0.0,
    and numpy's slow underflow path for it costs most of the call when most
    particles sit far from the wall.
    """
    e = -2.0 * (x1 - wall) * (x2 - wall) / seg
    p = np.zeros(np.shape(e))
    # the min folds the sure-hit case (exponent >= 0) into the same formula
    return np.exp(np.minimum(e, 0.0), out=p, where=e > -746.0)


def step_segments(pos, tag, payload=(), *, t0: float, h: float, drift,
                  law: ReproductionLaw, rng: np.random.Generator,
                  upper: float | None = None, origin_ignores=None):
    """Advance tagged particles exactly through the step [t0, t0 + h].

    Each particle moves with drift `drift` (a scalar, or an array indexed by
    tag) between the exponential branching clocks of its line, and leaves at
    the first wall its Brownian bridge touches: the origin, unless
    origin_ignores (a mask over the input particles) marks it, or `upper`
    when given.  The walls are tested one after the other with their
    one-sided bridge probabilities, and an origin hit is never also an upper
    hit; this misplaces only paths that touch both walls in one segment
    (probability of order exp(-2 upper^2 / h)).  A hit is placed at the end
    of its segment.  A branching particle's children start at its branch point with the rest
    of its step; they inherit its tag and payload (a tuple of arrays aligned
    with pos) and whether the origin ignores it.  Each loop over the current
    segments draws, in order, the clocks, the Gaussian moves, the origin
    uniforms, the upper uniforms when there is an upper wall, and the
    offspring counts of the branching particles.

    Returns the survivors' (pos, tag, payload), the origin and upper hits as
    lists of per-loop chunks (time, tag, *payload), and the number of
    segments processed.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step length h must be positive and finite, got {h!r}")
    carry = [tag, *payload]
    if origin_ignores is not None:
        carry.append(origin_ignores)
    n_out = 1 + len(payload)
    out = [[pos[:0], *(c[:0] for c in carry[:n_out])]]
    lower, upper_hits = [], []
    rem = np.full(len(pos), h)
    scale = 1.0 / law.beta0
    per_tag = isinstance(drift, np.ndarray)
    segments = 0
    while len(pos):
        n = len(pos)
        segments += n
        tb = rng.exponential(scale, n)
        seg = np.minimum(tb, rem)
        mean = drift[carry[0]] * seg if per_tag else drift * seg
        x2 = pos + mean + rng.standard_normal(n) * np.sqrt(seg)
        # Both probabilities come before the uniforms: building them around
        # a freshly drawn uniform array cost a third more page faults and
        # about 7% more CPU in the killed ensemble at 33k particles.
        p_lo = bridge_hit_prob(pos, x2, seg, 0.0)
        if upper is not None:
            p_hi = bridge_hit_prob(pos, x2, seg, upper)
        hit_lo = rng.random(n) < p_lo
        if origin_ignores is not None:
            hit_lo &= ~carry[-1]
        live, hit_hi = ~hit_lo, None
        if upper is not None:
            hit_hi = live & (rng.random(n) < p_hi)
            live &= ~hit_hi
        for hit, chunks in ((hit_lo, lower), (hit_hi, upper_hits)):
            if hit is not None and len(idx := hit.nonzero()[0]):
                chunks.append((t0 + (h - rem[idx]) + seg[idx],
                               *(c[idx] for c in carry[:n_out])))
        done = live & (tb >= rem)
        out.append([x2[done], *(c[done] for c in carry[:n_out])])
        cont = live & ~done
        n_br = np.count_nonzero(cont)
        if n_br == 0:
            break
        ks = sample_offspring(law, n_br, rng)
        pos = np.repeat(x2[cont], ks)
        carry = [np.repeat(c[cont], ks) for c in carry]
        rem = np.repeat(rem[cont] - tb[cont], ks)
    pos, tag, *payload = (np.concatenate(x) for x in zip(*out))
    return pos, tag, tuple(payload), lower, upper_hits, segments


def _record_steps(record_times, dt: float) -> tuple[np.ndarray, list[int]]:
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    rec = np.asarray(record_times, dtype=float)
    if rec.ndim != 1 or len(rec) == 0:
        raise ValueError("record_times must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(rec)):
        raise ValueError("record_times must be finite")
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


@dataclass
class KilledEnsembleResult:
    """Snapshots of a killed ensemble on the record grid.

    Z, Y, count and r_cum are (record, replica) arrays; r_cum counts upper
    boundary absorptions since time 0.  final_positions / final_replica hold
    the flat population at the last record time.
    """

    record_times: np.ndarray
    Z: np.ndarray
    Y: np.ndarray
    count: np.ndarray
    r_cum: np.ndarray
    final_positions: np.ndarray
    final_replica: np.ndarray


def hperp_flat(A: float, iv: IntervalParams, replicas: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Flat (positions, replica ids) for `replicas` copies of the reference

    profile: hperp_count(A, iv) particles iid from the stationary count
    density sin(pi x / a) e^(-mu x), so E[Z_0] = e^A per replica up to the
    count floor.
    """
    from .engine import hperp_count

    n0 = hperp_count(A, iv)
    if n0 < 1:
        raise ValueError(f"profile count is {n0} for A = {A!r}, a = {iv.a!r}")
    pos = sine_exp_density(iv.a, iv.mu).sample(n0 * replicas, rng)
    rep = np.repeat(np.arange(replicas, dtype=np.int64), n0)
    return pos, rep


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

    segments = 0
    for step in range(1, rec_steps[-1] + 1):
        pos, rep, _, _, upper, n_seg = step_segments(
            pos, rep, t0=(step - 1) * dt, h=dt, drift=drift_rate, law=law,
            rng=rng, upper=a)
        segments += n_seg
        if segments > max_segments:
            raise CapacityError(
                f"segment budget {max_segments} exhausted at step {step}")
        for _, r_hit in upper:
            r_acc += np.bincount(r_hit, minlength=replicas)
        if row < n_rec and rec_steps[row] == step:
            snapshot(row)
            row += 1

    return KilledEnsembleResult(
        record_times=rec, Z=Z, Y=Y, count=count, r_cum=r_cum,
        final_positions=pos, final_replica=rep)


@dataclass
class TrialBatch:
    """Per-trial outcomes of a batch of fugitive trials.

    sigma_max is capped at zeta for trials cut off there (hit_zeta marks
    them).  Trials whose accumulated weight or frozen count passes the
    censor limits are stopped early with censored set; their Z, W_y and
    n_frozen are then lower bounds, already far beyond the breakout
    threshold.  The optional frozen_* arrays (collect_line) list every
    frozen particle as (trial, local time, lab position); alive_* list the
    lineages cut at zeta with their lab positions.
    """

    n_frozen: np.ndarray
    Z: np.ndarray
    Y: np.ndarray
    W_y: np.ndarray
    sigma_max: np.ndarray
    hit_zeta: np.ndarray
    censored: np.ndarray
    is_breakout: np.ndarray
    frozen_trial: np.ndarray | None = None
    frozen_time: np.ndarray | None = None
    frozen_pos: np.ndarray | None = None
    alive_trial: np.ndarray | None = None
    alive_pos: np.ndarray | None = None


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
    if not (0.0 < y < math.inf and 0.0 < zeta < math.inf):
        raise ValueError(f"y and zeta must be positive and finite, got "
                         f"y = {y!r}, zeta = {zeta!r}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
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

    segments = 0
    n_steps = int(math.ceil(zeta / dt - 1e-9))
    for step in range(n_steps):
        if not len(xi):
            break
        s0 = step * dt
        xi, trial, _, frozen, _, n_seg = step_segments(
            xi, trial, t0=s0, h=min(dt, zeta - s0), drift=-1.0, law=law,
            rng=rng)
        segments += n_seg
        if segments > max_segments:
            raise CapacityError(
                f"segment budget {max_segments} exhausted at s = {s0:.6g}")
        for s_hit, ft in frozen:
            lab = a - y + (1.0 - mu) * s_hit
            z_acc += np.bincount(ft, weights=w_Z(lab, iv), minlength=n_trials)
            y_acc += np.bincount(ft, weights=w_Y(lab, iv), minlength=n_trials)
            n_frozen += np.bincount(ft, minlength=n_trials)
            np.maximum.at(sigma, ft, s_hit)
            if collect_line:
                fr_trial.append(ft)
                fr_time.append(s_hit)
                fr_pos.append(lab)
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
