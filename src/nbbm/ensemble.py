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
import sys
from dataclasses import dataclass

import numpy as np

from .engine import CapacityError, ReproductionLaw, sample_offspring
from .kernels import IntervalParams, sine_exp_density, w_Y, w_Z

# glibc's malloc serves each block above its mmap threshold (128 KiB at
# start) with a fresh mapping, so a step's particle arrays would be faulted
# in page by page on every step.  Freeing one mapped block raises the
# threshold to that block's size, 4 MiB here, and arrays up to it then
# reuse heap pages.  Elsewhere this is one short-lived allocation.
np.empty(1 << 19)

__all__ = [
    "bridge_hit_prob",
    "step_segments",
    "KilledEnsembleResult",
    "hperp_flat",
    "killed_ensemble",
    "TrialBatch",
    "breakout_trials",
]


# exp(-40) < 2^-53, the spacing of the uniforms `Generator.random` draws, so
# a miss without a draw at or below this floor moves a hit probability by at
# most 2^-53.
_EXPONENT_FLOOR = -40.0
# the largest x whose exp(x) is a finite double
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def bridge_hit_prob(x1, x2, seg, wall):
    """P(a Brownian bridge from x1 to x2 over `seg` touches `wall`), elementwise.

    exp(-2 (x1 - wall)(x2 - wall) / seg), which is 1 whenever the endpoints
    straddle the wall; exact for a single wall, so absorption against one
    wall preserves the killed kernel at any step size.  The exponent is
    floored at -40, so a probability below exp(-40) = 4.2e-18 reads as
    exp(-40): that moves it by less than 2^-53, the resolution of the
    uniforms it is compared with, and keeps exp off its slow underflow and
    subnormal paths.  Works in place on one fresh array.
    """
    e = np.asarray(np.multiply(np.subtract(x1, wall), np.subtract(x2, wall)),
                   dtype=float)
    e *= -2.0
    e /= seg
    # the upper clip folds the sure-hit case (exponent >= 0) into the formula
    np.clip(e, _EXPONENT_FLOOR, 0.0, out=e)
    return np.exp(e, out=e)


def _wall_hits(d1, d2, k, br, k_br, rng: np.random.Generator,
               exempt: np.ndarray | None) -> np.ndarray:
    """Indices of the particles whose bridge touches a wall.

    d1 and d2 are the segments' start and end distances to the wall and k
    is -2 / seg, except at the branchers `br`, whose -2 / seg is k_br; so
    d1 d2 k is the exponent of `bridge_hit_prob`.  Only candidates,
    particles not `exempt` whose exponent is above the floor, draw a
    uniform, one each in index order; the rest miss.
    """
    e = d1 * d2
    e *= k
    if len(br):
        e[br] = d1[br] * d2[br] * k_br
    cand = (e > _EXPONENT_FLOOR).nonzero()[0]
    if exempt is not None:
        cand = cand[~exempt[cand]]
    if not len(cand):
        return cand
    p = e[cand]
    np.minimum(p, 0.0, out=p)
    np.exp(p, out=p)
    return cand[rng.random(len(cand)) < p]


def _branch_slots(size: int, rate: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of the slots in range(size) that branch, each on its
    own with probability 1 - e^-rate.

    The gaps between successive branching slots are geometric,
    floor(Exp(1) / rate), which is the law of independent Bernoulli trials;
    drawing the gaps costs one variate per branching slot, not one per slot.
    The first gap is drawn alone, and so is every later one when fewer than
    4 branchings are expected in the slots left, so a call where no slot or
    few slots branch costs a few scalar draws and no array work.
    """
    draw = rng.standard_exponential
    first = draw() / rate if rate > 0.0 else math.inf
    if not first < size:
        return np.empty(0, dtype=np.int64)
    first = math.floor(first)
    # below about 4 expected branchings, scalar draws cost less than the
    # half-dozen array operations of the batch below
    if (size - first) * rate < 4.0:
        slots = [first]
        at = first + 1 + draw() / rate
        while at < size:
            slots.append(math.floor(at))
            at = slots[-1] + 1 + draw() / rate
        return np.array(slots, dtype=np.int64)

    def ends(m):  # offsets of the next m branching slots, from the last one
        at = rng.standard_exponential(m)
        at /= rate
        np.floor(at, out=at)
        at += 1.0
        return at.cumsum(out=at)

    mean = -(size - first) * math.expm1(-rate)
    m = int(mean + 6.0 * math.sqrt(mean) + 16.0)
    at = ends(m)
    at += first
    while at[-1] < size:  # the draws have not yet passed the last slot
        at = np.concatenate((at, at[-1] + ends(m)))
    k = at.searchsorted(size)
    idx = np.empty(k + 1, dtype=np.int64)
    idx[0] = first
    idx[1:] = at[:k]
    return idx


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
    of its segment, at (t0 + h) - (rem - seg) for a segment of length seg
    with rem of the step left at its start: exactly t0 + h for a segment
    that ends the step, and never past it.  A branching particle's children
    start at its branch point with the rest of its step; they inherit its
    tag and payload (a tuple of arrays aligned with pos) and whether the
    origin ignores it.

    Each loop over the current segments draws only what it uses, in order:
    - the geometric gaps of `_branch_slots`, which propose each particle
      independently with probability p_max = 1 - exp(-beta0 max(rem)), so
      the draws grow with the branchers, not the particles;
    - one uniform u on (0, p_max) per proposed particle: it branches iff its
      time -log(1 - u) / beta0 falls within its rem, that is iff
      u < 1 - exp(-beta0 rem), so with probability 1 - exp(-beta0 rem) and
      at an exponential time conditioned to fall in rem.  While rem is one
      scalar (the first loop) every proposal branches;
    - one Gaussian move per particle;
    - one uniform per origin candidate, then one per upper candidate (when
      there is an upper wall) among the particles the origin missed.  A
      candidate is a particle whose bridge exponent is above -40; the others
      miss without a draw, which moves a hit probability by less than
      exp(-40) < 2^-53, the resolution of the uniforms.  Particles the
      origin ignores are never origin candidates;
    - the offspring counts of the surviving branchers.

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
    out, lower, upper_hits = [], [], []
    t1 = t0 + h
    # the step left to each particle: one scalar until the first branching
    rem = h
    per_rem = False
    beta0 = law.beta0
    per_tag = isinstance(drift, np.ndarray)
    segments = 0
    while len(pos):
        n = len(pos)
        segments += n
        rate = beta0 * (rem.max() if per_rem else rem)
        br = _branch_slots(n, rate, rng)
        if len(br):
            # the proposals' branch times -log(1 - u) / beta0, u uniform on
            # (0, 1 - exp(-rate)): exponential times conditioned to fall
            # within max(rem)
            tb = rng.random(len(br))
            tb *= math.expm1(-rate)
            np.log1p(tb, out=tb)
            tb /= -beta0
            rem_br = rem
            if per_rem:  # a proposal branches iff its time falls in its rem
                rem_br = rem[br]
                take = tb < rem_br
                br, tb, rem_br = br[take], tb[take], rem_br[take]
            else:  # a rounding slip of the inversion never passes rem
                np.minimum(tb, rem, out=tb)
        # Every segment but a brancher's runs to the end of the step: the
        # moves and the bridge factor k = -2 / seg are taken for rem, and the
        # branchers' are redone for their branch times.
        v = drift[carry[0]] if per_tag else drift
        x2 = rng.standard_normal(n)
        z_br = x2[br]
        x2 *= np.sqrt(rem)
        x2 += pos
        x2 += v * rem
        k = -2.0 / rem
        lag = k_br = None
        if len(br):
            x2[br] = pos[br] + (v[br] if per_tag else v) * tb \
                + z_br * np.sqrt(tb)
            k_br = -2.0 / tb
            # the step left after each segment, which only branchers have
            lag = np.zeros(n)
            lag[br] = rem_br - tb
        hit_lo = _wall_hits(pos, x2, k, br, k_br, rng,
                            None if origin_ignores is None else carry[-1])
        done = np.ones(n, dtype=bool)
        done[hit_lo] = False
        hit_hi = None
        if upper is not None:
            hit_hi = _wall_hits(pos - upper, x2 - upper, k, br, k_br, rng,
                                ~done if len(hit_lo) else None)
            done[hit_hi] = False
        for hit, chunks in ((hit_lo, lower), (hit_hi, upper_hits)):
            if hit is not None and len(hit):
                chunks.append((t1 - lag[hit] if lag is not None
                               else np.full(len(hit), t1),
                               *(c[hit] for c in carry[:n_out])))
        cont = br[done[br]]
        done[br] = False
        out.append([x2[done], *(c[done] for c in carry[:n_out])])
        if len(cont) == 0:
            break
        ks = sample_offspring(law, len(cont), rng)
        pos = np.repeat(x2[cont], ks)
        carry = [np.repeat(c[cont], ks) for c in carry]
        rem = np.repeat(lag[cont], ks)
        per_rem = True
    if len(out) == 1:
        pos, tag, *payload = out[0]
    elif out:
        pos, tag, *payload = (np.concatenate(x) for x in zip(*out))
    else:
        tag, *payload = carry[:n_out]
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
    # written so that NaN fails it too
    if not np.all((pos > 0.0) & (pos < a)):
        raise ValueError("initial positions must lie strictly inside (0, a)")
    if not math.isfinite(drift_rate):
        raise ValueError(f"drift_rate must be finite, got {drift_rate!r}")
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
    # the weight clause compares with epsilon e^A: NaN or inf would
    # silently switch it off
    if not math.isfinite(A):
        raise ValueError(f"A must be finite, got {A!r}")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(
            f"epsilon must be positive and finite, got {epsilon!r}")
    if A > _LOG_FLOAT_MAX or math.isinf(epsilon * math.exp(A)):
        raise ValueError(f"the threshold epsilon e^A overflows at "
                         f"A = {A!r}, epsilon = {epsilon!r}")
    if not n_trials >= 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials!r}")
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
        hit_zeta[trial] = True
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
