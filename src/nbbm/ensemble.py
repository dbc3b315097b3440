"""Flat-array particle lanes: the one segment step and the runs built on it.

Positions live in numpy arrays tagged with replica or trial ids, so millions
of particles advance per step without per-particle Python work.
`step_segments` is the step, written once: within [t0, t0 + h] every
particle is handled exactly, with a fresh exponential branch clock per
segment (memoryless, so no clock state survives a step), a Gaussian move, a
Brownian-bridge test against each wall and a branch into k children at the
branch point with the rest of the step.  The killed ensemble, the
fugitive trials and the barrier runners in `selection` all advance through
it.  The trials live in a `TrialPool`, which a barrier run steps once per
runner step, each trial through its own span.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .engine import (CapacityError, ReproductionLaw, hperp_count,
                     sample_offspring)
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
    "TrialPool",
    "PoolStep",
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
    np.maximum(e, _EXPONENT_FLOOR, out=e)
    return _hit_prob(e)


def _hit_prob(e: np.ndarray) -> np.ndarray:
    # exp(min(e, 0)) in place; the cap makes a straddle (e >= 0) a sure hit
    np.minimum(e, 0.0, out=e)
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
    return cand[rng.random(len(cand)) < _hit_prob(e[cand])]


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

    h may also be an array aligned with pos (t0 then a scalar or another
    such array): each particle then steps through its own span
    [t0, t0 + h], and its hits are timed against its own step end.  The
    trial pool takes this path.  Its first loop then already has one rem
    per particle, so it proposes and thins as the later loops do below.

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
    # the step left to each particle: one scalar until the first branching,
    # unless each particle has its own span
    per_span = per_rem = isinstance(h, np.ndarray)
    if not (np.all((h > 0.0) & (h < math.inf)) if per_span
            else 0.0 < h < math.inf):
        raise ValueError(f"step length h must be positive and finite, got {h!r}")
    carry = [tag, *payload]
    n_out = 1 + len(payload)
    t1 = t0 + h
    if per_span:  # each particle's step end, which its children inherit
        carry.append(t1)
    if origin_ignores is not None:
        carry.append(origin_ignores)
    out, lower, upper_hits = [], [], []
    rem = h
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
                end = carry[n_out][hit] if per_span else t1
                if lag is not None:
                    end = end - lag[hit]
                elif not per_span:
                    end = np.full(len(hit), t1)
                chunks.append((end, *(c[hit] for c in carry[:n_out])))
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
    count floor.  A count that times `replicas` passes the largest array
    size raises ValueError, naming A, a, the count and the replicas, before
    anything is drawn; so does one whose arrays cannot be allocated.
    """
    n0 = hperp_count(A, iv)
    if n0 < 1:
        raise ValueError(f"profile count is {n0} for A = {A!r}, a = {iv.a!r}")
    size = f"profile count {n0:.4g} times {replicas} replicas"
    where = f"A = {A!r}, a = {iv.a!r}"
    if n0 * replicas > np.iinfo(np.intp).max:
        raise ValueError(f"{size} passes the largest array size at {where}")
    try:
        pos = sine_exp_density(iv.a, iv.mu).sample(n0 * replicas, rng)
        rep = np.repeat(np.arange(replicas, dtype=np.int64), n0)
    except MemoryError:
        raise ValueError(f"{size} cannot be allocated at {where}") from None
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


# per-trial columns of a pool: launch time, replica, nesting depth, whether
# it has stepped (it steps from its launch time, then on the runner's step
# grid), the accumulators, and the step end by which its last lineage left
# (nan while it runs)
_TRIAL_COLUMNS = (("launch", float), ("replica", np.int64),
                  ("depth", np.int64), ("stepped", bool), ("Z", float),
                  ("n_frozen", np.int64), ("sigma_max", float),
                  ("censored", bool), ("hit_zeta", bool), ("done_at", float))

# nested trials stop at this depth: a lineage of a depth-3 trial that lands
# beyond the wall is dropped and counted as depth-capped
_MAX_DEPTH = 3

# a trial whose Z passes this multiple of the breakout threshold epsilon e^A,
# or with more than this many frozen lineages, is censored: it counts as a
# breakout, so its lineages need not run on
_CENSOR_WEIGHT_MULT = 40.0
_CENSOR_COUNT = 20_000


class TrialPool:
    """Fugitive trials in flight, of every replica of a barrier run.

    Lineages live in two aligned arrays: the line-frame position `xi` and
    the index of their trial in `trials`.  `trials` holds one array per
    `_TRIAL_COLUMNS` name, one entry per trial not yet decided, and
    `payload` the launching particle's payload columns, aligned with
    `trials`, as many as the first launch carried (None before it).  A
    trial's lineages share one clock, so its timing is a trial column.  Per
    replica the pool counts the relaunches (lineages that landed beyond the
    wall and started a nested trial), the depth-capped lineages, and the
    breakouts whose decision waited for an earlier trial of their replica
    with the total length of those waits.  `breakout_trials` is the only
    code that launches, advances or decides trials.
    """

    def __init__(self, replicas: int = 1) -> None:
        self.replicas = replicas
        self.xi = np.empty(0)
        self.trial = np.empty(0, dtype=np.int64)
        self.trials = {k: np.empty(0, dtype=d) for k, d in _TRIAL_COLUMNS}
        self.payload = None
        self.relaunched, self.depth_capped, self.waits = \
            np.zeros((3, replicas), dtype=np.int64)
        self.wait_time = np.zeros(replicas)
        self.segments = 0
        # whether a trial was done since the last decision
        self.fresh = False

    def __len__(self) -> int:
        """The number of lineages in flight."""
        return len(self.xi)

    def lineages_of(self, replica: int) -> int:
        """The number of lineages in flight for one replica."""
        return int(np.count_nonzero(
            self.trials["replica"][self.trial] == replica))

    def _launch(self, t, replica, depth, y: float, payload=()) -> None:
        if self.payload is None:
            self.payload = tuple(v[:0] for v in payload)
        n = len(t)
        if not n:
            return
        given = dict(launch=t, replica=replica, depth=depth,
                     done_at=np.full(n, math.nan))
        first = len(self.trials["launch"])
        self.trials = {k: np.concatenate((v, given[k] if k in given
                                          else np.zeros(n, dtype=v.dtype)))
                       for k, v in self.trials.items()}
        self.payload = tuple(np.concatenate(v) for v in
                             zip(self.payload, payload, strict=True))
        self.xi = np.concatenate((self.xi, np.full(n, float(y))))
        self.trial = np.concatenate(
            (self.trial, np.arange(first, first + n, dtype=np.int64)))


@dataclass
class _TrialRules:
    """The fixed parameters of a trial, checked by `breakout_trials`."""

    law: ReproductionLaw
    iv: IntervalParams
    y: float
    zeta: float
    threshold: float
    censor_weight: float
    zeta_breakout: bool
    max_segments: int


def _advance(pool: TrialPool, rules: _TrialRules, t0: float, h: float,
             rng: np.random.Generator):
    """Advance every lineage of the pool to min(t0 + h, launch + zeta).

    A trial's lineages share one clock, so its start, span and cut at zeta
    are decided once per trial.  A trial on the step grid (one that has
    stepped, or was launched within 1e-9 of t0) steps through [t0, t0 + h];
    another steps from its launch time, so its span may be shorter or
    longer than h, and one launched at t0 + h waits for the next step.  A
    span that ends within 1e-9 of its trial's zeta ends there, and the
    trial's lineages are cut.  When every trial that steps is on the grid
    with one span, `step_segments` takes that span as one float h, so
    trials launched together draw as one batch; otherwise it takes each
    lineage's start and span as arrays.  Freezes update the accumulators;
    then the trials past a censor limit lose their lineages, the lineages
    at their trial's zeta leave the pool, and trials left without lineages
    are done.  Returns the lineages that froze, as a list of chunks (trial,
    time, local time, lab position), and those cut at zeta as one such
    chunk, or None when no trial reached zeta.
    """
    iv, y, zeta = rules.iv, rules.y, rules.zeta
    a, mu = iv.a, iv.mu
    tr = pool.trials
    t1 = t0 + h
    x, k = pool.xi, pool.trial
    # per trial (live: with lineages): where its step starts, how long it
    # runs, and whether it reaches zeta
    launch, live = tr["launch"], np.isnan(tr["done_at"])
    on_grid = tr["stepped"] | (np.abs(launch - t0) <= 1e-9)
    start = np.where(on_grid, t0, launch)
    span = np.where(on_grid, h, t1 - launch)
    left = launch + zeta - start
    cut = live & (left <= span * (1.0 + 1e-9))
    np.minimum(span, left, out=span)
    step = live & (span > 0.0)
    tr["stepped"] |= step
    wait = None
    if (step != live).any():  # trials launched at t0 + h wait
        wait = ~step[k]
        x, k = x[~wait], k[~wait]
    spans = span[step]
    if len(spans) and on_grid[step].all() and spans.min() == spans.max():
        t_step, h_step = t0, float(spans[0])
    else:
        t_step, h_step = start[k], span[k]
    frozen = []
    if len(x):
        x, k, _, frozen, _, n_seg = step_segments(
            x, k, t0=t_step, h=h_step, drift=-1.0, law=rules.law, rng=rng)
        pool.segments += n_seg
        if pool.segments > rules.max_segments:
            raise CapacityError(f"segment budget {rules.max_segments} "
                                f"exhausted at t = {t0:.6g}")
    n = len(launch)
    exits = []
    for t_f, k_f in frozen:
        s = t_f - launch[k_f]
        lab = a - y + (1.0 - mu) * s
        tr["Z"] += np.bincount(k_f, weights=w_Z(lab, iv), minlength=n)
        tr["n_frozen"] += np.bincount(k_f, minlength=n)
        np.maximum.at(tr["sigma_max"], k_f, s)
        exits.append((k_f, t_f, s, lab))
    # the survivors, now at t1, then the lineages that waited
    if wait is not None:
        x = np.concatenate((x, pool.xi[wait]))
        k = np.concatenate((k, pool.trial[wait]))
    # only a freeze moves a trial past a censor limit, and only a freeze, a
    # death, a censored trial or a cut at zeta leaves a trial without
    # lineages
    left_pool = bool(frozen) or rules.law.probabilities[0] > 0.0
    if frozen:
        over = (tr["Z"] > rules.censor_weight) | \
               (tr["n_frozen"] > _CENSOR_COUNT)
        if over.any() and len(k):
            drop = over[k]
            if drop.any():
                tr["censored"][k[drop]] = True
                x, k = x[~drop], k[~drop]
    alive = None
    if cut.any():
        c = cut[k]
        k_c = k[c]
        tr["hit_zeta"][k_c] = True
        tr["sigma_max"][k_c] = zeta
        alive = (k_c, launch[k_c] + zeta, np.full(len(k_c), zeta),
                 x[c] + (a - y + (1.0 - mu) * zeta))
        x, k = x[~c], k[~c]
        left_pool = True
    pool.xi, pool.trial = x, k
    if left_pool:
        done = live & (np.bincount(k, minlength=n) == 0)
        if done.any():
            tr["done_at"][done] = t1
            pool.fresh = True
    return exits, alive


def _is_breakout(rules: _TrialRules, d: dict) -> np.ndarray:
    return (d["Z"] > rules.threshold) | d["censored"] \
        | (d["hit_zeta"] if rules.zeta_breakout else False)


@dataclass
class PoolStep:
    """What one runner step of a trial pool hands back.

    reentry: the lineages that left the pool below the wall, frozen on
    their line or cut at zeta, as arrays `pos` (lab position), `replica`
    and `age` (local time at exit), and `payload`, the tuple of their
    trial's payload columns in the order the hits gave them.  decided: the
    trials whose outcome is settled, in hit-time order within each
    replica, as the pool's trial columns plus `is_breakout`.
    """

    reentry: dict[str, np.ndarray]
    decided: dict[str, np.ndarray]


def _pool_step(pool: TrialPool, rules: _TrialRules, t0: float, h: float,
               rng: np.random.Generator, hits) -> PoolStep:
    t1 = t0 + h
    t, r, *payload = hits
    if len(t):  # launched by replica, then hit time
        o = np.lexsort((t, r))
        t, r, payload = t[o], r[o], [v[o] for v in payload]
    pool._launch(t, r, np.ones(len(t), dtype=np.int64), rules.y, payload)
    exits = []
    if len(pool):
        exits, alive = _advance(pool, rules, t0, h, rng)
        if alive is not None:
            exits.append(alive)
    k, s, lab = np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
    if exits:
        k, t_out, s, lab = (np.concatenate(v) for v in zip(*exits))
        # a lineage beyond the wall hits it again: it relaunches one level
        # deeper at its exit time, up to depth 3
        out = lab >= rules.iv.a
        if out.any():
            tr = pool.trials
            k_o, t_o = k[out], t_out[out]
            d_o, r_o = tr["depth"][k_o], tr["replica"][k_o]
            capped = d_o >= _MAX_DEPTH
            pool.depth_capped += np.bincount(r_o[capped],
                                             minlength=pool.replicas)
            go = ~capped
            pool.relaunched += np.bincount(r_o[go], minlength=pool.replicas)
            k_go = k_o[go]
            pool._launch(t_o[go], r_o[go], d_o[go] + 1, rules.y,
                         [v[k_go] for v in pool.payload])
            k, s, lab = k[~out], s[~out], lab[~out]
    reentry = dict(pos=lab, replica=pool.trials["replica"][k], age=s,
                   payload=tuple(v[k] for v in pool.payload))
    return PoolStep(reentry, _decide(pool, rules, t1))


def _decide(pool: TrialPool, rules: _TrialRules, t1: float) -> dict:
    """Take the settled trials out of the pool, in hit-time order within
    each replica.  A done trial is settled once every earlier trial of its
    replica is: a breakout that waits for one still running counts as a
    wait, of length t1 minus the step end at which it was done."""
    tr = pool.trials
    # without this skip run_bbbm / run_bflat took 1.026 / 1.031 x the CPU
    if not pool.fresh:
        return dict({k: v[:0] for k, v in tr.items()},
                    is_breakout=np.empty(0, dtype=bool))
    pool.fresh = False
    # by replica, then launch time, then launch order (lexsort is stable)
    order = np.lexsort((tr["launch"], tr["replica"]))
    running = np.isnan(tr["done_at"][order]).astype(np.int64)
    before = np.cumsum(running) - running
    rep = tr["replica"][order]
    first = np.ones(len(rep), dtype=bool)
    first[1:] = rep[1:] != rep[:-1]
    base = before[first][np.cumsum(first) - 1]
    take = order[(running == 0) & (before == base)]
    decided = {k: v[take] for k, v in tr.items()}
    decided["is_breakout"] = _is_breakout(rules, decided)
    late = decided["is_breakout"] & (decided["done_at"] < t1 - 1e-9)
    if late.any():
        r_late = decided["replica"][late]
        pool.waits += np.bincount(r_late, minlength=pool.replicas)
        pool.wait_time += np.bincount(
            r_late, weights=t1 - decided["done_at"][late],
            minlength=pool.replicas)
    if len(take):
        keep = np.ones(len(order), dtype=bool)
        keep[take] = False
        pool.trials = {k: v[keep] for k, v in tr.items()}
        pool.payload = tuple(v[keep] for v in pool.payload)
        pool.trial = (np.cumsum(keep) - 1)[pool.trial]
    return decided


def breakout_trials(law: ReproductionLaw, iv: IntervalParams, A: float,
                    epsilon: float, y: float, zeta: float, *, n_trials: int,
                    dt: float, rng: np.random.Generator,
                    collect_line: bool = False,
                    zeta_breakout: bool = True,
                    max_segments: int = 2_000_000_000,
                    pool: TrialPool | None = None, t0: float = 0.0,
                    hits=None):
    """Fugitive trials, each started at height y above its stopping line.

    A trial works in line coordinates (drift -1, freeze at 0); the line
    rises at 1 - mu in the lab frame from a - y, so a freeze at local time
    s maps to lab position a - y + (1 - mu) s, and a lineage still running
    at s = zeta is cut there, which sets hit_zeta and caps sigma_max, the
    local time of the last exit, at zeta.  Trials past the censor limits,
    Z above _CENSOR_WEIGHT_MULT epsilon e^A or more than _CENSOR_COUNT
    frozen, stop early with censored set; their Z and n_frozen are lower
    bounds, far beyond the breakout threshold.  zeta_breakout = False
    drops the reaching-zeta clause from the breakout classification
    (weight and censor clauses stay).  The trials run in a `TrialPool`, in
    one of two forms, and both decide them as the pool's trial columns
    plus `is_breakout`, one array entry per trial.

    Without a pool, n_trials trials start at s = 0 and step together, dt at
    a time, until every lineage has frozen, died or reached zeta; the
    result is that dict in launch order.  collect_line adds every frozen
    lineage as `frozen_trial` (trial index), `frozen_time` (local time)
    and `frozen_pos` (lab position), and every lineage cut at zeta as
    `alive_trial` and `alive_pos`.

    With a pool, one call is one runner step [t0, t0 + dt].  It launches
    the step's n_trials wall hits, given as hits = (times, replicas,
    *payload) with the times in (t0, t0 + dt], by replica and then hit
    time, then advances every lineage of the pool once, to
    min(t0 + dt, launch + zeta), through one `step_segments` call.  A trial
    steps from its launch time, then on the runner's grid; one launched at
    t0 + dt first steps in the next call.  The payload, any number of
    per-hit arrays (as many in every call on one pool), is the runner's
    own: the pool keeps it per trial and hands it back unchanged with the
    trial's re-entering lineages and its nested trials.  A lineage that
    leaves the pool beyond the wall relaunches as a nested trial one level
    deeper at its exit time, up to depth 3; deeper ones are dropped and
    counted as depth-capped.  The result is a `PoolStep`: the lineages that
    re-enter below the wall, and the trials decided this step in hit-time
    order per replica.  A trial's outcome is known when its last lineage
    leaves; a breakout waits until every earlier trial of its replica is
    decided, and the pool counts such waits and their length per
    replica.
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
    n_trials = int(n_trials)
    threshold = epsilon * math.exp(A)
    rules = _TrialRules(law, iv, y, zeta, threshold,
                        _CENSOR_WEIGHT_MULT * threshold, zeta_breakout,
                        max_segments)
    if pool is not None:
        if hits is None or len(hits[0]) != n_trials:
            raise ValueError("a pool step needs one hit per trial")
        return _pool_step(pool, rules, t0, dt, rng, hits)

    pool = TrialPool()
    pool._launch(np.zeros(n_trials), np.zeros(n_trials, dtype=np.int64),
                 np.ones(n_trials, dtype=np.int64), y)
    frozen, alive, step = [], None, 0  # the step reaching zeta cuts all left
    while len(pool):
        chunks, alive = _advance(pool, rules, step * dt, dt, rng)
        frozen += chunks
        step += 1
    # every trial is done: one decision takes them all, in launch order,
    # and at t1 = 0 counts no waits, which a batch does not report
    out = _decide(pool, rules, 0.0)
    if collect_line:
        none = (np.empty(0, dtype=np.int64), None, np.empty(0), np.empty(0))
        out["frozen_trial"], _, out["frozen_time"], out["frozen_pos"] = (
            np.concatenate(v) for v in zip(*frozen)) if frozen else none
        out["alive_trial"], _, _, out["alive_pos"] = alive or none
    return out
