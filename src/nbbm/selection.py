"""Selection rules and moving-barrier dynamics on top of the branching engine.

Three layers live here.  `med_alpha` is the order statistic used to track
the front, and `run_nbbm` the N-particle system that keeps its N rightmost.
`BarrierPath` plus the `run_bbbm` / `run_bflat` / `run_bsharp` runners evolve
a population between an absorbing origin and a right barrier that ratchets
forward after each breakout; the flat and sharp variants additionally colour
particles to bound the population from above and below.  `run_coupled` drives
three systems with shared noise and per-event domination checks.

`run_nbbm`, the one N-BBM step lane, steps all replicas together in one
(replicas, N) array of slots, a dead slot holding -inf, on the one stream
rng_stream(seed, 0, nbbm lane), and can record replica 0's genealogy.  It
runs its steps in blocks: per block it draws the branching slots, then the
offspring counts, of all the block's steps; per step, the normals.  A slot
branches independently of its position and of the slot arrangement, so
the order of the draws leaves the law as it was.  The
barrier runners advance all replicas of a run together in one tuple of flat
arrays: positions, replica ids, colour codes in the coloured modes and blue
expiry times in the sharp modes only, on one stream rng_stream(seed, 0,
barrier lane).  A step runs in named phases, in order: one
`ensemble.step_segments` call moves each particle with its own replica's
barrier drift; `launch_trials` starts one fugitive trial per wall hit in one
`ensemble.TrialPool`, steps the pool once, decides its breakouts and
re-enters the lineages that froze in the step; `land_blues` (sharp modes)
keeps origin hits alive as blues; `regroup` sorts by replica, stably, so
every per-replica statistic is taken on a contiguous slice; `settle_due`
applies the step-end rules (responses, freezes, colour flips, expiries) to
the replicas that have one due; `record` takes the series.  A one-replica
run that never hits the wall is bit-identical to the per-hit reference kept
in the tests.  Rule evaluation happens at step ends, so colour flips and
re-entries are placed with O(dt) time resolution; the Brownian and
branching dynamics themselves are exact within each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import (REQUIRED_FIELDS, CapacityError, ReproductionLaw,
                     SimConfig, hperp_count, rng_stream, sample_offspring)
from .ensemble import (TrialPool, _branch_slots, breakout_trials,
                       hperp_flat, step_segments)
from .kernels import (IntervalParams, barrier_f, error_envelope_E,
                      sine_exp_density, w_Z, w_ZY)
from .levy import RecenteringConstants, recentering
from .stats import StatsSeries

__all__ = [
    "med_alpha",
    "NbbmResult",
    "run_nbbm",
    "BarrierPiece",
    "BarrierPath",
    "BarrierResult",
    "run_bbbm",
    "run_bflat",
    "run_bsharp",
    "CouplingError",
    "CoupledResult",
    "check_coupling",
    "run_coupled",
]

# rng_stream lane ids; one replica never mixes lanes, so runs that share a
# seed stay decoupled across runner types.
_LANE_NBBM = 1
_LANE_BARRIER = 2
_LANE_COUPLED = 3

_WHITE, _RED, _BLUE = 0, 1, 2

# the expected branchings one block of N-BBM steps draws at once, which
# bounds the block's index arrays whatever the record spacing
_BLOCK_BRANCHINGS = 4096


def med_alpha(positions, alpha: float, n_select: int):
    """Level below which fewer than alpha * n_select particles remain above.

    Returns inf{x : #(positions >= x) < alpha * n_select}, i.e. the
    ceil(alpha n)-th largest position, or -inf when the population holds
    fewer than alpha * n_select atoms in total.  An atom at -inf never
    changes the result, so a 2-D array can hold one population per row with
    -inf in its empty slots; the result is then one level per row.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if n_select < 1:
        raise ValueError(f"n_select must be >= 1, got {n_select!r}")
    pos = np.asarray(positions, dtype=float)
    j = math.ceil(alpha * n_select) - 1
    m = pos.shape[-1]
    if m <= j:
        return -math.inf if pos.ndim == 1 else np.full(pos.shape[:-1],
                                                        -math.inf)
    # a copy, so the result does not keep the partitioned array alive
    level = np.partition(pos, m - 1 - j, axis=-1)[..., m - 1 - j].copy()
    return float(level) if pos.ndim == 1 else level


# ---------------------------------------------------------------------------
# free-space N-particle system


def _initial_front(n_select: int, rng: np.random.Generator) -> np.ndarray:
    """Start of both N-BBM runners: n_select draws from sin(pi x / a) e^-x,
    a = a_N, or max(pi, ln N + 1) below N = 16 where a_N is undefined."""
    a = (recentering(n_select).a_N if n_select >= 16
         else max(math.pi, math.log(n_select) + 1.0))
    return sine_exp_density(a, 1.0).sample(n_select, rng)


@dataclass
class NbbmResult:
    """Median trajectories of the N-particle system, one series per replica."""

    series: list[StatsSeries]
    n_select: int
    constants: RecenteringConstants
    horizon: float
    dt: float
    final_positions: list[np.ndarray] = field(default_factory=list)
    # the room for extra children: how often it grew, the most extras one
    # replica took in one step, and the room at the end
    buffer_growths: int = 0
    peak_extras: int = 0
    cap: int = 0

    def med_matrix(self, alpha: float) -> np.ndarray:
        """Stack one alpha-median column across replicas, shape (R, T)."""
        key = f"med_{alpha:g}"
        return np.stack([s.columns[key] for s in self.series])

    @property
    def times(self) -> np.ndarray:
        return self.series[0].times


def _block_plan(n_steps: int, per_step: float,
                budget: float) -> list[tuple[int, int]]:
    """The (start, stop) step ranges of `_nbbm_batch`'s blocks.

    The blocks tile range(n_steps) in order.  The last step, whose length
    may differ, is a block of its own; the others run in blocks of as many
    steps as keep the expected branchings, per_step a step, within budget,
    and of one step when one step alone exceeds it.
    """
    size = max(1, int(budget // per_step)) if per_step > 0.0 else n_steps
    cuts = [*range(0, n_steps - 1, size), n_steps - 1, n_steps]
    return list(zip(cuts[:-1], cuts[1:]))


def _nbbm_batch(cfg: SimConfig, horizon: float, branches: list | None):
    """Step every replica together; returns (series, final positions,
    counters): one series and one array of positions per replica, and the
    buffer's growths, the most extra children one row took in one step and
    the final room for extras.

    Replica r owns row r of one buffer: its slots are the last N columns,
    and the `cap` columns left of them take the extra children of a step,
    so that one partition per row keeps the N rightmost.  The steps run in
    blocks (`_block_plan`): a block draws the branching slots and offspring
    counts of all its steps at once and works out where each extra child
    goes, so a step draws its normals and then only moves values.
    """
    n_sel, n_rep, law, dt = cfg.n_select, cfg.replicas, cfg.law, cfg.dt
    size = n_rep * n_sel
    rng = rng_stream(cfg.seed, 0, _LANE_NBBM)
    q = law.probabilities
    deaths = q[0] > 0.0
    extra_mean = sum((k - 1) * p for k, p in enumerate(q) if k > 1)
    cap = 32 + 2 * int(n_sel * -math.expm1(-law.beta0 * dt) * extra_mean)
    growths = peak = 0
    buf = np.full((n_rep, cap + n_sel), -math.inf)
    for r in range(n_rep):
        buf[r, cap:] = _initial_front(n_sel, rng)
    logged = branches is not None
    if logged:
        # replica 0's genealogy: the events.csv row of each slot's last
        # branching, or -1 - i for the i-th initial particle
        parent = np.empty(cap + n_sel, dtype=np.int64)
        parent[cap:] = -1 - np.arange(n_sel)
    z = np.empty((n_rep, n_sel))
    n_steps, sample_steps = cfg.steps(horizon)

    def layout():
        # the slots as an (R, N) view, the buffer as a flat view, what turns
        # slot index r N + j of replica r into its flat offset, and the flat
        # offset of replica r's slot 0
        return (buf[:, cap:], buf.reshape(-1),
                (np.arange(n_rep) + 1) * cap,
                np.arange(n_rep) * (cap + n_sel) + cap)

    def counts_now():
        if not deaths:
            return np.full(n_rep, n_sel)
        return np.count_nonzero(slots > -math.inf, axis=1)

    slots, flat, shift, base = layout()
    times = [0.0]
    meds = {al: [med_alpha(slots, al, n_sel)] for al in cfg.alphas}
    counts = [counts_now()]
    plan = _block_plan(n_steps, size * -math.expm1(-law.beta0 * dt),
                       _BLOCK_BRANCHINGS)
    for start, stop in plan:
        # the last block is the last step, which ends at the horizon
        h = dt if stop < n_steps else horizon - start * dt
        n_blk = stop - start
        idx = _branch_slots(n_blk * size, law.beta0 * h, rng)
        ks = sample_offspring(law, len(idx), rng)
        step, idx = np.divmod(idx, size)
        n_ext = ks - 1
        if deaths:
            np.maximum(n_ext, 0, out=n_ext)
        rows = idx // n_sel
        # the branchings sorted by (step, row) group, and the extra children
        # of each group
        group = step * n_rep + rows
        ext_group = group.repeat(n_ext)
        per = np.bincount(ext_group, minlength=n_blk * n_rep)
        wide = int(per.max(initial=0))
        peak = max(peak, wide)
        if wide > cap:
            grown = max(2 * cap, wide)
            buf = np.concatenate(
                (np.full((n_rep, grown - cap), -math.inf), buf), axis=1)
            if logged:
                parent = np.concatenate(
                    (np.zeros(grown - cap, dtype=np.int64), parent))
            cap = grown
            growths += 1
            slots, flat, shift, base = layout()
        at = idx + shift[rows]
        # each extra child is a copy of its parent's slot, placed just left
        # of its row's slots; a step's extras run from ext_cuts[s]
        ends = per.cumsum()
        src = at.repeat(n_ext)
        dst = (np.tile(base, n_blk) - ends)[ext_group] + np.arange(len(src))
        ext_cuts = [0, *ends[n_rep - 1::n_rep].tolist()]
        per = per.reshape(n_blk, n_rep)
        c0s = per[:, 0].tolist()
        wide1s = per[:, 1:].max(axis=1, initial=0).tolist()
        if logged:
            # where replica 0's branchings of each step start and end
            lo0, hi0 = group.searchsorted(
                np.arange(n_blk) * n_rep + [[0], [1]]).tolist()
        if deaths:
            gone = ks == 0
            dead = at[gone]
            dead_cuts = step[gone].searchsorted(
                np.arange(n_blk + 1)).tolist()
        scale = math.sqrt(h)
        for s in range(n_blk):
            i = start + s
            t1 = horizon if i == n_steps - 1 else (i + 1) * dt
            rng.standard_normal(out=z)
            z *= scale
            slots += z

            c0, wide1 = c0s[s], wide1s[s]
            if logged and hi0[s] > lo0[s]:
                # rows only for live slots: a dead slot's branching is no
                # event; replica 0's offsets index parent too
                b = slice(lo0[s], hi0[s])
                vals = flat[at[b]]
                live = vals > -math.inf
                slot = at[b][live]
                k0 = ks[b][live]
                row = len(branches)
                branches.extend(zip([t1] * len(k0), parent[slot].tolist(),
                                    vals[live].tolist(), k0.tolist()))
                born = np.full(len(vals), -1, dtype=np.int64)
                born[live] = np.arange(row, row + len(k0))
                parent[slot] = born[live]
                parent[cap - c0:cap] = born.repeat(n_ext[b])
            if deaths:
                flat[dead[dead_cuts[s]:dead_cuts[s + 1]]] = -math.inf

            # the rows with fewer extras than the widest are padded with
            # -inf; one partition keeps the N rightmost
            if wide1:
                buf[1:, cap - wide1:cap] = -math.inf
            e0, e1 = ext_cuts[s], ext_cuts[s + 1]
            flat[dst[e0:e1]] = flat[src[e0:e1]]
            if wide1:
                buf[1:, cap - wide1:].partition(wide1, axis=1)
            if c0:
                # replica 0 selects through argpartition, logged or not, so
                # its genealogy rides along without changing the arrangement
                span = buf[0, cap - c0:]
                keep = span.argpartition(c0)[c0:]
                buf[0, cap:] = span[keep]
                if logged:
                    parent[cap:] = parent[cap - c0:][keep]

            if (i + 1) % sample_steps == 0 or i == n_steps - 1:
                times.append(t1)
                counts.append(counts_now())
                for al in cfg.alphas:
                    meds[al].append(med_alpha(slots, al, n_sel))

    count_table = np.asarray(counts, dtype=float)
    med_table = {al: np.asarray(meds[al]) for al in cfg.alphas}
    series, final = [], []
    for r in range(n_rep):
        columns = {"count": count_table[:, r].copy()}
        for al in cfg.alphas:
            columns[f"med_{al:g}"] = med_table[al][:, r].copy()
        series.append(StatsSeries(np.asarray(times), columns, replica=r))
        final.append(slots[r][slots[r] > -math.inf])
    return series, final, (growths, peak, cap)


def run_nbbm(cfg: SimConfig, branches: list | None = None) -> NbbmResult:
    """Branching Brownian motion keeping only the n_select right-most particles.

    Free space, no drift: the front travels at its selection-limited speed,
    read off the alpha-medians.  Default horizon is 20 ln^3 N, the relaxation
    scale of the system.  Steps are dt long, except the last, which ends at
    the horizon.  A particle branches at most once per step, with probability
    1 - e^(-beta0 h), so mean growth per step is 1 + m (1 - e^(-beta0 h)), not
    e^(h/2): a first-order bias (ROADMAP item 15) that puts the binary law's
    speed at 0.929 at h = 0.1, against about 0.951 with exact family sizes.  A
    particle with k = 0 children dies, so the count may fall below n_select.
    All replicas step together on the one stream rng_stream(seed, 0, nbbm
    lane), in blocks of steps: per block, the branching slots and then the
    offspring counts of all its steps; per step, one normal per slot.  The
    last step is a block of its own, and a block's expected branchings stay
    within a fixed budget unless one step alone exceeds it.  A slot branches
    independently of where its particle is, so drawing ahead changes only
    the order of the draws (0.14.0), not the law, the bias above included.
    With a `branches` list, replica 0 appends an events.csv row per
    branching (`runio.write_events_csv`), k = 0 included, without changing
    the draws.  The result counts the buffer's growths, the most extra
    children one replica took in one step and the final room for them.
    """
    if cfg.n_select is None or cfg.n_select < 2:
        raise ValueError("run_nbbm needs n_select >= 2")
    cfg.validate()
    constants = recentering(cfg.n_select) if cfg.n_select >= 16 else None
    horizon = cfg.horizon if cfg.horizon is not None \
        else 20.0 * math.log(cfg.n_select) ** 3
    series, final, counters = _nbbm_batch(cfg, horizon, branches)
    return NbbmResult(series, cfg.n_select, constants, horizon, cfg.dt, final,
                      *counters)


# ---------------------------------------------------------------------------
# barrier path


@dataclass
class BarrierPiece:
    """One constant-then-rising stretch of the barrier displacement.

    On [t_start, t_end) the displacement is base until t_plus, then
    base + f_delta((t - t_plus) / a^2).  delta is None while the piece is
    still waiting for its breakout response.
    """

    t_start: float
    base: float
    t_plus: float | None = None
    delta: float | None = None
    t_end: float = math.inf


class BarrierPath:
    """Piecewise barrier displacement X(t), ratcheting forward at breakouts.

    install(T, T_plus, delta) closes the open piece: the response curve
    f_delta starts at T_plus, the piece freezes at
    Theta = max(T + e^A a^2, T_plus), and the next piece opens there at the
    frozen level.  X is continuous and nondecreasing piece to piece whenever
    delta >= 0; a negative delta (shrunken breakout) lets X dip within its
    piece, which the dynamics tolerate.
    """

    def __init__(self, iv: IntervalParams, A: float) -> None:
        if not A > 0.0:
            raise ValueError(f"A must be > 0, got {A!r}")
        self.iv = iv
        self.A = A
        self.pieces: list[BarrierPiece] = [BarrierPiece(t_start=0.0, base=0.0)]

    def _piece_at(self, t: float) -> BarrierPiece:
        if t < 0.0:
            raise ValueError(f"barrier path queried at t = {t!r} < 0")
        for piece in reversed(self.pieces):
            if t >= piece.t_start:
                return piece

    def _value(self, piece: BarrierPiece, t: float) -> float:
        if piece.delta is None or t <= piece.t_plus:
            return piece.base
        return piece.base + barrier_f(piece.delta,
                                      (t - piece.t_plus) / self.iv.a ** 2)

    def shift(self, t: float) -> float:
        last = self.pieces[-1]
        if last.delta is None and t >= last.t_start:  # the open, flat piece
            return last.base
        return self._value(self._piece_at(t), t)

    def install(self, t_break: float, t_plus: float, delta: float) -> float:
        """Close the open piece with a response; returns its freeze time Theta."""
        piece = self.pieces[-1]
        if piece.delta is not None:
            raise RuntimeError("open piece already carries a response")
        if not t_break >= piece.t_start:
            raise ValueError(f"breakout at {t_break!r} is not in the open "
                             f"piece (from {piece.t_start!r})")
        if not t_plus >= t_break:
            raise ValueError(f"response {t_plus!r} does not follow the breakout")
        if not -1.0 < delta < math.inf:
            raise ValueError(f"delta must be finite and > -1, got {delta!r}")
        piece.t_plus = t_plus
        piece.delta = delta
        theta = max(t_break + math.exp(self.A) * self.iv.a ** 2, t_plus)
        frozen = self._value(piece, theta)
        piece.t_end = theta
        self.pieces.append(BarrierPiece(t_start=theta, base=frozen))
        return theta


# ---------------------------------------------------------------------------
# barrier runners


@dataclass
class BarrierResult:
    """Series and breakout bookkeeping for one barrier-frame replica.

    wall_hits and trials_run are one count: the population's hits and the
    trial lineages that land beyond the wall, each of which launches one
    trial.
    breakout_waits counts the breakouts whose decision waited for an
    earlier trial, breakout_wait_time their total wait.  peak_count is the
    largest population at a step end (the start included) and max_pop the
    population cap that raises CapacityError.
    """

    series: StatsSeries
    path: BarrierPath
    pieces: list[dict]
    mode: str
    trials_run: int
    suppressed_breakouts: int
    clamped_responses: int
    reinjected: int
    wall_hits: int
    depth_capped: int = 0
    breakout_waits: int = 0
    breakout_wait_time: float = 0.0
    colour_stats: dict = field(default_factory=dict)
    final_positions: np.ndarray | None = None
    peak_count: int | None = None
    max_pop: int | None = None


def _require(cfg: SimConfig, *names: str) -> None:
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise ValueError(f"config is missing required fields: {missing}")


def _blue_due(col, expy, now):
    """Mask of the blue particles whose expiry falls by time `now`."""
    return (col == _BLUE) & (expy <= now + 1e-9)


def _sharp_expire(pos, col, expy, now, n_sharp, permissive, stats):
    """Apply the expiry rule to due blue particles.

    Expired blues left of the origin are killed; under the permissive
    variant only those still seeing n_sharp particles strictly to their
    right are.  Survivors re-whiten.
    """
    due = _blue_due(col, expy, now)
    if not due.any():
        return pos, col, expy
    doomed = due & (pos < 0.0)
    if permissive and doomed.any():
        srt = np.sort(pos)
        right = len(pos) - np.searchsorted(srt, pos, side="right")
        doomed &= right >= n_sharp
    stats["blue_killed"] += int(doomed.sum())
    stats["rewhitened"] += int((due & ~doomed).sum())
    col = np.where(due & ~doomed, _WHITE, col)
    expy = np.where(due & ~doomed, math.inf, expy)
    keep = ~doomed
    return pos[keep], col[keep], expy[keep]


@dataclass
class _Replica:
    """Breakout bookkeeping of one replica in a batched barrier run."""

    path: BarrierPath
    pending: tuple[float, float] | None = None
    pieces: list[dict] = field(default_factory=list)
    frozen: int = 0  # the index of the next piece to freeze, in both lists
    stats: dict = field(default_factory=lambda: dict.fromkeys(
        ("red_killed", "blue_created", "blue_killed", "rewhitened",
         "white_killed_at_origin"), 0))
    suppressed: int = 0
    clamped: int = 0

    def response_due(self, t1: float) -> bool:
        """Whether the pending barrier response falls by the step end t1."""
        return self.pending is not None and self.pending[1] <= t1 + 1e-9

    def freeze_due(self, t1: float) -> bool:
        """Whether the next piece of the path to freeze does so by t1;
        the open last piece never does (its t_end is inf)."""
        return self.path.pieces[self.frozen].t_end <= t1 + 1e-9


def _tally(reps: list[_Replica], key: str, r_ids: np.ndarray) -> None:
    """Add each replica's number of entries in r_ids to its stats[key]."""
    counts = np.bincount(r_ids, minlength=len(reps))
    for r in np.flatnonzero(counts):
        reps[r].stats[key] += int(counts[r])


def _replica_bounds(rep: np.ndarray, replicas: int) -> list[int]:
    """Slice bounds of each replica in a replica-sorted id array."""
    return np.searchsorted(rep, np.arange(replicas + 1)).tolist()


def _joined(*parts):
    """Concatenate aligned tuples of arrays field by field."""
    return tuple(np.concatenate(x) for x in zip(*parts))


def _barrier_batch(cfg: SimConfig, mode: str) -> list[BarrierResult]:
    _require(cfg, *REQUIRED_FIELDS[mode])
    cfg.validate()
    iv, A, eps = cfg.interval, cfg.A, cfg.epsilon
    y, zeta, dt = cfg.y, cfg.zeta, cfg.dt
    a, mu = iv.a, iv.mu
    if not y < a:
        raise ValueError(f"y must be < a, got y = {y!r}, a = {a!r}")
    if not zeta < y / (1.0 - mu):
        raise ValueError(
            f"zeta = {zeta!r} lets the stopping line reach the wall; "
            f"need zeta < y / (1 - mu) = {y / (1.0 - mu):g}")

    sharp = mode in ("bsharp", "csharp")
    dc = cfg.delta_color if "delta_color" in REQUIRED_FIELDS[mode] else 0.0
    n_flat = hperp_count(A + dc, iv) if mode == "bflat" else 0
    n_sharp = hperp_count(A - dc, iv) if sharp else 0
    k_env = 1
    while sharp and error_envelope_E(float(k_env)) > dc / 10.0:
        k_env += 1
    sharp_period = (k_env + 3.0) * a ** 2 if sharp else math.inf

    n_med = hperp_count(A, iv)
    horizon = cfg.horizon or 1.5 * math.exp(A) * a ** 2
    if horizon == math.inf:
        raise ValueError(f"the default horizon 1.5 e^A a^2 overflows at "
                         f"A = {A!r}, a = {a!r}")
    n_steps, sample_steps = cfg.steps(horizon)
    max_pop = max(200_000, 100 * n_med)

    n_rep = cfg.replicas
    rng = rng_stream(cfg.seed, 0, _LANE_BARRIER)
    pos, rep = hperp_flat(A, iv, n_rep, rng)
    # the particles travel as one tuple (pos, rep, *colours), and a colour
    # rides along only where a rule reads it: colour codes in bflat and the
    # sharp modes, blue expiry times only in the sharp modes, none in bbbm
    parts = (pos, rep, np.zeros(len(pos), dtype=np.int8),
             np.full(len(pos), math.inf))[:2 + (mode != "bbbm") + sharp]
    bounds = _replica_bounds(rep, n_rep)
    peak = np.diff(bounds).tolist()

    reps = [_Replica(BarrierPath(iv, A)) for _ in range(n_rep)]
    # the trials of every replica, and the wall hits of the population; a
    # wall hit is a population hit or a relaunch, and each runs one trial
    pool = TrialPool(n_rep)
    pop_hits, reinjected = np.zeros((2, n_rep), dtype=np.int64)

    times = [0.0]
    rows: dict[str, list[np.ndarray]] = {}  # record's columns, in order

    def launch_trials(parts, upper, t0, h):
        """The step's wall hits launch into the trial pool with their
        colours, the pool advances through the step, its decided breakouts
        become responses or are suppressed, and the lineages that left it
        below the wall re-enter."""
        if not (upper or len(pool)):
            return parts
        # no hits: one empty chunk, the population's dtypes
        hits = _joined(*(upper or [tuple(x[:0] for x in parts)]))
        pop_hits[:] += np.bincount(hits[1], minlength=n_rep)
        out = breakout_trials(cfg.law, iv, A, eps, y, zeta,
                              n_trials=len(hits[1]), dt=h, rng=rng,
                              zeta_breakout=cfg.zeta_breakout,
                              pool=pool, t0=t0, hits=hits)
        # a replica's first decided breakout not before its open piece's
        # start takes the response unless one is pending; the rest are
        # suppressed
        dec = out.decided
        for k in np.flatnonzero(dec["is_breakout"]).tolist():
            st, t_k = reps[dec["replica"][k]], float(dec["launch"][k])
            if st.pending is not None or t_k < st.path.pieces[-1].t_start:
                st.suppressed += 1
            else:
                st.pending = (t_k, t_k + float(dec["sigma_max"][k]))
        ent = out.reentry
        r_in, c_in = ent["replica"], ent["payload"]
        if sharp:  # they lie above the origin: expired blues whiten
            col_in, exp_in = c_in
            expired = (col_in == _BLUE) & (exp_in <= t0 + h)
            _tally(reps, "rewhitened", r_in[expired])
            col_in[expired], exp_in[expired] = _WHITE, math.inf
        if len(r_in):
            reinjected[:] += np.bincount(r_in, minlength=n_rep)
            parts = _joined(parts, (ent["pos"], r_in, *c_in))
        return parts

    def land_blues(parts, origin):
        """Origin hits of whites live on as blues at the origin while their
        replica has fewer than n_sharp particles right of it."""
        t_lo, r_lo, _, _ = (np.concatenate(x) for x in zip(*origin))
        order = np.lexsort((t_lo, r_lo))
        t_lo, r_lo = t_lo[order], r_lo[order]
        n_right = np.bincount(parts[1][parts[0] > 0.0], minlength=n_rep)
        blue = n_right[r_lo] < n_sharp
        _tally(reps, "blue_created", r_lo[blue])
        _tally(reps, "white_killed_at_origin", r_lo[~blue])
        n_blue = int(blue.sum())
        return _joined(parts, (
            np.zeros(n_blue), r_lo[blue], np.full(n_blue, _BLUE, dtype=np.int8),
            (np.floor(t_lo[blue] / sharp_period) + 2.0) * sharp_period))

    def regroup(parts):
        """Sort by replica; the stable sort keeps each replica's order, and
        is skipped when the ids are sorted already."""
        rep = parts[1]
        if (rep[1:] < rep[:-1]).any():
            order = np.argsort(rep, kind="stable")
            parts = tuple(x[order] for x in parts)
        return parts

    def settle_due(parts, t1, shift1):
        """`settle` on the replicas that have a step-end rule due, each on
        its own slice; the runs of replicas in between are carried over as
        they are.  An installed response moves the replica's shift1 at t1."""
        rep = parts[1]
        due = {r for r, st in enumerate(reps)
               if st.response_due(t1) or st.freeze_due(t1)}
        if sharp:
            due.update(rep[_blue_due(*parts[2:], t1)].tolist())
        if mode == "bflat":
            # only a replica with more than N_flat whites has a white
            # seeing N_flat whites to its right
            white = np.bincount(rep[parts[2] == _WHITE], minlength=n_rep)
            due.update(np.flatnonzero(white > n_flat).tolist())
        if not due:
            return parts
        bounds = _replica_bounds(rep, n_rep)
        kept, last = [], 0
        for r in sorted(due):
            lo, hi = bounds[r], bounds[r + 1]
            own = settle(r, tuple(x[lo:hi] for x in parts[:1] + parts[2:]),
                         t1)
            shift1[r] = reps[r].path.shift(t1)
            kept += [tuple(x[last:lo] for x in parts),
                     (own[0], rep[lo:lo + len(own[0])], *own[1:])]
            last = hi
        kept.append(tuple(x[last:] for x in parts))
        return _joined(*kept)

    def settle(r: int, own, t1):
        """Step-end rules of replica r on its own (pos, *colours)."""
        st = reps[r]
        if sharp:
            own = _sharp_expire(*own, t1, n_sharp, mode == "csharp",
                                st.stats)

        if st.response_due(t1):
            t_break, t_plus = st.pending
            z_now = float(np.sum(w_Z(own[0], iv)))
            delta_raw = math.log(z_now) - A if z_now > 0.0 else -math.inf
            delta = max(delta_raw, -1.0 + 1e-9)
            if delta != delta_raw:
                st.clamped += 1
            theta = st.path.install(t_break, t_plus, delta)
            st.pieces.append({"T": t_break, "T_plus": t_plus, "Z": z_now,
                              "delta_raw": delta_raw, "delta": delta,
                              "theta": theta})
            st.pending = None

        while st.freeze_due(t1):
            piece = st.pieces[st.frozen]
            st.frozen += 1
            # diagnostic only: whether the strip below the wall and the
            # trial pool had really cleared by the freeze time
            n_strip = int(np.sum(own[0] > a - y))
            piece["in_between_at_theta"] = n_strip
            piece["outstanding_at_theta"] = n_out = pool.lineages_of(r)
            piece["clear_at_theta"] = n_strip == 0 and n_out == 0
            if mode == "bflat":
                reds = own[1] == _RED
                st.stats["red_killed"] += int(reds.sum())
                own = tuple(x[~reds] for x in own)
            if sharp:
                own = _sharp_expire(*own, math.inf, n_sharp,
                                    mode == "csharp", st.stats)

        if mode == "bflat":
            p, c = own
            whites = c == _WHITE
            n_white = int(whites.sum())
            if n_white > n_flat:
                wpos = p[whites]
                srt = np.sort(wpos)
                right = n_white - np.searchsorted(srt, wpos, side="right")
                c = c.copy()
                c[np.flatnonzero(whites)[right >= n_flat]] = _RED
                own = (p, c)
        return own

    def record(parts, bounds, shift):
        # one entry per replica and name, each taken on the replica's own
        # slice as a lone replica would take it; the medians on a
        # (replica, slot) matrix padded with -inf, one slice copy a row
        # (of the whites' slices in bflat)
        pos, rep = parts[:2]
        wz, wy = w_ZY(pos, iv)
        spans = list(zip(bounds, bounds[1:]))
        row = {"count": np.diff(bounds),
               "Z": [np.add.reduce(wz[lo:hi]) for lo, hi in spans],
               "Y": [np.add.reduce(wy[lo:hi]) for lo, hi in spans],
               "R_cum": pop_hits + pool.relaunched,
               "barrier_shift": shift.copy()}
        seen = pos
        if mode == "bflat":
            whites = parts[2] == _WHITE
            seen = pos[whites]
            row["count_white"] = np.bincount(rep[whites], minlength=n_rep)
            ends = np.cumsum(row["count_white"]).tolist()
            spans = list(zip([0, *ends], ends))
        if sharp:
            row["count_blue"] = np.bincount(rep[parts[2] == _BLUE],
                                            minlength=n_rep)
        slots = np.full((n_rep, max(hi - lo for lo, hi in spans)), -math.inf)
        for r, (lo, hi) in enumerate(spans):
            slots[r, :hi - lo] = seen[lo:hi]
        for al in cfg.alphas:
            row[f"med_{al:g}"] = med_alpha(slots, al, n_med)
        for k, v in row.items():
            rows.setdefault(k, []).append(v)

    # each replica's barrier shift at the step's end, evaluated once per
    # step; a step starts from the shift its predecessor ended on, so the
    # frame displacement telescopes exactly
    shift1 = np.zeros(n_rep)
    record(parts, bounds, shift1)

    for i in range(n_steps):
        t0 = i * dt
        h = min(dt, horizon - t0)
        t1 = t0 + h
        shift0, shift1 = shift1, np.array([st.path.shift(t1) for st in reps])
        pos, rep, cols, origin, upper, _ = step_segments(
            *parts[:2], parts[2:], t0=t0, h=h,
            drift=-mu - (shift1 - shift0) / h, law=cfg.law, rng=rng,
            upper=a, origin_ignores=parts[2] == _BLUE if sharp else None)
        parts = launch_trials((pos, rep, *cols), upper, t0, h)
        if sharp and origin:
            parts = land_blues(parts, origin)
        parts = settle_due(regroup(parts), t1, shift1)

        bounds = _replica_bounds(parts[1], n_rep)
        counts = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        if max(counts) > max_pop:
            r = counts.index(max(counts))
            raise CapacityError(f"replica {r}: population {counts[r]} "
                                f"exceeds the cap {max_pop}")
        peak = list(map(max, peak, counts))
        if (i + 1) % sample_steps == 0 or i == n_steps - 1:
            times.append(t1)
            record(parts, bounds, shift1)

    table = {k: np.array(v, dtype=float) for k, v in rows.items()}
    wall_hits = pop_hits + pool.relaunched
    results = []
    for r, st in enumerate(reps):
        columns = {k: v[:, r].copy() for k, v in table.items()}
        series = StatsSeries(np.array(times), columns, replica=r,
                             meta={"mode": mode, "n_med": n_med})
        colour_stats = dict(st.stats)
        if mode == "bflat":
            colour_stats["n_flat"] = n_flat
        if sharp:
            colour_stats["n_sharp"] = n_sharp
            colour_stats["period"] = sharp_period
        results.append(BarrierResult(
            series=series, path=st.path, pieces=st.pieces, mode=mode,
            trials_run=int(wall_hits[r]), wall_hits=int(wall_hits[r]),
            suppressed_breakouts=st.suppressed,
            clamped_responses=st.clamped, reinjected=int(reinjected[r]),
            depth_capped=int(pool.depth_capped[r]),
            breakout_waits=int(pool.waits[r]),
            breakout_wait_time=float(pool.wait_time[r]),
            colour_stats=colour_stats,
            final_positions=parts[0][bounds[r]:bounds[r + 1]].copy(),
            peak_count=peak[r], max_pop=max_pop))
    return results


def run_bbbm(cfg: SimConfig) -> list[BarrierResult]:
    """Barrier-frame runs, one per replica: absorbing origin, ratcheting
    right barrier.

    Particles diffuse with drift -mu in the frame of the barrier, whose
    displacement, evaluated once per step, adds the extra drift -X'(t),
    linearised within each step.  A particle touching the right wall
    starts a fugitive trial above the stopping line; the trial's frozen
    descendants re-enter the population at the end of the step in which
    they froze, and one landing beyond the wall starts a nested trial, down
    to depth 3.  The first breakout at or after the previous freeze time
    Theta installs the next barrier response with
    Delta = log(Z(T+) e^-A), clamped just above -1 when the observed mass
    sits below the e^-A floor.

    All cfg.replicas replicas advance together in replica-tagged flat
    arrays on the one stream rng_stream(seed, 0, barrier lane), each with
    its own barrier path and counters, and their trials share one
    `TrialPool` that `breakout_trials` steps once per runner step.  A
    trial's outcome is known when its last lineage leaves the pool, and
    breakouts are decided in hit-time order per replica: the earliest
    eligible one takes the response unless one is pending, the others are
    suppressed, and a finished breakout waits for every earlier trial of
    its replica (breakout_waits, breakout_wait_time).  A piece's
    outstanding_at_theta counts its replica's pool lineages at Theta.
    Memory grows with replicas x population: the population cap (max_pop)
    bounds each replica, not the batch.
    """
    return _barrier_batch(cfg, "bbbm")


def run_bflat(cfg: SimConfig) -> list[BarrierResult]:
    """Barrier runs, one per replica, whose measure drops over-crowded
    particles.

    A white particle seeing at least N_flat whites of its replica strictly
    to its right turns red (checked at step ends); reds keep diffusing and
    branching but are culled at each barrier freeze time, and the reported
    medians and white counts are over whites only.  N_flat is the profile
    count hperp_count(A + delta_color, iv).  Replicas are batched as in
    `run_bbbm`.
    """
    return _barrier_batch(cfg, "bflat")


def run_bsharp(cfg: SimConfig, csharp: bool = False) -> list[BarrierResult]:
    """Barrier runs, one per replica, that let under-crowded origin hits
    live on as blues.

    A white hitting the origin while fewer than N_sharp particles of its
    replica sit strictly right of it turns blue at the origin instead of
    dying; blues ignore the origin until their expiry, two cells of the
    (K + 3) a^2 time grid after the hit (or the next barrier freeze,
    whichever is first).  At expiry a blue left of the origin is killed
    (csharp: only when N_sharp particles sit strictly to its right) and
    survivors re-whiten.  N_sharp is hperp_count(A - delta_color, iv).
    Statistics are over all particles, replicas batched as in `run_bbbm`.

    At desk scale these modes do not reach their first blue expiry: blues
    branch unchecked for two cells, 200 time units at a = 5, so every
    geometry tried (a = 3.5 to 5, A = 1 to 2) passes the population cap of
    200k particles first and raises CapacityError.  Only unit tests reach
    the expiry path.  CHANGES.md records this as a FOUND line; ROADMAP
    item 3 asks for a geometry and a configurable cap where it runs.
    """
    return _barrier_batch(cfg, "csharp" if csharp else "bsharp")


# ---------------------------------------------------------------------------
# coupled triple


class CouplingError(RuntimeError):
    """A coupling invariant failed: a pairing, domination or an offset."""


@dataclass
class CoupledResult:
    """Outcome of one coupled three-system run."""

    events: int
    checks: int
    horizon: float
    n_select: int
    slack: int
    extra: int
    final_plus: np.ndarray
    final_mid: np.ndarray
    final_minus: np.ndarray

    @property
    def dominance_verified(self) -> bool:
        return self.checks == self.events


def check_coupling(p_x: np.ndarray, m_off: np.ndarray,
                   w_off: np.ndarray) -> None:
    """Raise CouplingError unless a coupled three-system state is sound.

    The state is the live head of `run_coupled`'s three slot rows: p_x[i]
    is plus particle i, m_off[i] the offset of the mid that rides it and
    w_off[i] the offset of the minus that rides that mid, -inf where there
    is no rider.  The mid sits at fl(p_x[i] - m_off[i]) and the minus at
    fl(that - w_off[i]).  Any other offset, NaN included, is a rider.  A
    slot holds at most one rider per row, so both pairings are injective
    and every mid's carrier is live by construction.  Checked in this
    order: no slot holds a minus without a mid (the one structural guard),
    plus dominates mid and mid dominates minus in ranked order, and every
    offset is nonnegative, each up to 1e-12.

    The certificate: with every offset >= 0 (a NaN offset is not) and
    every plus position finite, each lower particle sits at fl(x - d) <= x,
    never NaN, weakly left of its own carrier at x.  An injective pairing
    to carriers weakly right puts the k-th rightmost lower particle weakly
    left of the k-th rightmost carrier, so both ranked dominations hold
    without their slack, the offset clause holds, and nothing is sorted.
    Every other state is decided by the sorted comparison and the offset
    clause.
    """
    m_live, w_live = m_off != -np.inf, w_off != -np.inf
    if np.count_nonzero(w_live > m_live):
        raise CouplingError("minus-to-mid pairing points at a dead carrier")
    # the certificate
    if (np.count_nonzero(m_off >= 0.0) == np.count_nonzero(m_live)
            and np.count_nonzero(w_off >= 0.0) == np.count_nonzero(w_live)
            and np.isfinite(p_x).all()):
        return
    # lower positions and the 1e-12 slack applied in place; subtracting a
    # constant keeps sorted order, so it may follow the sort
    mo, wo = m_off[m_live], w_off[w_live]
    m = p_x[m_live] - mo
    w = p_x[w_live] - m_off[w_live]
    w -= wo
    p = np.sort(p_x)
    m.sort()
    w.sort()
    w -= 1e-12
    nm, nw = len(m), len(w)
    # count_nonzero(b) < len(b) is not b.all(), at a third of the cost;
    # mid vs minus is judged before m takes its slack, raised after plus
    # vs mid
    mid_over_minus = nm >= nw and np.count_nonzero(m[nm - nw:] >= w) == nw
    m -= 1e-12
    if len(p) < nm or np.count_nonzero(p[len(p) - nm:] >= m) < nm:
        raise CouplingError("domination order violated (plus vs mid)")
    if not mid_over_minus:
        raise CouplingError("domination order violated (mid vs minus)")
    if min(mo.min(initial=0.0), wo.min(initial=0.0)) < -1e-12:
        raise CouplingError("negative pairing offset")


def _delete(s: np.ndarray, n: int, i: int) -> None:
    """Drop slot i of s[:, :n] in place: the tail shifts left, so slot order
    is kept."""
    s[:, i:n - 1] = s[:, i + 1:n]


def _branch(s: np.ndarray, n: int, i: int, k: int) -> int:
    """Replace slot i of s[:, :n] in place by k copies of it at the end,
    written past slot n - 1 before slot i goes; returns the new length."""
    s[:, n:n + k] = s[:, i:i + 1]
    _delete(s, n + k, i)
    return n + k - 1


def _leftmost_free(x: np.ndarray, taken: np.ndarray, at: float,
                   system: str) -> int:
    """Slot of the leftmost particle at x >= at - 1e-12 whose slot `taken`
    does not mark; the lowest slot wins a tie."""
    y = np.where(x >= at - 1e-12, x, np.inf)
    y[taken] = np.inf
    b = int(y.argmin())
    if y[b] == np.inf:
        raise CouplingError(f"no free {system} carrier weakly right of an "
                            f"orphaned particle")
    return b


def run_coupled(law: ReproductionLaw, n_select: int, *, horizon: float,
                seed: int = 0, replica: int = 0, slack: int = 0,
                extra: int = 0) -> CoupledResult:
    """Drive three selection systems on shared noise and verify domination.

    The plus system trims to n_select + slack only when it exceeds that,
    the mid system applies the exact keep-n_select rule, and the minus
    system over-culls to n_select - extra whenever it exceeds n_select.
    Mid particles ride plus particles through an injective pairing at
    nonnegative offset (and minus particles ride mid ones), so each lower
    system is a shifted-left subset of the one above and paired particles
    share increments.  Kills in an upper system re-pair the orphaned lower
    particle with the leftmost free carrier weakly to its right; the
    coupling argument guarantees one exists.

    The state is one slot per plus particle, in three rows of one array:
    P[i] is plus particle i, MO[i] the offset of the mid that rides it and
    WO[i] the offset of the minus that rides that mid, -inf where there is
    none.  The mid sits at P[i] - MO[i] and the minus WO[i] left of it.
    The counts of the three systems are kept as ints.  The array is the
    head of a capacity array allocated once, room for the largest plus
    system plus the copies of one branch, and is edited in place.  A
    branching slot is deleted by shifting the tail left and its k copies,
    riders included, are written at the end; a death (k = 0) drops the
    slot and its riders.  A plus kill deletes its slot, a mid or minus
    kill sets its offset to -inf, and a re-pairing moves the orphan's
    offset (a mid takes its minus's offset along) to the free slot it
    finds.

    Slot order breaks every tie in the kill and re-pairing rules.
    Positions tie only between siblings born in the current event; they
    sit in consecutive slots in sibling order across all three rows, and
    no re-pairing moves one before the choices among them are made, so
    the lowest slot is the earliest born in each system.  Each system
    drops its doomed particles one leftmost particle at a time, the lowest
    slot on a tie.  A mid kill re-pairs its orphan at once.  A plus cull
    first removes all its doomed particles, then re-pairs their orphans,
    rightmost first and the later deleted on a tie: tied orphans ride
    tied plus siblings, which die in birth order, so that is the later
    born.  After every event `check_coupling` judges the live heads of
    the three rows, and raises CouplingError on any violation.  The slots
    make both pairings injective and every mid's carrier live, so one
    structural guard is left: no minus in a slot without a mid.  Then
    nonnegative offsets below finite plus positions certify domination
    without a sort; only a state that fails this certificate has its
    three systems sorted and compared in ranked order, and its offset
    signs checked.  The final positions are taken from the slots with the
    check's float operations, the minus at fl(fl(P[i] - MO[i]) - WO[i]).

    With slack = extra = 0 the three systems coincide sample-path-wise.
    Event-driven and exact: no time discretisation enters.
    """
    if n_select < 2:
        raise ValueError(f"n_select must be >= 2, got {n_select!r}")
    if slack < 0 or extra < 0 or extra > n_select - 1:
        raise ValueError(f"need slack >= 0 and 0 <= extra <= n_select - 1, "
                         f"got slack = {slack!r}, extra = {extra!r}")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, "
                         f"got {horizon!r}")
    rng = rng_stream(seed, replica, _LANE_COUPLED)
    # capacity arrays in capitals, their live heads in lower case: between
    # events plus holds at most n_select + slack particles, and a branch
    # writes k_max copies before it drops its slot, where
    # k_max = len(law.probabilities) - 1 is the largest offspring count
    cap = n_select + slack + len(law.probabilities) - 1
    S = np.zeros((3, cap))
    P, MO, WO = S
    P[:n_select] = _initial_front(n_select, rng)
    MX, WX = np.empty(cap), np.empty(cap)  # the culls' working positions
    n_p = n_m = n_w = n_select
    inf, none = math.inf, -math.inf  # none: the offset where no rider is

    t = 0.0
    events = checks = 0
    beta0 = law.beta0

    while n_p:
        wait = rng.exponential(1.0 / (beta0 * n_p))
        step = min(wait, horizon - t)
        if step > 0.0:
            P[:n_p] += rng.normal(0.0, math.sqrt(step), n_p)
        t += step
        if wait >= horizon - (t - step):
            break
        events += 1

        # branching cascade: the chosen plus particle and its riders branch
        # together with a common offspring count
        v = int(rng.integers(n_p))
        k = int(sample_offspring(law, 1, rng)[0])
        if MO[v] > none:
            n_m += k - 1
            if WO[v] > none:
                n_w += k - 1
        n_p = _branch(S, n_p, v, k)

        # kill rules, lowest system first; each system drops its leftmost
        # particle one at a time, the lowest slot on a tie (argmin takes
        # the first index).  A slot without a mid holds m_x = inf, and one
        # without a minus w_x = inf
        p_x = P[:n_p]
        m_x = np.subtract(p_x, MO[:n_p], out=MX[:n_p])
        if n_w > n_select:
            w_x = np.subtract(m_x, WO[:n_p], out=WX[:n_p])
            while n_w > n_select - extra:
                j = int(w_x.argmin())
                WO[j], w_x[j] = none, inf
                n_w -= 1

        while n_m > n_select:
            u = int(m_x.argmin())
            if WO[u] > none:
                # re-paired before u goes: WO[u] keeps u taken
                orphan_x = m_x[u] - WO[u]
                b = _leftmost_free(m_x, WO[:n_p] > none, orphan_x, "mid")
                WO[b] = m_x[b] - orphan_x
            MO[u], WO[u], m_x[u] = none, none, inf
            n_m -= 1

        # an orphan of the plus cull waits, with its minus offset, until
        # all doomed particles are gone; its position is the m_x it had
        orphans = []
        for order in range(n_p - (n_select + slack)):
            i = int(p_x.argmin())
            if MO[i] > none:
                orphans.append((p_x[i] - MO[i], order, WO[i]))
            _delete(S, n_p, i)
            n_p -= 1
            p_x = P[:n_p]
        # re-pair the rightmost orphan first, the later deleted on a tie
        for orphan_x, _, wo in sorted(orphans, reverse=True):
            b = _leftmost_free(p_x, MO[:n_p] > none, orphan_x, "plus")
            MO[b], WO[b] = p_x[b] - orphan_x, wo

        check_coupling(P[:n_p], MO[:n_p], WO[:n_p])
        checks += 1

    p_x, m_off, w_off = S[:, :n_p]
    m_x = p_x - m_off  # inf where no mid rides
    w_x = m_x - w_off
    return CoupledResult(events=events, checks=checks, horizon=horizon,
                         n_select=n_select, slack=slack, extra=extra,
                         final_plus=np.sort(p_x)[::-1],
                         final_mid=np.sort(m_x[m_off > none])[::-1],
                         final_minus=np.sort(w_x[w_off > none])[::-1])
