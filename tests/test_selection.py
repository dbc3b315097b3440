"""Selection rules, the ratcheting barrier, the coloured variants and the
coupled triple."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbbm import ensemble, selection
from nbbm.engine import ReproductionLaw, SimConfig, rng_stream
from nbbm.ensemble import (_branch_slots, breakout_trials, hperp_flat,
                           step_segments)
from nbbm.kernels import (IntervalParams, barrier_f, error_envelope_E,
                          thbar, w_Y, w_Z)
from nbbm.levy import recentering
from nbbm.selection import (
    _BLUE,
    _LANE_BARRIER,
    _WHITE,
    BarrierPath,
    CouplingError,
    _leftmost_free,
    _sharp_expire,
    check_coupling,
    med_alpha,
    run_bbbm,
    run_bflat,
    run_bsharp,
    run_coupled,
    run_nbbm,
)
from nbbm.stats import speed_estimate

from barrier_reference import FINAL_STATS, _barrier_run, final_stats
from conftest import assert_close
from coupled_reference import run_coupled_dicts
from nbbm_reference import _trim_rightmost, run_nbbm_reference


# ---------------------------------------------------------------------------
# median of a counting measure


def test_med_alpha_five_atoms():
    assert med_alpha([1.0, 2.0, 3.0, 4.0, 5.0], 0.5, 5) == 3.0


def test_med_alpha_too_few_atoms_is_minus_inf():
    assert med_alpha([1.0], 0.5, 5) == -math.inf
    assert med_alpha([], 0.5, 5) == -math.inf


def test_med_alpha_translation_equivariance():
    base = [0.3, 1.7, 2.2, 4.0, 4.1]
    assert med_alpha([x + 2.5 for x in base], 0.5, 5) == \
        med_alpha(base, 0.5, 5) + 2.5


def test_med_alpha_validation():
    with pytest.raises(ValueError):
        med_alpha([1.0], 0.0, 5)
    with pytest.raises(ValueError):
        med_alpha([1.0], 1.0, 5)
    with pytest.raises(ValueError):
        med_alpha([1.0], 0.5, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=0, max_size=30),
       st.lists(st.floats(-50, 50), min_size=0, max_size=10),
       st.floats(0.05, 0.95), st.integers(1, 40))
def test_med_alpha_monotone_under_added_atoms(base, extra, alpha, n):
    assert med_alpha(base, alpha, n) <= med_alpha(base + extra, alpha, n)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(0, 10)),
                min_size=1, max_size=30),
       st.floats(0.05, 0.95), st.integers(1, 40))
def test_med_alpha_monotone_under_right_shifts(pairs, alpha, n):
    lo = [x for x, _ in pairs]
    hi = [x + s for x, s in pairs]
    assert med_alpha(lo, alpha, n) <= med_alpha(hi, alpha, n)


def test_med_alpha_takes_one_population_per_row():
    rows = np.array([[3.0, -math.inf, 1.0, 2.0, 5.0],
                     [-math.inf, 4.0, -math.inf, -math.inf, 0.5]])
    for alpha in (0.2, 0.5, 0.8):
        levels = med_alpha(rows, alpha, 5)
        assert levels.shape == (2,)
        for row, level in zip(rows, levels):
            assert level == med_alpha(row[row > -math.inf], alpha, 5)
    assert np.all(med_alpha(rows[:, :2], 0.9, 5) == -math.inf)


# ---------------------------------------------------------------------------
# keep-the-right-most selection of the reference lane


def test_selection_removes_two_smallest():
    pos = np.array([3.0, 1.0, 5.0, 0.5, 4.0])
    kept, ids = _trim_rightmost(pos, 3, np.arange(5))
    assert sorted(kept) == [3.0, 4.0, 5.0]
    # aligned arrays keep the entries of the kept positions
    assert np.array_equal(pos[ids], kept)


def test_selection_noop_when_under_count():
    pos, ids = np.array([1.0, 2.0]), np.array([7, 8])
    kept, kept_ids = _trim_rightmost(pos, 5, ids)
    assert kept is pos and kept_ids is ids


def test_selection_rejects_bad_count():
    with pytest.raises(ValueError):
        _trim_rightmost(np.array([1.0]), 0)


# ---------------------------------------------------------------------------
# free-space N-particle runs


@pytest.fixture(scope="module")
def nbbm_small(binary_law):
    cfg = SimConfig(binary_law, dt=0.1, replicas=2, seed=3, n_select=16,
                    alphas=(0.25, 0.5, 0.75))
    return run_nbbm(cfg)


def test_nbbm_defaults_and_count_contract(nbbm_small):
    res = nbbm_small
    assert_close(res.horizon, 20.0 * math.log(16) ** 3, 1e-9)
    assert res.constants.n == 16
    for s in res.series:
        # binary law: the count can only grow, so selection pins it at N
        assert np.all(s.columns["count"] == 16.0)
    assert all(len(fp) == 16 for fp in res.final_positions)


def test_nbbm_medians_ordered_in_alpha(nbbm_small):
    m25 = nbbm_small.med_matrix(0.25)
    m50 = nbbm_small.med_matrix(0.5)
    m75 = nbbm_small.med_matrix(0.75)
    assert m25.shape == (2, len(nbbm_small.times))
    assert np.all(m25 >= m50) and np.all(m50 >= m75)


def test_nbbm_median_advances(nbbm_small):
    # the front moves at a positive speed; by the horizon the median has
    # travelled far from its O(a_N) start
    m50 = nbbm_small.med_matrix(0.5)
    assert np.all(m50[:, -1] > 100.0)


def test_nbbm_needs_two_particles(binary_law):
    with pytest.raises(ValueError):
        run_nbbm(SimConfig(binary_law, n_select=1, horizon=1.0))
    with pytest.raises(ValueError):
        run_nbbm(SimConfig(binary_law, horizon=1.0))


def _nbbm_logged(law, logged=True):
    # N = 30 over 60 steps of 0.1; replica 1 runs too but is not logged
    cfg = SimConfig(law, dt=0.1, horizon=6.0, replicas=2, seed=5,
                    n_select=30)
    branches = [] if logged else None
    return run_nbbm(cfg, branches), branches


def test_nbbm_parents_precede_their_events(mixed_law):
    # the founders are the 30 initial particles, numbered -1 to -30; a
    # branching particle is replaced by its children, so each founder and
    # each event parents at most one event per child, one step later at
    # the earliest
    _, rows = _nbbm_logged(mixed_law)
    time, parent, _, ks = (np.array(c) for c in zip(*rows))
    assert len(rows) > 30
    assert np.all((parent >= -30) & (parent < np.arange(len(rows))))
    assert np.bincount(-1 - parent[parent < 0]).max() == 1
    inner = parent >= 0
    assert np.all(np.bincount(parent[inner], minlength=len(rows)) <= ks)
    assert np.all(time[parent[inner]] < time[inner])


def test_nbbm_event_log_rows_sit_on_the_step_grid(mixed_law):
    res, rows = _nbbm_logged(mixed_law)
    time, _, _, ks = (np.array(c) for c in zip(*rows))
    # k = 0 deaths are events too
    assert np.any(ks == 0) and set(ks.tolist()) <= {0, 2, 3}
    grid = [(i + 1) * 0.1 for i in range(60)]
    assert np.all(np.isin(time, grid)) and np.all(np.diff(time) >= 0.0)
    assert time[0] > 0.0 and time[-1] <= res.horizon


def test_nbbm_event_log_deterministic(mixed_law):
    assert _nbbm_logged(mixed_law)[1] == _nbbm_logged(mixed_law)[1]


def test_nbbm_genealogy_leaves_the_draws_unchanged(mixed_law):
    logged, rows = _nbbm_logged(mixed_law)
    plain, _ = _nbbm_logged(mixed_law, logged=False)
    assert rows
    assert np.array_equal(logged.med_matrix(0.5), plain.med_matrix(0.5))
    for a, b in zip(logged.final_positions, plain.final_positions):
        assert np.array_equal(a, b)


def test_nbbm_last_step_ends_at_the_horizon(binary_law):
    # dt = 1 and horizon = 1.25: one full step, then one of 0.25 that
    # branches with probability 1 - e^(-beta0 / 4), not 1 - e^-beta0
    n = 2000
    cfg = SimConfig(binary_law, dt=1.0, horizon=1.25, seed=4, n_select=n)
    branches = []
    res = run_nbbm(cfg, branches)
    assert res.times.tolist() == [0.0, 1.0, 1.25] and res.horizon == 1.25
    time = np.array([row[0] for row in branches])
    assert set(time.tolist()) == {1.0, 1.25}
    for t1, h in ((1.0, 1.0), (1.25, 0.25)):
        p = -math.expm1(-binary_law.beta0 * h)
        fired = np.count_nonzero(time == t1)
        assert abs(fired - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p))


@pytest.mark.parametrize("n_steps, per_step, budget", [
    (1, 5.0, 100.0), (2, 5.0, 100.0), (57, 5.0, 100.0), (57, 30.0, 100.0),
    (57, 500.0, 100.0), (41, 10.0, 100.0), (10, 0.0, 100.0)])
def test_block_plan_tiles_the_steps_within_the_budget(n_steps, per_step,
                                                      budget):
    plan = selection._block_plan(n_steps, per_step, budget)
    # every step once, in order, and the last step, which may be short,
    # alone
    assert [i for a, b in plan for i in range(a, b)] == list(range(n_steps))
    assert plan[-1] == (n_steps - 1, n_steps)
    for a, b in plan[:-1]:
        # within the budget, unless one step alone exceeds it; and only the
        # block before the last step may stop short of it
        assert (b - a) * per_step <= budget or b - a == 1
        assert b == n_steps - 1 or (b - a + 1) * per_step > budget


def test_nbbm_block_branchings_are_binomial():
    # N = 50 to horizon 10.5 at dt = 1: ten full steps in one block, then the
    # short last step alone.  Replica 0's log counts the branchings of each
    # step; at the first, a middle and the last step of the block, and at
    # the short last step, they are Binomial(N, 1 - e^(-beta0 h)) over 200
    # seeds.  A sweep of 60 other sets of 200 seeds put |z| at most 2.3 for
    # the mean and 3.4 for the variance.
    law, n, runs = ReproductionLaw.binary(), 50, 200
    per_step = n * -math.expm1(-law.beta0)
    assert selection._block_plan(11, per_step, selection._BLOCK_BRANCHINGS) \
        == [(0, 10), (10, 11)]
    fired = {1.0: [], 5.0: [], 10.0: [], 10.5: []}
    for seed in range(runs):
        branches = []
        run_nbbm(SimConfig(law, dt=1.0, horizon=10.5, seed=seed, n_select=n),
                 branches)
        time = np.array([row[0] for row in branches])
        for t1, counts in fired.items():
            counts.append(np.count_nonzero(time == t1))
    for t1, counts in fired.items():
        p = -math.expm1(-law.beta0 * (0.5 if t1 == 10.5 else 1.0))
        var = n * p * (1.0 - p)
        assert abs(np.mean(counts) - n * p) <= 5.0 * math.sqrt(var / runs), t1
        assert abs(np.var(counts, ddof=1) - var) <= \
            4.0 * var * math.sqrt(2.0 / (runs - 1)), t1


@pytest.mark.parametrize("size, rate", [(40, 0.3), (7, 2.5), (500, 0.002)])
def test_branch_slots_are_independent_bernoulli_trials(size, rate):
    # each slot branches with probability p = 1 - e^-rate, independently:
    # per-slot frequencies and the variance of the count are binomial
    rng = rng_stream(21, 0, 0)
    p, n = -math.expm1(-rate), 4000
    hits = np.zeros(size)
    totals = []
    for _ in range(n):
        idx = _branch_slots(size, rate, rng)
        assert np.all(np.diff(idx) > 0)
        assert len(idx) == 0 or 0 <= idx[0] <= idx[-1] < size
        hits[idx] += 1
        totals.append(len(idx))
    se = math.sqrt(p * (1.0 - p) / n)
    assert np.all(np.abs(hits / n - p) <= 4.5 * se)
    var = np.var(totals, ddof=1)
    var_se = size * p * (1.0 - p) * math.sqrt(2.0 / (n - 1))
    assert abs(var - size * p * (1.0 - p)) <= 4.0 * var_se + 1e-12


class _ZeroExponentials:
    """A generator stub whose exponential draws are all 0."""

    def standard_exponential(self, size=None):
        return 0.0 if size is None else np.zeros(size)


def test_branch_slots_draw_more_gaps_when_the_first_batch_falls_short():
    # with every gap 0 each slot branches: the first batch of 798 gaps ends
    # short of slot 1000, and the refill loop draws the rest
    idx = _branch_slots(1000, 1.0, _ZeroExponentials())
    assert np.array_equal(idx, np.arange(1000))


def test_nbbm_count_falls_below_n_under_deaths(mixed_law):
    # k = 0 kills a particle, so a replica can hold fewer than N; a med is
    # -inf exactly when fewer than ceil(alpha N) particles are left
    n = 20
    cfg = SimConfig(mixed_law, dt=0.1, horizon=30.0, replicas=3, seed=2,
                    n_select=n, alphas=(0.5, 0.95), sample_every=0.1)
    res = run_nbbm(cfg)
    below = []
    for s, final in zip(res.series, res.final_positions):
        count = s.columns["count"]
        assert np.all(count <= n)
        below.append(count < n)
        for alpha in cfg.alphas:
            dead = s.columns[f"med_{alpha:g}"] == -math.inf
            assert np.array_equal(dead, count < math.ceil(alpha * n))
        assert np.all(np.isfinite(final)) and len(final) == count[-1]
    below = np.concatenate(below)
    assert below.any() and not below.all()
    assert np.any(np.concatenate([s.columns["med_0.95"]
                                  for s in res.series]) == -math.inf)


def test_nbbm_extinct_replica_stays_extinct():
    # q(0) = 0.45 at N = 4: every replica soon dies out, and a dead slot
    # never comes back, whatever the other replicas do
    law = ReproductionLaw((0.45, 0.0, 0.55))
    cfg = SimConfig(law, dt=0.1, horizon=20.0, replicas=8, seed=3,
                    n_select=4, sample_every=0.1)
    res = run_nbbm(cfg)
    for s, final in zip(res.series, res.final_positions):
        count = s.columns["count"]
        gone = np.flatnonzero(count == 0)
        assert len(gone) and np.all(count[gone[0]:] == 0)
        assert np.all(s.columns["med_0.5"][gone[0]:] == -math.inf)
        assert len(final) == 0


def test_nbbm_heavy_offspring_widens_the_buffer():
    # rare 40-child branchings overflow the room left for extra children,
    # which then grows, logged or not, without changing the draws
    law = ReproductionLaw.from_dict({1: 0.99, 40: 0.01})
    cfg = SimConfig(law, dt=0.1, horizon=50.0, replicas=2, seed=1,
                    n_select=100)
    branches = []
    logged, plain = run_nbbm(cfg, branches), run_nbbm(cfg)
    time, _, _, ks = (np.array(c) for c in zip(*branches))
    _, step = np.unique(time, return_inverse=True)
    extras = np.bincount(step, weights=ks - 1)
    assert extras.max() > 40  # more than the initial room for extras
    assert np.array_equal(logged.med_matrix(0.5), plain.med_matrix(0.5))
    for a, b in zip(logged.final_positions, plain.final_positions):
        assert np.array_equal(a, b) and len(a) == 100
    # the counters see it too, and do not depend on the log
    assert logged.buffer_growths >= 1 and logged.peak_extras > 40
    assert logged.peak_extras <= logged.cap
    assert (logged.buffer_growths, logged.peak_extras, logged.cap) == \
        (plain.buffer_growths, plain.peak_extras, plain.cap)


@pytest.mark.parametrize("law_name", ["binary_law", "mixed_law"])
def test_nbbm_speed_agrees_with_the_reference_lane(law_name, request):
    # the batched lane and the one-replica-at-a-time reference draw from
    # different streams, so they agree in law: their per-replica med_0.5
    # speeds at equal dt must agree within four combined standard errors
    law = request.getfixturevalue(law_name)
    cfg = SimConfig(law, dt=0.1, horizon=150.0, replicas=12, seed=7,
                    n_select=64)
    runs = run_nbbm(cfg), run_nbbm_reference(cfg)
    speeds = [speed_estimate(res.times, res.med_matrix(0.5), 30.0)
              for res in runs]
    (v_new, se_new), (v_ref, se_ref) = speeds
    assert abs(v_new - v_ref) <= 4.0 * math.hypot(se_new, se_ref), speeds
    # so must their per-replica mean counts, which k = 0 deaths hold below
    # N; a particle that selection cut and that came back would close the
    # gap (|z| at most 2.0 over seeds 10-33 at this size)
    counts = [np.array([s.columns["count"][1:].mean() for s in res.series])
              for res in runs]
    (c_new, c_ref) = ((c.mean(), c.std(ddof=1) / math.sqrt(len(c)))
                      for c in counts)
    assert abs(c_new[0] - c_ref[0]) <= 4.0 * math.hypot(c_new[1], c_ref[1]), \
        (c_new, c_ref)


# ---------------------------------------------------------------------------
# barrier path algebra


def test_fresh_path_is_flat(iv5):
    path = BarrierPath(iv5, 1.0)
    assert [path.shift(t) for t in (0.0, 3.0, 100.0)] == [0.0, 0.0, 0.0]
    assert len(path.pieces) == 1  # one open piece, nothing frozen
    with pytest.raises(ValueError):
        path.shift(-1.0)
    with pytest.raises(ValueError):
        BarrierPath(iv5, 0.0)


def test_install_freeze_time_and_continuity(iv5):
    path = BarrierPath(iv5, 1.0)
    theta = path.install(2.0, 3.0, 0.5)
    assert_close(theta, 2.0 + math.e * 25.0, 1e-12)
    # flat until the response starts, then the response curve
    assert path.shift(2.5) == 0.0
    assert path.shift(3.0) == 0.0
    s = 4.7
    assert_close(path.shift(s), barrier_f(0.5, (s - 3.0) / 25.0), 1e-12)
    # the frozen level persists into the next piece
    frozen = barrier_f(0.5, (theta - 3.0) / 25.0)
    assert_close(path.shift(theta), frozen, 1e-12)
    assert_close(path.shift(theta + 50.0), frozen, 1e-12)
    # one frozen piece, ending at theta, and the next opening at its level
    frozen, opened = path.pieces
    assert (frozen.t_end, opened.base) == (theta, path.shift(theta))


def test_late_response_sets_the_freeze_time(iv5):
    path = BarrierPath(iv5, 1.0)
    t_plus = 2.0 + math.e * 25.0 + 7.0
    assert path.install(2.0, t_plus, 1.0) == t_plus


def test_path_accumulates_deltas(iv15):
    # with long gaps each response converges to its delta before freezing,
    # so the terminal level approaches the running sum
    path = BarrierPath(iv15, 2.0)
    deltas = [0.5, 1.25, 0.75]
    t = 0.0
    for d in deltas:
        t = path.install(t + 1.0, t + 2.0, d)
    levels = [piece.base for piece in path.pieces[1:]]
    assert len(levels) == 3
    assert all(b > a for a, b in zip(levels, levels[1:]))
    assert_close(levels[-1], sum(deltas), 1e-3)


def test_negative_delta_lowers_the_barrier(iv5):
    # a shrunken breakout response descends toward its delta, never past -1
    path = BarrierPath(iv5, 1.0)
    theta = path.install(1.0, 1.0, -0.5)
    mid = path.shift(1.0 + 12.5)
    assert -0.5 < mid < 0.0
    assert mid > path.shift(theta)
    assert_close(path.shift(theta), -0.5, 1e-3)


def test_install_validation(iv5):
    path = BarrierPath(iv5, 1.0)
    with pytest.raises(ValueError):
        path.install(1.0, 0.5, 0.2)  # response precedes breakout
    with pytest.raises(ValueError):
        path.install(1.0, 2.0, -1.0)  # delta at the wall
    theta = path.install(1.0, 2.0, 0.2)
    with pytest.raises(ValueError):
        path.install(theta - 5.0, theta, 0.1)  # predates the open piece


@pytest.mark.parametrize("call, args", [
    ("install", (1.0, 2.0, math.nan)),
    ("install", (1.0, 2.0, math.inf)),
    ("install", (1.0, math.nan, 0.5)),
    ("install", (math.nan, 2.0, 0.5)),
    ("barrier_f", (math.nan, 1.0)),
    ("barrier_f", (0.5, math.nan)),
    ("thbar", (math.nan,)),
    ("error_envelope_E", (math.nan,)),
])
def test_barrier_profile_rejects_non_finite_input(iv5, call, args):
    # NaN fails every check rather than passing it, and so does an
    # infinite delta; a rejected install leaves the open piece as it was
    path = BarrierPath(iv5, 1.0)
    funcs = {"install": path.install, "barrier_f": barrier_f,
             "thbar": thbar, "error_envelope_E": error_envelope_E}
    with pytest.raises(ValueError):
        funcs[call](*args)
    assert path.pieces[-1].delta is None and path.shift(3.0) == 0.0


# ---------------------------------------------------------------------------
# barrier-frame runs

BARRIER_GEOM = dict(interval=IntervalParams(5.0), dt=0.05, y=2.0, zeta=6.0)


def test_bbbm_without_breakouts_keeps_a_flat_barrier(binary_law):
    # a small batch, so that some replica touches the wall
    cfg = SimConfig(binary_law, **BARRIER_GEOM, horizon=30.0, seed=0,
                    A=1.2, epsilon=1e9, zeta_breakout=False, replicas=4)
    results = run_bbbm(cfg)
    for res in results:
        assert res.mode == "bbbm"
        assert res.pieces == []
        assert np.all(res.series.columns["barrier_shift"] == 0.0)
        assert res.trials_run == res.wall_hits
        assert res.suppressed_breakouts == 0
    # wall touches still happen; their trials return mass to the population
    assert any(res.wall_hits > 0 and res.reinjected > 0 for res in results)


def test_bbbm_breakout_installs_a_piece(binary_law):
    # epsilon is far below any trial's weight, and the binary law never
    # empties a trial, so every trial breaks out: a replica installs a piece
    # once it hits the wall more than zeta before the horizon
    horizon, zeta = 60.0, BARRIER_GEOM["zeta"]
    cfg = SimConfig(binary_law, **BARRIER_GEOM, horizon=horizon, seed=0,
                    A=1.2, epsilon=1e-6, replicas=16)
    results = run_bbbm(cfg)
    assert any(res.pieces for res in results)
    for res in results:
        assert res.trials_run == res.wall_hits
        times = res.series.times
        early = times <= horizon - zeta - cfg.dt
        if np.any(res.series.columns["R_cum"][early] > 0.0):
            assert res.pieces
        start, clamped = 0.0, 0
        for piece in res.pieces:
            # a breakout before the open piece's start is suppressed
            assert piece["T"] >= start
            assert piece["T"] <= piece["T_plus"] <= piece["T"] + zeta
            assert piece["delta"] == max(piece["delta_raw"], -1.0 + 1e-9)
            clamped += piece["delta"] != piece["delta_raw"]
            assert_close(piece["theta"],
                         max(piece["T"] + math.exp(1.2) * 25.0,
                             piece["T_plus"]), 1e-9)
            start = piece["theta"]
        assert res.clamped_responses == clamped
        # recorded shifts replay from the path, and move only after a piece
        shifts = res.series.columns["barrier_shift"]
        assert_close(shifts, np.array([res.path.shift(t) for t in times]),
                     1e-12)
        assert res.pieces or np.all(shifts == 0.0)


def test_only_the_earliest_breakout_of_a_replica_takes_the_response(
        binary_law):
    # A first step long enough for several wall hits per replica, at
    # distinct times, and a threshold so low that every trial breaks out.
    # This replays the first step's draws to find each replica's hits.
    kw = dict(BARRIER_GEOM, dt=1.0, A=5.0, epsilon=1e-12, seed=0,
              replicas=5)
    cfg = SimConfig(binary_law, **kw, horizon=1.0)
    iv, n_rep = cfg.interval, cfg.replicas
    rng = rng_stream(cfg.seed, 0, _LANE_BARRIER)
    pos, rep = hperp_flat(cfg.A, iv, n_rep, rng)
    *_, upper, _ = step_segments(
        pos, rep, (np.zeros(len(pos), dtype=np.int8),
                   np.full(len(pos), math.inf)),
        t0=0.0, h=cfg.dt, drift=np.full(n_rep, -iv.mu), law=binary_law,
        rng=rng, upper=iv.a)
    t_hit, r_hit, _, _ = (np.concatenate(x) for x in zip(*upper))
    # in step order, some replica's first hit is not its earliest
    assert any(t_hit[r_hit == r][0] > t_hit[r_hit == r].min()
               for r in range(n_rep))
    hits = np.bincount(r_hit, minlength=n_rep)
    assert hits.min() >= 2

    # after one step the trials still run, so nothing is decided yet
    for r, res in enumerate(run_bbbm(cfg)):
        assert res.wall_hits == hits[r]
        assert res.suppressed_breakouts == 0 and res.pieces == []
    # once the first step's trials have all ended, zeta later, the earliest
    # breakout has the response and the rest of that step's are suppressed;
    # later steps' breakouts are suppressed too, since the piece's freeze
    # time lies beyond the horizon
    cfg = SimConfig(binary_law, **kw, horizon=2.0 + cfg.zeta)
    for r, res in enumerate(run_bbbm(cfg)):
        (piece,) = res.pieces
        assert piece["T"] == t_hit[r_hit == r].min()
        assert piece["T"] <= piece["T_plus"] <= piece["T"] + cfg.zeta
        assert res.suppressed_breakouts >= hits[r] - 1
        assert res.suppressed_breakouts + 1 <= res.trials_run


def test_bbbm_piece_annotated_at_freeze_time(binary_law):
    # a small batch, so that some replica reaches a piece's freeze time
    horizon = 120.0
    cfg = SimConfig(binary_law, **BARRIER_GEOM, horizon=horizon, seed=0,
                    A=1.2, epsilon=1e-6, replicas=4)
    pieces = [piece for res in run_bbbm(cfg) for piece in res.pieces
              if piece["theta"] <= horizon]
    assert pieces
    for piece in pieces:
        assert piece["clear_at_theta"] == (
            piece["in_between_at_theta"] == 0
            and piece["outstanding_at_theta"] == 0)


def test_bbbm_caps_nested_trials(binary_law):
    # a shallow stopping line close to its wall bound: survivors of one
    # trial land beyond the wall and relaunch, recursing to the cap
    cfg = SimConfig(binary_law, interval=IntervalParams(5.0), dt=0.05,
                    horizon=60.0, seed=3, A=4.0, epsilon=1e9, y=2.0,
                    zeta=2.0, zeta_breakout=False)
    res = run_bbbm(cfg)[0]
    assert res.depth_capped > 0


def test_barrier_run_validates_geometry(binary_law, iv5):
    with pytest.raises(ValueError):
        run_bbbm(SimConfig(binary_law, interval=iv5, A=1.0, epsilon=0.1,
                           y=6.0, zeta=1.0))  # y past the wall
    with pytest.raises(ValueError):
        run_bbbm(SimConfig(binary_law, interval=iv5, A=1.0, epsilon=0.1,
                           y=2.0, zeta=50.0))  # line reaches the wall
    with pytest.raises(ValueError):
        run_bbbm(SimConfig(binary_law, interval=iv5, A=1.0, epsilon=0.1))


def test_bflat_whites_are_a_subpopulation(binary_law):
    cfg = SimConfig(binary_law, **BARRIER_GEOM, horizon=30.0, seed=0,
                    A=0.5, epsilon=1e9, zeta_breakout=False,
                    delta_color=0.005)
    res = run_bflat(cfg)[0]
    count = res.series.columns["count"]
    white = res.series.columns["count_white"]
    assert np.all(white <= count)
    assert np.any(white < count)  # reds were created
    assert res.colour_stats["n_flat"] >= 1
    assert res.colour_stats["red_killed"] == 0  # no freeze time in range


def test_bflat_culls_reds_at_the_freeze_time(binary_law):
    # reds die only at freeze times, and in this geometry about one replica
    # in ten still holds reds at its first freeze time
    horizon = 60.0
    cfg = SimConfig(binary_law, **BARRIER_GEOM, horizon=horizon, seed=3,
                    A=0.5, epsilon=1e-6, delta_color=0.005, replicas=128)
    results = run_bflat(cfg)
    assert any(res.colour_stats["red_killed"] > 0 for res in results)
    for res in results:
        frozen = any(p["theta"] <= horizon for p in res.pieces)
        assert frozen or res.colour_stats["red_killed"] == 0
        cols = res.series.columns
        assert np.all(cols["count_white"] <= cols["count"])


def test_bflat_requires_colour_margin(binary_law):
    cfg = SimConfig(binary_law, **BARRIER_GEOM, horizon=10.0,
                    A=0.5, epsilon=1e9)
    with pytest.raises(ValueError):
        run_bflat(cfg)


def test_bsharp_blues_survive_the_origin(binary_law):
    cfg = SimConfig(binary_law, **BARRIER_GEOM, horizon=12.0, seed=1,
                    A=2.0, epsilon=1e9, zeta_breakout=False,
                    delta_color=0.005)
    res = run_bsharp(cfg)[0]
    assert res.mode == "bsharp"
    cs = res.colour_stats
    assert cs["blue_created"] > 0
    assert cs["n_sharp"] >= 1
    assert cs["period"] > 0.0
    blue = res.series.columns["count_blue"]
    assert np.all(blue <= res.series.columns["count"])
    assert np.any(blue > 0.0)


def test_bsharp_permissive_flag_switches_mode(binary_law):
    cfg = SimConfig(binary_law, **BARRIER_GEOM, horizon=6.0, seed=1,
                    A=2.0, epsilon=1e9, zeta_breakout=False,
                    delta_color=0.005)
    assert run_bsharp(cfg, csharp=True)[0].mode == "csharp"


def test_sharp_expiry_kills_left_blues_and_rewhitens_the_rest():
    pos = np.array([-0.5, -0.2, 0.3, 1.0])
    col = np.array([_BLUE, _BLUE, _BLUE, _WHITE], dtype=np.int8)
    expy = np.array([1.0, 5.0, 1.0, math.inf])
    stats = {"blue_killed": 0, "rewhitened": 0}
    p2, c2, e2 = _sharp_expire(pos, col, expy, 1.0, 4, False, stats)
    assert stats == {"blue_killed": 1, "rewhitened": 1}
    assert p2.tolist() == [-0.2, 0.3, 1.0]
    assert c2.tolist() == [_BLUE, _WHITE, _WHITE]
    assert e2[0] == 5.0 and math.isinf(e2[1]) and math.isinf(e2[2])


def test_sharp_expiry_permissive_needs_a_crowd_to_the_right():
    pos = np.array([-0.5, -0.2, 0.3, 1.0])
    col = np.array([_BLUE, _BLUE, _BLUE, _WHITE], dtype=np.int8)
    expy = np.array([1.0, 5.0, 1.0, math.inf])
    stats = {"blue_killed": 0, "rewhitened": 0}
    # only 3 particles sit right of the due blue at -0.5: spared, re-whitened
    p2, c2, _ = _sharp_expire(pos, col, expy, 1.0, 4, True, stats)
    assert stats == {"blue_killed": 0, "rewhitened": 2}
    assert len(p2) == 4
    assert c2.tolist() == [_WHITE, _BLUE, _WHITE, _WHITE]


# ---------------------------------------------------------------------------
# batched barrier runs against the one-replica reference

BENCH_GEOM = dict(interval=IntervalParams(8.0), dt=0.05, y=3.0, zeta=6.0,
                  A=3.0, epsilon=0.01, horizon=10.0)

# the barrier tests' geometries and seeds above, the nested run cut short
# (it still reaches the depth cap by T = 40), the benchmark geometry, the
# breakout geometry at seed 4, which launches trials one per step, and two
# runs that fire a colour rule: a bflat run that turns whites red and a
# bsharp run that creates blues.  The seed of each of the last two is the
# lowest in 0-11 whose replica 0 launches no trial and fires its rule.
REFERENCE_CASES = [
    ("bbbm", dict(BARRIER_GEOM, horizon=30.0, seed=0, A=1.2, epsilon=1e9,
                  zeta_breakout=False)),
    ("bbbm", dict(BARRIER_GEOM, horizon=120.0, seed=0, A=1.2,
                  epsilon=1e-6)),
    ("bbbm", dict(interval=IntervalParams(5.0), dt=0.05, horizon=40.0,
                  seed=3, A=4.0, epsilon=1e9, y=2.0, zeta=2.0,
                  zeta_breakout=False)),
    ("bflat", dict(BARRIER_GEOM, horizon=30.0, seed=0, A=0.5, epsilon=1e9,
                   zeta_breakout=False, delta_color=0.005)),
    ("bflat", dict(BARRIER_GEOM, horizon=60.0, seed=3, A=0.5, epsilon=1e-6,
                   delta_color=0.005)),
    ("bsharp", dict(BARRIER_GEOM, horizon=12.0, seed=1, A=2.0, epsilon=1e9,
                    zeta_breakout=False, delta_color=0.005)),
    ("csharp", dict(BARRIER_GEOM, horizon=12.0, seed=1, A=2.0, epsilon=1e9,
                    zeta_breakout=False, delta_color=0.005)),
    ("bbbm", dict(BENCH_GEOM, seed=0)),
    ("bbbm", dict(BENCH_GEOM, seed=1)),
    ("bbbm", dict(BARRIER_GEOM, horizon=120.0, seed=4, A=1.2,
                  epsilon=1e-6)),
    ("bflat", dict(BARRIER_GEOM, horizon=20.0, seed=3, A=1.0, epsilon=1e9,
                   zeta_breakout=False, delta_color=0.005)),
    ("bsharp", dict(BARRIER_GEOM, horizon=12.0, seed=5, A=2.0, epsilon=1e9,
                    zeta_breakout=False, delta_color=0.005)),
]


# Trials advance in a pool on the runner's clock, interleaved with the
# population's steps, which the per-hit reference does not do; so only the
# NO_TRIALS cases, whose one replica never hits the wall, are compared bit
# for bit.  The IN_LAW cases, the ones with wall hits, are compared in law
# at several replicas.
NO_TRIALS = (0, 1, 4, 8, 10, 11)
IN_LAW = (0, 1, 2, 3, 5, 6, 7, 9)


def _case_ids(cases):
    return [f"{REFERENCE_CASES[i][0]}-kw{i}" for i in cases]


def _run_batch(cfg, mode):
    if mode == "bbbm":
        return run_bbbm(cfg)
    if mode == "bflat":
        return run_bflat(cfg)
    return run_bsharp(cfg, csharp=mode == "csharp")


@pytest.mark.parametrize("i", NO_TRIALS, ids=_case_ids(NO_TRIALS))
def test_barrier_batch_matches_the_reference_at_one_replica(binary_law, i):
    mode, kw = REFERENCE_CASES[i]
    cfg = SimConfig(binary_law, **kw)
    (new,) = _run_batch(cfg, mode)
    ref = _barrier_run(cfg, mode, 0)
    assert list(new.series.columns) == list(ref.series.columns)
    assert np.array_equal(new.series.times, ref.series.times)
    for name, col in ref.series.columns.items():
        assert np.array_equal(new.series.columns[name], col), name
    assert new.series.meta == ref.series.meta
    assert new.pieces == ref.pieces
    for name in ("mode", "trials_run", "suppressed_breakouts",
                 "clamped_responses", "reinjected", "wall_hits",
                 "depth_capped", "colour_stats"):
        assert getattr(new, name) == getattr(ref, name), name
    assert np.array_equal(new.final_positions, ref.final_positions)
    assert new.path.pieces == ref.path.pieces


def test_no_trial_cases_launch_no_trial(binary_law, monkeypatch):
    # the bit-for-bit cases hold only while their one replica never hits
    # the wall; a stream change that makes one launch must move it
    calls = []
    monkeypatch.setattr(selection, "breakout_trials",
                        lambda *args, **kw: calls.append(kw["n_trials"]))
    for i in NO_TRIALS:
        mode, kw = REFERENCE_CASES[i]
        _run_batch(SimConfig(binary_law, **kw), mode)
    assert calls == []


def test_the_trial_pool_carries_the_modes_own_payload(binary_law,
                                                      monkeypatch):
    # a hit hands the pool what its particle carries: bbbm's particles
    # carry nothing, bflat's a colour (no expiry: no bflat rule reads one)
    arity = []

    def recording(*args, **kw):
        if kw["n_trials"]:
            arity.append(len(kw["hits"]))
        return breakout_trials(*args, **kw)

    monkeypatch.setattr(selection, "breakout_trials", recording)
    for mode, i, horizon, want in (("bbbm", 2, 10.0, 2),
                                   ("bflat", 4, 30.0, 3)):
        assert REFERENCE_CASES[i][0] == mode
        arity.clear()
        kw = dict(REFERENCE_CASES[i][1], horizon=horizon, replicas=2)
        _run_batch(SimConfig(binary_law, **kw), mode)
        assert arity and set(arity) == {want}, (mode, arity)


def test_a_runner_step_makes_at_most_two_segment_steps(binary_law,
                                                      monkeypatch):
    # one step of the population and one of the trial pool, also while
    # trials nest; the pool steps through breakout_trials
    calls = {"population": 0, "pool": 0}

    def counting(name, step):
        def wrapped(*args, **kw):
            calls[name] += 1
            return step(*args, **kw)
        return wrapped

    monkeypatch.setattr(selection, "step_segments",
                        counting("population", step_segments))
    monkeypatch.setattr(ensemble, "step_segments",
                        counting("pool", step_segments))
    for mode, kw in (REFERENCE_CASES[7], REFERENCE_CASES[2]):
        kw = dict(kw, horizon=20.0, replicas=4)
        results = _run_batch(SimConfig(binary_law, **kw), mode)
        n_steps = round(kw["horizon"] / kw["dt"])
        assert calls["population"] == n_steps
        assert 0 < calls["pool"] <= n_steps
        assert sum(res.trials_run for res in results) > 0
        calls.update(population=0, pool=0)
    assert any(res.depth_capped > 0 for res in results)


def test_barrier_shift_is_evaluated_once_per_step_end(binary_law,
                                                      monkeypatch):
    # a step starts from the shift its predecessor ended on, so each path is
    # asked once per step end, and once more where its replica installs a
    # response; no piece freezes before the horizon here, so installs are
    # the only step-end rule that moves a shift
    calls = []
    shift = BarrierPath.shift

    def counting(self, t):
        calls.append(t)
        return shift(self, t)

    monkeypatch.setattr(BarrierPath, "shift", counting)
    cfg = SimConfig(binary_law, **dict(REFERENCE_CASES[9][1], horizon=40.0,
                                       replicas=4))
    results = run_bbbm(cfg)
    n_steps = round(cfg.horizon / cfg.dt)
    pieces = [p for res in results for p in res.pieces]
    assert pieces and all(p["theta"] > cfg.horizon for p in pieces)
    assert len(calls) == n_steps * cfg.replicas + len(pieces)
    ends = {i * cfg.dt + min(cfg.dt, cfg.horizon - i * cfg.dt)
            for i in range(n_steps)}
    assert set(calls) <= ends


def test_barrier_response_falls_where_its_trial_ends(binary_law,
                                                     monkeypatch):
    # a piece's response starts at T + sigma_max of the breakout that made
    # it; a breakout by weight can end before zeta, and here some do
    ends = set()

    def recording(*args, **kw):
        out = breakout_trials(*args, **kw)
        dec = out.decided
        ends.update((r, t, t + s) for r, t, s, b in zip(
            dec["replica"].tolist(), dec["launch"].tolist(),
            dec["sigma_max"].tolist(), dec["is_breakout"].tolist()) if b)
        return out

    monkeypatch.setattr(selection, "breakout_trials", recording)
    cfg = SimConfig(binary_law, **dict(REFERENCE_CASES[9][1], horizon=40.0,
                                       replicas=4))
    pieces = {(r, p["T"], p["T_plus"])
              for r, res in enumerate(run_bbbm(cfg)) for p in res.pieces}
    assert pieces and pieces <= ends
    assert any(t_plus - t < cfg.zeta for _, t, t_plus in pieces)


# The reference's replicas 1-48 of each IN_LAW case (stream 0 is the
# batch's), from `barrier_reference.replica_moments`; run that file to
# recompute them.  The per-hit reference takes about 1.4 s a replica on the
# nested case, too long to rerun on every test run.
REFERENCE_REPLICAS = range(1, 49)
REFERENCE_MOMENTS = {
    "bbbm-kw0": {
        "count": (148.667, 62812.9),
        "Z": (71.1849, 14797.7),
        "wall_hits": (24, 1673.02),
        "reinjected": (54.2083, 8369.53),
    },
    "bbbm-kw1": {
        "count": (5.47917, 536.085),
        "Z": (2.077, 77.0518),
        "wall_hits": (24.9792, 5343.17),
        "reinjected": (25.8958, 5719.24),
    },
    "bbbm-kw2": {
        "count": (3965.42, 4.65346e+06),
        "Z": (1806.5, 978848),
        "wall_hits": (1017, 290679),
        "reinjected": (1578.02, 723058),
    },
    "bflat-kw3": {
        "count": (42.75, 10394.7),
        "Z": (18.819, 2072.52),
        "wall_hits": (7.04167, 261.147),
        "reinjected": (15.1042, 1290.86),
    },
    "bsharp-kw5": {
        "count": (2053.58, 2.66629e+06),
        "Z": (20.7371, 254.486),
        "wall_hits": (4.54167, 23.4876),
        "reinjected": (7.6875, 66.5173),
    },
    "csharp-kw6": {
        "count": (2053.58, 2.66629e+06),
        "Z": (20.7371, 254.486),
        "wall_hits": (4.54167, 23.4876),
        "reinjected": (7.6875, 66.5173),
    },
    "bbbm-kw7": {
        "count": (401.792, 12603.7),
        "Z": (21.8045, 77.7616),
        "wall_hits": (1.4375, 2.71941),
        "reinjected": (3.95833, 31.9131),
    },
    "bbbm-kw9": {
        "count": (3.70833, 349.998),
        "Z": (1.28754, 47.0292),
        "wall_hits": (21.8125, 4794.33),
        "reinjected": (22.5417, 5161.87),
    },
}


@pytest.mark.parametrize("i", IN_LAW, ids=_case_ids(IN_LAW))
def test_barrier_batch_agrees_in_law_with_the_reference(binary_law, i):
    mode, kw = REFERENCE_CASES[i]
    n, n_ref = 8, len(REFERENCE_REPLICAS)
    results = _run_batch(SimConfig(binary_law, **kw, replicas=n), mode)
    x = np.array([final_stats(res) for res in results])
    ref = REFERENCE_MOMENTS[f"{mode}-kw{i}"]
    for name, m, v in zip(FINAL_STATS, x.mean(axis=0), x.var(axis=0, ddof=1)):
        m_ref, v_ref = ref[name]
        z = (m - m_ref) / math.sqrt(v / n + v_ref / n_ref)
        assert abs(z) <= 4.0, (name, z)
    for res in results:
        assert res.trials_run == res.wall_hits
    if kw.get("zeta") == 2.0:
        # the nesting cap is exercised
        assert any(res.depth_capped > 0 for res in results)


def test_barrier_batch_keeps_each_replica_consistent(binary_law):
    cfg = SimConfig(binary_law, **BENCH_GEOM, seed=5, replicas=4)
    results = run_bbbm(cfg)
    assert [r.series.replica for r in results] == [0, 1, 2, 3]
    for res in results:
        assert res.trials_run == res.wall_hits
        cols = res.series.columns
        shifts = [res.path.shift(t) for t in res.series.times]
        assert np.array_equal(cols["barrier_shift"], shifts)
        assert np.all(res.final_positions < 8.0)
        assert cols["count"].max() <= res.peak_count <= res.max_pop
        # the last row is taken on this replica's own particles, bit for bit
        _assert_last_row_of(res, "count", "Z", "Y", "med_0.5")
    # the replicas are distinct sample paths
    assert len({r.series.columns["Z"][-1] for r in results}) == 4


def _assert_last_row_of(res, *names):
    """The named columns' last entries against the final positions."""
    x, iv = res.final_positions, res.path.iv
    want = {"count": len(x), "Z": w_Z(x, iv).sum(), "Y": w_Y(x, iv).sum(),
            "med_0.5": med_alpha(x, 0.5, res.series.meta["n_med"])}
    for name in names:
        assert res.series.columns[name][-1] == want[name], name


def test_bflat_batch_records_each_replica_from_its_own_particles(
        binary_law):
    # the medians and white counts see whites only, which the result does
    # not keep; count, Z and Y see every particle, reds included
    cfg = SimConfig(binary_law, **BENCH_GEOM, seed=5, replicas=4,
                    delta_color=0.005)
    results = run_bflat(cfg)
    assert any(res.series.columns["count_white"][-1]
               < res.series.columns["count"][-1] for res in results)
    for res in results:
        _assert_last_row_of(res, "count", "Z", "Y")


def test_barrier_batch_records_a_dead_replica_as_empty(binary_law):
    # about a third of these replicas are empty by the horizon
    cfg = SimConfig(binary_law, **BARRIER_GEOM, horizon=10.0, seed=0,
                    A=1.2, epsilon=1e9, zeta_breakout=False, replicas=32)
    results = run_bbbm(cfg)
    final = [r.series.columns["count"][-1] for r in results]
    assert min(final) == 0.0 < max(final)
    for res in results:
        cols = res.series.columns
        empty = cols["count"] == 0.0
        assert np.all(cols["Z"][empty] == 0.0)
        assert np.all(cols["Y"][empty] == 0.0)
        assert np.all(cols["med_0.5"][empty] == -math.inf)
        assert np.all(cols["Z"][~empty] > 0.0)
        assert len(res.final_positions) == cols["count"][-1]


def test_segment_step_moves_each_particle_at_its_replica_drift(binary_law):
    # the same particles and draws tagged three ways: all of replica 2 of
    # three, all of the only replica of a one-replica batch, and split
    # between replicas 1 and 2 of equal drift; each must move as the
    # one-replica batch does and keep its tags
    n = 300
    pos = np.random.default_rng(7).uniform(0.5, 7.5, n)
    col = np.zeros(n, dtype=np.int8)
    expy = np.full(n, math.inf)
    drift = np.array([-2.0, 0.5, 0.5])
    runs = {"lone": (np.full(n, 2), drift),
            "one": (np.zeros(n, dtype=np.int64), drift[2:]),
            "split": (np.repeat([1, 2], n // 2), drift)}
    out = {k: step_segments(pos, rep, (col, expy), t0=0.0, h=0.5, drift=dr,
                            law=binary_law, rng=np.random.default_rng(3),
                            upper=8.0)
           for k, (rep, dr) in runs.items()}
    one = out["one"]
    assert one[3] and one[4]  # origin and wall hits both happen
    for k in ("lone", "split"):
        assert np.array_equal(out[k][0], one[0]), k
        for got, want in zip(out[k][2], one[2]):
            assert np.array_equal(got, want), k
        assert out[k][5] == one[5]
        for hits, want_hits in zip(out[k][3:5], one[3:5]):
            assert len(hits) == len(want_hits), k
            for got, want in zip(hits, want_hits):
                # (time, tag, colour, expiry): all but the tag agree
                for g, w in zip(got[:1] + got[2:], want[:1] + want[2:]):
                    assert np.array_equal(g, w), k
    lone = out["lone"]
    assert np.all(lone[1] == 2)
    assert all(np.all(hit[1] == 2) for hit in lone[3] + lone[4])
    assert set(out["split"][1].tolist()) == {1, 2}


@pytest.mark.slow
def test_barrier_batch_replica_means_agree_with_the_reference(binary_law):
    n = 30
    batch = run_bbbm(SimConfig(binary_law, **BENCH_GEOM, seed=11,
                               replicas=n))
    cfg = SimConfig(binary_law, **BENCH_GEOM, seed=12)
    ref = [_barrier_run(cfg, "bbbm", r) for r in range(n)]
    for name in ("count", "Z"):
        a = np.array([r.series.columns[name][-1] for r in batch])
        b = np.array([r.series.columns[name][-1] for r in ref])
        z = (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / n
                                              + b.var(ddof=1) / n)
        assert abs(z) <= 4.0, (name, z)


# ---------------------------------------------------------------------------
# coupled triple


def test_coupled_degenerate_rules_coincide(binary_law):
    res = run_coupled(binary_law, 30, horizon=4.0, seed=5)
    assert res.dominance_verified
    assert res.events > 0
    assert np.array_equal(res.final_plus, res.final_mid)
    assert np.array_equal(res.final_mid, res.final_minus)


def test_coupled_slack_systems_dominate(binary_law):
    res = run_coupled(binary_law, 30, horizon=4.0, seed=5, slack=3, extra=2)
    assert res.dominance_verified
    assert len(res.final_plus) <= 33
    assert len(res.final_mid) <= 30
    # ranked comparison of the descending position lists
    nm, nw = len(res.final_mid), len(res.final_minus)
    assert np.all(res.final_plus[:nm] >= res.final_mid - 1e-12)
    assert np.all(res.final_mid[:nw] >= res.final_minus - 1e-12)


def test_coupled_detects_an_injected_fault(binary_law, faulty_check):
    with pytest.raises(CouplingError):
        run_coupled(binary_law, 30, horizon=4.0, seed=5)
    assert len(faulty_check) == 20


def test_coupled_is_deterministic(binary_law):
    a = run_coupled(binary_law, 30, horizon=3.0, seed=7, slack=2, extra=1)
    b = run_coupled(binary_law, 30, horizon=3.0, seed=7, slack=2, extra=1)
    assert np.array_equal(a.final_plus, b.final_plus)
    assert np.array_equal(a.final_minus, b.final_minus)
    assert a.events == b.events


def test_coupled_validation(binary_law):
    with pytest.raises(ValueError):
        run_coupled(binary_law, 1, horizon=1.0)
    with pytest.raises(ValueError):
        run_coupled(binary_law, 10, horizon=1.0, extra=10)
    with pytest.raises(ValueError):
        run_coupled(binary_law, 10, horizon=1.0, slack=-1)
    for horizon in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(ValueError):
            run_coupled(binary_law, 10, horizon=horizon)


def _same_sample_path(a, b):
    assert (a.events, a.checks) == (b.events, b.checks)
    for name in ("final_plus", "final_mid", "final_minus"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("law_name", ["binary_law", "mixed_law"])
@pytest.mark.parametrize("n_select", [25, 30, 100])
@pytest.mark.parametrize("slack, extra", [(0, 0), (3, 2), (10, 20)])
def test_coupled_matches_the_dict_reference(law_name, n_select, slack, extra,
                                            request):
    law = request.getfixturevalue(law_name)
    for seed in range(3):
        kw = dict(horizon=1.5, seed=seed, slack=slack, extra=extra)
        _same_sample_path(run_coupled(law, n_select, **kw),
                          run_coupled_dicts(law, n_select, **kw))


def test_coupled_matches_the_dict_reference_at_benchmark_size(binary_law):
    kw = dict(horizon=10.0, seed=1, slack=4, extra=4)
    _same_sample_path(run_coupled(binary_law, 400, **kw),
                      run_coupled_dicts(binary_law, 400, **kw))


@pytest.mark.parametrize("law_name, n_select, slack, extra, seed", [
    ("binary_law", 30, 3, 2, 13), ("mixed_law", 25, 2, 1, 11)])
def test_coupled_matches_the_dict_reference_on_tied_plus_siblings(
        law_name, n_select, slack, extra, seed, request):
    # at these seeds the plus cull must choose among tied newborn siblings
    # and the choice shows in the final positions: the earliest born dies
    law = request.getfixturevalue(law_name)
    kw = dict(horizon=1.5, seed=seed, slack=slack, extra=extra)
    _same_sample_path(run_coupled(law, n_select, **kw),
                      run_coupled_dicts(law, n_select, **kw))


@pytest.mark.parametrize("n_select, slack, extra, seed", [
    (4, 2, 1, 10), (6, 2, 1, 115)])
def test_coupled_matches_the_dict_reference_on_tied_orphans(
        mixed_law, n_select, slack, extra, seed):
    # at these seeds one plus cull orphans two sibling mids at one position
    # and the re-pairing order shows in the final positions: the later
    # born is re-paired first, with the leftmost free carrier
    kw = dict(horizon=3.0, seed=seed, slack=slack, extra=extra)
    _same_sample_path(run_coupled(mixed_law, n_select, **kw),
                      run_coupled_dicts(mixed_law, n_select, **kw))


# each seed is the lowest at which the final positions show the choice: the
# lowest seed >= 0 whose final positions change when that one choice alone
# takes the later-born of the tied siblings
@pytest.mark.parametrize("law_name, n_select, slack, extra, horizon, seed", [
    pytest.param("binary_law", 30, 3, 2, 1.5, 14, id="mid-cull-binary"),
    pytest.param("mixed_law", 6, 2, 1, 3.0, 3, id="mid-cull-mixed"),
    pytest.param("binary_law", 30, 3, 2, 1.5, 32, id="minus-cull-binary"),
    pytest.param("mixed_law", 6, 2, 1, 3.0, 2, id="minus-cull-mixed"),
    pytest.param("binary_law", 30, 3, 2, 1.5, 5, id="minus-orphan-binary"),
    pytest.param("mixed_law", 6, 2, 1, 3.0, 4, id="minus-orphan-mixed"),
])
def test_coupled_matches_the_dict_reference_on_tied_lower_siblings(
        law_name, n_select, slack, extra, horizon, seed, request):
    # at these seeds the mid cull kills among tied newborn mid siblings
    # (mid-cull), the minus cull among tied minus siblings (minus-cull), or
    # a minus orphan is re-paired among tied free mid siblings
    # (minus-orphan); in each the earliest born is chosen
    law = request.getfixturevalue(law_name)
    kw = dict(horizon=horizon, seed=seed, slack=slack, extra=extra)
    _same_sample_path(run_coupled(law, n_select, **kw),
                      run_coupled_dicts(law, n_select, **kw))


@pytest.mark.parametrize("seed", range(6))
def test_coupled_runs_that_die_out_match_the_dict_reference(seed):
    # q(0) = 0.45 at N = 4: every system dies out well before the horizon,
    # so the runner checks its last events on empty heads of its arrays
    law = ReproductionLaw((0.45, 0.0, 0.55))
    kw = dict(horizon=50.0, seed=seed, slack=1, extra=1)
    res = run_coupled(law, 4, **kw)
    _same_sample_path(res, run_coupled_dicts(law, 4, **kw))
    assert res.dominance_verified and res.events > 0
    assert len(res.final_plus) == len(res.final_mid) \
        == len(res.final_minus) == 0


def _sound_coupling():
    # slots of plus at 3, 2, 1; mids ride slots 0 and 2 (at 2.5 and 1) and
    # minuses ride both mids (at 2 and 0.75); slot 1 carries no rider
    none = -math.inf
    return [np.array([3.0, 2.0, 1.0]), np.array([0.5, none, 0.0]),
            np.array([0.5, none, 0.25])]


def test_check_coupling_accepts_a_sound_state():
    check_coupling(*_sound_coupling())


@pytest.mark.parametrize("row, slot, value, match", [
    (2, 1, 0.5, "minus-to-mid pairing points at a dead carrier"),
    # the second mid at 1.5 stays dominated; only its offset is wrong
    (1, 2, -0.5, "negative pairing offset"),
    # the first mid at 3.5 sits above its carrier, the rightmost plus
    (1, 0, -0.5, r"domination order violated \(plus vs mid\)"),
    # the second minus at 3 sits above every mid
    (2, 2, -2.0, r"domination order violated \(mid vs minus\)"),
    # NaN positions compare false: a NaN offset fails the certificate and
    # the sorted comparison, and so does a NaN plus that carries no mid
    (2, 0, math.nan, r"domination order violated \(mid vs minus\)"),
    (0, 1, math.nan, r"domination order violated \(plus vs mid\)"),
])
def test_check_coupling_rejects_each_corruption(row, slot, value, match):
    state = _sound_coupling()
    state[row][slot] = value
    with pytest.raises(CouplingError, match=match):
        check_coupling(*state)


@pytest.mark.parametrize("m_off, w_off, match", [
    # a NaN mid offset is a rider at NaN, which no plus dominates
    ([math.nan, -math.inf], [-math.inf, -math.inf],
     r"domination order violated \(plus vs mid\)"),
    # a minus at 5.5, right of every mid, in a slot that carries no mid
    ([0.0, -math.inf], [-math.inf, -5.0],
     "minus-to-mid pairing points at a dead carrier"),
])
def test_check_coupling_rejects_a_nan_mid_and_an_orphan_minus(m_off, w_off,
                                                              match):
    with pytest.raises(CouplingError, match=match):
        check_coupling(np.array([1.0, 0.5]), np.array(m_off),
                       np.array(w_off))


def test_check_coupling_accepts_empty_systems():
    empty, none = np.empty(0), np.full(2, -math.inf)
    check_coupling(empty, empty, empty)
    # plus particles only: the lower systems died out
    check_coupling(np.array([2.0, -1.0]), none, none)


@pytest.mark.parametrize("row, slot, value, match", [
    (2, 1, 0.5, "minus-to-mid pairing points at a dead carrier"),
    (1, 0, -0.5, r"domination order violated \(plus vs mid\)"),
    (2, 2, -2.0, r"domination order violated \(mid vs minus\)"),
])
def test_check_coupling_reports_in_its_stated_order(row, slot, value, match):
    # each corruption of test_check_coupling_rejects_each_corruption, plus
    # the negative offset that the second mid alone survives: the orphan
    # guard and the domination checks come first
    state = _sound_coupling()
    state[row][slot] = value
    state[1][2] = -0.5
    with pytest.raises(CouplingError, match=match):
        check_coupling(*state)


@pytest.mark.parametrize("state, message", [
    pytest.param([np.array([3.0, 2.0, 1.0]), np.array([-0.0, -math.inf, -0.0]),
                  np.array([-0.0, -math.inf, -0.0])], None,
                 id="offsets-all-minus-zero"),
    pytest.param([np.array([1.0]), np.array([0.0]), np.array([-1e-13])],
                 None, id="minus-offset-minus-1e-13"),
    # the minus lands 1e-12 right of its mid, and fl(w - 1e-12) stays
    # above m: the certificate refuses it and the sorted rule rejects it
    pytest.param([np.array([1.0]), np.array([6.92281708e-13]),
                  np.array([-1e-12])],
                 "domination order violated (mid vs minus)",
                 id="minus-offset-minus-1e-12-rounds-over"),
    # inf - inf puts the mid at NaN, which no plus dominates
    pytest.param([np.array([math.inf]), np.array([math.inf]),
                  np.array([-math.inf])],
                 "domination order violated (plus vs mid)",
                 id="plus-at-inf-carries-at-inf"),
])
def test_check_coupling_at_the_certificates_edge(state, message):
    # offsets at and just below zero, and positions that are not finite,
    # decide between the certificate and the sorted rule
    with np.errstate(invalid="ignore"):
        assert _sorted_rule(*state) == message
        if message is None:
            check_coupling(*state)
        else:
            with pytest.raises(CouplingError, match=re.escape(message)):
                check_coupling(*state)


def _sorted_rule(p_x, m_off, w_off):
    """The message check_coupling raises on a slot state, or None, by the
    sorted rule alone: a minus in a slot without a mid, ranked domination
    with 1e-12 slack after sorting all three systems, then offsets."""
    mids, minuses = m_off != -math.inf, w_off != -math.inf
    if np.any(minuses & ~mids):
        return "minus-to-mid pairing points at a dead carrier"
    w = np.sort(p_x[minuses] - m_off[minuses] - w_off[minuses])
    p, m = np.sort(p_x), np.sort(p_x[mids] - m_off[mids])
    if len(p) < len(m) or not np.all(p[len(p) - len(m):] >= m - 1e-12):
        return "domination order violated (plus vs mid)"
    if len(m) < len(w) or not np.all(m[len(m) - len(w):] >= w - 1e-12):
        return "domination order violated (mid vs minus)"
    offsets = np.concatenate([m_off[mids], w_off[minuses], [0.0]])
    if offsets.min() < -1e-12:
        return "negative pairing offset"
    return None


_OFFSET_ATOMS = np.array([0.0, -0.0, 1e-13, -1e-13, -1e-12, -2e-12, 0.3,
                          -0.5, math.inf, math.nan])


def _random_couplings(n_states, rng, width=4):
    """n_states small slot states: up to `width` plus particles with
    repeated, infinite and NaN positions.  A row's offsets in a state are
    one atom of _OFFSET_ATOMS or |N(0, 1)| times one scale of 0, 1e-12 or
    1, at even odds per slot, and then -inf ("no rider") at even odds per
    slot, so some states leave a minus in a slot with no mid."""
    # repeats, and the binade edges where offsets of 1e-12 round
    x = np.where(rng.random((n_states, width)) < 0.7,
                 rng.choice([-1.0, 0.0, 0.5, 1.0], (n_states, width)),
                 rng.normal(size=(n_states, width)))
    special = rng.random((n_states, width)) < 0.06
    x[special] = rng.choice([math.inf, -math.inf, math.nan],
                            np.count_nonzero(special))
    n_p = rng.integers(0, width + 1, n_states)
    rows = []
    for _ in range(2):
        scale = rng.choice([0.0, 1e-12, 1.0], (n_states, 1))
        off = np.where(rng.random((n_states, width)) < 0.5,
                       rng.choice(_OFFSET_ATOMS, (n_states, 1)),
                       np.abs(rng.normal(size=(n_states, width))) * scale)
        off[rng.random((n_states, width)) < 0.5] = -math.inf
        rows.append(off)
    m_off, w_off = rows
    for i in range(n_states):
        yield x[i, :n_p[i]], m_off[i, :n_p[i]], w_off[i, :n_p[i]]


def test_check_coupling_agrees_with_the_sorted_rule():
    # the certificate skips the sorts on sound states only: every verdict
    # and message is the sorted rule's
    with np.errstate(invalid="ignore"):  # inf - inf, on both sides
        for state in _random_couplings(20_000, np.random.default_rng(5)):
            try:
                check_coupling(*state)
                got = None
            except CouplingError as err:
                got = str(err)
            assert got == _sorted_rule(*state), state


def test_leftmost_free_carrier_or_an_error():
    # the two particles at 1 tie; the lowest slot wins; a taken slot is
    # never chosen
    x = np.array([3.0, 1.0, 2.0, 1.0])

    def taken(*slots):
        mask = np.zeros(len(x), dtype=bool)
        mask[list(slots)] = True
        return mask
    assert _leftmost_free(x, taken(0), 0.5, "plus") == 1
    assert _leftmost_free(x, taken(1), 0.5, "plus") == 3
    assert _leftmost_free(x, taken(1, 3), 1.5, "plus") == 2
    assert _leftmost_free(x, taken(), 3.0 + 1e-13, "mid") == 0
    with pytest.raises(CouplingError, match="no free plus carrier weakly "
                                            "right of an orphaned particle"):
        _leftmost_free(x, taken(0, 2), 1.5, "plus")
    with pytest.raises(CouplingError, match="no free mid carrier weakly "
                                            "right of an orphaned particle"):
        _leftmost_free(x, taken(), 3.5, "mid")
