"""Replica-batched lanes: the flat initial profile, the killed ensemble, and
batched trials, cross-checked against the scalar reference lane
(engine_reference) and, bit for bit, against the loops they replaced
(ensemble_reference)."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from nbbm.engine import rng_stream
from nbbm.ensemble import breakout_trials, hperp_flat, killed_ensemble
from nbbm.kernels import w_Z
from nbbm.stats import oracle_Z

import ensemble_reference
from conftest import assert_close
from engine_reference import breakout_trial


# ---------------------------------------------------------------------------
# flat initial profile


def test_flat_profile_counts_and_range(iv10):
    from nbbm.engine import hperp_count

    reps = 7
    pos, rep = hperp_flat(1.0, iv10, reps, rng_stream(3, 0, 0))
    per = hperp_count(1.0, iv10)
    assert pos.shape == rep.shape
    assert len(pos) == per * reps
    assert np.all((pos > 0.0) & (pos < 10.0))
    assert np.array_equal(np.bincount(rep, minlength=reps), np.full(reps, per))


def test_flat_profile_weight_mean(iv10):
    A, reps = 1.0, 400
    pos, rep = hperp_flat(A, iv10, reps, rng_stream(5, 0, 0))
    z0 = np.bincount(rep, weights=w_Z(pos, iv10), minlength=reps)
    se = float(np.std(z0, ddof=1)) / math.sqrt(reps)
    assert abs(float(np.mean(z0)) - math.exp(A)) <= 3.0 * se + 0.02


# ---------------------------------------------------------------------------
# killed ensemble


@pytest.fixture(scope="module")
def small_killed_run(binary_law, iv5):
    reps = 2000
    rng = rng_stream(11, 0, 0)
    pos0, rep0 = hperp_flat(1.0, iv5, reps, rng)
    res = killed_ensemble(binary_law, iv5, drift_rate=-iv5.mu, replicas=reps,
                          dt=iv5.a**2 / 400.0,
                          record_times=[0.0, 6.25, 12.5, 25.0],
                          rng=rng, positions0=pos0, replica0=rep0)
    return res


def test_killed_ensemble_record_grid(small_killed_run):
    res = small_killed_run
    assert list(res.record_times) == [0.0, 6.25, 12.5, 25.0]
    assert res.Z.shape == (4, 2000)
    assert res.count.shape == (4, 2000)


def test_killed_ensemble_initial_snapshot_matches_inputs(small_killed_run, iv5):
    res = small_killed_run
    # row 0 is the t = 0 state: every replica still carries its full profile
    from nbbm.engine import hperp_count

    per = hperp_count(1.0, iv5)
    assert np.all(res.count[0] == per)
    assert np.all(res.Z[0] > 0.0)


def test_killed_ensemble_absorption_counter_monotone(small_killed_run):
    res = small_killed_run
    assert np.all(np.diff(res.r_cum, axis=0) >= 0.0)
    assert np.all(res.r_cum >= 0.0)


def test_killed_ensemble_final_positions_inside(small_killed_run, iv5):
    res = small_killed_run
    assert np.all((res.final_positions > 0.0) & (res.final_positions < iv5.a))
    counts = np.bincount(res.final_replica, minlength=2000)
    assert np.array_equal(counts, res.count[-1])


def test_killed_ensemble_weight_is_a_martingale(small_killed_run):
    # paired per-replica comparison of Z at t = a^2 against Z at t = 0
    res = small_killed_run
    report = oracle_Z(res.Z[0], res.Z[-1])
    assert report.passed, report.line()


def test_killed_ensemble_rejects_bad_inputs(binary_law, iv5, rng):
    with pytest.raises(ValueError):
        killed_ensemble(binary_law, iv5, drift_rate=-iv5.mu, replicas=2,
                        dt=0.1, record_times=[1.0], rng=rng,
                        positions0=np.array([0.0, 2.0]),  # on the wall
                        replica0=np.array([0, 1]))
    with pytest.raises(ValueError):
        killed_ensemble(binary_law, iv5, drift_rate=-iv5.mu, replicas=2,
                        dt=0.1, record_times=[1.0], rng=rng,
                        positions0=np.array([1.0, 2.0]),
                        replica0=np.array([0, 5]))  # replica id out of range


# ---------------------------------------------------------------------------
# batched trials


TRIAL_KW = dict(A=3.0, epsilon=0.05, y=2.0, zeta=12.0)


@pytest.fixture(scope="module")
def trial_batch(binary_law, iv10):
    return breakout_trials(binary_law, iv10, **TRIAL_KW, n_trials=3000,
                           dt=0.05, rng=rng_stream(13, 0, 0),
                           collect_line=True)


def test_trials_flag_composition(trial_batch):
    b = trial_batch
    threshold = TRIAL_KW["epsilon"] * math.exp(TRIAL_KW["A"])
    recomputed = (b.Z > threshold) | b.hit_zeta | b.censored
    assert np.array_equal(b.is_breakout, recomputed)


def test_trials_weight_identities(trial_batch, iv10):
    b = trial_batch
    y = TRIAL_KW["y"]
    assert_close(b.W_y, y * math.exp(-y) * b.n_frozen, 1e-9)
    # frozen line positions regroup to the per-trial Z
    z_regrouped = np.bincount(b.frozen_trial,
                              weights=w_Z(b.frozen_pos, iv10),
                              minlength=len(b.Z))
    keep = ~b.censored
    assert_close(b.Z[keep], z_regrouped[keep], 1e-9)
    counts = np.bincount(b.frozen_trial, minlength=len(b.Z))
    assert np.array_equal(b.n_frozen[keep], counts[keep])


def test_trials_frozen_on_the_line(trial_batch, iv10):
    b = trial_batch
    y = TRIAL_KW["y"]
    line = iv10.a - y + (1.0 - iv10.mu) * b.frozen_time
    assert float(np.max(np.abs(b.frozen_pos - line))) <= 1e-9
    assert np.all((b.frozen_time >= 0.0)
                  & (b.frozen_time <= TRIAL_KW["zeta"] + 1e-12))


def test_trials_zeta_clause_toggle(binary_law, iv10):
    # threshold far out of reach, short horizon: trials time out alive
    quiet = dict(A=2.0, epsilon=1e9, y=2.0, zeta=4.0)
    kw = dict(n_trials=100, dt=0.05, rng=rng_stream(17, 0, 0))
    with_clause = breakout_trials(binary_law, iv10, **quiet, **kw)
    kw["rng"] = rng_stream(17, 0, 0)
    without = breakout_trials(binary_law, iv10, **quiet, **kw,
                              zeta_breakout=False)
    assert np.array_equal(with_clause.Z, without.Z)
    assert np.array_equal(with_clause.hit_zeta, without.hit_zeta)
    flipped = with_clause.is_breakout & ~without.is_breakout
    assert np.array_equal(
        flipped, with_clause.hit_zeta & ~without.is_breakout)
    assert flipped.any(), "no trial reached zeta; toggle unexercised"


def test_trials_censoring_counts_as_breakout(binary_law, iv10):
    b = breakout_trials(binary_law, iv10, **TRIAL_KW, n_trials=200,
                        dt=0.05, rng=rng_stream(19, 0, 0), censor_count=1)
    assert b.censored.any()
    assert np.all(b.is_breakout[b.censored])


def test_trials_agree_with_single_trial_engine(binary_law):
    """Same law on both lanes: breakout rate and the frozen-line law of one
    lane match the other statistically."""
    from nbbm.kernels import IntervalParams

    iv = IntervalParams(6.0)  # small profile keeps the scalar lane cheap
    kw = dict(A=3.0, epsilon=0.05, y=2.0, zeta=20.0)
    n = 1500
    batch = breakout_trials(binary_law, iv, **kw, n_trials=n,
                            dt=0.05, rng=rng_stream(23, 0, 0))
    singles_break = np.empty(n, dtype=bool)
    singles_wy = np.empty(n)
    for r in range(n):
        out = breakout_trial(binary_law, iv=iv, dt=0.05,
                             rng=rng_stream(23, r, 9), **kw)
        singles_break[r] = out.is_breakout
        singles_wy[r] = out.W_y

    p1, p2 = float(np.mean(batch.is_breakout)), float(np.mean(singles_break))
    pool = 0.5 * (p1 + p2)
    se = math.sqrt(2.0 * pool * (1.0 - pool) / n)
    assert abs(p1 - p2) <= 3.0 * se, (p1, p2)

    batch_wy = kw["y"] * math.exp(-kw["y"]) * batch.n_frozen
    ks = sps.ks_2samp(batch_wy, singles_wy)
    assert ks.pvalue > 0.01, f"KS p = {ks.pvalue:g}"


# ---------------------------------------------------------------------------
# bit-identity with the reference loops, and step validation


def _assert_same_fields(new, ref):
    for name, want in vars(ref).items():
        got = getattr(new, name)
        if want is None:
            assert got is None, name
        else:
            assert np.array_equal(got, want), name
            assert np.asarray(got).dtype == np.asarray(want).dtype, name


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("law_name", ["binary_law", "mixed_law"])
def test_killed_ensemble_matches_the_reference(request, iv5, law_name, seed):
    law = request.getfixturevalue(law_name)
    out = []
    for run in (killed_ensemble, ensemble_reference.killed_ensemble):
        rng = rng_stream(seed, 0, 0)
        pos0, rep0 = hperp_flat(2.0, iv5, 20, rng)
        out.append(run(law, iv5, drift_rate=-iv5.mu, replicas=20, dt=0.05,
                       record_times=[0.0, 1.0, 2.0, 4.0], rng=rng,
                       positions0=pos0, replica0=rep0))
    assert out[1].r_cum[-1].sum() > 0  # the upper wall is exercised
    _assert_same_fields(*out)


@pytest.mark.parametrize("collect_line", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("law_name", ["binary_law", "mixed_law"])
def test_breakout_trials_match_the_reference(request, iv10, law_name, seed,
                                             collect_line):
    law = request.getfixturevalue(law_name)
    out = [run(law, iv10, **dict(TRIAL_KW, zeta=6.0), n_trials=200, dt=0.05,
               rng=rng_stream(seed, 0, 0), collect_line=collect_line)
           for run in (breakout_trials, ensemble_reference.breakout_trials)]
    assert out[1].n_frozen.sum() > 0 and out[1].hit_zeta.any()
    _assert_same_fields(*out)


def test_censored_breakout_trials_match_the_reference(binary_law, iv10):
    out = [run(binary_law, iv10, **TRIAL_KW, n_trials=200, dt=0.05,
               rng=rng_stream(19, 0, 0), censor_count=1, collect_line=True)
           for run in (breakout_trials, ensemble_reference.breakout_trials)]
    assert out[1].censored.any()
    _assert_same_fields(*out)


def test_lanes_reject_a_bad_step(binary_law, iv5, iv10):
    trial_kw = dict(TRIAL_KW, n_trials=10, rng=rng_stream(0, 0, 0))
    killed_kw = dict(drift_rate=-iv5.mu, replicas=1, rng=rng_stream(0, 0, 0),
                     positions0=np.array([2.0]), replica0=np.array([0]))
    for dt in (-0.05, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt"):
            breakout_trials(binary_law, iv10, **trial_kw, dt=dt)
        with pytest.raises(ValueError, match="dt"):
            killed_ensemble(binary_law, iv5, **killed_kw, dt=dt,
                            record_times=[0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        killed_ensemble(binary_law, iv5, **killed_kw, dt=0.05,
                        record_times=[0.0, math.inf])
    # zeta sets a step count and y the start height: both must be finite
    for name in ("y", "zeta"):
        for bad in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="y and zeta"):
                breakout_trials(binary_law, iv10,
                                **dict(trial_kw, **{name: bad}), dt=0.05)
