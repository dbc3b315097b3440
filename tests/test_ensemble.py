"""Replica-batched lanes: the flat initial profile, the killed ensemble, and
batched trials, cross-checked against the scalar reference lane
(engine_reference) and, in law, against the segment step whose draws the
library's step cut (ensemble_reference)."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from nbbm import ensemble
from nbbm.engine import CapacityError, rng_stream
from nbbm.ensemble import (breakout_trials, hperp_flat, killed_ensemble,
                           step_segments)
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


def test_trials_reach_zeta_at_a_step_end_that_rounds_past_it(binary_law,
                                                              iv10):
    """Three steps of 0.3 reach zeta = 0.9, though the last one starts with
    0.9 - 0.6 = 0.30000000000000004 > 0.3 left: a span within 1e-9 of its
    trial's zeta ends there, so every lineage still running is cut."""
    assert 0.9 - 2 * 0.3 > 0.3
    b = breakout_trials(binary_law, iv10, A=2.0, epsilon=1e9, y=2.0,
                        zeta=0.9, n_trials=50, dt=0.3,
                        rng=rng_stream(59, 0, 0), collect_line=True)
    cut = np.unique(b.alive_trial)
    assert len(cut) > 40
    assert np.array_equal(np.flatnonzero(b.hit_zeta), cut)
    assert np.all(b.sigma_max[cut] == 0.9)


def test_trials_censoring_counts_as_breakout(monkeypatch, binary_law, iv10):
    monkeypatch.setattr(ensemble, "_CENSOR_COUNT", 1)
    b = breakout_trials(binary_law, iv10, **TRIAL_KW, n_trials=200,
                        dt=0.05, rng=rng_stream(19, 0, 0))
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
# branch selection against closed forms


def test_one_step_line_counts_are_negative_binomial(binary_law):
    """Binary law, no walls: a line's count after a step of length h is
    geometric with success probability p = e^(-beta0 h) (a Yule process), so
    n particles leave a negative binomial total, mean n / p and variance
    n (1 - p) / p^2.  At beta0 h = 1 most lines branch again within the
    step, from loops whose particles have different times left, where the
    proposals are thinned.  A survivor, picked without looking at the
    moves, has moved by one Brownian increment over h however often its
    line branched."""
    n, h, calls = 50, 2.0, 2000
    p = math.exp(-binary_law.beta0 * h)
    mean, var = n / p, n * (1.0 - p) / p**2
    # excess kurtosis of the sum of n iid geometric counts
    kurt = (6.0 + p**2 / (1.0 - p)) / n
    rng = rng_stream(29, 0, 0)
    pos = np.zeros(n)
    tag = np.zeros(n, dtype=np.int64)
    ignores = np.ones(n, dtype=bool)
    totals, moved = np.empty(calls), np.empty(calls)
    for c in range(calls):
        x, _, _, lo, hi, _ = step_segments(
            pos, tag, t0=0.0, h=h, drift=0.0, law=binary_law, rng=rng,
            origin_ignores=ignores)
        assert not lo and not hi
        totals[c], moved[c] = len(x), x[-1]
    z_mean = (totals.mean() - mean) / math.sqrt(var / calls)
    var_se = var * math.sqrt(2.0 / (calls - 1) + kurt / calls)
    z_var = (totals.var(ddof=1) - var) / var_se
    assert abs(z_mean) <= 4.0 and abs(z_var) <= 4.0, (z_mean, z_var)
    assert sps.kstest(moved / math.sqrt(h), "norm").pvalue > 1e-4


# ---------------------------------------------------------------------------
# agreement in law with the reference step, and step validation
#
# The library step draws only what each segment uses; the reference step
# (ensemble_reference) draws a clock and one uniform per wall for every
# particle.  Each comparison runs the two on independent streams of one seed.


def _z(new, ref):
    """Two-sample z of the means of independent per-replica values."""
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    se = math.sqrt(new.var(ddof=1) / len(new) + ref.var(ddof=1) / len(ref))
    diff = new.mean() - ref.mean()
    return diff / se if se > 0.0 else (0.0 if diff == 0.0 else math.inf)


def _count_z(new, ref):
    """z of two counts, each count's variance taken as its mean.  Branch
    cascades make the variance of a one-step branch count about 1.3 times
    its mean at beta0 h = 0.25, so |z| <= 4 still allows 3.5 true SE."""
    return (new - ref) / math.sqrt(max(new + ref, 1))


def _on_both_steps(monkeypatch, run):
    """run(lane) through the library step on stream lane 1, then through the
    reference step on lane 2."""
    new = run(1)
    monkeypatch.setattr(ensemble, "step_segments",
                        ensemble_reference.step_segments)
    return new, run(2)


@pytest.mark.parametrize("walls", ["origin", "both"])
def test_one_step_agrees_with_the_reference(binary_law, walls):
    """One step of 100k particles from one state: hit counts per wall,
    branch counts and survivors per tag (count z), and the laws of the
    survivors' positions and displacements and of each wall's hit times
    (two-sample KS).  "both" adds the upper wall, a drift per tag, a payload
    and particles the origin ignores."""
    n, h = 100_000, 0.5
    pos = rng_stream(0, 0, 9).uniform(0.0, 3.0, n)
    tag = np.arange(n, dtype=np.int64) % 2
    kw = dict(t0=1.0, h=h, law=binary_law, drift=-0.5)
    if walls == "both":
        kw.update(upper=3.0, drift=np.array([-1.0, 0.5]),
                  origin_ignores=np.arange(n) % 3 == 0)
    out = {}
    for name, step in (("new", step_segments),
                       ("ref", ensemble_reference.step_segments)):
        x, t, (x0,), lo, hi, segs = step(
            pos, tag, (pos,), rng=rng_stream(0, len(out) + 1, 9), **kw)
        out[name] = dict(
            x=x, moved=x - x0, tag=np.bincount(t, minlength=2),
            lo=np.concatenate([c[0] for c in lo]) if lo else np.empty(0),
            hi=np.concatenate([c[0] for c in hi]) if hi else np.empty(0),
            # each binary branching adds two segments
            branches=(segs - n) // 2)
    new, ref = out["new"], out["ref"]
    assert len(ref["lo"]) > 1000 and ref["branches"] > 1000
    if walls == "both":
        assert len(ref["hi"]) > 1000 and np.any(ref["x"] < 0.0)
    counts = [("origin hits", len(new["lo"]), len(ref["lo"])),
              ("upper hits", len(new["hi"]), len(ref["hi"])),
              ("branches", new["branches"], ref["branches"]),
              ("tag 0", new["tag"][0], ref["tag"][0]),
              ("tag 1", new["tag"][1], ref["tag"][1])]
    for label, a, b in counts:
        assert abs(_count_z(a, b)) <= 4.0, (label, a, b)
    for label in ("x", "moved", "lo", "hi"):
        if len(ref[label]):
            p = sps.ks_2samp(new[label], ref[label]).pvalue
            assert p > 1e-4, (label, p)
    for times in (new["lo"], new["hi"]):
        assert np.all((times >= 1.0) & (times <= 1.0 + h))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("law_name", ["binary_law", "mixed_law"])
def test_killed_ensemble_matches_the_reference(request, monkeypatch, iv5,
                                               law_name, seed):
    """Per-replica final count, Z, Y and upper hits: the means on the two
    steps agree within |z| <= 4."""
    law = request.getfixturevalue(law_name)
    reps = 300

    def run(lane):
        rng = rng_stream(seed, lane, 0)
        pos0, rep0 = hperp_flat(2.0, iv5, reps, rng)
        return ensemble.killed_ensemble(
            law, iv5, drift_rate=-iv5.mu, replicas=reps, dt=0.05,
            record_times=[0.0, 1.0, 2.0, 4.0], rng=rng, positions0=pos0,
            replica0=rep0)

    new, ref = _on_both_steps(monkeypatch, run)
    assert ref.r_cum[-1].sum() > 0  # the upper wall is exercised
    for name in ("count", "Z", "Y", "r_cum"):
        z = _z(getattr(new, name)[-1], getattr(ref, name)[-1])
        assert abs(z) <= 4.0, (name, z)


def _trial_values(b, collect_line):
    """Per-trial values compared between the two steps."""
    vals = {"n_frozen": b.n_frozen, "Z": b.Z, "sigma_max": b.sigma_max,
            "hit_zeta": b.hit_zeta, "censored": b.censored,
            "is_breakout": b.is_breakout}
    if collect_line:
        n = len(b.Z)
        vals["frozen time sum"] = np.bincount(
            b.frozen_trial, weights=b.frozen_time, minlength=n)
        vals["alive at zeta"] = np.bincount(b.alive_trial, minlength=n)
    return vals


@pytest.mark.parametrize("collect_line", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("law_name", ["binary_law", "mixed_law"])
def test_breakout_trials_match_the_reference(request, monkeypatch, iv10,
                                             law_name, seed, collect_line):
    """Per-trial frozen count, weight, last freeze, outcome flags and, with
    collect_line, the frozen-time sum and the lineages alive at zeta: the
    means on the two steps agree within |z| <= 4."""
    law = request.getfixturevalue(law_name)

    def run(lane):
        return ensemble.breakout_trials(
            law, iv10, **dict(TRIAL_KW, zeta=6.0), n_trials=600, dt=0.05,
            rng=rng_stream(seed, lane, 0), collect_line=collect_line)

    new, ref = _on_both_steps(monkeypatch, run)
    assert ref.n_frozen.sum() > 0 and ref.hit_zeta.any()
    ref_vals = _trial_values(ref, collect_line)
    for name, got in _trial_values(new, collect_line).items():
        z = _z(got, ref_vals[name])
        assert abs(z) <= 4.0, (name, z)


def test_censored_breakout_trials_match_the_reference(monkeypatch, binary_law,
                                                      iv10):
    """With a censor count of 1 the censored and breakout shares agree."""
    def run(lane):
        return ensemble.breakout_trials(
            binary_law, iv10, **TRIAL_KW, n_trials=600, dt=0.05,
            rng=rng_stream(19, lane, 0), collect_line=True)

    monkeypatch.setattr(ensemble, "_CENSOR_COUNT", 1)
    new, ref = _on_both_steps(monkeypatch, run)
    assert ref.censored.any()
    for name in ("censored", "is_breakout", "n_frozen"):
        z = _z(getattr(new, name), getattr(ref, name))
        assert abs(z) <= 4.0, (name, z)


# ---------------------------------------------------------------------------
# the trial pool against stand-alone trials
#
# A shallow stopping line close to its wall bound (the nested barrier test's
# geometry): lineages cut at zeta often land beyond the wall and relaunch,
# down to the depth cap.  Without the zeta clause about two thirds of the
# trials break out.

NEST_KW = dict(A=4.0, epsilon=0.02, y=2.0, zeta=2.0, zeta_breakout=False)
NEST_TRIALS = 3000


def _stand_alone_nested(law, iv, n, rng):
    """n stand-alone trials, nested by hand: the lineages of a depth-d batch
    cut beyond the wall launch the depth d + 1 batch, down to depth 3.
    Returns the depth-1 batch, per-family counts of the depth-2 trials,
    depth-3 trials and capped lineages, and every re-entering lineage's
    local exit time and lab position."""
    family = np.arange(n)
    counts, age, pos = [], [], []
    for depth in (1, 2, 3):
        b = breakout_trials(law, iv, **NEST_KW, n_trials=len(family),
                            dt=0.05, rng=rng, collect_line=True)
        if depth == 1:
            first = b
        else:
            counts.append(np.bincount(family, minlength=n))
        beyond = b.alive_pos >= iv.a
        age += [b.frozen_time,
                np.full(np.count_nonzero(~beyond), NEST_KW["zeta"])]
        pos += [b.frozen_pos, b.alive_pos[~beyond]]
        family = family[b.alive_trial[beyond]]
    counts.append(np.bincount(family, minlength=n))
    return first, np.array(counts), np.concatenate(age), np.concatenate(pos)


def _pooled(law, iv, n, rng, replicas=4, per_step=150, dt=0.05,
            payload=lambda j: ()):
    """n trials launched into one pool, per_step of them a step at uniform
    times within it, replicas in turn, each hit with the payload columns
    payload(j) of its trial numbers j; the pool steps until it is empty.
    Returns the pool and the concatenated decided and re-entry arrays, the
    re-entering payload columns as `payload0`, `payload1`, ..."""
    pool = ensemble.TrialPool(replicas)
    phase = rng.random(n)
    decided, reentry = [], []
    step = 0
    while step * per_step < n or len(pool):
        t0 = step * dt
        j = np.arange(step * per_step, min((step + 1) * per_step, n))
        hits = (t0 + (1.0 - phase[j]) * dt, j % replicas, *payload(j))
        out = breakout_trials(law, iv, **NEST_KW, n_trials=len(j), dt=dt,
                              rng=rng, pool=pool, t0=t0, hits=hits)
        decided.append(out.decided)
        ent = dict(out.reentry)
        for i, col in enumerate(ent.pop("payload")):
            ent[f"payload{i}"] = col
        reentry.append(ent)
        step += 1
    return pool, *({k: np.concatenate([d[k] for d in parts])
                    for k in parts[0]} for parts in (decided, reentry))


def test_pooled_trials_agree_in_law_with_stand_alone_trials(binary_law, iv5):
    """Trials launched mid-step at staggered times into a pool, with their
    nested relaunches, against stand-alone batches nested by hand: per
    depth-1 trial the laws of Z, n_frozen and sigma_max (KS) and the
    breakout share; over every re-entering lineage the laws of the local
    exit time and the lab position (KS at p > 1e-6, since lineages of one
    trial are not independent); and the numbers of depth-2 and depth-3
    trials and of depth-capped lineages."""
    n = NEST_TRIALS
    first, counts, age, pos = _stand_alone_nested(
        binary_law, iv5, n, rng_stream(31, 1, 0))
    pool, dec, ent = _pooled(binary_law, iv5, n, rng_stream(31, 2, 0))
    top = dec["depth"] == 1
    assert np.count_nonzero(top) == n
    for name in ("Z", "n_frozen", "sigma_max"):
        p = sps.ks_2samp(dec[name][top], getattr(first, name)).pvalue
        assert p > 1e-3, (name, p)
    share = first.is_breakout.mean()
    assert 0.2 < share < 0.8
    z = (dec["is_breakout"][top].mean() - share) / math.sqrt(
        2.0 * share * (1.0 - share) / n)
    assert abs(z) <= 4.0, ("is_breakout", z)
    for name, ref in (("age", age), ("pos", pos)):
        p = sps.ks_2samp(ent[name], ref).pvalue
        assert p > 1e-6, (name, p)
    assert np.all(ent["pos"] < iv5.a)
    depth = (np.count_nonzero(dec["depth"] == 2),
             np.count_nonzero(dec["depth"] == 3), pool.depth_capped.sum())
    for name, got, c in zip(("depth 2", "depth 3", "capped"), depth, counts):
        assert c.sum() > 50, name
        z = (got - c.sum()) / math.sqrt(2.0 * n * c.var(ddof=1))
        assert abs(z) <= 4.0, (name, z)
    assert dec["depth"].max() == 3


def test_pool_decides_each_replica_in_hit_order(binary_law, iv5):
    """Every launched trial is decided once, each replica's in launch
    order; relaunches count as launches, and a breakout decided after an
    earlier trial of its replica ran on counts as a wait."""
    pool, dec, _ = _pooled(binary_law, iv5, 600, rng_stream(37, 0, 0))
    assert len(dec["launch"]) == 600 + pool.relaunched.sum()
    for r in range(pool.replicas):
        assert np.all(np.diff(dec["launch"][dec["replica"] == r]) >= 0.0)
    assert pool.waits.sum() > 0 and pool.wait_time.sum() > 0.0
    # a wait ends by the end of the step in which the earlier trial,
    # launched before the waiting one, reaches zeta
    assert pool.wait_time.sum() <= pool.waits.sum() * (NEST_KW["zeta"] + 0.05)
    assert len(pool) == 0 and len(pool.trials["launch"]) == 0


def test_pool_hands_each_launch_payload_back_unchanged(binary_law, iv5):
    """A payload given with the hits comes back as given, column for column
    and dtype for dtype, with every re-entering lineage, also with those of
    the nested trials, which inherit their parent's payload; a pool without
    payload hands back none."""
    def payload(j):
        return j, (j % 7).astype(np.int8), j * 0.5
    pool, dec, ent = _pooled(binary_law, iv5, 600, rng_stream(43, 0, 0),
                             payload=payload)
    assert np.count_nonzero(dec["depth"] >= 2) > 0 and len(ent["pos"]) > 0
    j = ent["payload0"]
    for col, want in zip((ent["payload1"], ent["payload2"]), payload(j)[1:]):
        assert col.dtype == want.dtype and np.array_equal(col, want)
    # lineages re-enter from nested trials too, and keep their hit's replica
    assert np.array_equal(ent["replica"], j % pool.replicas)
    assert "colour" not in dec and "expiry" not in dec
    assert len(pool.payload) == 3 and all(len(v) == 0 for v in pool.payload)
    _, _, ent = _pooled(binary_law, iv5, 60, rng_stream(43, 1, 0))
    assert set(ent) == {"pos", "replica", "age"}


def test_pool_payload_survives_a_depth_2_relaunch(binary_law, iv5):
    """One trial's lineage that relaunches at depth 2 carries its parent's
    payload into the nested trial, and its re-entering lineages hand it
    back."""
    pool = ensemble.TrialPool(1)
    rng = rng_stream(47, 0, 0)
    mark = np.array([12345], dtype=np.int64)
    out = breakout_trials(binary_law, iv5, **NEST_KW, n_trials=1, dt=0.05,
                          rng=rng, pool=pool, t0=0.0,
                          hits=(np.array([0.05]), np.zeros(1, np.int64), mark))
    back, step, nested = [out.reentry["payload"][0]], 1, False
    empty = (np.empty(0), np.empty(0, np.int64), mark[:0])
    while len(pool):
        deep = pool.trials["depth"] == 2
        nested |= bool(deep.any())
        assert np.all(pool.payload[0][deep] == mark)
        out = breakout_trials(binary_law, iv5, **NEST_KW, n_trials=0,
                              dt=0.05, rng=rng, pool=pool, t0=step * 0.05,
                              hits=empty)
        back.append(out.reentry["payload"][0])
        step += 1
    assert nested and pool.relaunched[0] >= 1
    back = np.concatenate(back)
    assert len(back) and back.dtype == mark.dtype and np.all(back == mark)


def test_pool_times_each_trial_once(monkeypatch, binary_law, iv5):
    """The pool times its trials, not their lineages: a trial first steps
    from its launch time, so a root launched at a step end waits for the
    next step, and every span ends at the step end or at the trial's zeta.
    A step whose lineages all start at t0 with one span passes
    `step_segments` one float h, as a stand-alone batch does; one with a
    trial launched mid-step, or relaunched off the grid, passes arrays."""
    pool, dt, zeta = ensemble.TrialPool(4), 0.05, NEST_KW["zeta"]
    calls, seen, grid = [], set(), {}
    real = ensemble.step_segments

    def spy(x, k, *args, t0, h, **kw):
        tr = pool.trials
        launch = tr["launch"][k]
        start, span = (np.broadcast_to(v, k.shape) for v in (t0, h))
        keys = list(zip(launch.tolist(), tr["depth"][k].tolist(),
                        tr["replica"][k].tolist()))
        first = np.array([key not in seen for key in keys])
        seen.update(keys)
        assert np.all(np.abs(start[first] - launch[first]) <= 1e-9)
        end = start + span
        assert np.all((np.abs(end - grid["t1"]) <= 1e-12)
                      | (np.abs(end - (launch + zeta)) <= 1e-12))
        scalar = bool(np.all(np.abs(start - grid["t0"]) <= 1e-9)
                      and span.min() == span.max())
        assert type(h) is float if scalar else isinstance(h, np.ndarray)
        calls.append((h, bool(first.any()), bool((tr["depth"][k] > 1).any())))
        return real(x, k, *args, t0=t0, h=h, **kw)

    monkeypatch.setattr(ensemble, "step_segments", spy)
    rng = rng_stream(53, 0, 0)

    def step(i, at):  # hits at t0 + at * dt, one replica after the other
        grid["t0"] = t0 = i * dt
        grid["t1"] = t0 + dt
        hits = (t0 + dt * np.asarray(at, dtype=float), np.arange(len(at)) % 4)
        breakout_trials(binary_law, iv5, **NEST_KW, n_trials=len(at), dt=dt,
                        rng=rng, pool=pool, t0=t0, hits=hits)

    step(0, [1.0] * 4)  # roots launched at the step end wait
    assert calls == []
    step(1, [])  # then step as one batch with one float h
    assert len(calls) == 1 and calls[0][0] == dt
    step(2, [0.3, 0.6])
    assert isinstance(calls[-1][0], np.ndarray)
    step(3, [])  # every trial has stepped: on the grid again
    assert type(calls[-1][0]) is float
    i = 4
    while i < 60 or len(pool):
        assert i < 400, "the pool does not drain"
        at = rng.random(3 if i < 60 else 0)
        step(i, np.where(at > 0.5, at, 1.0))  # half of them at the step end
        i += 1
    assert pool.relaunched.sum() > 0
    assert any(type(h) is float and new for h, new, _ in calls[4:])
    assert any(isinstance(h, np.ndarray) for h, _, deep in calls if deep)


def test_per_particle_spans_time_hits_within_each_span(binary_law):
    """Each particle steps through its own [t0, t0 + h]: a Yule line over
    h leaves e^(beta0 h) particles on average, and an origin hit falls
    within its particle's span."""
    n = 4000
    rng = rng_stream(41, 0, 0)
    h = rng.uniform(0.01, 1.0, n)
    t0 = rng.uniform(0.0, 3.0, n)
    x, tag, _, lo, _, _ = step_segments(
        np.zeros(n), np.arange(n), t0=t0, h=h, drift=0.0, law=binary_law,
        rng=rng, origin_ignores=np.ones(n, dtype=bool))
    grow = np.exp(binary_law.beta0 * h)
    z = (len(x) - grow.sum()) / math.sqrt((grow * (grow - 1.0)).sum())
    assert abs(z) <= 4.0, z
    assert not lo
    x, tag, _, lo, _, _ = step_segments(
        np.full(n, 0.3), np.arange(n), t0=t0, h=h, drift=-1.0,
        law=binary_law, rng=rng)
    t_hit, k_hit = (np.concatenate(v) for v in zip(*lo))
    assert len(t_hit) > n // 4
    assert np.all(t_hit > t0[k_hit]) and np.all(t_hit <= t0[k_hit] + h[k_hit])


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
    # the weight threshold epsilon e^A must be a finite number
    for name, bads in (("A", (math.inf, -math.inf, math.nan, 710.0)),
                       ("epsilon", (math.inf, math.nan, 0.0, -1.0, 1e307)),
                       ("n_trials", (-1, math.nan))):
        for bad in bads:
            with pytest.raises(ValueError, match=name):
                breakout_trials(binary_law, iv10,
                                **dict(trial_kw, **{name: bad}), dt=0.05)
    # a NaN particle would branch into NaN copies that count includes
    for bad_pos in (math.nan, math.inf):
        with pytest.raises(ValueError, match="inside"):
            killed_ensemble(binary_law, iv5,
                            **dict(killed_kw,
                                   positions0=np.array([2.0, bad_pos]),
                                   replica0=np.array([0, 0])),
                            dt=0.05, record_times=[0.0, 1.0])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="drift_rate"):
            killed_ensemble(binary_law, iv5,
                            **dict(killed_kw, drift_rate=bad), dt=0.05,
                            record_times=[0.0, 1.0])


def test_lanes_stop_at_their_segment_budget(binary_law, iv5, iv10):
    # every step of either lane processes more than one segment
    with pytest.raises(CapacityError, match="segment budget 1 "):
        killed_ensemble(binary_law, iv5, drift_rate=-iv5.mu, replicas=1,
                        dt=0.05, record_times=[0.0, 1.0],
                        rng=rng_stream(0, 0, 0),
                        positions0=np.array([2.0, 2.5]),
                        replica0=np.array([0, 0]), max_segments=1)
    with pytest.raises(CapacityError, match="segment budget 1 "):
        breakout_trials(binary_law, iv10, **TRIAL_KW, n_trials=10, dt=0.05,
                        rng=rng_stream(0, 0, 0), max_segments=1)
