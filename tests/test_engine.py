"""Core simulation engine: offspring laws, seeded streams, labels, the
bridge boundary corrector, stepping with absorption, and single trials."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbbm.engine import (
    CapacityError,
    ConstantDrift,
    IntervalParams,
    Particle,
    Population,
    ReproductionLaw,
    SimConfig,
    advance,
    breakout_trial,
    bridge_hit_prob,
    format_label,
    hperp_count,
    parse_label,
    rng_stream,
    sample_offspring,
    w_Z,
)
from nbbm.ensemble import hperp_flat

from conftest import assert_close


# ---------------------------------------------------------------------------
# reproduction law


def test_binary_law_moments(binary_law):
    assert binary_law.probabilities == (0.0, 0.0, 1.0)
    assert binary_law.m == 1.0
    assert binary_law.m2 == 2.0
    assert binary_law.beta0 == 0.5


def test_mixed_law_moments(mixed_law):
    assert_close(mixed_law.m, 0.9, 1e-15)
    assert_close(mixed_law.m2, 2.8, 1e-15)
    assert_close(mixed_law.beta0 * mixed_law.m, 0.5, 1e-15)


def test_law_from_dict_matches_tuple_form(mixed_law):
    law = ReproductionLaw.from_dict({0: 0.2, 2: 0.5, 3: 0.3})
    assert law.probabilities == mixed_law.probabilities


def test_law_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        ReproductionLaw((0.5, 0.4))  # sums to 0.9
    with pytest.raises(ValueError):
        ReproductionLaw((0.2, 0.8))  # m = -0.2, subcritical mean drift
    with pytest.raises(ValueError):
        ReproductionLaw((-0.1, 0.0, 1.1))
    with pytest.raises(ValueError):
        ReproductionLaw.from_dict({-1: 1.0})


def test_offspring_sampler_binary_always_two(binary_law, rng):
    assert np.all(sample_offspring(binary_law, 1000, rng) == 2)


def test_offspring_sampler_keeps_the_inverse_cdf_draw(mixed_law):
    # the CDF is tabulated once per law; the draw must equal the formula
    # that rebuilt it on every call
    ks = sample_offspring(mixed_law, 1000, rng_stream(11, 0, 0))
    u = rng_stream(11, 0, 0).random(1000)
    old = np.minimum(np.searchsorted(np.cumsum(mixed_law.probabilities), u,
                                     side="right"), 3).astype(np.int64)
    assert np.array_equal(ks, old)
    twin = ReproductionLaw((0.2, 0.0, 0.5, 0.3))
    assert twin == mixed_law and hash(twin) == hash(mixed_law)
    assert repr(twin) == "ReproductionLaw(probabilities=(0.2, 0.0, 0.5, 0.3))"


def test_offspring_sampler_matches_moments(mixed_law, rng):
    ks = sample_offspring(mixed_law, 10**6, rng)
    n = len(ks)
    inc = ks - 1.0
    se_m = float(np.std(inc, ddof=1)) / math.sqrt(n)
    assert abs(float(np.mean(inc)) - mixed_law.m) <= 3.0 * se_m
    pair = ks * (ks - 1.0)
    se_m2 = float(np.std(pair, ddof=1)) / math.sqrt(n)
    assert abs(float(np.mean(pair)) - mixed_law.m2) <= 3.0 * se_m2
    assert not np.any(ks == 1)  # q(1) = 0 here


# ---------------------------------------------------------------------------
# seeded streams


def test_rng_stream_reproducible():
    a = rng_stream(42, 3, 1).random(100)
    b = rng_stream(42, 3, 1).random(100)
    assert np.array_equal(a, b)


def test_rng_stream_distinct_replicas_uncorrelated():
    n = 10**5
    u = rng_stream(42, 0, 0).random(n)
    v = rng_stream(42, 1, 0).random(n)
    corr = float(np.corrcoef(u, v)[0, 1])
    assert abs(corr) <= 3.0 / math.sqrt(n)


def test_rng_stream_distinct_lanes_differ():
    a = rng_stream(42, 0, 0).random(8)
    b = rng_stream(42, 0, 1).random(8)
    assert not np.array_equal(a, b)


def test_rng_stream_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        rng_stream(1, -1, 0)
    with pytest.raises(ValueError):
        rng_stream(1, 0, 2**20)


# ---------------------------------------------------------------------------
# genealogy labels


def test_label_round_trip_examples():
    assert format_label(()) == ""
    assert parse_label("") == ()
    assert format_label((1, 3, 2)) == "1.3.2"
    assert parse_label("1.3.2") == (1, 3, 2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=99), max_size=8))
def test_label_round_trip_property(parts):
    label = tuple(parts)
    assert parse_label(format_label(label)) == label


# ---------------------------------------------------------------------------
# bridge corrector


def test_bridge_hit_prob_reference_value():
    # exp(-2 (b-x1)(b-x2) / dt) at x1 = x2 = 0.5, dt = 1, b = 0
    assert_close(bridge_hit_prob(0.5, 0.5, 1.0, 0.0), math.exp(-0.5), 1e-15)


def test_bridge_hit_prob_certain_when_endpoint_crosses():
    assert bridge_hit_prob(0.5, -0.1, 1.0, 0.0) == 1.0
    assert bridge_hit_prob(-0.2, 0.4, 1.0, 0.0) == 1.0
    assert bridge_hit_prob(0.3, 0.0, 1.0, 0.0) == 1.0  # touching counts


def test_bridge_hit_prob_symmetric_in_endpoints():
    assert_close(bridge_hit_prob(0.3, 0.8, 0.5, 0.0),
                 bridge_hit_prob(0.8, 0.3, 0.5, 0.0), 1e-15)


@settings(max_examples=300, deadline=None)
@given(
    x1=st.floats(min_value=0.01, max_value=5.0),
    x2=st.floats(min_value=0.01, max_value=5.0),
    seg=st.floats(min_value=1e-4, max_value=10.0),
)
def test_bridge_hit_prob_is_a_probability(x1, x2, seg):
    p = bridge_hit_prob(x1, x2, seg, 0.0)
    assert 0.0 <= p <= 1.0
    # longer segments leave more room to dip across
    assert bridge_hit_prob(x1, x2, 2.0 * seg, 0.0) >= p - 1e-15


# ---------------------------------------------------------------------------
# advance


def test_advance_requires_forward_time(binary_law, rng):
    pop = Population.from_positions([0.5])
    with pytest.raises(ValueError):
        advance(pop, 0.0, law=binary_law, dt=0.1, rng=rng)


def test_advance_mean_growth_per_root(binary_law):
    # no boundaries: each root's subtree count has mean e^{t/2}
    n_roots = 10**4
    t = 2.0
    pop = Population.from_positions(np.zeros(n_roots))
    advance(pop, t, law=binary_law, dt=0.05, rng=rng_stream(7, 0, 0))
    per_root = np.zeros(n_roots)
    for p in pop.particles:
        per_root[p.label[0] - 1] += 1
    se = float(np.std(per_root, ddof=1)) / math.sqrt(n_roots)
    assert abs(float(np.mean(per_root)) - math.exp(t / 2.0)) <= 3.0 * se


def test_advance_count_monotone_without_deaths(binary_law):
    pop = Population.from_positions([0.0, 1.0, 2.0])
    counts = [len(pop.particles)]
    rng = rng_stream(3, 0, 0)
    for k in range(1, 11):
        advance(pop, 0.5 * k, law=binary_law, dt=0.1, rng=rng)
        counts.append(len(pop.particles))
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_advance_absorption_confines_and_logs(binary_law, iv5):
    pop = Population.from_positions(np.full(200, 2.5))
    events = []
    advance(pop, 10.0, law=binary_law, dt=0.1, rng=rng_stream(11, 0, 0),
            drift=ConstantDrift(-iv5.mu), absorb_lower=0.0, absorb_upper=5.0,
            events=events)
    pos = pop.positions()
    assert np.all((pos > 0.0) & (pos < 5.0))
    kinds = {ev.kind for ev in events}
    assert kinds <= {"branch", "absorb_lo", "absorb_hi"}
    absorbed = [ev for ev in events if ev.kind.startswith("absorb")]
    assert absorbed, "no absorption in 10 time units is implausible"
    # the log is ordered per lineage segment, not globally; times stay in range
    assert all(0.0 < ev.time <= 10.0 for ev in absorbed)
    # branch events record the offspring count, absorptions do not
    for ev in events:
        assert (ev.k >= 0) == (ev.kind == "branch")


def test_advance_child_labels_extend_parent(binary_law):
    pop = Population.from_positions([1.0])
    advance(pop, 6.0, law=binary_law, dt=0.1, rng=rng_stream(13, 0, 0))
    labels = pop.labels()
    assert len(labels) > 1
    assert len(set(labels)) == len(labels)
    for lab in labels:
        assert lab[0] == 1
        assert all(i >= 1 for i in lab)


def test_advance_capacity_error(binary_law):
    pop = Population.from_positions(np.zeros(1000))
    with pytest.raises(CapacityError):
        advance(pop, 50.0, law=binary_law, dt=0.1,
                rng=rng_stream(0, 0, 0), max_segments=10_000)


def test_advance_event_log_deterministic(binary_law, iv5):
    def run():
        pop = Population.from_positions(np.full(50, 2.5))
        events = []
        advance(pop, 5.0, law=binary_law, dt=0.1, rng=rng_stream(17, 0, 2),
                drift=ConstantDrift(-iv5.mu), absorb_lower=0.0,
                absorb_upper=5.0, events=events)
        return pop, events

    pop_a, ev_a = run()
    pop_b, ev_b = run()
    assert ev_a == ev_b
    assert np.array_equal(pop_a.positions(), pop_b.positions())


# ---------------------------------------------------------------------------
# reference initial profile


def test_reference_profile_count_formula(iv15):
    # floor(2 pi e^A a^-3 e^(mu a)) at A = 2, a = 15
    expect = math.floor(2.0 * math.pi * math.exp(2.0) * 15.0**-3
                        * math.exp(iv15.mu * 15.0))
    assert hperp_count(2.0, iv15) == expect
    assert 3.1e4 < expect < 3.3e4


def test_reference_profile_positions_inside(iv10, rng):
    pos, _ = hperp_flat(1.0, iv10, 1, rng)
    assert len(pos) == hperp_count(1.0, iv10)
    assert np.all((pos > 0.0) & (pos < 10.0))


def test_reference_profile_rejects_empty_count(iv10):
    with pytest.raises(ValueError):
        hperp_flat(-20.0, iv10, 1, rng_stream(0, 0, 0))


def test_reference_profile_weight_concentrates(iv10):
    # mean of Z_0 over replicas should sit at e^A up to the count floor
    A, reps = 1.0, 400
    z0 = np.empty(reps)
    for r in range(reps):
        pos, _ = hperp_flat(A, iv10, 1, rng_stream(29, r, 0))
        z0[r] = float(np.sum(w_Z(pos, iv10)))
    se = float(np.std(z0, ddof=1)) / math.sqrt(reps)
    # floor of the count plus the e^{-mu a} profile correction bias the mean
    # by O(1/n + e^{-mu a}); both are far below one SE here
    assert abs(float(np.mean(z0)) - math.exp(A)) <= 3.0 * se + 0.02


# ---------------------------------------------------------------------------
# single trial from the top of the interval


def test_trial_outcome_internally_consistent(binary_law, iv10):
    out = breakout_trial(binary_law, A=2.0, epsilon=0.05, y=2.0, zeta=15.0,
                         iv=iv10, dt=0.05, rng=rng_stream(31, 0, 0))
    assert out.n_frozen == len(out.stopped_line)
    assert_close(out.W_y, 2.0 * math.exp(-2.0) * out.n_frozen, 1e-12)
    z_sum = sum(w_Z(pos, iv10) for _, _, pos in out.stopped_line)
    assert_close(out.Z, z_sum, 1e-9)
    assert out.is_breakout == (out.Z > 0.05 * math.exp(2.0) or out.hit_zeta)


def test_trial_freezes_on_the_moving_line(binary_law, iv10):
    y, zeta, t0 = 2.0, 15.0, 3.0
    out = breakout_trial(binary_law, A=2.0, epsilon=0.05, y=y, zeta=zeta,
                         iv=iv10, dt=0.05, rng=rng_stream(37, 0, 0),
                         start_time=t0)
    for _, t_abs, pos in out.stopped_line:
        elapsed = t_abs - t0
        assert 0.0 <= elapsed <= zeta + 1e-12
        line = iv10.a - y + (1.0 - iv10.mu) * elapsed
        assert_close(pos, line, 1e-9)
    assert 0.0 <= out.sigma_max <= zeta + 1e-12


def test_trial_zeta_clause_is_optional(binary_law, iv10):
    # with the clause off, still-running lineages no longer force a breakout
    kw = dict(A=2.0, epsilon=1e9, y=2.0, zeta=4.0, iv=iv10, dt=0.05)
    hits = 0
    for r in range(40):
        with_clause = breakout_trial(binary_law, **kw,
                                     rng=rng_stream(41, r, 0))
        without = breakout_trial(binary_law, **kw,
                                 rng=rng_stream(41, r, 0),
                                 zeta_breakout=False)
        assert with_clause.hit_zeta == without.hit_zeta
        assert without.is_breakout == (without.Z > 1e9 * math.exp(2.0))
        hits += with_clause.hit_zeta
        if with_clause.hit_zeta:
            assert with_clause.is_breakout and not without.is_breakout
    assert hits > 0, "zeta never reached; the flag was not exercised"


def test_trial_rejects_bad_geometry(binary_law, iv10, rng):
    with pytest.raises(ValueError):
        breakout_trial(binary_law, A=2.0, epsilon=0.05, y=0.0, zeta=5.0,
                       iv=iv10, dt=0.05, rng=rng)
    with pytest.raises(ValueError):
        breakout_trial(binary_law, A=2.0, epsilon=0.05, y=2.0, zeta=-1.0,
                       iv=iv10, dt=0.05, rng=rng)


# ---------------------------------------------------------------------------
# configuration


def test_config_validate_accepts_and_warns(binary_law, iv10):
    cfg = SimConfig(law=binary_law, interval=iv10, A=5.0, epsilon=0.2,
                    eta=1e-5, y=3.0, zeta=50.0)
    notes = cfg.validate()
    assert any("A^-17" in w for w in notes)
    # regime warnings never raise; desk-scale parameters are the normal case
    assert isinstance(notes, list)


def test_config_validate_quiet_inside_regime(binary_law, iv10):
    # the window e^{-A/6} <= eps <= A^{-17} is nonempty only past A ~ 650
    cfg = SimConfig(law=binary_law, interval=iv10, A=700.0, epsilon=1e-50,
                    eta=None, y=None, zeta=None)
    assert cfg.validate() == []


def test_config_validate_rejects_bad_fields(binary_law, iv10):
    with pytest.raises(ValueError):
        SimConfig(law=binary_law, interval=iv10, dt=0.0).validate()
    with pytest.raises(ValueError):
        SimConfig(law=binary_law, interval=iv10, replicas=0).validate()
    with pytest.raises(ValueError):
        SimConfig(law=binary_law, interval=iv10, horizon=-5.0).validate()
    with pytest.raises(ValueError):
        SimConfig(law=binary_law, interval=iv10, alphas=(0.5, 1.5)).validate()
    with pytest.raises(ValueError):
        SimConfig(law=binary_law, interval=iv10, zeta=-2.0).validate()
    # run lengths become step counts: each must be positive and finite
    for name in ("dt", "horizon", "sample_every"):
        for bad in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match=name):
                SimConfig(law=binary_law, interval=iv10,
                          **{name: bad}).validate()
    # the barrier parameters feed exp() and particle counts: also finite
    for name in ("A", "epsilon", "eta", "y", "zeta", "delta_color"):
        for bad in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError,
                               match=f"{name} must be positive and finite"):
                SimConfig(law=binary_law, interval=iv10,
                          **{name: bad}).validate()
