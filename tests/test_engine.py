"""Core model pieces and stepping: offspring laws, seeded streams, the
bridge hit probability, the segment step with walls and genealogy, the
reference profile and the run configuration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbbm import ensemble
from nbbm.engine import (
    ReproductionLaw,
    SimConfig,
    hperp_count,
    rng_stream,
    sample_offspring,
)
from nbbm.ensemble import (
    _wall_hits, bridge_hit_prob, hperp_flat, step_segments)
from nbbm.kernels import IntervalParams, w_Z

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


class _TableStream:
    """A generator stand-in whose uniforms hit the CDF table: every third
    one is its last entry, every third one after that its second, and the
    rest come from a seeded stream."""

    def __init__(self, cdf: np.ndarray, seed: int) -> None:
        u = rng_stream(seed, 0, 0).random(2000)
        u[::3] = cdf[-1]
        u[1::3] = cdf[1]
        self._u, self._i = u, 0

    def random(self, size=None):
        n = 1 if size is None else size
        u = self._u[self._i:self._i + n]
        self._i += n
        return float(u[0]) if size is None else u.copy()


@pytest.mark.parametrize("probabilities, last_below_one", [
    ((0.0, 0.0, 1.0), False), ((0.1, 0.0, 0.6, 0.3), False),
    ((0.2, 0.0, 0.7, 0.1), True)])
def test_offspring_sampler_one_draw_path_matches_the_array_path(
        probabilities, last_below_one):
    # the size-1 path (one random() and a bisect) must give the array
    # path's count from the same uniform; the coupled runners and the
    # reference lanes draw through it
    law = ReproductionLaw(probabilities)
    one, many = rng_stream(5, 0, 0), rng_stream(5, 0, 0)
    singles = [sample_offspring(law, 1, one) for _ in range(2000)]
    assert all(k.shape == (1,) and k.dtype == np.int64 for k in singles)
    assert np.array_equal(np.concatenate(singles),
                          sample_offspring(law, 2000, many))
    # a uniform equal to a table entry counts as above it, and one at the
    # last entry lands past the table: both paths clamp it to the largest
    # count.  Where that entry rounds below 1, random() itself can reach it.
    assert (law._cdf[-1] < 1.0) == last_below_one
    one, many = _TableStream(law._cdf, 5), _TableStream(law._cdf, 5)
    singles = np.concatenate([sample_offspring(law, 1, one)
                              for _ in range(2000)])
    assert np.array_equal(singles, sample_offspring(law, 2000, many))
    assert np.all(singles[::3] == len(probabilities) - 1)
    assert np.all(singles[1::3] == 2)


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
    # neighbouring replicas, seeds and lanes, and the top of the replica range
    n = 10**5
    pairs = [((42, 0, 0), (42, 1, 0)), ((42, 0, 0), (43, 0, 0)),
             ((42, 0, 0), (42, 0, 1)), ((42, 2**40 - 1, 0), (42, 2**40 - 2, 0)),
             ((42, 2**40 - 1, 0), (42, 0, 0)),
             ((42, 2**40 - 1, 2**20 - 1), (42, 2**40 - 1, 2**20 - 2))]
    for a, b in pairs:
        u = rng_stream(*a).random(n)
        v = rng_stream(*b).random(n)
        corr = float(np.corrcoef(u, v)[0, 1])
        assert abs(corr) <= 3.0 / math.sqrt(n), (a, b, corr)


def test_rng_stream_seeds_from_fixed_width_words():
    # SeedSequence splits an int into as many 32-bit words as it needs and
    # zero-pads short input, so [seed, replica, lane] as given would map
    # these triples to one state; four fixed-width words keep them apart
    for a, b in (((0, 1, 5), (2**32, 5, 0)), ((7, 0, 0), (7, 0, 1))):
        assert not np.array_equal(rng_stream(*a).random(8),
                                  rng_stream(*b).random(8)), (a, b)
    # the words: seed mod 2^64 and (replica << 20) | lane, low half first
    seed, replica, lane = 2**64 + 2**33 + 3, 2**39 + 6, 2**20 - 1
    key = (replica << 20) | lane
    words = np.array([3, 2, key & 0xFFFFFFFF, key >> 32], dtype=np.uint32)
    want = np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))
    assert np.array_equal(rng_stream(seed, replica, lane).random(8),
                          want.random(8))
    assert np.array_equal(rng_stream(-1).random(8),
                          rng_stream(2**64 - 1).random(8))


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
# bridge corrector


def test_bridge_hit_prob_reference_value():
    # exp(-2 (b-x1)(b-x2) / dt) at x1 = x2 = 0.5, dt = 1, b = 0
    assert_close(bridge_hit_prob(0.5, 0.5, 1.0, 0.0), math.exp(-0.5), 1e-15)


def test_bridge_hit_prob_equals_exp_above_the_floor():
    # the exponent is floored at -40: above it p is exp exactly, below it p
    # is exp(-40) < 2^-53, and no result is subnormal or zero
    rng = rng_stream(5, 0, 0)
    x1 = rng.uniform(-0.5, 30.5, 4000)
    x2 = x1 + rng.standard_normal(4000)
    floor = math.exp(-40.0)
    assert floor < 2.0**-53
    for wall in (0.0, 31.0):
        e = -2.0 * (x1 - wall) * (x2 - wall) / 0.5
        p = bridge_hit_prob(x1, x2, 0.5, wall)
        above = e > -40.0
        assert np.array_equal(p[above], np.exp(np.minimum(e[above], 0.0)))
        assert np.all(p[~above] == floor)
        assert np.any(e < -746.0) and np.any(p == 1.0)


def test_bridge_hit_prob_certain_when_endpoint_crosses():
    assert bridge_hit_prob(0.5, -0.1, 1.0, 0.0) == 1.0
    assert bridge_hit_prob(-0.2, 0.4, 1.0, 0.0) == 1.0
    assert bridge_hit_prob(0.3, 0.0, 1.0, 0.0) == 1.0  # touching counts


def test_bridge_hit_prob_symmetric_in_endpoints():
    assert_close(bridge_hit_prob(0.3, 0.8, 0.5, 0.0),
                 bridge_hit_prob(0.8, 0.3, 0.5, 0.0), 1e-15)


def test_wall_hits_draw_against_bridge_hit_prob():
    # the step's wall test and bridge_hit_prob share one probability: each
    # particle whose exponent is above the floor draws one uniform, in index
    # order, and hits iff it falls below bridge_hit_prob
    d1 = rng_stream(6, 0, 0).uniform(-0.2, 2.0, 3000)
    d2 = d1 + 0.3 * rng_stream(6, 1, 0).standard_normal(3000)
    seg = 0.05
    hits = _wall_hits(d1, d2, -2.0 / seg, np.empty(0, dtype=np.int64), None,
                      rng_stream(7, 0, 0), None)
    cand = (d1 * d2 * (-2.0 / seg) > -40.0).nonzero()[0]
    u = rng_stream(7, 0, 0).random(len(cand))
    p = bridge_hit_prob(d1, d2, seg, 0.0)
    assert np.array_equal(hits, cand[u < p[cand]])
    assert 0 < len(hits) < len(cand) < len(d1)


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
# advancing particles through the segment step


def _advance(law, pos, steps, dt, rng, *, tag=None, payload=(), drift=0.0,
             upper=None, walls=False):
    """Step `steps` times through step_segments; without walls the origin
    ignores every particle.  Returns (pos, tag, payload, hits)."""
    tag = np.zeros(len(pos), dtype=np.int64) if tag is None else tag
    hits = []
    for i in range(steps):
        ignores = None if walls else np.ones(len(pos), dtype=bool)
        pos, tag, payload, lo, hi, _ = step_segments(
            pos, tag, payload, t0=i * dt, h=dt, drift=drift, law=law,
            rng=rng, upper=upper, origin_ignores=ignores)
        hits += lo + hi
    return pos, tag, payload, hits


def test_advance_requires_forward_time(binary_law, rng):
    for h in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="step length"):
            step_segments(np.array([0.5]), np.zeros(1, dtype=np.int64),
                          t0=0.0, h=h, drift=0.0, law=binary_law, rng=rng)


def test_advance_mean_growth_per_root(binary_law):
    # no walls: each root's subtree count has mean e^{t/2}
    n_roots = 10**4
    t, dt = 2.0, 0.05
    _, tag, _, _ = _advance(binary_law, np.zeros(n_roots), round(t / dt), dt,
                            rng_stream(7, 0, 0),
                            tag=np.arange(n_roots, dtype=np.int64))
    per_root = np.bincount(tag, minlength=n_roots)
    se = float(np.std(per_root, ddof=1)) / math.sqrt(n_roots)
    assert abs(float(np.mean(per_root)) - math.exp(t / 2.0)) <= 3.0 * se


def test_advance_count_monotone_without_deaths(binary_law):
    pos = np.array([0.0, 1.0, 2.0])
    counts = [len(pos)]
    rng = rng_stream(3, 0, 0)
    for _ in range(10):
        pos, *_ = _advance(binary_law, pos, 5, 0.1, rng)
        counts.append(len(pos))
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_advance_absorption_confines_and_logs(binary_law, iv5):
    pos, _, _, hits = _advance(
        binary_law, np.full(200, 2.5), 100, 0.1, rng_stream(11, 0, 0),
        drift=-iv5.mu, upper=5.0, walls=True)
    assert np.all((pos > 0.0) & (pos < 5.0))
    times = np.concatenate([t for t, *_ in hits])
    assert len(times), "no absorption in 10 time units is implausible"
    assert np.all((times > 0.0) & (times <= 10.0))


def test_step_hits_fall_inside_their_step(binary_law):
    # many hits, of which branching children make a fair share: each must
    # be timed within [t0, t0 + h] of its own step, to the last bit
    rng = rng_stream(2, 0, 0)
    pos = rng.uniform(0.0, 1.0, 20_000)
    tag = np.zeros(len(pos), dtype=np.int64)
    dt, n_hits = 0.1, 0
    for i in range(30):
        t0 = i * dt
        pos, tag, _, lo, hi, _ = step_segments(
            pos, tag, t0=t0, h=dt, drift=0.0, law=binary_law, rng=rng,
            upper=1.0)
        for t, _ in lo + hi:
            assert np.all((t >= t0) & (t <= t0 + dt)), i
            n_hits += len(t)
    assert n_hits > 20_000


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


def test_reference_profile_rejects_a_count_past_the_array_size(iv5,
                                                              monkeypatch):
    # at A = 707, a = 5 the count, about 2.7e307, is still a finite double;
    # the check comes before the sampler is built or draws
    def no_sampler(*args):
        raise AssertionError("the profile sampler was reached")

    monkeypatch.setattr(ensemble, "sine_exp_density", no_sampler)
    rng = rng_stream(0, 0, 0)
    with pytest.raises(ValueError, match=r"profile count 2\.\d+e\+307 times "
                       r"3 replicas .* at A = 707\.0, a = 5\.0"):
        hperp_flat(707.0, iv5, 3, rng)
    assert rng.random() == rng_stream(0, 0, 0).random()


def test_reference_profile_rejects_a_count_it_cannot_allocate():
    # at A = 30, a = 8 the count, about 2.1e14, fits an array index, but its
    # 1.6 PB of positions pass the 128 TiB a process can map
    with pytest.raises(ValueError, match=r"profile count 2\.056e\+14 times "
                       r"1 replicas cannot be allocated at A = 30\.0, "
                       r"a = 8\.0"):
        hperp_flat(30.0, IntervalParams(8.0), 1, rng_stream(0, 0, 0))


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
# configuration


def test_config_validate_accepts_and_warns(binary_law, iv10):
    cfg = SimConfig(law=binary_law, interval=iv10, A=5.0, epsilon=0.2,
                    y=3.0, zeta=50.0)
    notes = cfg.validate()
    assert any("A^-17" in w for w in notes)
    # regime warnings never raise; desk-scale parameters are the normal case
    assert isinstance(notes, list)


def test_config_validate_quiet_inside_regime(binary_law, iv10):
    # the window e^{-A/6} <= eps <= A^{-17} is nonempty only past A ~ 650
    cfg = SimConfig(law=binary_law, interval=iv10, A=700.0, epsilon=1e-50,
                    y=None, zeta=None)
    assert cfg.validate() == []


@pytest.mark.parametrize("every, dt, used", [
    (0.07, 0.05, "every 1 step(s), every 0.05"),
    (0.02, 0.05, "every 1 step(s), every 0.05"),
    (0.26, 0.1, "every 3 step(s), every 0.3"),
])
def test_config_validate_names_the_sample_cadence_used(binary_law, every,
                                                       dt, used):
    # the runners round sample_every to whole steps, so the series step
    # differs from the one asked for
    cfg = SimConfig(law=binary_law, dt=dt, sample_every=every)
    (note,) = cfg.validate()
    assert f"sample_every = {every:g}" in note and note.endswith(used)


@pytest.mark.parametrize("every, dt", [(None, 0.05), (0.1, 0.05),
                                       (0.3, 0.1), (0.5, 0.5)])
def test_config_validate_quiet_on_whole_step_cadence(binary_law, every, dt):
    # 0.3 / 0.1 falls just below 3, within the tolerance; None asks for
    # the default cadence, horizon / 256, which is rounded without a note
    assert SimConfig(law=binary_law, dt=dt, sample_every=every).validate() \
        == []


@pytest.mark.parametrize("horizon, dt, every, steps", [
    (10.0, 0.05, None, (200, 1)),     # horizon / 256 is below one step
    (200.0, 0.1, None, (2000, 8)),    # 0.78125 / 0.1 rounds to 8
    (0.3, 0.1, 0.3, (3, 3)),          # 0.3 / 0.1 falls just below 3
    (1.01, 0.1, 0.26, (11, 3)),       # a last, shorter step
])
def test_config_steps_to_horizon_and_between_records(binary_law, horizon,
                                                     dt, every, steps):
    assert SimConfig(law=binary_law, dt=dt,
                     sample_every=every).steps(horizon) == steps


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
    for name in ("A", "epsilon", "y", "zeta", "delta_color"):
        for bad in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError,
                               match=f"{name} must be positive and finite"):
                SimConfig(law=binary_law, interval=iv10,
                          **{name: bad}).validate()
