"""Oracle reports, histogram distances and the increment-law comparison."""

import math

import numpy as np
import pytest
from scipy import integrate

from nbbm import calibrate
from nbbm.engine import rng_stream
from nbbm.kernels import error_envelope_E, sine_exp_density
from nbbm.levy import LevyParams, kappa, sample_levy_increment
from nbbm.stats import (
    CFComparison,
    OracleReport,
    StatsSeries,
    empirical_cf,
    empirical_density,
    increment_vs_levy,
    l1_vs_density,
    l1_vs_meta,
    load_calibration,
    oracle_N,
    oracle_R,
    oracle_Z,
    speed_estimate,
)

from conftest import assert_close


# ---------------------------------------------------------------------------
# series container and report


def test_series_rejects_misaligned_columns():
    with pytest.raises(ValueError):
        StatsSeries(np.arange(5.0), {"count": np.arange(4.0)})
    s = StatsSeries(np.arange(5.0), {"count": np.arange(5.0),
                                     "Z": np.ones(5)})
    assert list(s.columns) == ["count", "Z"]


def test_report_verdict_boundary():
    on_the_line = OracleReport("x", 1.0, 0.2, 0.0, 0.4, 50)
    assert on_the_line.margin == 1.0
    assert on_the_line.passed
    assert on_the_line.line().startswith("pass x:")
    over = OracleReport("x", 1.0, 0.19, 0.0, 0.4, 50)
    assert not over.passed
    assert over.line().startswith("FAIL x:")


def test_oracle_z_passes_centered_differences():
    rng = rng_stream(101, 0, 0)
    z0 = rng.uniform(1.0, 3.0, 500)
    rep = oracle_Z(z0, z0 + rng.normal(0.0, 0.1, 500))
    assert rep.passed
    assert rep.analytic == 0.0 and rep.slack == 0.0 and rep.n == 500


def test_oracle_z_flags_a_shifted_mean():
    rng = rng_stream(102, 0, 0)
    z0 = np.ones(500)
    assert not oracle_Z(z0, z0 + 1.0 + rng.normal(0.0, 0.01, 500)).passed


def test_oracles_refuse_small_samples(iv10):
    with pytest.raises(ValueError):
        oracle_Z(np.ones(29), np.ones(29))
    with pytest.raises(ValueError):
        oracle_R(np.ones(10), np.ones(10), np.ones(10), 5.0, iv10, 1.5)


def test_oracle_r_exact_prediction_and_slack(iv10):
    rng = rng_stream(103, 0, 0)
    z0 = rng.uniform(1.0, 4.0, 40)
    y0 = rng.uniform(0.5, 1.0, 40)
    t = 50.0
    rep = oracle_R(math.pi * t / iv10.a ** 3 * z0, z0, y0, t, iv10,
                   c_rt=1.476744)
    assert rep.estimate == 0.0 and rep.se == 0.0
    assert_close(rep.slack, 1.476744 * y0.mean(), 1e-12)
    assert rep.passed


def test_oracle_n_exact_prediction_and_slack(iv10):
    rng = rng_stream(104, 0, 0)
    z0 = rng.uniform(1.0, 4.0, 40)
    r, t = 2.5, 200.0
    a, mu = iv10.a, iv10.mu
    factor = 2.0 * math.pi * (1.0 + mu * r) * math.exp(mu * (a - r)) / a ** 3
    rep = oracle_N(factor * z0, z0, r, t, iv10, c_quad=1.918996)
    assert rep.estimate == 0.0
    rel = error_envelope_E(t / a ** 2) + 1.918996 * ((1.0 + r) / a) ** 2
    assert_close(rep.slack, rel * factor * z0.mean(), 1e-12)
    assert rep.extra["r"] == r
    assert rep.passed


def test_calibration_constants_present():
    cal = load_calibration()
    for key in ("c_i", "c_rt", "c_nexpec"):
        assert isinstance(cal[key], float) and cal[key] > 0.0


def test_calibration_matches_the_kernels():
    # the committed constants were fitted with the kernels' truncation
    # constants; refitting the two fast ones, rounded as the script writes
    # them, must give the file's values (c_rt takes over a second)
    cal = load_calibration()
    c_nexpec, env = calibrate.fit_c_nexpec()
    assert round(calibrate.fit_c_i(), 6) == cal["c_i"]
    assert round(c_nexpec, 6) == cal["c_nexpec"]
    assert env == cal["fitted_on"]["envelope_at_t_nexpec"]


# ---------------------------------------------------------------------------
# histogram distances


def test_empirical_density_normalises_in_range():
    emp = empirical_density([0.5, 1.5, 2.5, 99.0], 10, 0.0, 3.0)
    assert emp.n_samples == 3  # the sample at 99 is dropped
    assert_close(float(emp.mass.sum()), 1.0, 1e-12)
    assert len(emp.edges) == 11


def test_empirical_density_validation():
    with pytest.raises(ValueError):
        empirical_density([1.0], 9, 0.0, 1.0)
    with pytest.raises(ValueError):
        empirical_density([1.0], 10, 2.0, 1.0)
    with pytest.raises(ValueError):
        empirical_density([5.0], 10, 0.0, 1.0)  # nothing in range


def test_l1_extremes():
    rng = rng_stream(105, 0, 0)
    emp = empirical_density(rng.uniform(0.0, 1.0, 50000), 20, 0.0, 1.0)
    uniform_cdf = lambda x: min(max(x, 0.0), 1.0)
    assert l1_vs_density(emp, uniform_cdf) < 0.05
    # reference entirely outside the histogram range: maximal distance 2
    point_mass_far = lambda x: 0.0 if x < 5.0 else 1.0
    assert_close(l1_vs_density(emp, point_mass_far), 2.0, 1e-12)


def test_l1_vs_meta_discriminates(iv15):
    rng = rng_stream(106, 0, 0)
    dens = sine_exp_density(iv15.a, iv15.mu)
    good = empirical_density(dens.sample(20000, rng), 50, 0.0, iv15.a)
    assert l1_vs_meta(good, iv15) <= 0.05
    flat = empirical_density(rng.uniform(0.0, iv15.a, 20000), 50, 0.0,
                             iv15.a)
    assert l1_vs_meta(flat, iv15) > 0.2


def test_l1_vs_meta_agrees_with_quadrature(iv15):
    # per-bin reference mass via direct integration of the profile
    rng = rng_stream(107, 0, 0)
    dens = sine_exp_density(iv15.a, iv15.mu)
    emp = empirical_density(dens.sample(2000, rng), 20, 0.0, iv15.a)
    ref = np.array([integrate.quad(dens.pdf, lo, hi)[0]
                    for lo, hi in zip(emp.edges[:-1], emp.edges[1:])])
    expected = float(np.sum(np.abs(emp.mass - ref)) + abs(1.0 - ref.sum()))
    assert_close(l1_vs_meta(emp, iv15), expected, 1e-8)


# ---------------------------------------------------------------------------
# speed regression


def test_speed_recovers_a_linear_trend():
    times = np.linspace(0.0, 100.0, 201)
    med = np.stack([0.9 * times + 3.0, 0.9 * times - 1.0])
    slope, se = speed_estimate(times, med, burn_in=20.0)
    assert_close(slope, 0.9, 1e-12)
    assert se <= 1e-12


def test_speed_of_driftless_walks_is_flat():
    rng = rng_stream(108, 0, 0)
    times = np.linspace(0.0, 50.0, 501)
    steps = rng.normal(0.0, math.sqrt(0.1), (40, 500))
    med = np.concatenate([np.zeros((40, 1)), np.cumsum(steps, axis=1)],
                         axis=1)
    slope, se = speed_estimate(times, med, burn_in=10.0)
    assert abs(slope) <= 3.0 * se


def test_speed_contract_errors():
    times = np.linspace(0.0, 10.0, 21)
    med = np.zeros((2, 21))
    with pytest.raises(ValueError):
        speed_estimate(times, med, burn_in=5.0)  # horizon <= 2 burn_in
    with pytest.raises(ValueError):
        speed_estimate(times, med[:1], burn_in=2.0)  # single replica
    bad = med.copy()
    bad[0, -1] = -math.inf
    with pytest.raises(ValueError):
        speed_estimate(times, bad, burn_in=2.0)
    with pytest.raises(ValueError):
        speed_estimate(np.array([0.0, 9.0, 10.0]), np.zeros((2, 3)), 4.0)


# ---------------------------------------------------------------------------
# characteristic functions


def test_cf_of_constants_and_symmetric_pair():
    phi, se = empirical_cf(np.zeros(100), [0.7, 1.3])
    assert np.allclose(phi, 1.0) and np.allclose(se, 0.0)
    phi, _ = empirical_cf(np.array([1.0, -1.0] * 50), [math.pi / 2.0])
    assert abs(phi[0]) <= 1e-12


def test_cf_modulus_bounded():
    rng = rng_stream(109, 0, 0)
    phi, se = empirical_cf(rng.normal(0.0, 2.0, 5000), [0.5, 1.0, 2.0])
    assert np.all(np.abs(phi) <= 1.0 + 1e-12)
    assert np.all(se > 0.0)


def test_cf_pools_as_a_weighted_mean():
    rng = rng_stream(110, 0, 0)
    a, b = rng.normal(0.0, 1.0, 1500), rng.normal(0.5, 2.0, 500)
    lams = [0.5, 1.0, 2.0]
    phi_a, _ = empirical_cf(a, lams)
    phi_b, _ = empirical_cf(b, lams)
    phi_all, _ = empirical_cf(np.concatenate([a, b]), lams)
    assert np.allclose(phi_all, (1500 * phi_a + 500 * phi_b) / 2000.0,
                       atol=1e-12)


LAMS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def test_increment_comparison_self_consistent():
    rng = rng_stream(41, 0, 0)
    dt = 1e-3
    inc = sample_levy_increment(dt, 20000, rng)
    rep = increment_vs_levy(inc, dt, LAMS)
    assert rep.passed, rep.worst_ratio
    assert rep.n == 20000


def test_increment_comparison_rejects_matched_gaussian():
    # same mean and variance, no jumps: the CF tails give it away at the
    # largest frequencies
    rng = rng_stream(41, 0, 0)
    dt = 1e-3
    inc = sample_levy_increment(dt, 20000, rng)
    gauss = rng.normal(inc.mean(), inc.std(ddof=1), 20000)
    rep = increment_vs_levy(gauss, dt, LAMS)
    assert not rep.passed
    ratio = rep.deviation / rep.se
    assert ratio[rep.lams == 2.0][0] > 3.0
    assert ratio[rep.lams == -2.0][0] > 3.0


def test_increment_comparison_zero_increments():
    dt = 1e-3
    rep = increment_vs_levy(np.zeros(400), dt, LAMS, fit_c=False)
    params = LevyParams()
    expected = np.array([abs(1.0 - np.exp(dt * kappa(lam, params)))
                         for lam in LAMS])
    assert np.allclose(rep.deviation, expected, atol=1e-12)
    assert rep.fitted_c == 0.0
    assert not rep.passed  # se is 0, any deviation fails


def test_increment_comparison_keeps_a_frozen_center():
    rng = rng_stream(42, 0, 0)
    params = LevyParams(c=4.5)
    inc = sample_levy_increment(1e-3, 400, rng, params)
    rep = increment_vs_levy(inc, 1e-3, LAMS, params=params, fit_c=False)
    assert rep.fitted_c == 4.5


def test_increment_comparison_refuses_small_samples():
    with pytest.raises(ValueError):
        increment_vs_levy(np.zeros(199), 1e-3, LAMS)


def test_worst_ratio_matches_deviations():
    rep = CFComparison(np.array([0.5, 1.0]), phi=np.array([0.3, 0.8]),
                       model=np.zeros(2), se=np.array([0.1, 0.1]),
                       fitted_c=0.0, n=300)
    assert rep.worst_ratio == 8.0
    assert not rep.passed
