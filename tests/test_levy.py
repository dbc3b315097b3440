"""Limit-process checks: the characteristic exponent's closed form against an
independent quadrature route, 40-digit mpmath and the mean rate, the
jump-measure tail
identity, sampler consistency, the quantile solver, and the recentering
constants."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats as sps

from nbbm import levy
from nbbm.engine import rng_stream
from nbbm.levy import (
    LevyParams,
    _compensator_rate,
    _small_jump_variance_rate,
    c_prime,
    increment_mean_rate,
    increment_var_rate,
    jump_density,
    jump_tail,
    kappa,
    recentering,
    sample_jump_sizes,
    sample_levy_increment,
    x_alpha,
)

from conftest import assert_close

PI = math.pi


# ---------------------------------------------------------------------------
# characteristic exponent


def kappa_by_u_quadrature(lam: float) -> complex:
    """Independent route: integrate in the jump-size coordinate u = log(1+v),
    where the measure has density e^u / (e^u - 1)^2 du."""

    def dens(u):
        return math.exp(u) / math.expm1(u) ** 2

    re, _ = integrate.quad(lambda u: (math.cos(lam * u) - 1.0) * dens(u),
                           0.0, 50.0, epsabs=1e-13, epsrel=1e-13,
                           limit=500, points=[1.0])
    im_head, _ = integrate.quad(lambda u: (math.sin(lam * u) - lam * u) * dens(u),
                                0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=500)
    im_tail, _ = integrate.quad(lambda u: math.sin(lam * u) * dens(u),
                                1.0, 50.0, epsabs=1e-13, epsrel=1e-13, limit=500)
    return PI**2 * complex(re, im_head + im_tail)


def test_kappa_zero_at_origin():
    assert kappa(0.0) == 0


def test_kappa_real_part_nonpositive():
    for lam in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0):
        assert kappa(lam).real <= 0.0


def test_kappa_conjugate_symmetry():
    k = kappa(0.7)
    assert abs(kappa(-0.7) - k.conjugate()) <= 1e-12


def test_kappa_matches_independent_quadrature_route():
    for size in (1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        for lam in (size, -size):
            assert abs(kappa(lam) - kappa_by_u_quadrature(lam)) <= 1e-9, lam


def test_kappa_slope_at_origin_is_the_mean_rate():
    # -i kappa'(0) = E[L_1]; the closed form gives c + pi^2 (1 - c')
    h = 1e-5
    for c in (0.0, 0.7):
        params = LevyParams(c=c)
        slope = (kappa(h, params) - kappa(-h, params)) / (2.0 * h)
        assert_close(slope.real, 0.0, 1e-12)
        assert_close(slope.imag, increment_mean_rate(params), 1e-8)
        assert_close(increment_mean_rate(params),
                     c + PI**2 * (1.0 - c_prime()), 1e-12)


def test_kappa_finite_and_silent_at_large_lambda():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (200.0, -200.0):
            k = kappa(lam)
            assert math.isfinite(k.real) and math.isfinite(k.imag), lam


def test_kappa_array_call_equals_the_scalar_calls_bit_for_bit():
    sizes = np.geomspace(1e-6, 200.0, 40)
    lams = np.concatenate([-sizes[::-1], [0.0], sizes])
    params = LevyParams(c=0.3)
    arr = kappa(lams, params)
    one = np.array([kappa(float(lam), params) for lam in lams])
    assert isinstance(kappa(1.0), complex) and arr.shape == lams.shape
    assert arr.view(np.uint64).tolist() == one.view(np.uint64).tolist()


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf,
                                 [1.0, math.nan]])
def test_kappa_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="finite"):
        kappa(lam)


def test_digamma_and_kappa_match_mpmath():
    # 450 lambdas in +-[1e-6, 200] against 40-digit references: psi(1 - i lam)
    # to 1.5e-15 relative (scipy's psi: 1.45e-15), kappa to 1.2e-15
    sizes = np.geomspace(1e-6, 200.0, 225)
    lams = np.concatenate([-sizes[::-1], sizes])
    psi = levy._digamma(1.0 - 1j * lams)
    kap = kappa(lams, LevyParams(c=0.3))
    worst_psi = worst_kappa = 0.0
    with mpmath.workdps(40):
        shift = (mpmath.euler + 1 - 1 / (mpmath.e - 1)
                 + mpmath.log(1 - 1 / mpmath.e) - 1)
        for lam, got_psi, got_kappa in zip(lams.tolist(), psi, kap):
            ref = mpmath.digamma(mpmath.mpc(1, -lam))
            ref_kappa = 1j * lam * (mpmath.mpf("0.3")
                                    - mpmath.pi ** 2 * (ref + shift))
            worst_psi = max(worst_psi, float(abs(got_psi - ref) / abs(ref)))
            worst_kappa = max(worst_kappa, float(abs(got_kappa - ref_kappa)
                                                 / abs(ref_kappa)))
    assert worst_psi <= 1.5e-15 and worst_kappa <= 1.2e-15, (worst_psi,
                                                             worst_kappa)


def test_kappa_drift_term_linear():
    lam = 1.3
    base = kappa(lam, LevyParams(c=0.0))
    shifted = kappa(lam, LevyParams(c=2.5))
    assert abs((shifted - base) - 1j * lam * 2.5) <= 1e-12


# ---------------------------------------------------------------------------
# drift-constant integral


def test_c_prime_finite_negative_and_stable():
    val = c_prime()
    assert math.isfinite(val) and val < 0.0

    # same integral by scipy, split at the indicator breakpoint x = e - 1
    def integrand(x):
        lg = math.log1p(x)
        return ((lg if lg <= 1.0 else 0.0) - (x if x <= 1.0 else 0.0)) / (x * x)

    head, _ = integrate.quad(integrand, 0.0, math.e - 1.0,
                             epsabs=1e-12, epsrel=1e-12, limit=400, points=[1.0])
    tail, _ = integrate.quad(integrand, math.e - 1.0, 200.0,
                             epsabs=1e-12, epsrel=1e-12, limit=400)
    # beyond 200 the integrand is |log(1+x)|/x^2 < 3e-5/x, truncation ~ 3e-8
    assert_close(val, head + tail, 1e-6)


def test_c_prime_reference_value():
    # frozen from the quadrature above
    assert_close(c_prime(), -0.0406518522564, 1e-9)


# ---------------------------------------------------------------------------
# jump measure


def test_jump_tail_identity_matches_density_quadrature():
    for u in (0.1, 0.5, 1.0, 2.0):
        mass, _ = integrate.quad(jump_density, u, 60.0,
                                 epsabs=1e-12, epsrel=1e-12, limit=400)
        assert_close(jump_tail(u), mass, 1e-10)


@pytest.mark.parametrize("fn", [jump_tail, jump_density])
@pytest.mark.parametrize("u", [0.0, -1.0, math.nan, [1.0, math.nan]])
def test_jump_measure_rejects_u_that_is_not_positive(fn, u):
    with pytest.raises(ValueError, match="u > 0"):
        fn(u)


def test_jump_tail_behaves_like_reciprocal_for_small_u():
    # image of x^{-2} dx under log(1+x): tail(u) = 1/(e^u - 1) ~ 1/u
    for u in (1e-4, 1e-3, 1e-2):
        assert abs(u * jump_tail(u) - 1.0) < u


def test_sampled_jumps_positive_and_above_cutoff():
    rng = rng_stream(11, 0, 0)
    jumps = sample_jump_sizes(20000, rng, delta=1e-3)
    assert np.all(jumps >= 1e-3)


def test_sampled_jump_tail_frequency():
    # P(jump > u | jump >= delta) = tail(u)/tail(delta)
    rng = rng_stream(12, 0, 0)
    delta = 1e-2
    jumps = sample_jump_sizes(200000, rng, delta=delta)
    for u in (0.1, 0.5, 1.0):
        p_emp = float(np.mean(jumps > u))
        p_th = jump_tail(u) / jump_tail(delta)
        se = math.sqrt(p_th * (1.0 - p_th) / len(jumps))
        assert abs(p_emp - p_th) <= 3.0 * se, (u, p_emp, p_th)


# ---------------------------------------------------------------------------
# increment sampler


def test_closed_form_rates_match_quadrature():
    def quad(f, lo, hi):
        return PI**2 * integrate.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13,
                                      limit=400)[0]

    mean_tail = quad(lambda u: u * jump_density(u), 1.0, 60.0)
    assert_close(increment_mean_rate(), mean_tail, 1e-11)
    for delta in (1e-3, 1e-2, 1e-1):
        assert_close(_compensator_rate(delta),
                     quad(lambda u: u * jump_density(u), delta, 1.0), 1e-11,
                     f"compensator at {delta}")
        assert_close(_small_jump_variance_rate(delta),
                     quad(lambda u: u * u * jump_density(u), 0.0, delta),
                     1e-13, f"small-jump variance at {delta}")


def test_increment_var_rate_closed_form():
    # pi^2 int_0^inf u^2 e^u/(e^u-1)^2 du = pi^2 * (pi^2/3)
    quad_val, _ = integrate.quad(lambda u: u * u * jump_density(u), 0.0, 60.0,
                                 epsabs=1e-12, epsrel=1e-12, limit=400)
    assert_close(increment_var_rate(), PI**2 * quad_val, 1e-8)
    assert_close(increment_var_rate(), PI**4 / 3.0, 1e-10)


def test_increment_mean_linear_in_t():
    rng = rng_stream(21, 0, 0)
    n = 10000
    means, ses = {}, {}
    for t in (1.0, 2.0, 4.0):
        inc = sample_levy_increment(t, n, rng)
        means[t] = float(np.mean(inc)) / t
        ses[t] = float(np.std(inc, ddof=1)) / math.sqrt(n) / t
    for t in (2.0, 4.0):
        se = math.hypot(ses[1.0], ses[t])
        assert abs(means[t] - means[1.0]) <= 3.0 * se, (t, means)


def test_increment_mean_matches_rate():
    rng = rng_stream(22, 0, 0)
    n = 20000
    inc = sample_levy_increment(1.0, n, rng)
    se = float(np.std(inc, ddof=1)) / math.sqrt(n)
    assert abs(float(np.mean(inc)) - increment_mean_rate()) <= 3.0 * se


def test_increment_additivity_two_sample():
    # L_2 vs sum of two independent L_1 draws, Kolmogorov-Smirnov at 1%
    n = 10000
    l2 = sample_levy_increment(2.0, n, rng_stream(31, 0, 0))
    l1a = sample_levy_increment(1.0, n, rng_stream(31, 1, 0))
    l1b = sample_levy_increment(1.0, n, rng_stream(31, 2, 0))
    ks = sps.ks_2samp(l2, l1a + l1b)
    assert ks.pvalue > 0.01, f"KS p = {ks.pvalue:g}"


def test_increment_cf_matches_exponent():
    rng = rng_stream(41, 0, 0)
    n = 20000
    inc = sample_levy_increment(1.0, n, rng)
    for lam in (0.5, 1.0, 2.0):
        phi_emp = np.mean(np.exp(1j * lam * inc))
        se = math.sqrt((np.var(np.cos(lam * inc), ddof=1)
                        + np.var(np.sin(lam * inc), ddof=1)) / n)
        dev = abs(phi_emp - np.exp(kappa(lam)))
        assert dev <= 3.0 * se, (lam, dev, 3.0 * se)


def test_increment_sampler_deterministic_per_stream():
    a = sample_levy_increment(1.0, 100, rng_stream(5, 3, 0))
    b = sample_levy_increment(1.0, 100, rng_stream(5, 3, 0))
    assert np.array_equal(a, b)


def test_increment_sampler_bounds_its_jump_buffer(monkeypatch):
    # a sample at t = 5 has about 4,900 jumps, one at t = 50 about 49,000
    # (390 KB as one array); drawn in pieces of 1,000 they give the same
    # bits, and the peak memory follows the pieces, not the sample
    want = sample_levy_increment(5.0, 4, rng_stream(3, 0, 0))
    monkeypatch.setattr(levy, "_MAX_JUMP_BUFFER", 1_000)
    got = sample_levy_increment(5.0, 4, rng_stream(3, 0, 0))
    assert got.tobytes() == want.tobytes()
    tracemalloc.start()
    try:
        sample_levy_increment(50.0, 2, rng_stream(3, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_increment_rejects_bad_time():
    with pytest.raises(ValueError):
        sample_levy_increment(0.0, 10, rng_stream(0, 0, 0))


# ---------------------------------------------------------------------------
# quantile of the tail profile


def test_x_alpha_reference_points():
    assert x_alpha(1.0) == 0.0
    assert_close(x_alpha(2.0 / math.e), 1.0, 1e-12)


def test_x_alpha_residuals_small():
    for alpha in (0.37, *np.arange(0.1, 0.95, 0.1)):
        x = x_alpha(float(alpha))
        assert abs((1.0 + x) * math.exp(-x) - alpha) <= 1e-12


def test_x_alpha_strictly_decreasing():
    grid = np.linspace(0.05, 0.999, 40)
    vals = np.array([x_alpha(float(a)) for a in grid])
    assert np.all(np.diff(vals) < 0.0)


def test_x_alpha_rejects_out_of_range():
    for bad in (0.0, -0.3, 1.0000001):
        with pytest.raises(ValueError):
            x_alpha(bad)


# ---------------------------------------------------------------------------
# recentering constants


def test_recentering_reference_values():
    r = recentering(10**4)
    # ln 1e4 + 3 ln ln 1e4 = 15.87132...; sqrt(1 - pi^2 / a_N^2)
    assert_close(r.a_N, math.log(1e4) + 3.0 * math.log(math.log(1e4)), 1e-12)
    assert round(r.a_N, 4) == 15.8713
    assert round(r.mu_N, 4) == 0.9802
    assert r.mu_N < 1.0


def test_recentering_speed_expansions():
    r = recentering(10**4)
    ln = math.log(1e4)
    assert_close(r.speed_cutoff, 1.0 - PI**2 / (2.0 * ln**2), 1e-12)
    assert_close(
        r.speed_expanded,
        1.0 - PI**2 / (2.0 * ln**2) + 3.0 * PI**2 * math.log(ln) / ln**3,
        1e-12,
    )


def test_recentering_rejects_small_populations():
    with pytest.raises(ValueError):
        recentering(15)
    recentering(16)  # boundary is allowed
