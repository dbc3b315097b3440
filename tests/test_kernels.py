"""Closed-form kernel checks: dual representations, quadrature identities,
boundary behaviour, and the envelope inequalities the estimators lean on."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nbbm.kernels import (
    REPRESENTATION_SWITCH_T,
    IntervalParams,
    I_integral,
    SineExpDensity,
    barrier_f,
    bbm_density,
    error_envelope_E,
    exit_density_right,
    exit_density_right_scaled,
    green_killed,
    meta_density,
    p_killed,
    p_killed_scaled,
    p_taboo,
    selfcheck,
    thbar,
    theta,
    theta_prime,
    w_Y,
    w_Z,
    w_ZY,
)
from nbbm.stats import load_calibration

from conftest import assert_close

PI = math.pi


# ---------------------------------------------------------------------------
# theta and its derivative


def test_theta_flat_at_large_time():
    # every oscillating term carries e^{-pi^2 n^2 * 25}
    assert_close(theta(0.5, 50.0), 0.5, 1e-12)


def test_theta_representations_agree_at_single_point():
    spec = theta(0.7, 0.5, method="spectral")
    gauss = theta(0.7, 0.5, method="gauss")
    assert_close(spec, gauss, 1e-12)


def test_theta_representations_agree_on_grid():
    xs = np.arange(-2.0, 2.0 + 1e-9, 0.05)
    for t in (0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0):
        diff = np.abs(theta(xs, t, method="spectral") - theta(xs, t, method="gauss"))
        assert float(diff.max()) <= 1e-12, f"t={t}: {diff.max():g}"


def test_theta_two_periodic_and_even():
    for x, t in ((0.3, 1.0), (-0.8, 0.2), (1.4, 0.07)):
        assert_close(theta(x + 2.0, t), theta(x, t), 1e-12)
        assert_close(theta(-x, t), theta(x, t), 1e-12)


def test_theta_prime_vanishes_at_reflection_points():
    assert_close(theta_prime(0.0, 1.0), 0.0, 1e-12)
    assert_close(theta_prime(1.0, 0.2), 0.0, 1e-12)


def test_theta_prime_matches_central_difference():
    h = 1e-5
    fd = (theta(0.5 + h, 0.5) - theta(0.5 - h, 0.5)) / (2.0 * h)
    assert_close(theta_prime(0.5, 0.5), fd, 1e-7)


def test_theta_solves_heat_equation():
    # d/dt theta = 1/2 d2/dx2 theta; five-point stencil in x keeps the
    # truncation error of the second derivative below the 1e-6 budget
    ht, hx = 3e-5, 5e-3
    xs = np.arange(-0.9, 0.9 + 1e-9, 0.1)
    worst = 0.0
    for t in (0.1, 0.25, 0.5, 1.0, 2.0):
        th_t = (theta(xs, t + ht) - theta(xs, t - ht)) / (2.0 * ht)
        th_xx = (
            -theta(xs - 2 * hx, t)
            + 16.0 * theta(xs - hx, t)
            - 30.0 * theta(xs, t)
            + 16.0 * theta(xs + hx, t)
            - theta(xs + 2 * hx, t)
        ) / (12.0 * hx * hx)
        worst = max(worst, float(np.max(np.abs(th_t - 0.5 * th_xx))))
    assert worst <= 1e-6, f"heat-equation residual {worst:g}"


def test_thbar_endpoints_and_monotonicity():
    assert thbar(0.0) == 0.0
    assert thbar(-3.0) == 0.0  # convention for negative times
    assert_close(thbar(10.0), 1.0, 1e-6)
    assert thbar(math.inf) == 1.0
    ts = np.array([0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 4.0])
    vals = np.array([thbar(t) for t in ts])
    assert np.all(np.diff(vals) > 0.0)
    assert np.all((vals >= 0.0) & (vals < 1.0 + 1e-15))


# ---------------------------------------------------------------------------
# error envelope


def test_error_envelope_value_and_decay():
    # independent partial sum of pi^2 sum_{n>=2} n^2 e^{-pi^2 (n^2-1) t / 2}
    def direct(t, terms=60):
        return PI**2 * sum(n * n * math.exp(-PI**2 * (n * n - 1) * t / 2.0)
                           for n in range(2, terms))

    assert_close(error_envelope_E(1.0), direct(1.0), 1e-16)
    assert abs(error_envelope_E(1.0) - 1.47e-5) < 2e-7
    assert error_envelope_E(5.0) < error_envelope_E(1.0)
    # vacuous bound at the divergent endpoint, not an exception
    assert error_envelope_E(0.0) == math.inf


# ---------------------------------------------------------------------------
# killed kernel


def test_p_killed_vanishes_on_boundary():
    assert p_killed(0.0, 0.4, 1.0, 1.0) == 0.0
    assert p_killed(1.0, 0.4, 1.0, 1.0) == 0.0
    assert p_killed(0.4, 0.0, 1.0, 1.0) == 0.0


def test_p_killed_symmetric():
    assert_close(p_killed(0.3, 0.6, 0.8, 1.0), p_killed(0.6, 0.3, 0.8, 1.0), 1e-14)


def test_p_killed_rejects_out_of_range_positions():
    with pytest.raises(ValueError):
        p_killed(-0.1, 0.4, 1.0, 1.0)
    with pytest.raises(ValueError):
        p_killed(0.4, 1.2, 1.0, 1.0)
    with pytest.raises(ValueError, match="nan"):
        p_killed(math.nan, 0.4, 1.0, 1.0)


def test_p_killed_chapman_kolmogorov():
    val, err = integrate.quad(
        lambda z: p_killed(0.3, z, 0.4, 1.0) * p_killed(z, 0.6, 0.4, 1.0),
        0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 1e-10
    assert_close(val, p_killed(0.3, 0.6, 0.8, 1.0), 1e-8)


def test_p_killed_nonnegative_on_grid():
    xs = np.linspace(0.0, 1.0, 21)
    for t in (0.01, 0.1, 1.0, 10.0):
        vals = p_killed(xs[:, None].repeat(21, 1).ravel(),
                        np.tile(xs, 21), t, 1.0)
        assert np.all(vals >= 0.0)


def test_scaled_kernel_within_sine_envelope():
    # |e^{pi^2 t/(2a^2)} p - (2/a) s_x s_y| <= E_{t/a^2} (2/a) s_x s_y
    a = 1.0
    grid = (0.2, 0.5, 0.7)
    for t in (0.5, 1.0, 2.0):
        env = error_envelope_E(t / a**2)
        for x in grid:
            for y in grid:
                lead = (2.0 / a) * math.sin(PI * x / a) * math.sin(PI * y / a)
                dev = abs(p_killed_scaled(x, y, t, a) - lead)
                assert dev <= env * lead + 1e-14, (x, y, t, dev, env * lead)


# ---------------------------------------------------------------------------
# Green function


def test_green_closed_form_values():
    assert_close(green_killed(0.3, 0.6, 1.0), 0.24, 1e-15)  # 2 * 0.3 * 0.4
    assert green_killed(0.0, 0.5, 1.0) == 0.0
    assert_close(green_killed(0.6, 0.3, 1.0), green_killed(0.3, 0.6, 1.0), 1e-15)


def test_green_matches_time_quadrature():
    # split at t = 1; the integrand decays like e^{-pi^2 t / 2} beyond
    head, _ = integrate.quad(lambda s: p_killed(0.3, 0.6, s, 1.0), 0.0, 1.0,
                             epsabs=1e-11, epsrel=1e-11, limit=200)
    tail, _ = integrate.quad(lambda s: p_killed(0.3, 0.6, s, 1.0), 1.0, 6.0,
                             epsabs=1e-11, epsrel=1e-11, limit=200)
    assert_close(head + tail, 0.24, 1e-6)


# ---------------------------------------------------------------------------
# taboo kernel


def test_taboo_is_conservative():
    mass, err = integrate.quad(lambda y: p_taboo(0.4, y, 1.0, 1.0), 0.0, 1.0,
                               epsabs=1e-11, epsrel=1e-11, limit=200)
    assert err < 1e-9
    assert_close(mass, 1.0, 1e-8)


def test_taboo_vanishes_at_boundary_and_rejects_degenerate_start():
    assert p_taboo(0.4, 0.0, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        p_taboo(0.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        p_taboo(1.0, 0.5, 1.0, 1.0)


def test_taboo_relaxes_to_sine_squared():
    # stationary profile (2/a) sin^2(pi y / a), reached within the envelope
    a, t = 1.0, 5.0
    env = error_envelope_E(t / a**2)
    for x in (0.3, 0.5, 0.8):
        for y in (0.2, 0.5, 0.7, 0.9):
            target = (2.0 / a) * math.sin(PI * y / a) ** 2
            dev = abs(p_taboo(x, y, t, a) - target)
            assert dev <= env * target + 1e-12


# ---------------------------------------------------------------------------
# exit density, I and J


def test_right_exit_mass_equals_x_over_a():
    mass, _ = integrate.quad(lambda s: exit_density_right(0.4, s, 1.0), 0.0, 40.0,
                             epsabs=1e-11, epsrel=1e-11, limit=300)
    assert_close(mass, 0.4, 1e-8)


# theta, theta' and the killed-interval kernels as functions of a position
# x in [0, a] and a time t, on a = 5, where the representation switch
# t / a^2 = 0.3 sits at t = 7.5
_OF_X_AND_T = {
    "theta": lambda x, t: theta(x / 5.0 - 1.0, t / 25.0),
    "theta_prime": lambda x, t: theta_prime(x / 5.0 - 1.0, t / 25.0),
    "p_killed": lambda x, t: p_killed(x, 1.7, t, 5.0),
    "p_killed_scaled": lambda x, t: p_killed_scaled(x, 1.7, t, 5.0),
    "exit_density_right": lambda x, t: exit_density_right(x, t, 5.0),
    "exit_density_right_scaled":
        lambda x, t: exit_density_right_scaled(x, t, 5.0),
    "p_taboo": lambda x, t: p_taboo(1.7, x, t, 5.0),
    "bbm_density": lambda x, t: bbm_density(x, 1.7, t, IntervalParams(5.0)),
}


def _within_2_ulp(got, want):
    want = np.asarray(want)
    return np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)))


@pytest.mark.parametrize("name", _OF_X_AND_T)
def test_kernels_take_an_array_of_times(name):
    # one position at many times, on both sides of the switch, gives each
    # time's scalar value within 2 ulp; a column of positions broadcasts
    # against the row of times
    f = _OF_X_AND_T[name]
    t = np.concatenate((np.geomspace(0.05, 200.0, 60), [7.5]))
    many = f(3.7, t)
    one = np.array([f(3.7, ti) for ti in t])
    assert many.shape == t.shape
    assert _within_2_ulp(many, one)
    xs = np.array([[0.4], [2.5], [4.6]])
    grid = f(xs, t)
    assert grid.shape == (3, t.size)
    assert _within_2_ulp(grid, [[f(x, ti) for ti in t] for x in xs[:, 0]])
    if not name.startswith("theta"):
        assert np.array_equal(f(0.0, t), 0.0 * t)


@pytest.mark.parametrize("method", ["spectral", "gauss"])
def test_a_forced_representation_takes_an_array_of_times(method):
    xs = np.linspace(-2.0, 2.0, 9)[:, None]
    ts = np.geomspace(0.05, 5.0, 7)
    for f in (theta, theta_prime):
        grid = f(xs, ts, method=method)
        want = [[f(x, t, method=method) for t in ts] for x in xs[:, 0]]
        assert grid.shape == (9, 7) and _within_2_ulp(grid, want)


@pytest.mark.parametrize("name", _OF_X_AND_T)
@pytest.mark.parametrize("t", [
    0.0, -1.0, math.inf, math.nan,
    np.array([1.0, 20.0, math.inf]), np.array([20.0, 0.0]),
], ids=["zero", "negative", "inf", "nan", "inf-in-array", "zero-in-array"])
def test_kernels_reject_a_time_not_finite_and_positive(name, t):
    with pytest.raises(ValueError, match="finite and > 0"):
        _OF_X_AND_T[name](2.0, t)


def test_I_integral_scaling_exact():
    u, S, a = 0.4, (0.5, 1.5), 3.0
    scaled = I_integral(a * u, (S[0] * a * a, S[1] * a * a), a)
    assert_close(scaled, I_integral(u, S, 1.0), 1e-10)


def test_I_integral_window_flux_estimate():
    # |I(x, S) - pi |S| sin(pi x)| <= c_i min(x, E_{inf S} (1 ^ |S|) sin(pi x))
    # with the frozen fitted constant; same grid the constant was fitted on
    c_i = load_calibration()["c_i"]
    windows = [(0.25, 0.5), (0.25, 1.25), (0.5, 1.0), (0.5, 2.5),
               (1.0, 1.5), (1.0, 3.0), (2.0, 2.5), (2.0, 4.0)]
    for s0, s1 in windows:
        env = error_envelope_E(s0) * min(1.0, s1 - s0)
        for x in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
            lhs = abs(I_integral(x, (s0, s1), 1.0) - PI * (s1 - s0) * math.sin(PI * x))
            rhs = c_i * min(x, env * math.sin(PI * x))
            assert lhs <= rhs, (x, s0, s1, lhs, rhs)


@pytest.mark.parametrize("x, S, a", [
    (0.9999, (0.0, 1.0), 1.0),    # the flux peaks near s = 3e-9
    (9.9, (0.0, 35.0), 10.0),     # the calibration grid's steepest case
    (0.99, (1e-3, 10.0), 1.0),
    (0.5, (0.0, 100.0), 1.0),
])
def test_I_integral_matches_adaptive_quadrature(x, S, a):
    want, err = integrate.quad(lambda s: exit_density_right_scaled(x, s, a),
                               *S, epsabs=1e-13, epsrel=1e-12, limit=400)
    assert err < 1e-11
    assert_close(I_integral(x, S, a), want, 1e-12)


@pytest.mark.parametrize("x, S", [
    (1.5, (0.1, 0.5)), (-0.1, (0.1, 0.5)), (math.nan, (0.1, 0.5)),
    (0.5, (math.nan, 0.5)), (0.5, (0.1, math.inf)),
])
def test_I_integral_rejects_a_start_off_the_interval_or_an_open_window(x, S):
    with pytest.raises(ValueError):
        I_integral(x, S, 1.0)


# ---------------------------------------------------------------------------
# weights and first-moment kernel


def test_weight_functions_at_reference_points(iv10):
    assert w_Z(10.0, iv10) == 0.0
    assert w_Y(10.0, iv10) == 1.0
    assert_close(w_Z(5.0, iv10), 10.0 * math.exp(-iv10.mu * 5.0), 1e-12)
    assert w_Z(-1.0, iv10) == 0.0  # clamped outside [0, a]
    assert w_Z(11.0, iv10) == 0.0


def _w_Z_reference(x, iv):
    # a e^{mu (xc - a)} sin(pi xc / a), xc = x clipped to [0, a], zero off
    # the open interval (0, a): the formula written out once, apart from
    # the kernels' shared sine factor
    x = np.asarray(x, dtype=float)
    xc = np.minimum(np.maximum(x, 0.0), iv.a)
    val = iv.a * np.exp((xc - iv.a) * iv.mu) * np.sin(xc * PI / iv.a)
    val[~((x > 0.0) & (x < iv.a))] = 0.0
    return np.maximum(val, 0.0)


@pytest.mark.parametrize("a", [PI, 5.0, 8.0, 10.0])
def test_joint_weights_equal_the_separate_ones_bit_for_bit(a):
    # the barrier runner's record takes both sums from w_ZY; a bit of
    # difference would move every Z it writes
    iv = IntervalParams(a)
    x = np.concatenate((
        [0.0, a, np.nextafter(0.0, 1.0), np.nextafter(a, 0.0), -1e-300,
         -1.0, -50.0, np.nextafter(a, 2 * a), a + 1.0, 2.0 * a, 40.0,
         math.inf, -math.inf, math.nan],
        np.random.default_rng(3).uniform(-a, 2.0 * a, 500)))
    # w_ZY warns only where w_Z or w_Y does: at a = pi, mu = 0 and w_Y's
    # 0 * inf at x = +-inf is invalid; at the other widths neither warns
    seen = []
    for joint in (False, True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if joint:
                got = w_ZY(x, iv)
                scalar = w_ZY(0.3 * a, iv)
                empty = w_ZY(np.empty(0), iv)
            else:
                want = w_Z(x, iv), w_Y(x, iv)
        seen.append({str(w.message) for w in caught})
    assert seen[1] <= seen[0] and (a == PI or not seen[0])
    # both Z forms against a separate statement of the formula
    ref = _w_Z_reference(x, iv)
    for g, w in ((got[0], ref), (want[0], ref), (got[1], want[1])):
        assert g.dtype == w.dtype and np.array_equal(g, w, equal_nan=True)
    assert scalar == (w_Z(0.3 * a, iv), w_Y(0.3 * a, iv))
    assert all(type(v) is float for v in scalar)
    assert [len(v) for v in empty] == [0, 0]


def test_bbm_density_definitional_identity():
    iv = IntervalParams(4.0)
    x, y, t = 0.4, 0.7, 1.0
    direct = math.exp(iv.mu * (x - y)) * math.exp(PI**2 * t / (2 * iv.a**2)) \
        * p_killed(x, y, t, iv.a)
    assert_close(bbm_density(x, y, t, iv), direct, 1e-12)


@pytest.mark.parametrize("t", [5.0, 11.0], ids=["image-sum", "spectral"])
def test_kernels_broadcast_x_against_y(t):
    # at a = 6, t = 5 lies below the representation switch and t = 11 above
    # it, where the spectral sums are sized by the broadcast shape
    a = 6.0
    assert 5.0 / a ** 2 < REPRESENTATION_SWITCH_T <= 11.0 / a ** 2
    ys = np.linspace(0.5, 5.5, 5)
    for f, iv in ((p_killed, a), (p_killed_scaled, a),
                  (bbm_density, IntervalParams(a))):
        for x, y in ((1.3, ys), (ys, 1.3), (ys, ys[::-1])):
            got = f(x, y, t, iv)
            assert got.shape == (5,), f.__name__
            want = [f(xi, yi, t, iv) for xi, yi in np.broadcast(x, y)]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0,
                                       err_msg=f.__name__)
    got = p_taboo(1.3, ys, t, a)
    assert got.shape == (5,)
    np.testing.assert_allclose(got, [p_taboo(1.3, y, t, a) for y in ys],
                               rtol=1e-13, atol=0)


def test_bbm_density_zero_at_killed_boundary(iv5):
    assert bbm_density(2.0, 0.0, 3.0, iv5) == 0.0
    assert bbm_density(2.0, 5.0, 3.0, iv5) == 0.0


def test_bbm_density_preserves_sine_weight(iv5):
    # int rho(x, y, t) w_Z(y) dy = w_Z(x) for every t
    x, t = 2.0, 5.0
    val, err = integrate.quad(lambda y: bbm_density(x, y, t, iv5) * w_Z(y, iv5),
                              0.0, 5.0, epsabs=1e-11, epsrel=1e-11, limit=200)
    assert err < 1e-9
    assert_close(val, w_Z(x, iv5), 1e-8)


# ---------------------------------------------------------------------------
# barrier profile


def test_barrier_profile_zero_at_origin_and_zero_shift():
    for shift in (-0.5, 0.0, 1.0, 2.0):
        assert barrier_f(shift, 0.0) == 0.0
        assert barrier_f(shift, -1.0) == 0.0
    for t in (0.1, 1.0, 10.0):
        assert barrier_f(0.0, t) == 0.0


def test_barrier_profile_reaches_its_shift():
    assert_close(barrier_f(2.0, 10.0), 2.0, 1e-5)
    assert barrier_f(0.5, math.inf) == 0.5


def test_barrier_profile_rejects_deep_negative_shift():
    with pytest.raises(ValueError):
        barrier_f(-1.0, 1.0)
    with pytest.raises(ValueError):
        barrier_f(-1.5, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    shift=st.floats(min_value=-0.999, max_value=4.0),
    s=st.floats(min_value=0.0, max_value=20.0),
    t=st.floats(min_value=0.0, max_value=20.0),
)
def test_barrier_profile_increments_bounded_below(shift, s, t):
    # f(t) - f(s) >= -1 for s <= t whenever shift > -1
    if s > t:
        s, t = t, s
    assert barrier_f(shift, t) - barrier_f(shift, s) >= -1.0 - 1e-12


@settings(max_examples=100, deadline=None)
@given(
    shift=st.floats(min_value=-0.999, max_value=4.0).filter(lambda v: abs(v) > 1e-9),
    s=st.floats(min_value=0.01, max_value=20.0),
    t=st.floats(min_value=0.01, max_value=20.0),
)
def test_barrier_profile_monotone_toward_shift(shift, s, t):
    if s > t:
        s, t = t, s
    lo, hi = barrier_f(shift, s), barrier_f(shift, t)
    if shift > 0:
        assert hi >= lo - 1e-15
    else:
        assert hi <= lo + 1e-15


# ---------------------------------------------------------------------------
# stationary-profile density


def test_meta_density_normalized(iv15, iv5):
    for iv in (iv15, iv5):
        mass, err = integrate.quad(lambda x: meta_density(x, iv), 0.0, iv.a,
                                   epsabs=1e-12, epsrel=1e-12, limit=200)
        assert err < 1e-10
        assert_close(mass, 1.0, 1e-10)


def test_meta_density_boundary_and_mode(iv15):
    assert meta_density(0.0, iv15) == 0.0
    assert meta_density(15.0, iv15) == 0.0
    xs = np.linspace(0.0, 15.0, 4001)
    mode = xs[np.argmax(meta_density(xs, iv15))]
    # the e^{-mu x} tilt pulls the peak left of the sine's midpoint
    assert mode < 7.5


def test_sine_exp_density_sampling_consistent():
    from scipy import stats as sps

    d = SineExpDensity(5.0, 0.9)
    mass, _ = integrate.quad(d.pdf, 0.0, 5.0, epsabs=1e-11, epsrel=1e-11)
    assert_close(mass, 1.0, 1e-9)
    assert d.cdf(0.0) == 0.0
    assert_close(d.cdf(5.0), 1.0, 1e-9)
    from nbbm.engine import rng_stream

    sample = d.sample(20000, rng_stream(7, 0, 0))
    assert np.all((sample > 0.0) & (sample < 5.0))
    ks = sps.kstest(sample, d.cdf)
    assert ks.pvalue > 0.01, f"KS p = {ks.pvalue:g}"


@pytest.mark.parametrize("a", [PI, 5.0, 8.0, 15.0, 40.0])
@pytest.mark.parametrize("decay", [-3.0, -0.7, 0.0, 1e-9, 1e-3, 0.9, 200.0])
def test_sine_exp_normalization_matches_quadrature(a, decay):
    quad, _ = integrate.quad(
        lambda u: math.sin(PI * u / a) * math.exp(-decay * u), 0.0, a,
        epsabs=0.0, epsrel=1e-13, limit=400)
    assert abs(SineExpDensity(a, decay).norm - quad) <= 1e-12 * quad


@pytest.mark.parametrize("a, decay", [(8.0, -100.0), (8.0, -88.7),
                                      (1.0, -1e200), (1.0, 1e200)])
def test_sine_exp_density_rejects_an_overflowing_normalization(a, decay):
    # e^{-decay a} overflows (or the CDF grid's e^{-decay a} |decay| does),
    # or decay^2 does and the normalization underflows to zero
    needle = re.escape(f"a = {a!r}, decay = {decay!r}")
    with pytest.raises(ValueError, match=needle):
        SineExpDensity(a, decay)


def test_sine_exp_density_keeps_a_finite_grid_near_the_overflow():
    d = SineExpDensity(8.0, -88.0)
    assert math.isfinite(d.norm) and d.norm > 0.0
    assert np.all(np.isfinite(d._cdf_grid)) and d._cdf_grid[-1] == 1.0
    assert np.all(np.diff(d._cdf_grid) >= 0.0)


# ---------------------------------------------------------------------------
# bundled self-check


def test_selfcheck_passes():
    report = selfcheck()
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert report["passed"] and not failed, failed
