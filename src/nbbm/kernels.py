"""Closed-form heat kernels on an interval with absorbing endpoints.

Deterministic numerics used everywhere else in the package: the two classical
representations of the periodized Gaussian (spectral cosine series and image
sum), the transition density of Brownian motion killed at 0 and a, its
right-boundary exit flux, the taboo (doubly-conditioned) kernel, the
exponential weights w_Z and w_Y (w_Z stated once, as w_ZY's first half), the
barrier profile built from the normalized flux thbar, and the
sine-exponential quasi-stationary density.

theta, theta', the killed density and the right-exit flux, plain and
growth-scaled, all rest on one evaluator, `_theta_series`.  Their positions
and times broadcast together, and each entry picks its own representation.
Series are truncated by three module constants: once the next term bound
drops below SERIES_TRUNCATION_TOL / 10, with the image sum below
REPRESENTATION_SWITCH_T and the spectral series from there on; hitting the
MAX_TERMS cap raises RuntimeError instead of returning a silently degraded
value.

Integrals use one composite Gauss-Legendre rule, `_gauss_legendre`, which
imports numpy.polynomial only when called, off the simulation lanes' path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "IntervalParams",
    "SERIES_TRUNCATION_TOL",
    "REPRESENTATION_SWITCH_T",
    "MAX_TERMS",
    "theta",
    "theta_prime",
    "thbar",
    "error_envelope_E",
    "p_killed",
    "p_killed_scaled",
    "green_killed",
    "exit_density_right",
    "exit_density_right_scaled",
    "I_integral",
    "p_taboo",
    "w_Z",
    "w_Y",
    "w_ZY",
    "bbm_density",
    "barrier_f",
    "SineExpDensity",
    "meta_density",
    "sine_exp_density",
    "selfcheck",
]

_PI = math.pi
_PI2 = math.pi * math.pi


# the series truncation of the module docstring; at the switch time 0.3 both
# representations need under a dozen terms, and the agreement tests
# straddle it
SERIES_TRUNCATION_TOL = 1e-14
REPRESENTATION_SWITCH_T = 0.3
MAX_TERMS = 512
_TERM_TOL = SERIES_TRUNCATION_TOL / 10.0


@dataclass(frozen=True)
class IntervalParams:
    """Interval (0, a) together with its critical drift mu = sqrt(1 - pi^2/a^2)."""

    a: float

    def __post_init__(self) -> None:
        if not (isinstance(self.a, (int, float)) and math.isfinite(self.a)):
            raise ValueError(f"interval length must be a finite number, got {self.a!r}")
        if self.a < _PI:
            raise ValueError(f"interval length a must be >= pi so mu is real, got {self.a!r}")

    @property
    def mu(self) -> float:
        # recomputed on demand so it can never go stale relative to a
        return math.sqrt(1.0 - _PI2 / (self.a * self.a))


def _interval_length(iv) -> float:
    """Accept IntervalParams or a bare positive length.

    The kernels in this module depend on the interval length only; the
    drift-weighted quantities (w_Z, bbm_density, ...) require a full
    IntervalParams so mu exists.
    """
    a = iv.a if isinstance(iv, IntervalParams) else float(iv)
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"interval length must be positive and finite, got {a!r}")
    return a


# ---------------------------------------------------------------------------
# theta and its x-derivative, both representations


def _spectral_sum(x: np.ndarray, t: np.ndarray, deriv: int,
                  scaled: bool) -> np.ndarray:
    # x and t of one shape; an entry keeps the terms whose bound, coef, is
    # at least _TERM_TOL.  scaled folds e^{pi^2 t/2} into each exponent and
    # drops theta's constant term
    out = np.zeros_like(x) if deriv or scaled else np.full_like(x, 0.5)
    # math.exp once per distinct time, not np.exp per entry: the two differ
    # in the last bit for a few percent of arguments, and near the walls
    # p_killed, a difference of two thetas, makes one ulp of theta hundreds
    times, at = np.unique(t, return_inverse=True)
    times = times.tolist()
    for n in range(1, MAX_TERMS + 1):
        lead = -_PI2 * (n * n - 1) if scaled else -_PI2 * n * n
        damp = np.array([math.exp(lead * s / 2.0) for s in times])[at]
        coef = damp if deriv == 0 else _PI * n * damp
        live = coef >= _TERM_TOL
        if not live.any():
            return out
        term = coef * np.cos(_PI * n * x) if deriv == 0 else -coef * np.sin(_PI * n * x)
        out += np.where(live, term, 0.0)
    raise RuntimeError(f"spectral series did not reach tol within {MAX_TERMS} terms")


def _gauss_shells_needed(t: np.ndarray, deriv: int) -> np.ndarray:
    # shell k covers image indices n_center +- k, so |x - 2n| >= 2k - 1
    # there; one count per entry of t
    inv = 1.0 / np.sqrt(2.0 * _PI * t)
    shells = np.zeros(t.shape, dtype=int)
    for k in range(1, MAX_TERMS + 1):
        zmin = 2.0 * k - 1.0
        bound = inv * np.exp(-zmin * zmin / (2.0 * t))
        if deriv == 1:
            bound *= (zmin + 2.0) / t
        # geometric bound on the remaining shells
        ratio = np.exp(-4.0 * k / t) * (2.0 if deriv == 1 else 1.0)
        shells[(shells == 0) & (ratio < 1.0)
               & (bound / (1.0 - ratio) < _TERM_TOL)] = k
        if shells.all():
            return shells
    raise RuntimeError(f"image sum did not reach tol within {MAX_TERMS} shells")


def _gauss_sum(x: np.ndarray, t: np.ndarray, deriv: int) -> np.ndarray:
    # x and t of one shape; an entry takes only the shells its time needs
    inv = 1.0 / np.sqrt(2.0 * _PI * t)
    n_center = np.round(x / 2.0)
    shells = _gauss_shells_needed(t, deriv)
    out = np.zeros_like(x)
    for k in range(0, shells.max() + 1):
        for off in ((0,) if k == 0 else (-k, k)):
            z = x - 2.0 * (n_center + off)
            g = inv * np.exp(-z * z / (2.0 * t))
            out += np.where(k <= shells, g if deriv == 0 else (-z / t) * g,
                            0.0)
    return out


def _broadcast(*args):
    # the arguments as float arrays of their common shape, at least 1-d,
    # then whether all of them were scalars
    arrs = [np.asarray(v, dtype=float) for v in args]
    scalar = all(arr.ndim == 0 for arr in arrs)
    return (*np.broadcast_arrays(*map(np.atleast_1d, arrs)), scalar)


def _require_times(t: np.ndarray) -> None:
    bad = ~((t > 0.0) & np.isfinite(t))
    if np.any(bad):
        raise ValueError(f"times must be finite and > 0, got {float(t[bad].flat[0])!r}")


def _theta_series(x, t, deriv: int, scaled: bool = False, method: str = "auto"):
    """theta (deriv 0) or theta' (deriv 1) at x and t broadcast together.

    scaled gives e^{pi^2 t/2} (theta - 1/2) or e^{pi^2 t/2} theta', whose
    spectral series stay bounded as t grows.  Under method "auto" each entry
    takes the image sum below REPRESENTATION_SWITCH_T and the spectral
    series from there on.  A float for scalar arguments, else an array.
    """
    x_arr, t_arr, scalar = _broadcast(x, t)
    _require_times(t_arr)
    if method == "auto":
        spectral = t_arr >= REPRESENTATION_SWITCH_T
    elif method in ("spectral", "gauss"):
        spectral = np.full(t_arr.shape, method == "spectral")
    else:
        raise ValueError(f"method must be 'auto', 'spectral' or 'gauss', got {method!r}")
    out = np.empty_like(x_arr)
    if spectral.any():
        out[spectral] = _spectral_sum(x_arr[spectral], t_arr[spectral], deriv, scaled)
    image = ~spectral
    if image.any():
        ti = t_arr[image]
        val = _gauss_sum(x_arr[image], ti, deriv)
        if scaled:
            val = (val - 0.5 if deriv == 0 else val) * np.exp(_PI2 * ti / 2.0)
        out[image] = val
    return float(out[0]) if scalar else out


def theta(x, t, method: str = "auto"):
    """Periodized Gaussian theta(x, t) = sum_n (2 pi t)^(-1/2) exp(-(x-2n)^2/(2t)).

    Equals 1/2 + sum_{n>=1} exp(-pi^2 n^2 t/2) cos(pi n x) by Poisson
    summation; 2-periodic and even in x, solves d/dt theta = (1/2) d2/dx2.
    x and t (finite, > 0) are scalars or arrays that broadcast together,
    each entry in the representation its time selects.
    """
    return _theta_series(x, t, 0, method=method)


def theta_prime(x, t, method: str = "auto"):
    """d/dx of theta.  Vanishes at x = 0 and x = 1, nonnegative on [-1, 0]."""
    return _theta_series(x, t, 1, method=method)


# ---------------------------------------------------------------------------
# thbar and the spectral error envelope


def thbar(t, method: str = "auto"):
    """Normalized right-exit flux profile (2/pi^2) e^{pi^2 t/2} d/dt theta(1, t).

    Rises strictly from 0 at t = 0 to 1 at infinity.  Spectral form
    sum_{n>=1} (-1)^(n+1) n^2 exp(-pi^2 (n^2-1) t / 2); below the switch the
    image-sum form of d/dt theta(1, t) is used instead.  Negative times give
    0, the same convention the barrier profile uses; +inf gives 1, NaN raises.
    """
    t = float(t)
    if not t <= math.inf:
        raise ValueError(f"thbar needs a time, got {t!r}")
    if t <= 0.0:
        return 0.0
    if t == math.inf:
        return 1.0
    if method == "auto":
        method = "spectral" if t >= REPRESENTATION_SWITCH_T else "gauss"
    if method == "spectral":
        out = 0.0
        for n in range(1, MAX_TERMS + 1):
            coef = n * n * math.exp(-_PI2 * (n * n - 1) * t / 2.0)
            if coef < _TERM_TOL:
                return out
            out += coef if n % 2 == 1 else -coef
        raise RuntimeError(f"thbar spectral series did not converge (t={t})")
    if method != "gauss":
        raise ValueError(f"method must be 'auto', 'spectral' or 'gauss', got {method!r}")
    if t < 5e-3:
        # nearest image contributes e^{-1/(2t)} < e^{-100}; also keeps the
        # 1/t^2 factors below from hitting subnormal underflow
        return 0.0
    # d/dt of the image sum at x = 1: images sit at odd z = 2k-1, each twice
    inv = 1.0 / math.sqrt(2.0 * _PI * t)
    pref = (2.0 / _PI2) * math.exp(_PI2 * t / 2.0)
    out = 0.0
    for k in range(1, MAX_TERMS + 1):
        z2 = (2.0 * k - 1.0) ** 2
        term = 2.0 * inv * math.exp(-z2 / (2.0 * t)) * (z2 - t) / (2.0 * t * t)
        out += term
        if abs(term) * pref < _TERM_TOL and k >= 2:
            return pref * out
    raise RuntimeError(f"thbar image series did not converge (t={t})")


def error_envelope_E(t) -> float:
    """Spectral remainder envelope E_t = pi^2 sum_{n>=2} n^2 e^{-pi^2 (n^2-1) t/2}.

    Strictly decreasing; E_1 is about 1.47e-5.  Returns +inf for t <= 0 so
    expressions like min(x, E_{inf S} * ...) degrade gracefully when the
    window touches zero.  NaN raises ValueError.
    """
    t = float(t)
    if not t <= math.inf:
        raise ValueError(f"error envelope needs a time, got {t!r}")
    if t <= 0.0:
        return math.inf
    out = 0.0
    for n in range(2, MAX_TERMS + 2):
        term = n * n * math.exp(-_PI2 * (n * n - 1) * t / 2.0)
        out += term
        if _PI2 * term < _TERM_TOL:
            return _PI2 * out
    raise RuntimeError(f"error envelope series did not converge (t={t})")


# ---------------------------------------------------------------------------
# killed kernel family


def _require_in_interval(a, *arrays):
    for arr in arrays:
        off = ~((arr >= 0.0) & (arr <= a))
        if np.any(off):
            raise ValueError(f"position {arr[off].flat[0]!r} outside [0, {a}]")


def _killed(x, y, t, iv, scaled: bool):
    # a^(-1) (theta((x-y)/a, t/a^2) - theta((x+y)/a, t/a^2)), clipped at 0;
    # the constant term the scaled form drops cancels in the difference
    a = _interval_length(iv)
    x_arr, y_arr, t_arr, scalar = _broadcast(x, y, t)
    _require_times(t_arr)
    _require_in_interval(a, x_arr, y_arr)
    tau = t_arr / (a * a)
    val = (_theta_series((x_arr - y_arr) / a, tau, 0, scaled)
           - _theta_series((x_arr + y_arr) / a, tau, 0, scaled)) / a
    inside = (x_arr > 0.0) & (x_arr < a) & (y_arr > 0.0) & (y_arr < a)
    val = np.where(inside, np.maximum(val, 0.0), 0.0)
    return float(val[0]) if scalar else val


def p_killed(x, y, t, iv):
    """Transition density of driftless BM on (0, a) killed at both endpoints.

    p_t^a(x, y) = a^(-1) (theta((x-y)/a, t/a^2) - theta((x+y)/a, t/a^2)).
    x, y and t broadcast.  Boundary positions give 0; positions outside
    [0, a] are rejected.
    """
    return _killed(x, y, t, iv, scaled=False)


def p_killed_scaled(x, y, t, iv):
    """exp(pi^2 t / (2 a^2)) * p_killed, stable for t >> a^2.

    Above the representation switch the n = 1 growth is factored into the
    series, (2/a) sum_n e^{-pi^2 (n^2-1) t/(2a^2)} sin(pi n x/a) sin(pi n y/a),
    so no overflow occurs; below it the image sum is scaled.
    """
    return _killed(x, y, t, iv, scaled=True)


def green_killed(x, y, iv):
    """Green function of the killed motion: int_0^inf p_t^a(x, y) dt.

    Closed form 2 (x ^ y) (a - (x v y)) / a; cross-checked against time
    quadrature of p_killed in the self-check suite.
    """
    a = _interval_length(iv)
    x_arr, y_arr, scalar = _broadcast(x, y)
    _require_in_interval(a, x_arr, y_arr)
    val = 2.0 * np.minimum(x_arr, y_arr) * (a - np.maximum(x_arr, y_arr)) / a
    return float(val[0]) if scalar else val


def _exit_right(x, t, iv, scaled: bool):
    # a^(-2) theta'(x/a - 1, t/a^2) on (0, a), clipped at 0, else 0
    a = _interval_length(iv)
    x_arr, t_arr, scalar = _broadcast(x, t)
    _require_times(t_arr)
    val = _theta_series(x_arr / a - 1.0, t_arr / (a * a), 1, scaled) / (a * a)
    val = np.where((x_arr > 0.0) & (x_arr < a), np.maximum(val, 0.0), 0.0)
    return float(val[0]) if scalar else val


def exit_density_right(x, t, iv):
    """Density in t of the first exit through a, started from x in (0, a).

    r_t^a(x) = a^(-2) theta'(x/a - 1, t/a^2), x and t broadcast.  Integrates
    to x/a over all t (the harmonic exit probability through the right
    endpoint).
    """
    return _exit_right(x, t, iv, scaled=False)


def exit_density_right_scaled(x, t, iv):
    """exp(pi^2 t / (2 a^2)) * exit_density_right, stable for t >> a^2.

    Above the switch the series is (pi/a^2) sum_n (-1)^(n+1) n
    e^{-pi^2 (n^2-1) t/(2a^2)} sin(pi n x / a); below it the image sum is
    scaled.  x and t broadcast.
    """
    return _exit_right(x, t, iv, scaled=True)


# nodes per panel and the fewest panels; panel widths halve towards the lower
# limit, where the time integrands rise from an essential zero (e^{-c/s})
_GL_NODES = 16
_GL_PANELS = 12


def _gauss_legendre(f, lo: float, hi: float, finest: float = math.inf) -> float:
    """int_lo^hi f, f mapping an array of nodes to values; the first two
    panels are 2^-11 of hi - lo wide, or at most `finest` if that is less."""
    from numpy.polynomial.legendre import leggauss

    u, w = leggauss(_GL_NODES)
    panels = max(_GL_PANELS, 1 + math.ceil(math.log2(max(1.0, (hi - lo) / finest))))
    edges = lo + (hi - lo) * np.exp2(np.arange(-panels, 1.0))
    edges[0] = lo
    half = np.diff(edges)[:, None] / 2.0
    nodes = edges[:-1, None] + half * (1.0 + u)
    return float(np.dot((half * w).ravel(), f(nodes.ravel())))


def I_integral(x, S, iv) -> float:
    """Growth-weighted exit flux int_S e^{pi^2 s/(2a^2)} r_s^a(x) ds.

    S is one (s0, s1) window with finite bounds; the part at s <= 0 is
    dropped, and an empty window gives 0.  x must lie in [0, a].  Scales as
    I^a(x, S) = I^1(x/a, S/a^2).  Within 6e-14 of 40 nodes on 50 panels
    for x/a <= 0.9999 and windows up to 100 a^2.
    """
    a = _interval_length(iv)
    x = float(x)
    _require_in_interval(a, np.asarray(x))
    s0, s1 = map(float, S)
    if not (math.isfinite(s0) and math.isfinite(s1)):
        raise ValueError(f"time window bounds must be finite, got ({s0!r}, {s1!r})")
    s0 = max(0.0, s0)
    if s1 <= s0 or not 0.0 < x < a:
        return 0.0
    # the flux rises from an essential zero at s ~ (a - x)^2, then varies like s
    return _gauss_legendre(
        lambda s: exit_density_right_scaled(x, s, a), s0, s1,
        max(s0, (a - x) ** 2) / 16.0)


def p_taboo(x, y, t, iv):
    """Kernel of the motion conditioned to never touch 0 or a.

    (sin(pi y/a) / sin(pi x/a)) e^{pi^2 t/(2a^2)} p_t^a(x, y).  Conservative
    in y for every t, with stationary density (2/a) sin^2(pi x / a).  The
    start x must be strictly interior.
    """
    a = _interval_length(iv)
    x = float(x)
    sx = math.sin(_PI * x / a)
    if not (0.0 < x < a) or sx <= 0.0:
        raise ValueError(f"taboo start must be strictly inside (0, {a}), got {x!r}")
    y_arr, t_arr, scalar = _broadcast(y, t)
    val = np.sin(_PI * y_arr / a) / sx * p_killed_scaled(x, y_arr, t_arr, a)
    val = np.maximum(val, 0.0)
    return float(val[0]) if scalar else val


# ---------------------------------------------------------------------------
# drift-weighted quantities (need mu, hence a full IntervalParams)


def w_Z(x, iv):
    """Additive martingale weight a e^{mu (x-a)} sin(pi x / a) on (0, a), else 0."""
    return w_ZY(x, iv)[0]


def w_Y(x, iv):
    """Companion weight e^{mu (x-a)}; no interval indicator."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.asarray(x).ndim == 0
    val = x_arr - iv.a
    val *= iv.mu
    np.exp(val, out=val)
    return float(val[0]) if scalar else val


def w_ZY(x, iv):
    """(w_Z(x, iv), w_Y(x, iv)) from one exponential: the one statement of w_Z.

    w_Z is w_Y times a sin(pi x / a) on 0 < x < a, with exact zeros at and
    outside the ends, and the sine taken at x clipped to [0, a].
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.asarray(x).ndim == 0
    a = iv.a
    wy = w_Y(x_arr, iv)
    xc = np.maximum(x_arr, 0.0)
    np.minimum(xc, a, out=xc)
    inside = xc > 0.0
    inside &= xc < a
    xc *= _PI
    xc /= a
    wz = wy * a
    wz *= np.sin(xc, out=xc)
    wz[~inside] = 0.0
    np.maximum(wz, 0.0, out=wz)
    return (float(wz[0]), float(wy[0])) if scalar else (wz, wy)


def bbm_density(x, y, t, iv):
    """First-moment density of branching BM with drift -mu killed at 0 and a.

    e^{mu(x-y)} e^{pi^2 t/(2a^2)} p_t^a(x, y): branching at rate 1/(2m) with
    mean offspring increment m exactly offsets the drift and killing at the
    n = 1 eigenvalue, which is what makes w_Z a martingale weight.
    """
    x_arr, y_arr, t_arr, scalar = _broadcast(x, y, t)
    val = np.exp(iv.mu * (x_arr - y_arr)) * p_killed_scaled(x_arr, y_arr, t_arr, iv.a)
    return float(val[0]) if scalar else val


def barrier_f(shift, t) -> float:
    """Barrier profile f_shift(t) = log(1 + (e^shift - 1) thbar(t)), 0 for t <= 0.

    Interpolates from 0 at t = 0 to shift at infinity, monotonically in t.
    shift <= -1 is rejected: the family below -1 loses the uniform
    f(t) - f(s) >= -1 property the barrier construction relies on; so is a
    shift that is not finite.
    """
    shift = float(shift)
    if not -1.0 < shift < math.inf:
        raise ValueError(f"barrier shift must be finite and > -1, got {shift!r}")
    t = float(t)
    if t <= 0.0:
        return 0.0
    return math.log1p(math.expm1(shift) * thbar(t))


# ---------------------------------------------------------------------------
# sine-exponential density

_CDF_GRID_POINTS = 8193


class SineExpDensity:
    """Density proportional to sin(pi x / a) e^{-decay x} on (0, a).

    The normalization is the closed form k (1 + e^{-decay a}) / (decay^2 + k^2)
    with k = pi/a, the exact antiderivative at a, computed once and cached on
    the instance; the same antiderivative gives the CDF, and sampling inverts
    a CDF tabulated at _CDF_GRID_POINTS points (inversion bias is
    O((a/grid)^2), far below Monte Carlo noise at that resolution).  A
    normalization that is not finite and positive, or a CDF grid that would
    overflow (a large negative decay), raises ValueError.
    """

    def __init__(self, a: float, decay: float):
        a = float(a)
        decay = float(decay)
        if not (a > 0.0 and math.isfinite(a)):
            raise ValueError(f"interval length must be positive, got {a!r}")
        if not math.isfinite(decay):
            raise ValueError(f"decay must be finite, got {decay!r}")
        self.a = a
        self.decay = decay
        k = _PI / a
        try:
            tail = math.exp(-decay * a)
        except OverflowError:
            tail = math.inf
        self._norm = k * (1.0 + tail) / (decay * decay + k * k)
        # the CDF grid's largest term is tail * (|decay| + k); keep it finite
        if not (0.0 < self._norm < math.inf
                and math.isfinite(tail * (abs(decay) + k))):
            raise ValueError(f"sine-exponential normalization is not finite "
                             f"and positive at a = {a!r}, decay = {decay!r}")
        self._x_grid = np.linspace(0.0, a, _CDF_GRID_POINTS)
        cdf = self._raw_cdf(self._x_grid)
        self._cdf_grid = cdf / cdf[-1]

    def _raw_cdf(self, x):
        # int_0^x sin(pi u/a) e^{-decay u} du via the exact antiderivative
        a, lam = self.a, self.decay
        k = _PI / a
        denom = lam * lam + k * k
        x_arr = np.clip(np.asarray(x, dtype=float), 0.0, a)
        num = np.exp(-lam * x_arr) * (-lam * np.sin(k * x_arr) - k * np.cos(k * x_arr)) + k
        return num / denom

    @property
    def norm(self) -> float:
        return self._norm

    def pdf(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        scalar = np.asarray(x).ndim == 0
        inside = (x_arr > 0.0) & (x_arr < self.a)
        xc = np.clip(x_arr, 0.0, self.a)
        val = np.where(
            inside, np.sin(_PI * xc / self.a) * np.exp(-self.decay * xc) / self._norm, 0.0
        )
        return float(val[0]) if scalar else val

    def cdf(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        scalar = np.asarray(x).ndim == 0
        total = self._raw_cdf(self.a)
        val = np.where(
            x_arr <= 0.0, 0.0, np.where(x_arr >= self.a, 1.0, self._raw_cdf(x_arr) / total)
        )
        return float(val[0]) if scalar else val

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(int(n))
        return np.interp(u, self._cdf_grid, self._x_grid)


@lru_cache(maxsize=64)
def sine_exp_density(a: float, decay: float) -> SineExpDensity:
    """Cached SineExpDensity instances keyed by (a, decay)."""
    return SineExpDensity(a, decay)


def meta_density(x, iv):
    """Quasi-stationary profile: sin(pi x / a) e^{-mu x} on (0, a), normalized."""
    return sine_exp_density(iv.a, iv.mu).pdf(x)


# ---------------------------------------------------------------------------
# self-check suite (fast, deterministic; wired to the CLI)


def _check(name: str, max_abs_err: float, tol: float) -> dict:
    return {
        "name": name,
        "max_abs_err": float(max_abs_err),
        "tol": float(tol),
        "pass": bool(max_abs_err <= tol),
    }


def selfcheck() -> dict:
    """Cross-validate the kernels against independent numerics.

    Covers: dual-representation agreement for theta and theta', the heat
    equation by finite differences, symmetry and periodicity, the Green
    function by time quadrature, thbar cross-representation, taboo
    conservation, and total right-exit mass.  The integrals use
    `_gauss_legendre` (16 nodes on each of 12 panels halving towards the
    lower limit; errors here at most 4.3e-14).  Returns a JSON-ready report.
    """
    t0 = time.perf_counter()
    checks = []

    # x down the rows, t along the columns, each entry in its own form
    xs = np.arange(-2.0, 2.0 + 1e-9, 0.05)[:, None]
    ts = np.geomspace(0.05, 5.0, 25)
    for f, tol in ((theta, 1e-12), (theta_prime, 1e-11)):
        worst = np.max(np.abs(f(xs, ts, method="spectral") - f(xs, ts, method="gauss")))
        checks.append(_check(f"{f.__name__}_dual_representation", worst, tol))

    th = theta(xs, ts)
    worst = max(np.max(np.abs(th - theta(-xs, ts))),
                np.max(np.abs(th - theta(xs + 2.0, ts))))
    checks.append(_check("theta_even_and_periodic", worst, 1e-12))

    ht, hx = 3e-5, 5e-3
    xs_h = np.arange(-0.9, 0.9 + 1e-9, 0.1)[:, None]
    t = np.array([0.1, 0.15, 0.25, 0.4, 0.7, 1.2, 2.0])
    th_t = (theta(xs_h, t + ht) - theta(xs_h, t - ht)) / (2.0 * ht)
    th_xx = (
        -theta(xs_h - 2 * hx, t)
        + 16.0 * theta(xs_h - hx, t)
        - 30.0 * theta(xs_h, t)
        + 16.0 * theta(xs_h + hx, t)
        - theta(xs_h + 2 * hx, t)
    ) / (12.0 * hx * hx)
    checks.append(_check("theta_heat_equation_fd", np.max(np.abs(th_t - 0.5 * th_xx)), 1e-6))

    worst = 0.0
    for t in (0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0):
        worst = max(worst, abs(thbar(t, method="spectral") - thbar(t, method="gauss")))
    checks.append(_check("thbar_dual_representation", worst, 1e-12))

    # Green function: quadrature of the kernel vs the closed form, a = 1
    val = _gauss_legendre(lambda s: p_killed(0.3, 0.6, s, 1.0), 0.0, 6.0)
    # truncation beyond t = 6 is below 1e-12
    checks.append(_check("green_time_quadrature", abs(val - green_killed(0.3, 0.6, 1.0)), 1e-6))
    checks.append(_check("green_reference_value", abs(green_killed(0.3, 0.6, 1.0) - 0.24), 1e-12))

    # taboo kernel is conservative
    a_tab = 4.0
    mass = _gauss_legendre(lambda y: p_taboo(1.3, y, 0.8 * a_tab * a_tab, a_tab),
                           0.0, a_tab)
    checks.append(_check("taboo_conservation", abs(mass - 1.0), 1e-9))

    # total right-exit probability equals x/a
    a_ex = 2.0
    x_ex = 1.3
    mass = _gauss_legendre(lambda s: exit_density_right(x_ex, s, a_ex),
                           0.0, 12.0 * a_ex * a_ex)
    checks.append(_check("right_exit_mass", abs(mass - x_ex / a_ex), 1e-8))

    worst = np.max(np.abs(theta_prime([[0.0], [1.0]], [0.05, 0.3, 1.0, 5.0])))
    checks.append(_check("theta_prime_reflection_zeros", worst, 1e-12))

    return {
        "passed": all(c["pass"] for c in checks),
        "elapsed_s": time.perf_counter() - t0,
        "checks": checks,
    }
