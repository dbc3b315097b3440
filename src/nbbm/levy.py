"""The spectrally positive jump process that front increments converge to.

The limit process has characteristic exponent

    kappa(lam) = i lam c + pi^2 * int_0^inf (e^{i lam u} - 1 - i lam u 1_{u<=1}) Lambda(du)

where Lambda is the image of x^{-2} dx under x -> log(1 + x): tail
T(u) = Lambda([u, inf)) = 1/(e^u - 1) and density
rho(u) = e^u/(e^u - 1)^2.  The centering constant c is not pinned down by
the front asymptotics at finite size, so it is a free parameter (default 0)
and every comparison uses the same c on both sides.

kappa is in closed form.  Integrating by parts against T (the compensator's
cut at u = 1 adds i lam T(1)) and substituting v = e^{-u} in
int_0^inf (1 - e^{i lam u}) T(u) du = int_0^1 (1 - v^{-i lam}) / (1 - v) dv
= psi(1 - i lam) + gamma gives

    kappa(lam) = i lam (c - pi^2 (psi(1 - i lam) + gamma + c' - 1)),

with psi the digamma function, gamma Euler's constant and
c' = 1 - 1/(e - 1) + log(1 - 1/e) = `c_prime()`.

Sampling keeps the jumps above JUMP_TRUNCATION = delta = 0.01 as a compound
Poisson sum with the exact compensator below 1, and replaces the jumps below
delta by a Gaussian of their variance (Asmussen & Rosinski 2001).  That drops
their third cumulant, pi^2 delta^2 / 2 per unit time, so the CF of L_t is off
by at most pi^2 delta^2 |lam|^3 t / 12: 6.6e-4 at |lam| = 2 and t = 1, under a
tenth of the CF standard error of 2 x 10^4 samples (7e-3).  Larger samples
or |lam| t need a smaller delta, at about pi^2 / delta jumps per unit time.

With F(u) = -u/(e^u - 1) + log(1 - e^-u), whose derivative is u times the
Lambda density, every rate is in closed form too; psi is `_digamma`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LevyParams",
    "RecenteringConstants",
    "jump_tail",
    "jump_density",
    "kappa",
    "c_prime",
    "x_alpha",
    "recentering",
    "sample_jump_sizes",
    "sample_levy_increment",
    "increment_mean_rate",
    "increment_var_rate",
    "JUMP_TRUNCATION",
]

_PI2 = math.pi * math.pi
JUMP_TRUNCATION = 0.01
# expected jumps per chunk of samples; the chunks fix the order of draws
_JUMPS_PER_CHUNK = 1_000_000
# jumps drawn at once: 8 MB arrays (10x larger ones page-fault more)
_MAX_JUMP_BUFFER = 1_000_000


@dataclass(frozen=True)
class LevyParams:
    """Free centering c."""

    c: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.c):
            raise ValueError(f"centering c must be finite, got {self.c!r}")


def jump_tail(u) -> np.ndarray | float:
    """Lambda([u, inf)) = 1/(e^u - 1) for u > 0."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all(u_arr > 0.0):
        raise ValueError("jump_tail requires u > 0")
    val = 1.0 / np.expm1(u_arr)
    return float(val[0]) if np.asarray(u).ndim == 0 else val


def jump_density(u) -> np.ndarray | float:
    """Lambda density e^u / (e^u - 1)^2 for u > 0; behaves like u^-2 near 0."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all(u_arr > 0.0):
        raise ValueError("jump_density requires u > 0")
    # e^u/(e^u-1)^2 written as e^-u/(1-e^-u)^2 so large u cannot overflow
    em = -np.expm1(-u_arr)
    val = np.exp(-u_arr) / (em * em)
    return float(val[0]) if np.asarray(u).ndim == 0 else val


def _F(u: float) -> float:
    # antiderivative of u rho(u), vanishing at infinity
    return -u / math.expm1(u) + math.log(-math.expm1(-u))


def _digamma(z) -> np.ndarray:
    """psi(z) for complex z off the poles, element by element: the series
    log x - 1/(2x) - sum_k B_2k / (2k x^2k) through B_14 at x = z + n, where
    Re x >= 10, then psi(z) = psi(z + 1) - 1/z back down, smallest terms
    first.  Relative error < 1.4e-15 on z = 1 - i lam, |lam| in [1e-6, 200]."""
    z = np.asarray(z, dtype=complex)
    n = np.ceil(np.maximum(10.0 - z.real, 0.0))
    x = z + n
    r = 1.0 / x
    tail = 0.0
    # B_2k / (2k) from k = 7 down to 1, by Horner in 1/x^2
    for b in (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12):
        tail = (tail + b) * (r * r)
    out = np.log(x) - 0.5 * r - tail
    for k in range(int(n.max(initial=0.0)) - 1, -1, -1):
        out = out - np.where(k < n, 1.0 / (z + k), 0.0)
    return out


def kappa(lam, params: LevyParams = LevyParams()) -> complex | np.ndarray:
    """Characteristic exponent: E[e^{i lam L_t}] = e^{t kappa(lam)}.

    The closed form of the module docstring, taken in real arithmetic, so
    that an array of lambdas gives, element for element, the bits of the
    scalar calls.  A scalar returns a complex, an array a complex array;
    ValueError on a non-finite lambda.  kappa(0) = 0, Re kappa <= 0,
    kappa(-lam) is the conjugate of kappa(lam).
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError(
            f"kappa requires finite lambda, got {lam.tolist()!r}")
    w = _digamma(1.0 - 1j * lam)
    shift = np.euler_gamma + c_prime() - 1.0
    out = np.empty(lam.shape, dtype=complex)
    out.real = _PI2 * lam * w.imag
    out.imag = lam * (params.c - _PI2 * (w.real + shift))
    return complex(out) if out.ndim == 0 else out


def c_prime() -> float:
    """Drift constant int_0^inf (log(1+x) 1_{log(1+x)<=1} - x 1_{x<=1}) x^-2 dx.

    Finite (the integrand is O(1) at 0) and negative: log(1+x) < x makes the
    inner piece negative faster than the (1, e-1] piece pays it back.  In
    closed form it is 1 - 1/(e - 1) + log(1 - 1/e).
    """
    return 1.0 - 1.0 / (math.e - 1.0) + math.log(-math.expm1(-1.0))


def x_alpha(alpha: float) -> float:
    """Solve int_{x}^inf y e^{-y} dy = alpha, i.e. (1 + x) e^{-x} = alpha.

    Strictly decreasing on alpha in (0, 1]; x_alpha(1) = 0, x_alpha(2/e) = 1.
    Newton's method on the concave, decreasing h(x) = log(1 + x) - x + L,
    L = -log alpha, falls to the root from x = 2 (sqrt(L) + L), where
    log(1 + x) - x <= -x^2 / (2 + 2x) <= -L.
    """
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    if alpha == 1.0:
        return 0.0
    big_l = -math.log(alpha)
    x = 2.0 * (math.sqrt(big_l) + big_l)
    while True:
        # x - h / h' with h'(x) = -x / (1 + x)
        nxt = x + (math.log1p(x) - x + big_l) * (1.0 + x) / x
        if not nxt < x:
            return x
        x = nxt


@dataclass(frozen=True)
class RecenteringConstants:
    """Size-dependent centering: window a_N, drift mu_N, and speed expansions."""

    n: int
    a_N: float
    mu_N: float
    speed_cutoff: float
    speed_expanded: float


def recentering(n: int) -> RecenteringConstants:
    """a_N = ln N + 3 ln ln N and mu_N = sqrt(1 - pi^2 / a_N^2).

    Requires N >= 16 so ln ln N is safely positive.  speed_cutoff is
    1 - pi^2/(2 ln^2 N); speed_expanded adds the 3 pi^2 ln ln N / ln^3 N
    correction.
    """
    n = int(n)
    if n < 16:
        raise ValueError(f"recentering requires N >= 16, got {n!r}")
    ln = math.log(n)
    lnln = math.log(ln)
    a_N = ln + 3.0 * lnln
    mu_N = math.sqrt(1.0 - _PI2 / (a_N * a_N))
    return RecenteringConstants(
        n=n,
        a_N=a_N,
        mu_N=mu_N,
        speed_cutoff=1.0 - _PI2 / (2.0 * ln * ln),
        speed_expanded=1.0 - _PI2 / (2.0 * ln * ln) + 3.0 * _PI2 * lnln / ln ** 3,
    )


def increment_mean_rate(params: LevyParams = LevyParams()) -> float:
    """E[L_1] = c + pi^2 int_1^inf u Lambda(du) = c - pi^2 F(1)."""
    return params.c - _PI2 * _F(1.0)


def increment_var_rate() -> float:
    """Var(L_1) = pi^2 int_0^inf u^2 Lambda(du) = pi^4 / 3."""
    return _PI2 * _PI2 / 3.0


def _compensator_rate(delta: float) -> float:
    # pi^2 int_delta^1 u rho(u) du, the drift removed for retained jumps <= 1
    return _PI2 * (_F(1.0) - _F(delta))


def _small_jump_variance_rate(delta: float) -> float:
    # pi^2 int_0^delta u^2 rho(u) du, from u^2 rho(u) = 1 - u^2/12 + u^4/240
    # - u^6/6048 + u^8/172800 - ...: error < 1e-14 up to delta = 0.1
    return _PI2 * (delta - delta ** 3 / 36.0 + delta ** 5 / 1200.0
                   - delta ** 7 / 42336.0)


def sample_jump_sizes(n: int, rng: np.random.Generator,
                      delta: float = JUMP_TRUNCATION) -> np.ndarray:
    """Jump sizes conditioned on exceeding delta, by exact tail inversion.

    P(U > x) = (e^delta - 1)/(e^x - 1) inverts to x = log1p((e^delta - 1)/V)
    for V uniform.  All outputs are > delta (strictly positive jumps).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    v = rng.random(int(n))
    # guard the open endpoint: V = 0 would be an infinite jump
    np.maximum(v, 1e-300, out=v)
    np.divide(math.expm1(delta), v, out=v)
    return np.log1p(v, out=v)


def sample_levy_increment(t: float, size: int, rng: np.random.Generator,
                          params: LevyParams = LevyParams()) -> np.ndarray:
    """Draw `size` independent copies of L_t.

    Compound Poisson above JUMP_TRUNCATION (rate pi^2/(e^delta - 1)), exact
    compensator for retained jumps below 1, deterministic c t, and the
    Gaussian for the jumps below the truncation.  Jumps are drawn at most
    _MAX_JUMP_BUFFER at a time, so memory beside the output stays bounded.
    """
    t = float(t)
    if not (t > 0.0):
        raise ValueError(f"increment horizon must be > 0, got {t!r}")
    size = int(size)
    delta = JUMP_TRUNCATION
    rate = _PI2 / math.expm1(delta)
    drift = params.c * t - _compensator_rate(delta) * t

    out = np.empty(size, dtype=float)
    chunk = max(1, int(_JUMPS_PER_CHUNK / max(rate * t, 1.0)))
    for lo in range(0, size, chunk):
        hi = min(size, lo + chunk)
        ends = np.cumsum(rng.poisson(rate * t, hi - lo))
        # the running jump sum at each sample's last jump; each piece starts
        # from the sum before it, so the sums are one cumsum's over the chunk
        sums, carry = np.zeros(hi - lo), 0.0
        for k0 in range(0, int(ends[-1]), _MAX_JUMP_BUFFER):
            csum = sample_jump_sizes(min(_MAX_JUMP_BUFFER, ends[-1] - k0),
                                     rng, delta)
            csum[0] += carry
            carry = np.cumsum(csum, out=csum)[-1]
            i0, i1 = np.searchsorted(ends, (k0, k0 + len(csum)), side="right")
            sums[i0:i1] = csum[ends[i0:i1] - k0 - 1]
        out[lo:hi] = np.diff(sums, prepend=0.0)
    out += drift
    sd = math.sqrt(_small_jump_variance_rate(delta) * t)
    out += sd * rng.standard_normal(size)
    return out
