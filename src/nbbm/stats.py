"""Estimators and verdicts for simulation output.

Every comparison against an analytic value goes through OracleReport, which
records the estimate, its standard error, the analytic target and any
systematic slack, and passes iff |estimate - analytic| <= slack + 3 SE.
The slack term carries the known finite-size remainders (error envelopes,
quadratic profile corrections); the 3 SE term carries the Monte Carlo noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import levy as _levy
from .kernels import IntervalParams, sine_exp_density

__all__ = [
    "StatsSeries",
    "OracleReport",
    "EmpiricalDensity",
    "empirical_density",
    "l1_vs_density",
    "l1_vs_meta",
    "oracle_Z",
    "oracle_R",
    "oracle_N",
    "speed_estimate",
    "empirical_cf",
    "CFComparison",
    "increment_vs_levy",
    "load_calibration",
]


@dataclass
class StatsSeries:
    """Time series of per-population statistics.

    columns maps names (count, Z, Y, R_cum, barrier_shift, med_0.5, ...)
    to arrays aligned with times.  replica is None for single-run series.
    """

    times: np.ndarray
    columns: dict[str, np.ndarray]
    replica: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        for name, col in self.columns.items():
            col = np.asarray(col)
            if col.shape != self.times.shape:
                raise ValueError(
                    f"column {name!r} has shape {col.shape}, "
                    f"times has {self.times.shape}")
            self.columns[name] = col


@dataclass(frozen=True)
class OracleReport:
    """Monte Carlo estimate versus analytic target.

    Passes iff |estimate - analytic| <= slack + 3 * se.
    """

    name: str
    estimate: float
    se: float
    analytic: float
    slack: float
    n: int
    extra: dict = field(default_factory=dict)

    @property
    def deviation(self) -> float:
        return abs(self.estimate - self.analytic)

    @property
    def margin(self) -> float:
        return self.slack + 3.0 * self.se

    @property
    def passed(self) -> bool:
        return self.deviation <= self.margin

    def line(self) -> str:
        status, op = ("pass", "<=") if self.passed else ("FAIL", ">")
        return (f"{status} {self.name}: |{self.estimate:.6g} - "
                f"{self.analytic:.6g}| = {self.deviation:.3g} "
                f"{op} {self.slack:.3g} + 3*{self.se:.3g} = {self.margin:.3g}")


@dataclass(frozen=True)
class EmpiricalDensity:
    """Histogram in probability-mass units: masses sum to 1."""

    edges: np.ndarray
    mass: np.ndarray
    n_samples: int


def empirical_density(samples, bins: int, lo: float, hi: float) -> EmpiricalDensity:
    """Histogram of samples on [lo, hi) normalised to total mass 1.

    Samples outside the range are dropped.  An empty population (no samples,
    or none in range) has no density to normalise and raises.
    """
    if bins < 10:
        raise ValueError(f"need at least 10 bins, got {bins!r}")
    if not hi > lo:
        raise ValueError(f"hi must exceed lo, got [{lo!r}, {hi!r})")
    samples = np.asarray(samples, dtype=float)
    counts, edges = np.histogram(samples, bins=int(bins), range=(lo, hi))
    total = int(counts.sum())
    if total == 0:
        raise ValueError("empty population: no samples inside the range")
    return EmpiricalDensity(edges, counts / total, total)


def l1_vs_density(emp: EmpiricalDensity, cdf) -> float:
    """L1 distance between histogram masses and a reference distribution.

    The reference mass per bin comes from cdf differences, plus the mass the
    reference puts outside the histogram range, so the result lies in [0, 2].
    """
    ref = np.diff([float(cdf(e)) for e in emp.edges])
    outside = 1.0 - float(np.sum(ref))
    return float(np.sum(np.abs(emp.mass - ref)) + abs(outside))


def l1_vs_meta(emp: EmpiricalDensity, iv: IntervalParams) -> float:
    """L1 distance to the stationary profile sin(pi x / a) e^(-mu x), normalised."""
    return l1_vs_density(emp, sine_exp_density(iv.a, iv.mu).cdf)


def _mean_se(values: np.ndarray) -> tuple[float, float, int]:
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 30:
        raise ValueError(
            f"refusing an oracle verdict on {n} replicas; the standard "
            "error is unreliable below 30")
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n)), n


def oracle_Z(z0: np.ndarray, zt: np.ndarray) -> OracleReport:
    """Martingale check: the paired differences Z_t - Z_0 should average 0."""
    d = np.asarray(zt, dtype=float) - np.asarray(z0, dtype=float)
    est, se, n = _mean_se(d)
    return OracleReport("Z martingale", est, se, 0.0, 0.0, n)


def oracle_R(r_counts: np.ndarray, z0: np.ndarray, y0: np.ndarray, t: float,
             iv: IntervalParams, c_rt: float) -> OracleReport:
    """Boundary-hit count over [0, t] against pi t a^-3 Z_0 with Y_0 slack.

    Paired per replica: the estimate is the mean of R - pi t a^-3 Z_0 and
    the systematic slack is c_rt * mean(Y_0).
    """
    r = np.asarray(r_counts, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    pred = math.pi * t / iv.a ** 3 * z0
    est, se, n = _mean_se(r - pred)
    slack = c_rt * float(np.mean(y0))
    return OracleReport("boundary hits", est, se, 0.0, slack, n,
                        extra={"t": t, "c_rt": c_rt})


def oracle_N(counts_r: np.ndarray, z0: np.ndarray, r: float, t: float,
             iv: IntervalParams, c_quad: float) -> OracleReport:
    """Tail count N_t(r) against its w_Z-proportional prediction.

    Prediction per replica: 2 pi (1 + mu r) e^(mu (a - r)) a^-3 Z_0; slack is
    (E_envelope(t/a^2) + c_quad ((1 + r)/a)^2) times the mean prediction.
    """
    from .kernels import error_envelope_E

    a, mu = iv.a, iv.mu
    factor = 2.0 * math.pi * (1.0 + mu * r) * math.exp(mu * (a - r)) / a ** 3
    pred = factor * np.asarray(z0, dtype=float)
    est, se, n = _mean_se(np.asarray(counts_r, dtype=float) - pred)
    rel = error_envelope_E(t / a ** 2) + c_quad * ((1.0 + r) / a) ** 2
    slack = rel * float(np.mean(pred))
    return OracleReport(f"tail count r={r:g}", est, se, 0.0, slack, n,
                        extra={"t": t, "r": r, "rel_slack": rel})


def speed_estimate(times: np.ndarray, med_by_replica: np.ndarray,
                   burn_in: float) -> tuple[float, float]:
    """Front speed: per-replica least-squares slope of the median after burn_in.

    Returns (mean slope, standard error over replicas).
    """
    times = np.asarray(times, dtype=float)
    med = np.atleast_2d(np.asarray(med_by_replica, dtype=float))
    if not times[-1] > 2.0 * burn_in:
        raise ValueError(
            f"series horizon {times[-1]!r} must exceed twice the burn_in "
            f"{burn_in!r}")
    keep = times >= burn_in
    if keep.sum() < 3:
        raise ValueError("burn_in leaves fewer than 3 samples")
    t = times[keep]
    slopes = []
    for row in med:
        y = row[keep]
        if not np.all(np.isfinite(y)):
            raise ValueError("median series contains non-finite values")
        slopes.append(np.polyfit(t, y, 1)[0])
    slopes = np.asarray(slopes)
    if len(slopes) < 2:
        raise ValueError("need at least 2 replicas for a speed error bar")
    return float(slopes.mean()), float(slopes.std(ddof=1) / math.sqrt(len(slopes)))


def empirical_cf(samples: np.ndarray, lams) -> tuple[np.ndarray, np.ndarray]:
    """Empirical characteristic function and its standard error per lambda.

    The SE combines the real and imaginary component errors in quadrature,
    so |phi_hat - phi| <= 3 SE is a sound gate.
    """
    samples = np.asarray(samples, dtype=float)
    lams = np.asarray(lams, dtype=float)
    n = len(samples)
    phi = np.empty(len(lams), dtype=complex)
    se = np.empty(len(lams))
    for i, lam in enumerate(lams):
        z = np.exp(1j * lam * samples)
        phi[i] = z.mean()
        se[i] = math.sqrt((z.real.var(ddof=1) + z.imag.var(ddof=1)) / n)
    return phi, se


@dataclass(frozen=True)
class CFComparison:
    """Empirical CF of increments versus the limit exponent, per lambda:
    phi the empirical CF, model e^(dt kappa(lambda)) at the centering used."""

    lams: np.ndarray
    phi: np.ndarray
    model: np.ndarray
    se: np.ndarray
    fitted_c: float
    n: int

    @property
    def deviation(self) -> np.ndarray:
        return np.abs(self.phi - self.model)

    @property
    def passed(self) -> bool:
        return bool(np.all(self.deviation <= 3.0 * self.se))

    @property
    def worst_ratio(self) -> float:
        return float(np.max(self.deviation / self.se))


def increment_vs_levy(increments: np.ndarray, dt_inc: float, lams,
                      params: _levy.LevyParams = _levy.LevyParams(),
                      fit_c: bool = True) -> CFComparison:
    """Compare increment samples to the limit process at a grid of lambdas.

    The centering c is not identified by the limit, so by default it is fit
    from the sample mean (c_hat = mean/dt - mean rate at c = 0) and the same
    c is used on both sides; pass fit_c=False to keep params.c.
    """
    increments = np.asarray(increments, dtype=float)
    lams = np.asarray(lams, dtype=float)
    if len(increments) < 200:
        raise ValueError(
            f"refusing a CF verdict on {len(increments)} increments; the "
            "per-lambda standard errors are unreliable below 200")
    if fit_c:
        c_hat = float(increments.mean() / dt_inc - _levy.increment_mean_rate())
        params = _levy.LevyParams(c_hat)
    phi, se = empirical_cf(increments, lams)
    model = np.exp(dt_inc * _levy.kappa(lams, params))
    return CFComparison(lams=lams, phi=phi, model=model, se=se,
                        fitted_c=params.c, n=len(increments))


def load_calibration() -> dict:
    """Fitted envelope constants, frozen from exact-kernel quadrature runs."""
    with resources.files("nbbm").joinpath("calibration.json").open() as fh:
        return json.load(fh)
