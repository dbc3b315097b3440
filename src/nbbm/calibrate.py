"""Fit the envelope constants used in slack terms and freeze them to JSON.

The comparison estimates carry constants that theory leaves unspecified:

  c_i       |I(x, S) - pi |S| sin(pi x)| <= c_i min(x, E_{inf S} (1 ^ |S|) sin(pi x))
            on the unit interval,
  c_rt      |I(x, (0, t)) - pi t a^-3 w_Z(x)| <= c_rt w_Y(x)  (expected
            boundary hits against the Z-proportional rate),
  c_nexpec  |N_t(r) expectation / (2 pi (1 + mu r) e^(mu (a - r)) a^-3 w_Z) - 1|
            <= E_{t/a^2} + c_nexpec ((1 + r) / a)^2.

Each is fitted as 1.5 times the supremum of the left side over the right
side's shape on a deterministic grid of Gauss-Legendre quadratures
(`kernels._gauss_legendre`), so the inequalities hold with headroom.  Run

    python3 -m nbbm.calibrate

to regenerate src/nbbm/calibration.json; the file in the repository was
produced by exactly this script and tests compare against it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from .kernels import (IntervalParams, I_integral, _gauss_legendre,
                      bbm_density, error_envelope_E, w_Y, w_Z)

GRID_X_UNIT = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
GRID_WINDOWS = [(0.25, 0.5), (0.25, 1.25), (0.5, 1.0), (0.5, 2.5),
                (1.0, 1.5), (1.0, 3.0), (2.0, 2.5), (2.0, 4.0)]
CAL_A = 10.0
GRID_X_WIDE = [0.1, 0.5, 1.0, 2.0, 3.5, 5.0, 6.5, 8.0, 9.0, 9.5, 9.9]
GRID_T_RT = [5.0, 10.0, 20.0, 35.0, 50.0]
GRID_R_FRACS = [0.0, 0.25]
T_NEXPEC_FACTOR = 2.0
SAFETY = 1.5


def fit_c_i() -> float:
    """Window-flux estimate constant on the unit interval."""
    worst = 0.0
    for s0, s1 in GRID_WINDOWS:
        width = s1 - s0
        env = error_envelope_E(s0) * min(1.0, width)
        for x in GRID_X_UNIT:
            lhs = abs(I_integral(x, (s0, s1), 1.0)
                      - math.pi * width * math.sin(math.pi * x))
            rhs_shape = min(x, env * math.sin(math.pi * x))
            worst = max(worst, lhs / rhs_shape)
    return SAFETY * worst


def fit_c_rt() -> float:
    """Boundary-hit slack constant: deviation per unit of w_Y.

    The drifted system's expected hit count from x is e^(mu (x - a)) times
    the growth-weighted driftless flux I(x, (0, t)); dividing the target
    inequality by w_Y = e^(mu (x - a)) leaves both sides drift-free.
    """
    iv = IntervalParams(CAL_A)
    worst = 0.0
    for x in GRID_X_WIDE:
        wz_over_wy = w_Z(x, iv) / w_Y(x, iv)
        for t in GRID_T_RT:
            flux = I_integral(x, (0.0, t), iv)
            worst = max(worst,
                        abs(flux - math.pi * t / CAL_A ** 3 * wz_over_wy))
    return SAFETY * worst


def fit_c_nexpec() -> tuple[float, float]:
    """Tail-count quadratic correction constant at t = 2 a^2."""
    iv = IntervalParams(CAL_A)
    t = T_NEXPEC_FACTOR * CAL_A ** 2
    env = error_envelope_E(T_NEXPEC_FACTOR)
    worst = 0.0
    for frac in GRID_R_FRACS:
        r = frac * CAL_A
        factor = (2.0 * math.pi * (1.0 + iv.mu * r)
                  * math.exp(iv.mu * (CAL_A - r)) / CAL_A ** 3)
        for x in GRID_X_WIDE:
            pred = factor * w_Z(x, iv)
            val = _gauss_legendre(lambda yy: bbm_density(x, yy, t, iv),
                                  r, CAL_A)
            dev = abs(val / pred - 1.0)
            excess = max(0.0, dev - env)
            worst = max(worst, excess / ((1.0 + r) / CAL_A) ** 2)
    return SAFETY * worst, env


def main(argv=None) -> int:
    out = Path(__file__).with_name("calibration.json")
    c_i = fit_c_i()
    c_rt = fit_c_rt()
    c_nexpec, env = fit_c_nexpec()
    payload = {
        "c_i": round(c_i, 6),
        "c_rt": round(c_rt, 6),
        "c_nexpec": round(c_nexpec, 6),
        "fitted_on": {
            "a": CAL_A,
            "t_rt_max": max(GRID_T_RT),
            "t_nexpec": T_NEXPEC_FACTOR * CAL_A ** 2,
            "r_fracs": GRID_R_FRACS,
            "envelope_at_t_nexpec": env,
            "safety": SAFETY,
        },
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for key in ("c_i", "c_rt", "c_nexpec"):
        print(f"  {key} = {payload[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
