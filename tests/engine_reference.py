"""Reference scalar lane: the one-particle-at-a-time stepping loop and the
single fugitive trial, as they stood before event logs and checkpoints moved
onto flat arrays.

`advance` handles one segment at a time off a stack, drawing per segment the
branch clock, the Gaussian move, the bridge uniform at each wall (plus a
uniform hit time on a hit) and the offspring count.  Genealogical labels
are stripped; the draw order is unchanged, so `breakout_trial` computes the
same numbers as before.  The cross-lane test compares `breakout_trials`
with it statistically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nbbm.engine import CapacityError, ReproductionLaw, sample_offspring
from nbbm.kernels import IntervalParams, w_Z


def _bridge_hit_prob(x1: float, x2: float, seg: float, wall: float) -> float:
    e = -2.0 * (x1 - wall) * (x2 - wall) / seg
    return math.exp(min(e, 0.0))


def advance(positions: list[float], time: float, until: float, *,
            law: ReproductionLaw, dt: float, rng: np.random.Generator,
            drift_rate: float = 0.0, absorb_lower: float | None = None,
            absorb_upper: float | None = None,
            max_segments: int = 50_000_000) -> tuple[list[float], list]:
    """Run the particles at `positions` from `time` to `until`.

    Returns the survivors' positions and the events as (kind, time,
    position, k) tuples: absorb_lo / absorb_hi at the wall with k = -1, at
    a hit time uniform on the segment, and branch at the branch point with
    the offspring count.
    """
    if until <= time:
        raise ValueError(f"until = {until!r} does not advance past t = {time!r}")
    events = []
    scale = 1.0 / law.beta0
    segments = 0
    while time < until:
        t1 = min(time + dt, until)
        h = t1 - time
        stack = [(x, h) for x in positions]
        positions = []
        while stack:
            pos, rem = stack.pop()
            segments += 1
            if segments > max_segments:
                raise CapacityError(
                    f"particle-segment budget {max_segments} exhausted")
            tb = rng.exponential(scale)
            seg = min(tb, rem)
            ts = t1 - rem
            mean = drift_rate * (ts + seg) - drift_rate * ts
            x2 = pos + mean + rng.standard_normal() * math.sqrt(seg)
            if absorb_lower is not None and \
                    rng.random() < _bridge_hit_prob(pos, x2, seg, absorb_lower):
                events.append(("absorb_lo", ts + rng.random() * seg,
                               absorb_lower, -1))
                continue
            if absorb_upper is not None and \
                    rng.random() < _bridge_hit_prob(pos, x2, seg, absorb_upper):
                events.append(("absorb_hi", ts + rng.random() * seg,
                               absorb_upper, -1))
                continue
            if tb >= rem:
                positions.append(x2)
                continue
            k = int(sample_offspring(law, 1, rng)[0])
            events.append(("branch", ts + seg, x2, k))
            stack.extend([(x2, rem - tb)] * k)
        time = t1
    return positions, events


@dataclass(frozen=True)
class TrialOutcome:
    n_frozen: int
    Z: float
    W_y: float
    hit_zeta: bool
    is_breakout: bool


def breakout_trial(law: ReproductionLaw, A: float, epsilon: float, y: float,
                   zeta: float, iv: IntervalParams, *, dt: float,
                   rng: np.random.Generator,
                   zeta_breakout: bool = True) -> TrialOutcome:
    """One fugitive trial from height y above the stopping line.

    In line coordinates the particles drift at -1 and freeze at 0; a freeze
    at local time s sits at lab position a - y + (1 - mu) s.  A breakout
    has frozen weight Z above epsilon e^A or, with zeta_breakout, a lineage
    still running at the cap zeta.
    """
    alive, events = advance([float(y)], 0.0, float(zeta), law=law, dt=dt,
                            rng=rng, drift_rate=-1.0, absorb_lower=0.0,
                            max_segments=20_000_000)
    s = np.array([t for kind, t, _, _ in events if kind == "absorb_lo"])
    lab = iv.a - y + (1.0 - iv.mu) * s
    z_val = float(np.sum(w_Z(lab, iv))) if len(lab) else 0.0
    hit_zeta = len(alive) > 0
    return TrialOutcome(
        n_frozen=len(s),
        Z=z_val,
        W_y=y * math.exp(-y) * len(s),
        hit_zeta=hit_zeta,
        is_breakout=(z_val > epsilon * math.exp(A))
        or (zeta_breakout and hit_zeta),
    )
