"""Branching Brownian motion engine with labelled particles.

Time advances in steps, but within a step every particle is handled event
by event: a fresh exponential branch clock (memoryless, so no clock state
survives a step), a Gaussian move whose mean is the cumulative drift
difference over the segment, a Brownian-bridge absorption test against each
boundary, and a branch into k children at the branch point with the
remaining step time.  Branch genealogy is therefore exact in distribution;
the step size only controls two approximations, both documented where they
are made: absorption times are drawn uniformly on the segment, and with two
boundaries the one-sided bridge corrections are multiplied, which ignores
double-crossing paths (relative error of order exp(-2 a^2 / dt)).

This object lane is the reference implementation: labels, event logs and
checkpoints come from here.  The array lane in `ensemble` trades labels for
throughput and is cross-checked against this one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .kernels import IntervalParams, w_Y, w_Z

__all__ = [
    "CapacityError",
    "rng_stream",
    "ReproductionLaw",
    "sample_offspring",
    "Particle",
    "Event",
    "Population",
    "format_label",
    "parse_label",
    "bridge_hit_prob",
    "CumulativeDrift",
    "ConstantDrift",
    "advance",
    "SimConfig",
    "hperp_count",
    "BreakoutOutcome",
    "breakout_trial",
]


class CapacityError(RuntimeError):
    """A run exceeded its particle-segment budget."""


def rng_stream(seed: int, replica: int = 0, lane: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, replica, lane).

    Distinct triples give statistically independent streams, and the stream
    depends only on the triple, never on the order in which replicas run or
    on what else ran before, so reruns of an experiment consume identical
    randomness.
    """
    seed = int(seed)
    replica = int(replica)
    lane = int(lane)
    if not 0 <= replica < 2 ** 40:
        raise ValueError(f"replica must lie in [0, 2^40), got {replica!r}")
    if not 0 <= lane < 2 ** 20:
        raise ValueError(f"lane must lie in [0, 2^20), got {lane!r}")
    key = np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, (replica << 20) | lane], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ReproductionLaw:
    """Offspring law q(0), q(1), ..., q(K) with branch rate 1/(2m).

    m is the mean offspring increment sum_k (k - 1) q(k) and must be
    positive; the rate normalisation beta0 = 1/(2m) makes the free front
    speed tend to 1, matching the unit-speed convention everywhere else.
    """

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        q = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "probabilities", q)
        if not q:
            raise ValueError("offspring law needs at least q(0)")
        if any(not (p >= 0.0) for p in q):
            raise ValueError(f"offspring probabilities must be >= 0, got {q!r}")
        total = math.fsum(q)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"offspring probabilities sum to {total!r}, not 1")
        if not self.m > 0.0:
            raise ValueError(
                f"mean offspring increment must be > 0, got m = {self.m!r}"
            )
        # inverse-CDF table for sample_offspring; not a field, so equality,
        # hashing and repr see only the probabilities
        cdf = np.cumsum(q)
        cdf.flags.writeable = False
        object.__setattr__(self, "_cdf", cdf)

    @functools.cached_property  # read once per segment step
    def m(self) -> float:
        return math.fsum(k * p for k, p in enumerate(self.probabilities)) - 1.0

    @property
    def m2(self) -> float:
        return math.fsum(k * (k - 1) * p for k, p in enumerate(self.probabilities))

    @property
    def beta0(self) -> float:
        return 1.0 / (2.0 * self.m)

    @classmethod
    def binary(cls) -> "ReproductionLaw":
        return cls((0.0, 0.0, 1.0))

    @classmethod
    def from_dict(cls, q: dict[int, float]) -> "ReproductionLaw":
        if not q:
            raise ValueError("empty offspring law")
        kmax = max(q)
        if min(q) < 0:
            raise ValueError("offspring counts must be >= 0")
        return cls(tuple(q.get(k, 0.0) for k in range(kmax + 1)))


def sample_offspring(law: ReproductionLaw, size: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Offspring counts by inverse-CDF lookup."""
    k = np.searchsorted(law._cdf, rng.random(int(size)), side="right")
    return np.minimum(k, len(law.probabilities) - 1).astype(np.int64)


@dataclass
class Particle:
    """One particle: genealogical label, position, birth time."""

    label: tuple[int, ...]
    position: float
    birth_time: float


@dataclass(frozen=True)
class Event:
    """Branch or absorption record; k is the offspring count, -1 otherwise."""

    kind: str
    time: float
    label: tuple[int, ...]
    position: float
    k: int = -1


def format_label(label: tuple[int, ...]) -> str:
    return ".".join(str(i) for i in label)


def parse_label(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(part) for part in text.split("."))


@dataclass
class Population:
    """Labelled particle set at a common time."""

    time: float
    particles: list[Particle] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.particles)

    def positions(self) -> np.ndarray:
        return np.array([p.position for p in self.particles], dtype=float)

    def labels(self) -> list[tuple[int, ...]]:
        return [p.label for p in self.particles]

    def copy(self) -> "Population":
        return Population(
            self.time,
            [Particle(p.label, p.position, p.birth_time) for p in self.particles],
        )

    @classmethod
    def from_positions(cls, positions, time: float = 0.0) -> "Population":
        return cls(
            float(time),
            [
                Particle((i + 1,), float(x), float(time))
                for i, x in enumerate(np.asarray(positions, dtype=float))
            ],
        )


def bridge_hit_prob(x1: float, x2: float, seg: float, boundary: float) -> float:
    """P(a Brownian bridge from x1 to x2 over `seg` touches `boundary`).

    exp(-2 (x1 - b)(x2 - b) / seg), which is 1 whenever the endpoints
    straddle the boundary; exact for a single boundary, so absorption
    against one wall preserves the killed kernel exactly at any step size.
    """
    e = -2.0 * (x1 - boundary) * (x2 - boundary) / seg
    return math.exp(min(e, 0.0))


class CumulativeDrift(Protocol):
    """Deterministic displacement: a particle gains cumulative(t2) - cumulative(t1)."""

    def cumulative(self, t: float) -> float: ...


@dataclass(frozen=True)
class ConstantDrift:
    rate: float

    def cumulative(self, t: float) -> float:
        return self.rate * t


def advance(pop: Population, until: float, *, law: ReproductionLaw, dt: float,
            rng: np.random.Generator, drift: CumulativeDrift | None = None,
            absorb_lower: float | None = None, absorb_upper: float | None = None,
            events: list[Event] | None = None,
            max_segments: int = 50_000_000) -> list[Event]:
    """Run the population forward to `until`, mutating it in place.

    Absorbed particles leave the population and are reported as absorb_lo /
    absorb_hi events at the boundary position; branch events carry the
    branch point and offspring count.  Events are time ordered within each
    lineage but not globally.
    """
    if until <= pop.time:
        raise ValueError(f"until = {until!r} does not advance past t = {pop.time!r}")
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    if (absorb_lower is not None and absorb_upper is not None
            and not absorb_upper > absorb_lower):
        raise ValueError("absorb_upper must exceed absorb_lower")
    if events is None:
        events = []
    scale = 1.0 / law.beta0
    segments = 0
    while pop.time < until:
        t0 = pop.time
        t1 = min(t0 + dt, until)
        if not t1 > t0:
            raise ValueError(f"step size underflow at t = {t0!r}")
        h = t1 - t0
        stack = [(p.label, p.position, p.birth_time, h) for p in pop.particles]
        survivors: list[Particle] = []
        while stack:
            label, pos, birth, rem = stack.pop()
            segments += 1
            if segments > max_segments:
                raise CapacityError(
                    f"particle-segment budget {max_segments} exhausted near t = {t1:.6g}"
                )
            tb = rng.exponential(scale)
            seg = min(tb, rem)
            ts = t1 - rem
            mean = 0.0
            if drift is not None:
                mean = drift.cumulative(ts + seg) - drift.cumulative(ts)
            x2 = pos + mean + rng.standard_normal() * math.sqrt(seg)
            if absorb_lower is not None and \
                    rng.random() < bridge_hit_prob(pos, x2, seg, absorb_lower):
                # hit time is uniform on the segment; O(dt) placement error
                events.append(Event(
                    "absorb_lo", ts + rng.random() * seg, label, absorb_lower))
                continue
            if absorb_upper is not None and \
                    rng.random() < bridge_hit_prob(pos, x2, seg, absorb_upper):
                events.append(Event(
                    "absorb_hi", ts + rng.random() * seg, label, absorb_upper))
                continue
            if tb >= rem:
                survivors.append(Particle(label, x2, birth))
                continue
            k = int(sample_offspring(law, 1, rng)[0])
            events.append(Event("branch", ts + seg, label, x2, k))
            child_rem = rem - tb
            for j in range(1, k + 1):
                stack.append((label + (j,), x2, ts + seg, child_rem))
        pop.particles = survivors
        pop.time = t1
    return events


@dataclass
class SimConfig:
    """Run parameters shared by the engine, the selection runners and the CLI.

    Regime constraints from the underlying asymptotics are advisory at desk
    scale, so `validate` reports them as warnings; structural mistakes
    (non-positive dt, empty alphas and the like) raise instead.
    """

    law: ReproductionLaw
    interval: IntervalParams | None = None
    dt: float = 0.1
    horizon: float | None = None
    replicas: int = 1
    seed: int = 0
    n_select: int | None = None
    alphas: tuple[float, ...] = (0.5,)
    A: float | None = None
    epsilon: float | None = None
    eta: float | None = None
    y: float | None = None
    zeta: float | None = None
    delta_color: float | None = None
    c_center: float = 0.0
    sample_every: float | None = None
    zeta_breakout: bool = True
    max_segments: int = 50_000_000

    def validate(self) -> list[str]:
        # run lengths are turned into step counts, so they must be finite
        for name in ("dt", "horizon", "sample_every"):
            val = getattr(self, name)
            if val is not None and not 0.0 < val < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {val!r}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas!r}")
        if not self.alphas:
            raise ValueError("alphas must be nonempty")
        if any(not (0.0 < al < 1.0) for al in self.alphas):
            raise ValueError(f"alphas must lie in (0, 1), got {self.alphas!r}")
        if self.n_select is not None and self.n_select < 1:
            raise ValueError(f"n_select must be >= 1, got {self.n_select!r}")
        # these feed exp() and particle counts, so they must be finite too
        for name in ("A", "epsilon", "eta", "y", "zeta", "delta_color"):
            val = getattr(self, name)
            if val is not None and not 0.0 < val < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {val!r}")
        if not math.isfinite(self.c_center):
            raise ValueError(f"c_center must be finite, got {self.c_center!r}")

        warnings: list[str] = []
        A, eps, eta, y = self.A, self.epsilon, self.eta, self.y
        if A is not None and eps is not None:
            if not eps <= A ** -17:
                warnings.append(
                    f"epsilon = {eps:g} violates the regime condition "
                    f"epsilon <= A^-17 = {A ** -17:g}")
            if not eps >= math.exp(-A / 6.0):
                warnings.append(
                    f"epsilon = {eps:g} violates the regime condition "
                    f"epsilon >= e^(-A/6) = {math.exp(-A / 6.0):g}")
        if A is not None and eta is not None and not eta <= math.exp(-2.0 * A):
            warnings.append(
                f"eta = {eta:g} violates the regime condition "
                f"eta <= e^(-2A) = {math.exp(-2.0 * A):g}")
        if y is not None and eta is not None and not y >= 1.0 / eta:
            warnings.append(
                f"y = {y:g} violates the regime condition y >= 1/eta = {1.0 / eta:g}")
        return warnings


def hperp_count(A: float, iv: IntervalParams) -> int:
    """floor(2 pi e^A a^-3 e^(mu a)): particle count of the reference profile."""
    return int(math.floor(2.0 * math.pi * math.exp(A) * iv.a ** -3.0
                          * math.exp(iv.mu * iv.a)))


_UNIT_LEFT = ConstantDrift(-1.0)


@dataclass(frozen=True)
class BreakoutOutcome:
    """One fugitive trial, reported in lab coordinates.

    stopped_line holds (label, absolute freeze time, lab position) per frozen
    particle; alive holds lineages cut off at the local-time cap zeta.
    """

    stopped_line: tuple[tuple[tuple[int, ...], float, float], ...]
    n_frozen: int
    Z: float
    Y: float
    W_y: float
    sigma_max: float
    hit_zeta: bool
    is_breakout: bool
    alive: tuple[tuple[tuple[int, ...], float], ...]


def breakout_trial(law: ReproductionLaw, A: float, epsilon: float, y: float,
                   zeta: float, iv: IntervalParams, *, dt: float,
                   rng: np.random.Generator, start_time: float = 0.0,
                   zeta_breakout: bool = True,
                   max_segments: int = 20_000_000) -> BreakoutOutcome:
    """Run one fugitive trial from height y above the stopping line.

    In line coordinates the offspring of the boundary hit drift at -1 and
    freeze where they touch the line, which rises at 1 - mu in the lab
    frame from a - y; a frozen particle at local time s therefore sits at
    lab position a - y + (1 - mu) s.  The trial is cut at local time zeta.
    A breakout is a trial whose frozen weight Z exceeds epsilon e^A or
    (with zeta_breakout, the default) that still has a running lineage at
    zeta; the flag exists to measure how much that technical inclusion
    matters at desk scale.
    """
    if not y > 0.0:
        raise ValueError(f"trial height y must be > 0, got {y!r}")
    if not zeta > 0.0:
        raise ValueError(f"trial cap zeta must be > 0, got {zeta!r}")
    a, mu = iv.a, iv.mu
    pop = Population(0.0, [Particle((1,), float(y), 0.0)])
    events: list[Event] = []
    advance(pop, float(zeta), law=law, dt=dt, rng=rng, drift=_UNIT_LEFT,
            absorb_lower=0.0, events=events, max_segments=max_segments)

    frozen = [(ev.label, start_time + ev.time, a - y + (1.0 - mu) * ev.time)
              for ev in events if ev.kind == "absorb_lo"]
    sigma_max = max((ev.time for ev in events if ev.kind == "absorb_lo"),
                    default=0.0)
    hit_zeta = len(pop) > 0
    if hit_zeta:
        sigma_max = float(zeta)
    line_at_cap = a - y + (1.0 - mu) * zeta
    alive = tuple((p.label, p.position + line_at_cap) for p in pop.particles)

    lab = np.array([x for (_, _, x) in frozen], dtype=float)
    z_val = float(np.sum(w_Z(lab, iv))) if len(lab) else 0.0
    y_val = float(np.sum(w_Y(lab, iv))) if len(lab) else 0.0
    return BreakoutOutcome(
        stopped_line=tuple(frozen),
        n_frozen=len(frozen),
        Z=z_val,
        Y=y_val,
        W_y=y * math.exp(-y) * len(frozen),
        sigma_max=sigma_max,
        hit_zeta=hit_zeta,
        is_breakout=(z_val > epsilon * math.exp(A))
        or (zeta_breakout and hit_zeta),
        alive=alive,
    )
