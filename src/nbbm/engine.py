"""Model and run definitions shared by every lane.

The offspring law and its inverse-CDF sampler, the SFC64 random streams
seeded from (seed, replica, lane), the run configuration with its
validation and regime warnings, the particle count of the reference
profile, and the error a run raises when it exceeds its particle budget.
Stepping lives in `ensemble.step_segments` and N-BBM's in `run_nbbm`.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily: here, not on the first draw

from .kernels import IntervalParams

__all__ = [
    "CapacityError",
    "rng_stream",
    "ReproductionLaw",
    "sample_offspring",
    "SimConfig",
    "REQUIRED_FIELDS",
    "hperp_count",
]


class CapacityError(RuntimeError):
    """A run exceeded its particle budget.

    Raised when a killed ensemble or a batch of breakout trials uses up its
    segment budget (`max_segments`), and when a barrier run's population
    passes its cap (`BarrierResult.max_pop`) at a step end.
    """


def rng_stream(seed: int, replica: int = 0, lane: int = 0) -> np.random.Generator:
    """SFC64 generator seeded from (seed, replica, lane).

    The triple is packed into four fixed-width 32-bit words, the low and
    high halves of seed mod 2^64 and of (replica << 20) | lane, and hashed
    by `SeedSequence` into the SFC64 state.  Fixed width makes the packing
    one-to-one: SeedSequence splits each int into as many words as it needs
    and zero-pads short input, so a plain [seed, replica, lane] would give
    (0, 1, 5) and (2^32, 5, 0) the same stream.  Distinct triples give
    statistically independent streams, and the stream depends only on the
    triple, never on the order in which replicas run or on what else ran
    before, so reruns of an experiment consume identical randomness.
    """
    seed = int(seed)
    replica = int(replica)
    lane = int(lane)
    if not 0 <= replica < 2 ** 40:
        raise ValueError(f"replica must lie in [0, 2^40), got {replica!r}")
    if not 0 <= lane < 2 ** 20:
        raise ValueError(f"lane must lie in [0, 2^20), got {lane!r}")
    seed &= 0xFFFFFFFFFFFFFFFF
    key = (replica << 20) | lane
    words = np.array([seed & 0xFFFFFFFF, seed >> 32, key & 0xFFFFFFFF,
                      key >> 32], dtype=np.uint32)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))


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
        # inverse-CDF table for sample_offspring, as an array and as floats
        # for its one-draw path; not fields, so equality, hashing and repr
        # see only the probabilities
        cdf = np.cumsum(q)
        cdf.flags.writeable = False
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_cdf_floats", tuple(cdf.tolist()))

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
    """Offspring counts by inverse-CDF lookup.

    A count past the table's end (a uniform at or above a last CDF entry
    that rounds below 1) is clamped to the largest count.  size = 1 draws
    one `rng.random()` and bisects the table, which skips the array
    overhead and gives the array path's count from the same uniform.
    """
    k_max = len(law.probabilities) - 1
    if size == 1:
        k = bisect.bisect_right(law._cdf_floats, rng.random())
        return np.array((min(k, k_max),), dtype=np.int64)
    k = np.searchsorted(law._cdf, rng.random(int(size)), side="right")
    return np.minimum(k, k_max).astype(np.int64)


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
    y: float | None = None
    zeta: float | None = None
    delta_color: float | None = None
    sample_every: float | None = None
    zeta_breakout: bool = True

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
        names = [f"med_{al:g}" for al in self.alphas]  # series columns
        if len(set(names)) < len(names):
            raise ValueError(f"alphas {self.alphas!r} name one series "
                             f"column twice: {', '.join(names)}")
        if self.n_select is not None and self.n_select < 1:
            raise ValueError(f"n_select must be >= 1, got {self.n_select!r}")
        # these feed exp() and particle counts, so they must be finite too
        for name in ("A", "epsilon", "y", "zeta", "delta_color"):
            val = getattr(self, name)
            if val is not None and not 0.0 < val < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {val!r}")

        warnings: list[str] = []
        every = self.sample_every
        if every is not None:  # then the horizon does not set the cadence
            steps = self.steps(every)[1]
            if abs(every - steps * self.dt) > 1e-9 * max(1.0, every):
                warnings.append(
                    f"sample_every = {every:g} is not a whole number of "
                    f"steps of dt = {self.dt:g}; series are recorded every "
                    f"{steps} step(s), every {steps * self.dt:g}")
        A, eps = self.A, self.epsilon
        if A is not None and eps is not None:
            if not eps <= A ** -17:
                warnings.append(
                    f"epsilon = {eps:g} violates the regime condition "
                    f"epsilon <= A^-17 = {A ** -17:g}")
            if not eps >= math.exp(-A / 6.0):
                warnings.append(
                    f"epsilon = {eps:g} violates the regime condition "
                    f"epsilon >= e^(-A/6) = {math.exp(-A / 6.0):g}")
        return warnings

    def steps(self, horizon: float) -> tuple[int, int]:
        """The runners' number of steps of dt to `horizon`, and how many
        steps apart they record: max(1, round(sample_every / dt)), with
        sample_every = horizon / 256 when unset."""
        every = self.sample_every or horizon / 256.0
        return (int(math.ceil(horizon / self.dt - 1e-9)),
                max(1, round(every / self.dt)))


# the SimConfig fields without which each mode cannot run, in the order of
# the modes the CLI offers
_BARRIER_FIELDS = ("interval", "A", "epsilon", "y", "zeta")
REQUIRED_FIELDS = {
    "nbbm": ("n_select",),
    "bbbm": _BARRIER_FIELDS,
    **dict.fromkeys(("bflat", "bsharp", "csharp"),
                    _BARRIER_FIELDS + ("delta_color",)),
    "coupled": ("n_select", "horizon"),
}


def hperp_count(A: float, iv: IntervalParams) -> int:
    """floor(2 pi e^A a^-3 e^(mu a)): particle count of the reference profile.

    Raises ValueError, naming A and a, where the count passes the largest
    double.
    """
    try:
        return int(math.floor(2.0 * math.pi * math.exp(A) * iv.a ** -3.0
                              * math.exp(iv.mu * iv.a)))
    except OverflowError:
        raise ValueError(f"the profile count 2 pi e^A a^-3 e^(mu a) "
                         f"overflows at A = {A!r}, a = {iv.a!r}") from None

