"""Reference segment step: `nbbm.ensemble.step_segments` as it stood before
its draws were cut to what each segment uses.

This step draws an exponential branch clock, a Gaussian move and one
uniform per wall for every particle of every segment, and evaluates the
bridge probability of every particle.  It was bit-identical to the separate
killed-ensemble, trial and barrier loops it replaced.  The library's step
draws less and in another order, so the two agree in law only: the tests
compare hit counts, branch counts and the laws of positions and hit times
after one step, and the killed ensemble and the trials run on each step.
"""

from __future__ import annotations

import math

import numpy as np

from nbbm.engine import ReproductionLaw, sample_offspring


def bridge_hit_prob(x1, x2, seg, wall):
    """P(a Brownian bridge from x1 to x2 over `seg` touches `wall`), elementwise.

    exp(-2 (x1 - wall)(x2 - wall) / seg), which is 1 whenever the endpoints
    straddle the wall; exact for a single wall, so absorption against one
    wall preserves the killed kernel at any step size.  exp is evaluated
    only where the exponent is above -746: below that it is exactly 0.0,
    and numpy's slow underflow path for it costs most of the call when most
    particles sit far from the wall.
    """
    e = -2.0 * (x1 - wall) * (x2 - wall) / seg
    p = np.zeros(np.shape(e))
    # the min folds the sure-hit case (exponent >= 0) into the same formula
    return np.exp(np.minimum(e, 0.0), out=p, where=e > -746.0)


def step_segments(pos, tag, payload=(), *, t0: float, h: float, drift,
                  law: ReproductionLaw, rng: np.random.Generator,
                  upper: float | None = None, origin_ignores=None):
    """Advance tagged particles exactly through the step [t0, t0 + h].

    Each particle moves with drift `drift` (a scalar, or an array indexed by
    tag) between the exponential branching clocks of its line, and leaves at
    the first wall its Brownian bridge touches: the origin, unless
    origin_ignores (a mask over the input particles) marks it, or `upper`
    when given.  The walls are tested one after the other with their
    one-sided bridge probabilities, and an origin hit is never also an upper
    hit; this misplaces only paths that touch both walls in one segment
    (probability of order exp(-2 upper^2 / h)).  A hit is placed at the end
    of its segment.  A branching particle's children start at its branch point with the rest
    of its step; they inherit its tag and payload (a tuple of arrays aligned
    with pos) and whether the origin ignores it.  Each loop over the current
    segments draws, in order, the clocks, the Gaussian moves, the origin
    uniforms, the upper uniforms when there is an upper wall, and the
    offspring counts of the branching particles.

    Returns the survivors' (pos, tag, payload), the origin and upper hits as
    lists of per-loop chunks (time, tag, *payload), and the number of
    segments processed.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step length h must be positive and finite, got {h!r}")
    carry = [tag, *payload]
    if origin_ignores is not None:
        carry.append(origin_ignores)
    n_out = 1 + len(payload)
    out = [[pos[:0], *(c[:0] for c in carry[:n_out])]]
    lower, upper_hits = [], []
    rem = np.full(len(pos), h)
    scale = 1.0 / law.beta0
    per_tag = isinstance(drift, np.ndarray)
    segments = 0
    while len(pos):
        n = len(pos)
        segments += n
        tb = rng.exponential(scale, n)
        seg = np.minimum(tb, rem)
        mean = drift[carry[0]] * seg if per_tag else drift * seg
        x2 = pos + mean + rng.standard_normal(n) * np.sqrt(seg)
        # Both probabilities come before the uniforms: building them around
        # a freshly drawn uniform array cost a third more page faults and
        # about 7% more CPU in the killed ensemble at 33k particles.
        p_lo = bridge_hit_prob(pos, x2, seg, 0.0)
        if upper is not None:
            p_hi = bridge_hit_prob(pos, x2, seg, upper)
        hit_lo = rng.random(n) < p_lo
        if origin_ignores is not None:
            hit_lo &= ~carry[-1]
        live, hit_hi = ~hit_lo, None
        if upper is not None:
            hit_hi = live & (rng.random(n) < p_hi)
            live &= ~hit_hi
        for hit, chunks in ((hit_lo, lower), (hit_hi, upper_hits)):
            if hit is not None and len(idx := hit.nonzero()[0]):
                chunks.append((t0 + (h - rem[idx]) + seg[idx],
                               *(c[idx] for c in carry[:n_out])))
        done = live & (tb >= rem)
        out.append([x2[done], *(c[done] for c in carry[:n_out])])
        cont = live & ~done
        n_br = np.count_nonzero(cont)
        if n_br == 0:
            break
        ks = sample_offspring(law, n_br, rng)
        pos = np.repeat(x2[cont], ks)
        carry = [np.repeat(c[cont], ks) for c in carry]
        rem = np.repeat(rem[cont] - tb[cont], ks)
    pos, tag, *payload = (np.concatenate(x) for x in zip(*out))
    return pos, tag, tuple(payload), lower, upper_hits, segments
