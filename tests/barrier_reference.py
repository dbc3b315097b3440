"""Reference barrier runner: one replica at a time.

This is the per-replica `_barrier_run` that the batched barrier runner in
`nbbm.selection` replaced, kept as the reference lane for the barrier
bookkeeping: with one replica the batched runner must reproduce its series,
pieces, counters, colour statistics and final positions bit for bit, and
with several replicas its replica means must agree with independent runs of
this one.  Both step through `ensemble.step_segments`, whose draws are
checked on their own against the reference step in ensemble_reference.
Each call draws from its own stream rng_stream(seed, replica, barrier lane).

The batched runner draws a step's trials as one batch, so it matches this
runner bit for bit only on runs whose steps launch at most one trial each;
on the others it must agree in law.  `replica_moments` gives the moments
that comparison takes; run this file to print them for the test cases:

    PYTHONPATH=src python tests/barrier_reference.py
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from nbbm.engine import CapacityError, SimConfig, hperp_count, rng_stream
from nbbm.ensemble import breakout_trials, hperp_flat, step_segments
from nbbm.kernels import error_envelope_E, w_Y, w_Z
from nbbm.selection import (_BLUE, _LANE_BARRIER, _RED, _WHITE, BarrierPath,
                            BarrierResult, _require, _sharp_expire,
                            med_alpha)
from nbbm.stats import StatsSeries


def _barrier_run(cfg: SimConfig, mode: str, replica: int) -> BarrierResult:
    _require(cfg, "interval", "A", "epsilon", "y", "zeta")
    cfg.validate()
    iv, A, eps = cfg.interval, cfg.A, cfg.epsilon
    y, zeta, dt = cfg.y, cfg.zeta, cfg.dt
    a, mu = iv.a, iv.mu
    if not y < a:
        raise ValueError(f"y must be < a, got y = {y!r}, a = {a!r}")
    if not zeta < y / (1.0 - mu):
        raise ValueError(
            f"zeta = {zeta!r} lets the stopping line reach the wall; "
            f"need zeta < y / (1 - mu) = {y / (1.0 - mu):g}")

    coloured = mode in ("bflat", "bsharp", "csharp")
    sharp = mode in ("bsharp", "csharp")
    if coloured:
        _require(cfg, "delta_color")
    dc = cfg.delta_color if coloured else 0.0
    wall_count = 2.0 * math.pi / a ** 3 * math.exp(mu * a)
    n_flat = int(wall_count * math.exp(A + dc)) if mode == "bflat" else 0
    n_sharp = int(wall_count * math.exp(A - dc)) if sharp else 0
    if sharp:
        k_env = 1
        while error_envelope_E(float(k_env)) > dc / 10.0:
            k_env += 1
        sharp_period = (k_env + 3.0) * a ** 2
    else:
        sharp_period = math.inf

    horizon = cfg.horizon if cfg.horizon is not None \
        else 1.5 * math.exp(A) * a ** 2
    sample_steps = max(1, round((cfg.sample_every or horizon / 256.0) / dt))
    n_med = hperp_count(A, iv)
    max_pop = max(200_000, 100 * n_med)

    rng = rng_stream(cfg.seed, replica, _LANE_BARRIER)
    pos, _ = hperp_flat(A, iv, 1, rng)
    col = np.zeros(len(pos), dtype=np.int8)
    expy = np.full(len(pos), math.inf)

    path = BarrierPath(iv, A)
    pending: tuple[float, float] | None = None
    theta_queue: list[tuple[float, int]] = []
    reinject: list[tuple[float, int, float, int, float, int]] = []
    seq = 0
    pieces: list[dict] = []
    stats = {"red_killed": 0, "blue_created": 0, "blue_killed": 0,
             "rewhitened": 0, "white_killed_at_origin": 0}
    trials_run = suppressed = clamped = reinjected = wall_hits = 0
    depth_capped = 0

    times = [0.0]
    rows: dict[str, list[float]] = {k: [] for k in
                                    ("count", "Z", "Y", "R_cum", "barrier_shift")}
    med_rows: dict[float, list[float]] = {al: [] for al in cfg.alphas}
    if mode == "bflat":
        rows["count_white"] = []
    if sharp:
        rows["count_blue"] = []

    def measure_positions(p, c):
        return p[c == _WHITE] if mode == "bflat" else p

    def record(t_now, p, c):
        rows["count"].append(float(len(p)))
        rows["Z"].append(float(np.sum(w_Z(p, iv))))
        rows["Y"].append(float(np.sum(w_Y(p, iv))))
        rows["R_cum"].append(float(wall_hits))
        rows["barrier_shift"].append(path.shift(t_now))
        if mode == "bflat":
            rows["count_white"].append(float(np.sum(c == _WHITE)))
        if sharp:
            rows["count_blue"].append(float(np.sum(c == _BLUE)))
        for al in cfg.alphas:
            med_rows[al].append(med_alpha(measure_positions(p, c), al, n_med))

    record(0.0, pos, col)

    n_steps = int(math.ceil(horizon / dt - 1e-9))
    for i in range(n_steps):
        t0 = i * dt
        h = min(dt, horizon - t0)
        t1 = t0 + h
        drift_rate = -mu - (path.shift(t1) - path.shift(t0)) / h

        def launch_trial(t_hit: float, c_hit: int, e_hit: float,
                         depth: int = 1) -> None:
            nonlocal trials_run, suppressed, pending, seq
            trials_run += 1
            batch = breakout_trials(cfg.law, iv, A, eps, y, zeta,
                                    n_trials=1, dt=dt, rng=rng,
                                    collect_line=True,
                                    zeta_breakout=cfg.zeta_breakout)
            for s_f, x_f in zip(batch.frozen_time, batch.frozen_pos):
                heapq.heappush(reinject, (t_hit + float(s_f), seq,
                                          float(x_f), c_hit, e_hit, depth))
                seq += 1
            for x_f in batch.alive_pos:
                heapq.heappush(reinject, (t_hit + zeta, seq, float(x_f),
                                          c_hit, e_hit, depth))
                seq += 1
            if bool(batch.is_breakout[0]):
                if pending is not None or t_hit < path.pieces[-1].t_start:
                    suppressed += 1
                else:
                    pending = (t_hit, t_hit + float(batch.sigma_max[0]))

        pos, _, (col, expy), origin, upper, _ = step_segments(
            pos, np.zeros(len(pos), dtype=np.int64), (col, expy), t0=t0,
            h=h, drift=drift_rate, law=cfg.law, rng=rng, upper=a,
            origin_ignores=col == _BLUE if sharp else None)
        hits_upper = [hit for t_hit, _, c_hit, e_hit in upper
                      for hit in zip(t_hit.tolist(), c_hit.tolist(),
                                     e_hit.tolist())]
        hits_origin = [t for t_hit, *_ in origin for t in t_hit.tolist()]

        # fugitive trials for this step's wall hits, in hit-time order
        hits_upper.sort()
        for t_hit, c_hit, e_hit in hits_upper:
            wall_hits += 1
            launch_trial(t_hit, c_hit, e_hit)

        # step-end housekeeping; each block sees the previous one's output
        add_pos, add_col, add_expy = [], [], []
        while reinject and reinject[0][0] <= t1 + 1e-9:
            t_in, _, x_in, c_in, e_in, d_in = heapq.heappop(reinject)
            if sharp and c_in == _BLUE and e_in <= t1:
                if x_in < 0.0:
                    stats["blue_killed"] += 1
                    continue
                c_in, e_in = _WHITE, math.inf
                stats["rewhitened"] += 1
            if x_in >= a:
                # a lineage frozen beyond the wall counts as a fresh hit,
                # but trials within trials stop nesting past depth 3
                if d_in >= 3:
                    depth_capped += 1
                    continue
                wall_hits += 1
                launch_trial(max(t_in, t0), c_in, e_in, d_in + 1)
                continue
            reinjected += 1
            add_pos.append(x_in)
            add_col.append(c_in)
            add_expy.append(e_in)
        if add_pos:
            pos = np.concatenate([pos, add_pos])
            col = np.concatenate([col, np.asarray(add_col, dtype=np.int8)])
            expy = np.concatenate([expy, add_expy])

        if sharp and hits_origin:
            n_right = int(np.sum(pos > 0.0))
            for t_hit in sorted(hits_origin):
                if n_right < n_sharp:
                    cell = math.floor(t_hit / sharp_period)
                    pos = np.append(pos, 0.0)
                    col = np.append(col, np.int8(_BLUE))
                    expy = np.append(expy, (cell + 2.0) * sharp_period)
                    stats["blue_created"] += 1
                else:
                    stats["white_killed_at_origin"] += 1

        if sharp:
            pos, col, expy = _sharp_expire(pos, col, expy, t1, n_sharp,
                                           mode == "csharp", stats)

        if pending is not None and pending[1] <= t1 + 1e-9:
            t_break, t_plus = pending
            z_now = float(np.sum(w_Z(pos, iv)))
            delta_raw = math.log(z_now) - A if z_now > 0.0 else -math.inf
            delta = max(delta_raw, -1.0 + 1e-9)
            if delta != delta_raw:
                clamped += 1
            theta = path.install(t_break, t_plus, delta)
            theta_queue.append((theta, len(pieces)))
            pieces.append({"T": t_break, "T_plus": t_plus, "Z": z_now,
                           "delta_raw": delta_raw, "delta": delta,
                           "theta": theta})
            pending = None

        while theta_queue and theta_queue[0][0] <= t1 + 1e-9:
            _, piece_idx = theta_queue.pop(0)
            # diagnostic only: whether the strip below the wall and the
            # trial pipeline had really cleared by the freeze time
            n_strip = int(np.sum(pos > a - y))
            pieces[piece_idx]["in_between_at_theta"] = n_strip
            pieces[piece_idx]["outstanding_at_theta"] = len(reinject)
            pieces[piece_idx]["clear_at_theta"] = (
                n_strip == 0 and not reinject)
            if mode == "bflat":
                reds = col == _RED
                stats["red_killed"] += int(reds.sum())
                pos, col, expy = pos[~reds], col[~reds], expy[~reds]
            if sharp:
                pos, col, expy = _sharp_expire(pos, col, expy, math.inf,
                                               n_sharp, mode == "csharp",
                                               stats)

        if mode == "bflat":
            whites = col == _WHITE
            n_white = int(whites.sum())
            if n_white > n_flat:
                wpos = pos[whites]
                srt = np.sort(wpos)
                right = n_white - np.searchsorted(srt, wpos, side="right")
                flip = np.zeros(len(pos), dtype=bool)
                flip[np.nonzero(whites)[0][right >= n_flat]] = True
                col = np.where(flip, _RED, col).astype(np.int8)

        if len(pos) > max_pop:
            raise CapacityError(
                f"population {len(pos)} exceeds the cap {max_pop}")
        if (i + 1) % sample_steps == 0 or i == n_steps - 1:
            times.append(t1)
            record(t1, pos, col)

    columns = {k: np.asarray(v) for k, v in rows.items()}
    for al in cfg.alphas:
        columns[f"med_{al:g}"] = np.asarray(med_rows[al])
    series = StatsSeries(np.asarray(times), columns, replica=replica,
                         meta={"mode": mode, "n_med": n_med})
    colour_stats = dict(stats)
    if mode == "bflat":
        colour_stats["n_flat"] = n_flat
    if sharp:
        colour_stats["n_sharp"] = n_sharp
        colour_stats["period"] = sharp_period
    return BarrierResult(series=series, path=path, pieces=pieces, mode=mode,
                         trials_run=trials_run,
                         suppressed_breakouts=suppressed,
                         clamped_responses=clamped, reinjected=reinjected,
                         wall_hits=wall_hits, depth_capped=depth_capped,
                         colour_stats=colour_stats,
                         final_positions=pos)


# the final statistics the law-level comparison takes
FINAL_STATS = ("count", "Z", "wall_hits", "reinjected")


def final_stats(res: BarrierResult) -> tuple[float, ...]:
    """FINAL_STATS of one replica's result."""
    cols = res.series.columns
    return (float(cols["count"][-1]), float(cols["Z"][-1]),
            float(res.wall_hits), float(res.reinjected))


def replica_moments(cfg: SimConfig, mode: str,
                    replicas) -> dict[str, tuple[float, float]]:
    """Mean and variance (ddof 1) of each of FINAL_STATS over reference
    runs of the given replicas."""
    x = np.array([final_stats(_barrier_run(cfg, mode, r)) for r in replicas])
    return {name: (float(m), float(v)) for name, m, v in
            zip(FINAL_STATS, x.mean(axis=0), x.var(axis=0, ddof=1))}


if __name__ == "__main__":
    from nbbm.engine import ReproductionLaw
    from test_selection import IN_LAW, REFERENCE_CASES, REFERENCE_REPLICAS

    print("REFERENCE_MOMENTS = {")
    for i in IN_LAW:
        mode, kw = REFERENCE_CASES[i]
        moments = replica_moments(SimConfig(ReproductionLaw.binary(), **kw),
                                  mode, REFERENCE_REPLICAS)
        print(f'    "{mode}-kw{i}": {{')
        for name, (m, v) in moments.items():
            print(f'        "{name}": ({m!r}, {v!r}),')
        print("    },")
    print("}")
