"""Reference coupled runner on dicts and genealogical labels.

This is the dict-based `run_coupled` that `nbbm.selection.run_coupled`
replaced with flat arrays, kept unchanged as the reference lane: the
cross-lane tests require the array runner to reproduce its events, checks
and final positions bit for bit.  Every particle carries a genealogical
label, and (position, label, id) breaks ties; the array runner uses the
order of its plus-aligned slots instead, which agrees with label order
wherever a tie can occur: between siblings born in the current event.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from nbbm.engine import ReproductionLaw, rng_stream, sample_offspring
from nbbm.kernels import sine_exp_density
from nbbm.levy import recentering
from nbbm.selection import _LANE_COUPLED, CoupledResult, CouplingError


def run_coupled_dicts(law: ReproductionLaw, n_select: int, *, horizon: float,
                      seed: int = 0, replica: int = 0, slack: int = 0,
                      extra: int = 0, init_positions=None,
                      inject_fault: bool = False) -> CoupledResult:
    """Drive three selection systems on shared noise and verify domination.

    The plus system trims to n_select + slack only when it exceeds that,
    the mid system applies the exact keep-n_select rule, and the minus
    system over-culls to n_select - extra whenever it exceeds n_select.
    Mid particles ride plus particles through an injective pairing at
    nonnegative offset (and minus particles ride mid ones), so each lower
    system is a shifted-left subset of the one above: domination holds by
    construction and is re-verified after every event, as are injectivity
    and the offset signs.  Kills in an upper system re-pair the orphaned
    lower particle with the nearest free carrier weakly to its right; the
    coupling argument guarantees one exists, and a CouplingError reports
    any violation.

    With slack = extra = 0 the three systems coincide sample-path-wise.
    Event-driven and exact: no time discretisation enters.
    """
    if n_select < 2:
        raise ValueError(f"n_select must be >= 2, got {n_select!r}")
    if slack < 0 or extra < 0 or extra > n_select - 1:
        raise ValueError(f"need slack >= 0 and 0 <= extra <= n_select - 1, "
                         f"got slack = {slack!r}, extra = {extra!r}")
    rng = rng_stream(seed, replica, _LANE_COUPLED)
    if init_positions is None:
        a0 = recentering(n_select).a_N if n_select >= 16 \
            else max(math.pi, math.log(n_select) + 1.0)
        init_positions = sine_exp_density(a0, 1.0).sample(n_select, rng)
    init_positions = np.asarray(init_positions, dtype=float)
    if len(init_positions) != n_select:
        raise ValueError("init_positions must hold exactly n_select values")

    # plus: pid -> [position, label]; mid: uid -> [pid, offset, label];
    # minus: wid -> [uid, offset, label].  Lower positions derive from the
    # carrier minus the offset, so paired particles share increments.
    plus: dict[int, list] = {}
    mid: dict[int, list] = {}
    minus: dict[int, list] = {}
    phi_inv: dict[int, int] = {}
    psi_inv: dict[int, int] = {}
    next_id = 0
    for i, x in enumerate(init_positions):
        pid, uid, wid = next_id, next_id + 1, next_id + 2
        next_id += 3
        label = (i,)
        plus[pid] = [float(x), label]
        mid[uid] = [pid, 0.0, label]
        minus[wid] = [uid, 0.0, label]
        phi_inv[pid] = uid
        psi_inv[uid] = wid

    def mid_pos(uid: int) -> float:
        ent = mid[uid]
        return plus[ent[0]][0] - ent[1]

    def minus_pos(wid: int) -> float:
        ent = minus[wid]
        return mid_pos(ent[0]) - ent[1]

    def check_invariants() -> None:
        if len(phi_inv) != len(mid) or \
                any(phi_inv.get(ent[0]) != u for u, ent in mid.items()):
            raise CouplingError("mid-to-plus pairing lost injectivity")
        if len(psi_inv) != len(minus) or \
                any(psi_inv.get(ent[0]) != w for w, ent in minus.items()):
            raise CouplingError("minus-to-mid pairing lost injectivity")
        nm, nw = len(mid), len(minus)
        try:
            p = np.fromiter((ent[0] for ent in plus.values()), float,
                            len(plus))
            mc = np.fromiter((plus[ent[0]][0] for ent in mid.values()),
                             float, nm)
            mo = np.fromiter((ent[1] for ent in mid.values()), float, nm)
            wc = np.fromiter(
                (plus[mid[ent[0]][0]][0] - mid[ent[0]][1]
                 for ent in minus.values()), float, nw)
            wo = np.fromiter((ent[1] for ent in minus.values()), float, nw)
        except KeyError:
            raise CouplingError("pairing points at a dead carrier") from None
        if min(mo.min(initial=0.0), wo.min(initial=0.0)) < -1e-12:
            raise CouplingError("negative pairing offset")
        m = mc - mo
        w = wc - wo
        p.sort()
        m.sort()
        w.sort()
        if len(p) < nm or not np.all(p[len(p) - nm:] >= m - 1e-12):
            raise CouplingError("domination order violated (plus vs mid)")
        if nm < nw or not np.all(m[nm - nw:] >= w - 1e-12):
            raise CouplingError("domination order violated (mid vs minus)")

    def rewire_mid(uid: int, x: float) -> None:
        """Re-pair an orphaned mid at position x with the leftmost free plus
        weakly to its right."""
        best = None
        for pid, ent in plus.items():
            if pid not in phi_inv and ent[0] >= x - 1e-12 and \
                    (best is None or (ent[0], ent[1]) < best[:2]):
                best = (ent[0], ent[1], pid)
        if best is None:
            raise CouplingError(
                "no free plus carrier weakly right of an orphaned mid")
        mid[uid][0] = best[2]
        mid[uid][1] = best[0] - x
        phi_inv[best[2]] = uid

    def rewire_minus(wid: int, x: float) -> None:
        """Re-pair an orphaned minus at position x with the leftmost free mid
        weakly to its right."""
        best = None
        for u, ent in mid.items():
            if u not in psi_inv:
                ux = plus[ent[0]][0] - ent[1]
                if ux >= x - 1e-12 and \
                        (best is None or (ux, ent[2]) < best[:2]):
                    best = (ux, ent[2], u)
        if best is None:
            raise CouplingError(
                "no free mid carrier weakly right of an orphaned minus")
        minus[wid][0] = best[2]
        minus[wid][1] = best[0] - x
        psi_inv[best[2]] = wid

    t = 0.0
    events = checks = 0
    beta0 = law.beta0
    fault_done = not inject_fault
    ids_cache = sorted(plus)

    while True:
        n = len(plus)
        if n == 0:
            break
        wait = rng.exponential(1.0 / (beta0 * n))
        step = min(wait, horizon - t)
        if step > 0.0:
            moved = np.fromiter((plus[p][0] for p in ids_cache), float, n)
            moved += rng.normal(0.0, math.sqrt(step), n)
            for pid, x in zip(ids_cache, moved.tolist()):
                plus[pid][0] = x
        t += step
        if wait >= horizon - (t - step):
            break
        events += 1

        if not fault_done and t >= horizon / 2.0:
            fault_done = True
            mid[min(mid)][1] = -0.5

        # branching cascade: the chosen plus particle and its riders branch
        # together with a common offspring count
        victim = ids_cache[int(rng.integers(n))]
        k = int(sample_offspring(law, 1, rng)[0])
        vx, vlabel = plus.pop(victim)
        child_pids = []
        for j in range(k):
            plus[next_id] = [vx, vlabel + (j,)]
            child_pids.append(next_id)
            next_id += 1
        uid = phi_inv.pop(victim, None)
        if uid is not None:
            pid_of, off, ulabel = mid.pop(uid)
            child_uids = []
            for j in range(k):
                mid[next_id] = [child_pids[j], off, ulabel + (j,)]
                phi_inv[child_pids[j]] = next_id
                child_uids.append(next_id)
                next_id += 1
            wid = psi_inv.pop(uid, None)
            if wid is not None:
                uid_of, off2, wlabel = minus.pop(wid)
                for j in range(k):
                    minus[next_id] = [child_uids[j], off2, wlabel + (j,)]
                    psi_inv[child_uids[j]] = next_id
                    next_id += 1

        # kill rules, lowest system first
        if len(minus) > n_select:
            doomed = heapq.nsmallest(
                len(minus) - (n_select - extra),
                ((minus_pos(w), minus[w][2], w) for w in minus))
            for _, _, wid in doomed:
                uid_of = minus.pop(wid)[0]
                del psi_inv[uid_of]

        while len(mid) > n_select:
            _, _, u_kill = min((plus[ent[0]][0] - ent[1], ent[2], u)
                               for u, ent in mid.items())
            wid = psi_inv.pop(u_kill, None)
            orphan_x = minus_pos(wid) if wid is not None else 0.0
            pid_of = mid.pop(u_kill)[0]
            del phi_inv[pid_of]
            if wid is not None:
                rewire_minus(wid, orphan_x)

        if len(plus) > n_select + slack:
            victims = heapq.nsmallest(
                len(plus) - (n_select + slack),
                ((ent[0], ent[1], pid) for pid, ent in plus.items()))
            orphans = []
            for _, _, pid in victims:
                u = phi_inv.pop(pid, None)
                if u is not None:
                    orphans.append((mid_pos(u), u))
                del plus[pid]
            for x, u in sorted(orphans, reverse=True):
                rewire_mid(u, x)

        ids_cache = sorted(plus)
        check_invariants()
        checks += 1

    final_plus = np.sort([ent[0] for ent in plus.values()])[::-1]
    final_mid = np.sort([mid_pos(u) for u in mid])[::-1]
    final_minus = np.sort([minus_pos(w) for w in minus])[::-1]
    return CoupledResult(events=events, checks=checks, horizon=horizon,
                         n_select=n_select, slack=slack, extra=extra,
                         final_plus=final_plus, final_mid=final_mid,
                         final_minus=final_minus)
