"""A catalogue of mutants of the nbbm sources, each beside the tests that
should catch it.  pytest does not collect this file; run it as

    python tests/mutants.py [NAME ...]

For each entry, all of them or the ones named, the script copies src/ to a
temporary directory and there replaces the entry's old text, which must
occur exactly once in its file, by its new text.  It then runs each test
the entry names on the copy, one pytest process after another, and prints
caught (the test failed) or survived, with the wall time.  It stops before
running anything if an anchor does not match exactly once, and exits
nonzero if a named test survived or could not run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo root


_SEL = "nbbm/selection.py"
_T = "tests/test_selection.py::"
_TIED = _T + "test_coupled_matches_the_dict_reference_on_tied_lower_siblings"
_EDGE = _T + "test_check_coupling_at_the_certificates_edge"
_SORTED = _T + "test_check_coupling_agrees_with_the_sorted_rule"
_CORRUPT = _T + "test_check_coupling_rejects_each_corruption"
_NAN_ORPHAN = _T + "test_check_coupling_rejects_a_nan_mid_and_an_orphan_minus"
_BENCH = _T + "test_coupled_matches_the_dict_reference_at_benchmark_size"
_ONE = _T + "test_barrier_batch_matches_the_reference_at_one_replica"
_SPEED = _T + "test_nbbm_speed_agrees_with_the_reference_lane"
_BINOMIAL = _T + "test_nbbm_block_branchings_are_binomial"
_LAST = _T + "test_nbbm_last_step_ends_at_the_horizon"
_LEVY, _KER = "nbbm/levy.py", "nbbm/kernels.py"
_MPMATH = "tests/test_levy.py::test_digamma_and_kappa_match_mpmath"
_TK = "tests/test_kernels.py::"
_ADAPTIVE = _TK + "test_I_integral_matches_adaptive_quadrature"
_ARRAY = _TK + "test_kernels_take_an_array_of_times"
_CLOSED_FORM = _TK + "test_expected_hits_match_I_integral"
_JOINT = _TK + "test_joint_weights_equal_the_separate_ones_bit_for_bit"
_ENS, _TE = "nbbm/ensemble.py", "tests/test_ensemble.py::"
_POOLED = _TE + "test_pooled_trials_agree_in_law_with_stand_alone_trials"
_TIMED = _TE + "test_pool_times_each_trial_once"
_ON_GRID = 'on_grid = tr["stepped"] | (np.abs(launch - t0) <= 1e-9)'
_NESTED = _T + "test_barrier_batch_agrees_in_law_with_the_reference[bbbm-kw2]"
_NEG_BINOMIAL = _TE + "test_one_step_line_counts_are_negative_binomial"
_SLOTS = _T + "test_branch_slots_are_independent_bernoulli_trials"
_CONSISTENT = _T + "test_barrier_batch_keeps_each_replica_consistent"

CATALOGUE = [
    # run_coupled on plus-aligned slots
    Mutant("mid-cull-tie-last-first", _SEL,
           "u = int(m_x.argmin())",
           "u = n_p - 1 - int(m_x[::-1].argmin())",
           (_TIED + "[mid-cull-binary]", _TIED + "[mid-cull-mixed]")),
    Mutant("minus-cull-tie-last-first", _SEL,
           "j = int(w_x.argmin())",
           "j = n_p - 1 - int(w_x[::-1].argmin())",
           (_TIED + "[minus-cull-binary]", _TIED + "[minus-cull-mixed]")),
    Mutant("minus-orphan-tie-last-first", _SEL,
           'b = _leftmost_free(m_x, WO[:n_p] > none, orphan_x, "mid")',
           "b = n_p - 1 - _leftmost_free(m_x[::-1], WO[:n_p][::-1] > none,"
           ' orphan_x, "mid")',
           (_TIED + "[minus-orphan-binary]", _TIED + "[minus-orphan-mixed]")),
    Mutant("re-paired-mid-leaves-its-minus", _SEL,
           "MO[b], WO[b] = p_x[b] - orphan_x, wo",
           "MO[b] = p_x[b] - orphan_x",
           (_BENCH,)),
    Mutant("death-keeps-its-riders", _SEL,
           "n_p = _branch(S, n_p, v, k)",
           "n_p = _branch(S, n_p, v, k) if k else _branch(S[:1], n_p, v, k)",
           (_T + "test_coupled_runs_that_die_out_match_the_dict_reference",)),
    Mutant("n_m-not-updated-on-a-branch", _SEL,
           "n_m += k - 1",
           "pass",
           (_T + "test_coupled_matches_the_dict_reference",
            "tests/test_cli.py::test_couple_verifies_dominance")),
    # check_coupling
    Mutant("certificate-offset-guard-loosened", _SEL,
           "np.count_nonzero(m_off >= 0.0) == np.count_nonzero(m_live)\n"
           "            and np.count_nonzero(w_off >= 0.0)",
           "np.count_nonzero(m_off >= -1e-12) == np.count_nonzero(m_live)\n"
           "            and np.count_nonzero(w_off >= -1e-12)",
           (_EDGE + "[minus-offset-minus-1e-12-rounds-over]", _SORTED)),
    Mutant("certificate-finiteness-guard-dropped", _SEL,
           "\n            and np.isfinite(p_x).all()):",
           "):",
           (_EDGE + "[plus-at-inf-carries-at-inf]", _CORRUPT, _SORTED)),
    Mutant("orphan-minus-guard-dropped", _SEL,
           "if np.count_nonzero(w_live > m_live):",
           "if False:",
           (_NAN_ORPHAN, _CORRUPT, _SORTED)),
    Mutant("liveness-written-greater-than", _SEL,
           "m_live, w_live = m_off != -np.inf, w_off != -np.inf",
           "m_live, w_live = m_off > -np.inf, w_off > -np.inf",
           (_NAN_ORPHAN, _CORRUPT, _SORTED)),
    # the barrier response starts where its breakout's trial ended
    Mutant("response-at-t-plus-zeta", _SEL,
           'st.pending = (t_k, t_k + float(dec["sigma_max"][k]))',
           "st.pending = (t_k, t_k + zeta)",
           (_T + "test_barrier_response_falls_where_its_trial_ends",)),
    # run_nbbm's block path
    Mutant("nbbm-branch-rate-1.2x", _SEL,
           "idx = _branch_slots(n_blk * size, law.beta0 * h, rng)",
           "idx = _branch_slots(n_blk * size, 1.2 * law.beta0 * h, rng)",
           (_BINOMIAL, _LAST, _SPEED + "[binary_law]",
            _SPEED + "[mixed_law]")),
    Mutant("nbbm-last-step-full-length", _SEL,
           "h = dt if stop < n_steps else horizon - start * dt",
           "h = dt",
           (_BINOMIAL, _LAST)),
    Mutant("nbbm-extras-not-padded", _SEL,
           "buf[1:, cap - wide1:cap] = -math.inf",
           "pass",
           (_SPEED + "[mixed_law]",)),
    Mutant("nbbm-no-k0-deaths", _SEL,
           "flat[dead[dead_cuts[s]:dead_cuts[s + 1]]] = -math.inf",
           "pass",
           (_T + "test_nbbm_count_falls_below_n_under_deaths",
            _T + "test_nbbm_extinct_replica_stays_extinct",
            _SPEED + "[mixed_law]")),
    Mutant("nbbm-growth-sized-from-the-first-step", _SEL,
           "wide = int(per.max(initial=0))",
           "wide = int(per[:n_rep].max(initial=0))",
           (_T + "test_nbbm_heavy_offspring_widens_the_buffer",
            "tests/test_cli.py::test_simulate_nbbm_outputs")),
    # barrier colour thresholds
    Mutant("bflat-red-threshold-strict", _SEL,
           "[right >= n_flat]",
           "[right > n_flat]",
           (_ONE + "[bflat-kw10]",)),
    Mutant("bsharp-blue-threshold-inclusive", _SEL,
           "blue = n_right[r_lo] < n_sharp",
           "blue = n_right[r_lo] <= n_sharp",
           (_ONE + "[bsharp-kw11]",)),
    # report's series_mean.csv, one np.mean per cell
    Mutant("series-mean-along-the-replica-axis", "nbbm/cli.py",
           "np.mean(st[:, i])",
           "st.mean(axis=0)[i]",
           ("tests/test_cli.py::test_report_series_mean_is_the_mean_of_each_cell",)),
    # levy._digamma
    Mutant("digamma-b14-sign-flipped", _LEVY,
           "(1 / 12, -691 / 32760",
           "(-1 / 12, -691 / 32760",
           (_MPMATH,)),
    Mutant("digamma-half-reciprocal-sign-flipped", _LEVY,
           "np.log(x) - 0.5 * r - tail",
           "np.log(x) + 0.5 * r - tail",
           (_MPMATH,)),
    # kernels._gauss_legendre
    Mutant("quadrature-panels-uniform", _KER,
           "edges = lo + (hi - lo) * np.exp2(np.arange(-panels, 1.0))",
           "edges = np.linspace(lo, hi, panels + 1)",
           (_TK + "test_selfcheck_passes", _ADAPTIVE)),
    Mutant("I_integral-panels-not-refined-near-the-wall", _KER,
           "max(s0, (a - xs.max()) ** 2) / 16.0",
           "math.inf",
           (_ADAPTIVE,)),
    Mutant("I_integral-refined-for-the-position-farthest-from-the-wall", _KER,
           "(a - xs.max()) ** 2",
           "(a - xs.min()) ** 2",
           (_TK + "test_I_integral_takes_an_array_of_positions[S0]",)),
    # kernels._theta_series, the one evaluator of theta, theta' and their
    # scaled forms
    Mutant("scaled-exponent-left-at-n-squared", _KER,
           "lead = -_PI2 * (n * n - 1) if scaled else -_PI2 * n * n",
           "lead = -_PI2 * n * n",
           (_TK + "test_scaled_kernel_within_sine_envelope",
            _TK + "test_taboo_relaxes_to_sine_squared", _CLOSED_FORM)),
    Mutant("representation-switch-inverted", _KER,
           "spectral = t_arr >= REPRESENTATION_SWITCH_T",
           "spectral = t_arr < REPRESENTATION_SWITCH_T",
           (_TK + "test_scaled_kernel_within_sine_envelope",
            _TK + "test_green_matches_time_quadrature",
            _TK + "test_selfcheck_passes")),
    Mutant("image-branch-not-rescaled", _KER,
           "val = (val - 0.5 if deriv == 0 else val) * np.exp(_PI2 * ti / 2.0)",
           "val = val - 0.5 if deriv == 0 else val",
           (_TK + "test_bbm_density_definitional_identity", _ADAPTIVE,
            _CLOSED_FORM)),
    Mutant("truncation-mask-dropped", _KER,
           "out += np.where(live, term, 0.0)",
           "out += term",
           (_ARRAY + "[p_killed]", _ARRAY + "[exit_density_right_scaled]",
            _TK + "test_a_forced_representation_takes_an_array_of_times"
            "[spectral]")),
    # kernels.w_ZY, the one statement of the weights w_Z and w_Y
    Mutant("weight-exponent-as-mu-x-minus-mu-a", _KER,
           "val = x_arr - iv.a\n    val *= iv.mu",
           "val = iv.mu * x_arr - iv.mu * iv.a",
           (_JOINT + "[5.0]", _JOINT + "[8.0]", _JOINT + "[10.0]")),
    Mutant("weight-support-closed-at-a", _KER,
           "inside &= xc < a",
           "inside &= xc <= a",
           (_TK + "test_weight_functions_at_reference_points",
            _JOINT + "[5.0]")),
    # the trial pool; the barrier runners' law checks miss the first two,
    # only the pool's check against stand-alone trials catches them
    Mutant("reentry-shifted-0.2-left", _ENS,
           "reentry = dict(pos=lab,",
           "reentry = dict(pos=lab - 0.2,",
           (_POOLED,)),
    Mutant("depth-cap-2", _ENS,
           "_MAX_DEPTH = 3",
           "_MAX_DEPTH = 2",
           (_POOLED,)),
    # its per-trial timing, one path since the stand-alone batch steps
    # through it too; without the trial tests named here, only the nested
    # barrier law check catches relaunches stepped from t0, and no test the
    # others.  Without its slack a cut at zeta comes one step late, after a
    # step of about 1e-16
    Mutant("zeta-cut-without-slack", _ENS,
           "cut = live & (left <= span * (1.0 + 1e-9))",
           "cut = live & (left <= span)",
           (_TE + "test_trials_reach_zeta_at_a_step_end_that_rounds_past_it",)),
    Mutant("relaunch-stepped-from-t0", _ENS,
           _ON_GRID,
           'on_grid = tr["stepped"] | (launch - t0 <= 1e-9)',
           (_TIMED, _NESTED)),
    Mutant("step-end-root-stepped-at-once", _ENS,
           _ON_GRID,
           _ON_GRID + " | (launch >= t1)",
           (_TIMED,)),
    Mutant("one-span-test-dropped", _ENS,
           "on_grid[step].all() and spans.min() == spans.max()",
           "on_grid[step].all()",
           (_TIMED,)),
    # the stand-alone form and the decision
    Mutant("stand-alone-outcomes-in-reverse-launch-order", _ENS,
           "out = _decide(pool, rules, 0.0)",
           "out = {k: v[::-1] for k, v in _decide(pool, rules, 0.0).items()}",
           (_TE + "test_trials_weight_identities",)),
    Mutant("breakout-without-its-censor-clause", _ENS,
           '(d["Z"] > rules.threshold) | d["censored"]',
           '(d["Z"] > rules.threshold)',
           (_TE + "test_trials_censoring_counts_as_breakout",)),
    # the segment step's thinning and branch-slot gaps; the negative
    # binomial line counts miss a scalar gap without its +1, since their
    # calls reach the scalar gaps only in loops of a few particles
    Mutant("no-thinning-where-rem-is-an-array", _ENS,
           "take = tb < rem_br",
           "take = tb < math.inf",
           (_NEG_BINOMIAL,)),
    Mutant("branch-time-u-not-scaled-to-p_max", _ENS,
           "tb *= math.expm1(-rate)",
           "tb *= -1.0",
           (_NEG_BINOMIAL,)),
    Mutant("branchers-moved-over-rem", _ENS,
           "x2[br] = pos[br] + (v[br] if per_tag else v) * tb \\\n"
           "                + z_br * np.sqrt(tb)",
           "x2[br] = x2[br]",
           (_NEG_BINOMIAL,)),
    Mutant("branch-rate-at-min-rem", _ENS,
           "rate = beta0 * (rem.max() if per_rem else rem)",
           "rate = beta0 * (rem.min() if per_rem else rem)",
           (_NEG_BINOMIAL,)),
    Mutant("scalar-gap-without-its-plus-1", _ENS,
           "at = slots[-1] + 1 + draw() / rate",
           "at = slots[-1] + draw() / rate",
           (_SLOTS + "[500-0.002]",)),
    Mutant("array-gap-plus-half", _ENS,
           "        at += 1.0\n",
           "        at += 0.5\n",
           (_NEG_BINOMIAL, _SLOTS + "[40-0.3]")),
    # the barrier runners' record
    Mutant("record-Z-slice-one-too-long", _SEL,
           '"Z": [np.add.reduce(wz[lo:hi]) for lo, hi in spans]',
           '"Z": [np.add.reduce(wz[lo:hi + 1]) for lo, hi in spans]',
           (_CONSISTENT,)),
    Mutant("record-median-rows-in-reverse-replica-order", _SEL,
           "slots[r, :hi - lo] = seen[lo:hi]",
           "slots[n_rep - 1 - r, :hi - lo] = seen[lo:hi]",
           (_CONSISTENT,)),
    Mutant("record-Y-from-the-Z-weights", _SEL,
           '"Y": [np.add.reduce(wy[lo:hi]) for lo, hi in spans]',
           '"Y": [np.add.reduce(wz[lo:hi]) for lo, hi in spans]',
           (_CONSISTENT,)),
]


def anchor_count(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file under src/."""
    return (SRC / mutant.file).read_text().count(mutant.old)


def run(mutant: Mutant) -> int:
    """Apply the mutant to a copy of src/, run its tests there, print one
    line per test; returns how many of them did not catch it."""
    print(f"{mutant.name} ({mutant.file})")
    missed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info"))
        path = copy / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        outer = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(copy)] + ([outer] if outer else [])))
        where = subprocess.run(
            [sys.executable, "-c", "import nbbm; print(nbbm.__file__)"],
            env=env, capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(copy)):
            sys.exit(f"the mutated copy is not the nbbm imported: {where!r}")
        for test in mutant.tests:
            t0 = time.perf_counter()
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p",
                 "no:cacheprovider", test],
                cwd=ROOT, env=env, capture_output=True).returncode
            verdict = {0: "survived", 1: "caught"}.get(code,
                                                      f"error ({code})")
            missed += verdict != "caught"
            print(f"  {verdict:<9} {time.perf_counter() - t0:6.1f} s  "
                  f"{test}", flush=True)
    return missed


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in CATALOGUE}
    if unknown:
        sys.exit(f"no such mutant: {', '.join(sorted(unknown))}")
    chosen = [m for m in CATALOGUE if not names or m.name in names]
    stale = [f"{m.name}: {anchor_count(m)} matches" for m in chosen
             if anchor_count(m) != 1]
    if stale:
        sys.exit("anchors that do not match exactly once:\n  "
                 + "\n  ".join(stale))
    missed = sum(run(m) for m in chosen)
    print(f"{len(chosen)} mutants; {missed} named test runs did not catch "
          f"theirs")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
