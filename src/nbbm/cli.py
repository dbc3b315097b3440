"""Command line front end.

Subcommands: `simulate` runs one of the particle systems from a config
file, `kernels-selfcheck` cross-validates the closed-form kernels,
`levy` tabulates the limit exponent and samples increments, `couple`
drives the three-system domination check, and `report` turns previously
written CSV logs into a verdict bundle and plot-ready tables.

Reproducibility rules: every run is identified by a manifest whose hash
is embedded in each output file; all randomness is drawn from
SFC64 streams seeded from (seed, replica, lane); files are written
in replica order.  Identical manifests therefore produce identical bytes.
Replicas run in one process on one thread: the barrier modes step them
together in one flat array, mode nbbm in one array with a row per replica,
and mode coupled one after another.
`simulate --log-events` writes the genealogy `run_nbbm` records for replica
0, so events.csv and series.csv describe one sample path.

Each on-disk format is defined once: a config key is one row of `_KEYS`,
runinfo.json's barrier rows take every `BarrierResult` field but the series,
path, mode and final positions, and every CSV table is written by
`runio.write_table`.
"""

from __future__ import annotations

import argparse
import configparser
import json
import locale  # noqa: F401  argparse's gettext imports it on the first parse
import math
import re
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (
    REQUIRED_FIELDS,
    CapacityError,
    IntervalParams,
    ReproductionLaw,
    SimConfig,
    rng_stream,
)
from .kernels import selfcheck
from .levy import JUMP_TRUNCATION, LevyParams, kappa, sample_levy_increment
from .runio import (
    MODES,
    ExperimentManifest,
    canonical_hash,
    read_events_csv,
    read_levy_csv,
    read_series_csv,
    save_population,
    write_events_csv,
    write_levy_csv,
    write_series_csv,
    write_table,
)
from .selection import (
    CouplingError,
    run_bbbm,
    run_bflat,
    run_bsharp,
    run_coupled,
    run_nbbm,
)
from .stats import (
    empirical_density,
    increment_vs_levy,
    oracle_Z,
    speed_estimate,
)

_LANE_LEVY = 5

_CF_LAMBDAS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)

# BarrierResult fields runinfo.json leaves out, as files or the run hold them
_NOT_IN_RUNINFO = ("series", "path", "mode", "final_positions")


class ConfigError(ValueError):
    """Configuration problem, message always names the offending key path."""


# ---------------------------------------------------------------------------
# config parsing


def _mode(raw: str) -> str:
    if raw not in MODES:
        raise ValueError(raw)
    return raw


def _boolean(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _numbers(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in re.split(r"[,\s]+", raw.strip()))


_NUMBER = (float, "a number")
_INTEGER = (int, "an integer")

# (section, key) -> (SimConfig field, or "mode"; parser; what a value must
# be).  An absent key leaves its field at the SimConfig default.
_KEYS = {
    ("interval", "a"): ("interval", lambda raw: IntervalParams(float(raw)),
                        "a finite number >= pi"),
    ("bbbm", "A"): ("A", *_NUMBER),
    ("bbbm", "epsilon"): ("epsilon", *_NUMBER),
    ("bbbm", "y"): ("y", *_NUMBER),
    ("bbbm", "zeta"): ("zeta", *_NUMBER),
    ("bbbm", "delta_color"): ("delta_color", *_NUMBER),
    ("bbbm", "zeta_breakout"): ("zeta_breakout", _boolean, "a boolean"),
    ("selection", "N"): ("n_select", *_INTEGER),
    ("selection", "alphas"): ("alphas", _numbers, "numbers"),
    ("run", "mode"): ("mode", _mode, f"one of {'|'.join(MODES)}"),
    ("run", "dt"): ("dt", *_NUMBER),
    ("run", "horizon"): ("horizon", *_NUMBER),
    ("run", "replicas"): ("replicas", *_INTEGER),
    ("run", "seed"): ("seed", *_INTEGER),
    ("run", "sample_every"): ("sample_every", *_NUMBER),
}

# settings of older configs that no run reads: accepted, each with one
# warning on stderr saying why it is ignored
_IGNORED_KEYS = {
    ("run", "threads"): "replicas run on one thread",
    ("bbbm", "c_center"): "no simulation reads it",
    ("bbbm", "eta"): "no simulation reads it",
    ("run", "max_segments"): "no run has a segment budget",
}


def _parse(cp, section: str, key: str, parse, what: str):
    raw = cp.get(section, key)
    try:
        return parse(raw)
    except (ValueError, KeyError):
        raise ConfigError(
            f"[{section}] {key} must be {what}, got {raw!r}") from None


def parse_config(path: str | Path) -> tuple[SimConfig, str | None]:
    """Read an INI run description into a validated SimConfig plus mode.

    Physically meaningful parameters (the offspring law, a, N, A, ...) have
    no defaults and must be spelled out; only numerics (dt, sample cadence)
    default.  Regime warnings are left to SimConfig.validate so the caller
    decides where to print them.  Settings of older configs that no run
    reads (`_IGNORED_KEYS`) are accepted and ignored with one warning each
    on stderr.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as e:
        raise ConfigError(f"config syntax: {e}") from None

    known = {(s, k.lower()) for s, k in [*_KEYS, *_IGNORED_KEYS]}
    for section in cp.sections():
        if section != "law" and section not in {s for s, _ in known}:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if section != "law" and (section, key) not in known:
                raise ConfigError(f"unknown key [{section}] {key}")

    if not cp.has_section("law"):
        raise ConfigError("missing required section [law]")
    q: dict[int, float] = {}
    key_of: dict[int, str] = {}
    for key in cp.options("law"):
        m = re.fullmatch(r"q(\d+)", key)
        if not m:
            raise ConfigError(
                f"unknown key [law] {key}; offspring weights are q0, q1, ...")
        k = int(m.group(1))
        if k in key_of:
            raise ConfigError(
                f"[law] {key_of[k]} and {key} both set the weight of k = {k}")
        key_of[k] = key
        q[k] = _parse(cp, "law", key, *_NUMBER)
    if not q:
        raise ConfigError("[law] must list offspring weights q0, q1, ...")
    try:
        law = ReproductionLaw.from_dict(q)
    except ValueError as e:
        raise ConfigError(f"[law]: {e}") from None

    values = {name: _parse(cp, section, key, parse, what)
              for (section, key), (name, parse, what) in _KEYS.items()
              if cp.has_option(section, key)}
    mode = values.pop("mode", None)
    cfg = SimConfig(law=law, **values)
    try:
        cfg.validate()
    except ValueError as e:
        raise ConfigError(str(e)) from None
    for (section, key), why in _IGNORED_KEYS.items():
        if cp.has_option(section, key):
            print(f"warning: [{section}] {key} is ignored; {why}",
                  file=sys.stderr)
    return cfg, mode


def _check_mode_requirements(cfg: SimConfig, mode: str) -> None:
    key_of = {name: f"[{s}] {k}" for (s, k), (name, _, _) in _KEYS.items()}
    missing = [key_of[name] for name in REQUIRED_FIELDS[mode]
               if getattr(cfg, name) is None]
    if missing:
        raise ConfigError(
            f"mode {mode} requires {', '.join(missing)} (missing)")


# ---------------------------------------------------------------------------
# helpers


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON-serializable: {type(o).__name__}")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True,
                               default=_json_default) + "\n")


def _coupled_row(replica: int, res) -> dict:
    return {"replica": replica, "events": res.events, "checks": res.checks,
            "dominance_verified": res.dominance_verified}


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    cfg, mode = parse_config(args.config)
    if args.mode is not None:
        mode = args.mode
    if mode is None:
        raise ConfigError("no mode: set [run] mode or pass --mode")
    if args.replicas is not None:
        cfg.replicas = args.replicas
    if args.seed is not None:
        cfg.seed = args.seed
    _check_mode_requirements(cfg, mode)
    if args.log_events and mode != "nbbm":
        raise ConfigError("event logs are only available for mode nbbm")
    for w in cfg.validate():
        print(f"warning: {w}", file=sys.stderr)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    manifest = ExperimentManifest(config=cfg, mode=mode)
    if args.stamp:
        manifest.created_at = datetime.now(timezone.utc).isoformat()
    h = manifest.hash()

    runinfo: dict = {"manifest": h, "mode": mode, "replicas": cfg.replicas}
    series_list = None

    if mode == "nbbm":
        events = [] if args.log_events else None
        res = run_nbbm(cfg, events)
        series_list = res.series
        runinfo.update(n_select=res.n_select, horizon=res.horizon,
                       buffer_growths=res.buffer_growths,
                       peak_extras=res.peak_extras, cap=res.cap)
        if res.constants is not None:
            runinfo["a_N"] = res.constants.a_N
            runinfo["mu_N"] = res.constants.mu_N
        final = (res.final_positions[0], res.horizon)
        if events is not None:
            write_events_csv(outdir / "events.csv", events, h)
            manifest.outputs["events"] = "events.csv"
            runinfo["events_logged"] = len(events)
    elif mode == "coupled":
        results = [run_coupled(cfg.law, cfg.n_select, horizon=cfg.horizon,
                               seed=cfg.seed, replica=r)
                   for r in range(cfg.replicas)]
        runinfo["coupled"] = [_coupled_row(r, res)
                              for r, res in enumerate(results)]
        final = (results[0].final_mid, cfg.horizon)
    else:
        runner = {"bbbm": run_bbbm, "bflat": run_bflat,
                  "bsharp": run_bsharp,
                  "csharp": lambda c: run_bsharp(c, csharp=True)}[mode]
        results = runner(cfg)
        series_list = [res.series for res in results]
        runinfo["barrier"] = [
            {"replica": r, **{f.name: getattr(res, f.name) for f in fields(res)
                              if f.name not in _NOT_IN_RUNINFO}}
            for r, res in enumerate(results)]
        final = (results[0].final_positions, results[0].series.times[-1])

    if series_list is not None:
        write_series_csv(outdir / "series.csv", series_list, h)
        manifest.outputs["series"] = "series.csv"
    if args.checkpoint:
        save_population(outdir / "final.ckpt", *final, h)
        manifest.outputs["checkpoint"] = "final.ckpt"
    manifest.outputs["runinfo"] = "runinfo.json"
    _write_json(outdir / "runinfo.json", runinfo)
    manifest.save(outdir / "manifest.json")
    print(f"{mode}: {cfg.replicas} replica(s) -> {outdir}  manifest {h}")
    return 0


# ---------------------------------------------------------------------------
# kernels-selfcheck


def _cmd_selfcheck(args) -> int:
    report = selfcheck()
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{status} {c['name']}: max err {c['max_abs_err']:.3g} "
              f"(tol {c['tol']:g})")
    print(f"{'PASS' if report['passed'] else 'FAIL'} "
          f"({report['elapsed_s']:.2f} s)")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# levy


def _cmd_levy(args) -> int:
    params = LevyParams(c=args.c)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if not 0.0 < args.t < math.inf:
        raise ValueError(f"--t must be positive and finite, got {args.t!r}")
    if not all(map(math.isfinite, args.lambdas)):
        raise ValueError(f"--lambdas must be finite, got {args.lambdas!r}")
    ident = {"schema": "nbbm-levy-manifest-1",
             "code_version": __version__,
             "t": args.t, "samples": args.samples, "seed": args.seed,
             "delta": JUMP_TRUNCATION, "c": params.c}
    h = canonical_hash(ident)
    _write_json(outdir / "manifest.json", dict(ident, hash=h))

    lams = sorted(set(_CF_LAMBDAS) | set(args.lambdas))
    ks = kappa(lams, params)
    write_table(outdir / "kappa.csv", h, ["lam", "re_kappa", "im_kappa"],
                zip(lams, ks.real, ks.imag))

    rng = rng_stream(args.seed, 0, _LANE_LEVY)
    values = sample_levy_increment(args.t, args.samples, rng, params)
    write_levy_csv(outdir / "increments.csv",
                   np.arange(args.samples), np.full(args.samples, args.t),
                   values, args.seed, h)
    print(f"levy: {args.samples} increments of L_{args.t:g} and "
          f"kappa at {len(lams)} points -> {outdir}  manifest {h}")
    return 0


# ---------------------------------------------------------------------------
# couple


def _cmd_couple(args) -> int:
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
    if args.replicas < 1:
        raise ValueError(f"--replicas must be >= 1, got {args.replicas}")
    rows = []
    for r in range(args.replicas):
        res = run_coupled(ReproductionLaw.binary(), args.n,
                          horizon=args.horizon, seed=args.seed, replica=r,
                          slack=args.slack, extra=args.extra)
        rows.append(_coupled_row(r, res))
        print(f"replica {r}: {res.events} events, "
              f"{res.checks} checks, dominance "
              f"{'verified' if res.dominance_verified else 'NOT verified'}")
    if args.out:
        _write_json(outdir / "runinfo.json",
                    {"coupled": rows, "n": args.n, "horizon": args.horizon,
                     "slack": args.slack, "extra": args.extra,
                     "seed": args.seed})
    ok = all(row["dominance_verified"] for row in rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# report


def _series_verdicts(path: str, burn_in: float | None,
                     plot_dir: Path) -> tuple[list[dict], dict]:
    h, series_list = read_series_csv(path)
    times = series_list[0].times
    cols = list(series_list[0].columns)
    verdicts: list[dict] = []

    med_keys = [c for c in cols if c.startswith("med_")]
    for key in med_keys:
        med = np.stack([s.columns[key] for s in series_list])
        finite = np.isfinite(med).all(axis=0)
        if len(series_list) >= 2 and finite.sum() >= 3:
            t_f = times[finite]
            bi = burn_in if burn_in is not None else 0.25 * t_f[-1]
            try:
                slope, se = speed_estimate(t_f, med[:, finite], burn_in=bi)
                verdicts.append({"name": f"speed_{key}", "verdict": "info",
                                 "slope": slope, "stderr": se,
                                 "burn_in": bi})
            except ValueError as e:
                verdicts.append({"name": f"speed_{key}",
                                 "verdict": "skipped", "reason": str(e)})
        else:
            verdicts.append({"name": f"speed_{key}", "verdict": "skipped",
                             "reason": "need >= 2 replicas and >= 3 finite "
                                       "sample times"})

    if "Z" in cols:
        z0 = np.array([s.columns["Z"][0] for s in series_list])
        zt = np.array([s.columns["Z"][-1] for s in series_list])
        try:
            rep = oracle_Z(z0, zt)
            verdicts.append({"name": "martingale_Z",
                             "verdict": "pass" if rep.passed else "fail",
                             "line": rep.line()})
        except ValueError as e:
            verdicts.append({"name": "martingale_Z", "verdict": "skipped",
                             "reason": str(e)})

    # plot-ready: replica mean of every column on the common grid, one
    # np.mean per cell: a mean along the replica axis sums in another order
    stacks = [np.stack([s.columns[c] for s in series_list]) for c in cols]
    write_table(plot_dir / "series_mean.csv", h, ["t"] + cols, (
        [t] + [np.mean(st[:, i]) if np.isfinite(st[:, i]).all() else math.nan
               for st in stacks]
        for i, t in enumerate(times.tolist())))

    summary = {"hash": h, "replicas": len(series_list),
               "t_final": float(times[-1]), "columns": cols}
    return verdicts, summary


def _levy_verdicts(path: str, plot_dir: Path) -> tuple[list[dict], dict]:
    h, table = read_levy_csv(path)
    values, t_grid = table["value"], table["t"]
    t_span = float(t_grid[0])
    verdicts: list[dict] = []
    if not np.all(t_grid == t_span):
        verdicts.append({"name": "cf_vs_kappa", "verdict": "skipped",
                         "reason": "mixed increment spans in levy CSV"})
        return verdicts, {"hash": h, "samples": len(values)}

    try:
        cmp_ = increment_vs_levy(values, t_span, _CF_LAMBDAS, fit_c=True)
        verdicts.append({
            "name": "cf_vs_kappa",
            "verdict": "pass" if cmp_.passed else "fail",
            "max_deviation": float(np.max(cmp_.deviation)),
            "worst_ratio_vs_3se": cmp_.worst_ratio,
            "fitted_c": cmp_.fitted_c,
            "n": cmp_.n,
        })
        write_table(plot_dir / "cf_table.csv", h, [
            "lam", "emp_re", "emp_im", "model_re", "model_im", "deviation",
            "se"], zip(cmp_.lams, cmp_.phi.real, cmp_.phi.imag,
                       cmp_.model.real, cmp_.model.imag, cmp_.deviation,
                       cmp_.se))
    except ValueError as e:
        verdicts.append({"name": "cf_vs_kappa", "verdict": "skipped",
                         "reason": str(e)})

    lo, hi = float(np.min(values)), float(np.max(values))
    if hi > lo:
        dens = empirical_density(values, bins=max(10, min(60, len(values) // 50)),
                                 lo=lo, hi=hi)
        write_table(plot_dir / "increment_density.csv", h,
                    ["bin_lo", "bin_hi", "mass"],
                    zip(dens.edges[:-1], dens.edges[1:], dens.mass))
    return verdicts, {"hash": h, "samples": len(values), "t": t_span}


def _events_verdicts(path: str) -> tuple[list[dict], dict]:
    h, events = read_events_csv(path)
    n = len(events["time"])
    verdicts = [{"name": "event_counts", "verdict": "info", "branch": n}]
    return verdicts, {"hash": h, "events": n}


def _cmd_report(args) -> int:
    if not (args.series or args.levy or args.events):
        raise ConfigError(
            "report needs at least one input: --series, --levy or --events")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    verdicts: list[dict] = []
    inputs: dict[str, dict] = {}
    if args.series:
        v, s = _series_verdicts(args.series, args.burn_in, outdir)
        verdicts += v
        inputs["series"] = s
    if args.levy:
        v, s = _levy_verdicts(args.levy, outdir)
        verdicts += v
        inputs["levy"] = s
    if args.events:
        v, s = _events_verdicts(args.events)
        verdicts += v
        inputs["events"] = s
    bundle = {"inputs": inputs, "verdicts": verdicts,
              "failed": sum(1 for v in verdicts if v["verdict"] == "fail")}
    _write_json(outdir / "verdicts.json", bundle)
    for v in verdicts:
        detail = v.get("line") or v.get("reason") or ""
        print(f"{v['verdict'].upper():7s} {v['name']}  {detail}".rstrip())
    return 0 if bundle["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nbbm",
        description="Monte Carlo toolkit for branching Brownian motion "
                    "with selection")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="run a particle system from a config file")
    sim.add_argument("--config", required=True, help="INI run description")
    sim.add_argument("--mode", choices=MODES,
                     help="override [run] mode from the config")
    sim.add_argument("--replicas", type=int, help="override [run] replicas")
    sim.add_argument("--seed", type=int, help="override [run] seed")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--stamp", action="store_true",
                     help="record wall-clock creation time in the manifest"
                          " (off by default to keep reruns byte-identical)")
    sim.add_argument("--checkpoint", action="store_true",
                     help="write final.ckpt with replica 0's final time "
                          "and positions")
    sim.add_argument("--log-events", action="store_true",
                     help="also write events.csv, the branch events "
                          "(time, parent row, position, k) of replica 0 "
                          "of the series run (mode nbbm only)")
    sim.set_defaults(fn=_cmd_simulate)

    chk = sub.add_parser(
        "kernels-selfcheck",
        help="cross-validate the closed-form kernels, exit 0 iff all pass")
    chk.set_defaults(fn=_cmd_selfcheck)

    lev = sub.add_parser(
        "levy", help="tabulate the limit exponent and sample increments")
    lev.add_argument("--out", required=True)
    lev.add_argument("--samples", type=int, default=10_000)
    lev.add_argument("--t", type=float, default=1.0,
                     help="time span of each sampled increment")
    lev.add_argument("--c", type=float, default=0.0,
                     help="centering constant")
    lev.add_argument("--seed", type=int, default=0)
    lev.add_argument("--lambdas", type=float, nargs="*", default=(),
                     help="extra CF grid points for the kappa table")
    lev.set_defaults(fn=_cmd_levy)

    cpl = sub.add_parser(
        "couple", help="three-system domination check on shared noise")
    cpl.add_argument("--n", type=int, required=True,
                     help="selection size of the middle system")
    cpl.add_argument("--horizon", type=float, required=True)
    cpl.add_argument("--replicas", type=int, default=1)
    cpl.add_argument("--seed", type=int, default=0)
    cpl.add_argument("--slack", type=int, default=0,
                     help="upper system trims only beyond n + slack")
    cpl.add_argument("--extra", type=int, default=0,
                     help="lower system over-culls to n - extra")
    cpl.add_argument("--out", help="optional directory for runinfo.json")
    cpl.set_defaults(fn=_cmd_couple)

    rep = sub.add_parser(
        "report", help="turn CSV logs into verdicts and plot-ready tables")
    rep.add_argument("--series", help="series CSV from simulate")
    rep.add_argument("--levy", help="increments CSV from the levy command")
    rep.add_argument("--events", help="events CSV from simulate")
    rep.add_argument("--out", required=True)
    rep.add_argument("--burn-in", type=float, default=None,
                     help="burn-in for speed fits (default: quarter of the "
                          "series)")
    rep.set_defaults(fn=_cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError, CouplingError,
            CapacityError) as e:
        record = {"error": {"type": type(e).__name__, "message": str(e)}}
        print(json.dumps(record), file=sys.stderr)
        out = getattr(args, "out", None)
        if out and Path(out).is_dir():
            _write_json(Path(out) / "error.json", record)
        return 1


if __name__ == "__main__":
    sys.exit(main())
