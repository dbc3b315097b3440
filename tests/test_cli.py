"""Command line front end: config parsing, run outputs, reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import nbbm
from nbbm import __version__
from nbbm.cli import _CF_LAMBDAS, ConfigError, main, parse_config
from nbbm.levy import LevyParams, kappa
from nbbm.selection import BarrierResult, run_bbbm
from nbbm.runio import (
    MODES,
    ExperimentManifest,
    load_population,
    read_events_csv,
    read_levy_csv,
    read_series_csv,
    write_levy_csv,
)

NBBM_INI = """\
[law]
q2 = 1.0

[selection]
N = 20
alphas = 0.25, 0.5

[run]
mode = nbbm
dt = 0.05
horizon = 2.0
replicas = 2
seed = 11
"""

BBBM_INI = """\
[law]
q2 = 1.0

[interval]
a = 5.0

[bbbm]
A = 1.2
epsilon = 1e9
y = 2.0
zeta = 6.0
zeta_breakout = false

[run]
mode = bbbm
dt = 0.05
horizon = 10.0
seed = 0
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _table(path):
    """Manifest hash, header and the float cells of a CSV table."""
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# manifest=")
    cells = [[float(v) for v in ln.split(",")] for ln in lines[2:]]
    return lines[0].split("=", 1)[1], lines[1].split(","), np.array(cells)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_config(tmp_path):
    cfg, mode = parse_config(_write(tmp_path, "[law]\nq2 = 1.0\n"))
    assert mode is None
    assert cfg.law.probabilities == (0.0, 0.0, 1.0)
    assert cfg.dt == 0.1 and cfg.replicas == 1 and cfg.seed == 0
    assert cfg.interval is None and cfg.alphas == (0.5,)


def test_parse_full_config(tmp_path):
    cfg, mode = parse_config(_write(tmp_path, BBBM_INI))
    assert mode == "bbbm"
    assert cfg.interval.a == 5.0
    assert cfg.A == 1.2 and cfg.epsilon == 1e9
    assert cfg.zeta_breakout is False
    assert cfg.horizon == 10.0 and cfg.dt == 0.05


@pytest.mark.parametrize("text,needle", [
    ("[run]\ndt = 0.1\n", "[law]"),
    ("[law]\nq2 = 0.9\n", "sum to 0.9"),
    ("[law]\nq2 = 1.0\n[bbbm]\nA = fast\n", "[bbbm] A must be a number"),
    ("[law]\nq2 = 1.0\n[warp]\nx = 1\n", "unknown section"),
    ("[law]\nq2 = 1.0\n[run]\nspeed = 3\n", "unknown key [run] speed"),
    ("[law]\nq2 = 1.0\n[run]\nmode = warp\n", "[run] mode"),
    ("[law]\nq2 = 1.0\n[selection]\nalphas = a,b\n", "[selection] alphas"),
    ("[law]\nq2 = 1.0\n[interval]\na = -3\n", "[interval] a"),
    ("[law]\nq2 = 1.0\n[interval]\na = 2.0\n", "[interval] a"),
    ("[law]\nq2 = 1.0\n[run]\ndt = -0.1\n", "dt"),
    ("[law]\nqq = 1.0\n", "unknown key [law]"),
    ("[law]\nq2 = 0.5\nq02 = 1.0\n", "[law] q2 and q02"),
])
def test_parse_errors_name_the_key(tmp_path, text, needle):
    with pytest.raises(ConfigError, match=None) as err:
        parse_config(_write(tmp_path, text))
    assert needle in str(err.value)


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.ini")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_nbbm_outputs(tmp_path):
    ini = _write(tmp_path, NBBM_INI)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(ini), "--out", str(out),
                 "--checkpoint"]) == 0

    manifest = ExperimentManifest.load(out / "manifest.json")
    h, series = read_series_csv(out / "series.csv")
    assert h == manifest.hash()
    assert len(series) == 2
    assert list(series[0].columns) == ["med_0.25", "med_0.5", "count"]
    assert np.all(series[0].columns["count"] == 20.0)
    assert series[0].times[-1] == 2.0

    runinfo = json.loads((out / "runinfo.json").read_text())
    assert runinfo["manifest"] == h
    assert runinfo["n_select"] == 20
    # the room for extra children: binary law at N = 20 never outgrows it
    assert runinfo["buffer_growths"] == 0
    assert 0 < runinfo["peak_extras"] <= runinfo["cap"]

    h_ckpt, time, pos = load_population(out / "final.ckpt")
    assert h_ckpt == h and len(pos) == 20 and time == 2.0
    assert manifest.outputs["checkpoint"] == "final.ckpt"


def test_simulate_nbbm_ends_at_a_horizon_off_the_step_grid(tmp_path):
    # 1.05 is not a multiple of dt = 0.1: ten full steps, then one of 0.05
    ini = _write(tmp_path, NBBM_INI.replace("dt = 0.05", "dt = 0.1")
                 .replace("horizon = 2.0", "horizon = 1.05"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(ini), "--out", str(out),
                 "--checkpoint", "--log-events"]) == 0
    _, series = read_series_csv(out / "series.csv")
    runinfo = json.loads((out / "runinfo.json").read_text())
    _, time, _ = load_population(out / "final.ckpt")
    assert all(s.times[-1] == 1.05 for s in series)
    assert runinfo["horizon"] == 1.05 and time == 1.05
    events = read_events_csv(out / "events.csv")[1]
    grid = [(i + 1) * 0.1 for i in range(10)] + [1.05]
    assert np.all(np.isin(events["time"], grid))


def test_simulate_reruns_are_byte_identical(tmp_path, capsys, monkeypatch):
    # the old thread settings are gone: [run] threads is accepted with one
    # warning and changes nothing, NBBM_THREADS is not read, and the
    # --threads flag no longer exists; [bbbm] c_center and [bbbm] eta, which
    # no simulation read, and [run] max_segments, whose segment budget is
    # gone, go the same way.  An ignored key is not parsed, so even a value
    # that the old parser rejected passes with its warning
    plain = _write(tmp_path, NBBM_INI)
    threaded = _write(tmp_path, NBBM_INI + "threads = 3\n", "threads.ini")
    centred = _write(tmp_path, NBBM_INI + "[bbbm]\nc_center = 0.5\n",
                     "centred.ini")
    budgeted = _write(tmp_path, NBBM_INI + "max_segments = 200\n",
                      "budgeted.ini")
    regimed = _write(tmp_path, NBBM_INI + "[bbbm]\neta = -1e-5\n",
                     "regimed.ini")
    outs, errs = [], []
    for name, ini in (("a", plain), ("b", plain), ("c", threaded),
                      ("d", centred), ("e", budgeted), ("f", regimed)):
        if name == "b":
            monkeypatch.setenv("NBBM_THREADS", "zero")
        out = tmp_path / name
        assert main(["simulate", "--config", str(ini), "--out",
                     str(out)]) == 0
        outs.append((out / "series.csv").read_bytes())
        errs.append(capsys.readouterr().err)
    assert outs[0] == outs[1] == outs[2] == outs[3] == outs[4] == outs[5]
    assert "threads" not in errs[0] + errs[1] + errs[3]
    assert errs[2].count("threads") == 1
    assert errs[2].startswith("warning: [run] threads is ignored")
    assert "c_center" not in errs[0] + errs[1] + errs[2]
    assert errs[3].count("c_center") == 1
    assert errs[3].startswith("warning: [bbbm] c_center is ignored")
    assert "max_segments" not in "".join(errs[:4])
    assert errs[4].count("max_segments") == 1
    assert errs[4].startswith("warning: [run] max_segments is ignored")
    assert "eta" not in "".join(errs[:5])
    assert errs[5].count("eta") == 1
    assert errs[5].startswith("warning: [bbbm] eta is ignored")
    with pytest.raises(SystemExit):
        main(["simulate", "--config", str(plain), "--out",
              str(tmp_path / "d"), "--threads", "3"])


def test_simulate_seed_flag_equals_the_config_seed(tmp_path):
    ini = _write(tmp_path, NBBM_INI)
    seeded = _write(tmp_path, NBBM_INI.replace("seed = 11", "seed = 4"),
                    "seeded.ini")
    runs = {"plain": [ini], "flag": [ini, "--seed", "4"], "config": [seeded]}
    out = {}
    for name, (path, *flag) in runs.items():
        assert main(["simulate", "--config", str(path), *flag, "--out",
                     str(tmp_path / name)]) == 0
        out[name] = [(tmp_path / name / f).read_bytes()
                     for f in ("series.csv", "manifest.json")]
    assert out["flag"] == out["config"]
    assert out["flag"][0] != out["plain"][0]


def test_simulate_stamp_keeps_the_hash(tmp_path):
    ini = _write(tmp_path, NBBM_INI)
    plain, stamped = tmp_path / "plain", tmp_path / "stamped"
    assert main(["simulate", "--config", str(ini), "--out",
                 str(plain)]) == 0
    assert main(["simulate", "--config", str(ini), "--out", str(stamped),
                 "--stamp"]) == 0
    m_plain = ExperimentManifest.load(plain / "manifest.json")
    m_stamped = ExperimentManifest.load(stamped / "manifest.json")
    assert m_plain.created_at is None
    assert m_stamped.created_at is not None
    assert m_plain.hash() == m_stamped.hash()


def test_simulate_event_log(tmp_path):
    # the log is replica 0's genealogy in the series run itself, so it
    # leaves series.csv byte for byte as it is without the log
    ini = _write(tmp_path, NBBM_INI)
    plain = tmp_path / "plain"
    assert main(["simulate", "--config", str(ini), "--out", str(plain)]) == 0
    assert not (plain / "events.csv").exists()
    logs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(ini), "--out", str(out),
                     "--log-events"]) == 0
        logs.append((out / "events.csv").read_bytes())
        assert (out / "series.csv").read_bytes() == \
            (plain / "series.csv").read_bytes()
    assert logs[0] == logs[1]
    h, ev = read_events_csv(out / "events.csv")
    assert h == ExperimentManifest.load(out / "manifest.json").hash()
    assert logs[0].decode().splitlines()[1] == "time,parent,position,k"
    n = len(ev["time"])
    runinfo = json.loads((out / "runinfo.json").read_text())
    assert n > 0 and runinfo["events_logged"] == n
    # binary law: every event has two children; the log starts from the
    # N = 20 initial particles, numbered -1 to -20
    assert np.all(ev["k"] == 2)
    assert np.all((ev["parent"] >= -20) & (ev["parent"] < np.arange(n)))
    assert np.all((ev["time"] > 0.0) & (ev["time"] <= 2.0))
    assert np.array_equal(ev["time"], np.round(ev["time"] / 0.05) * 0.05)


def test_simulate_bbbm_runinfo_carries_diagnostics(tmp_path):
    ini = _write(tmp_path, BBBM_INI)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
    runinfo = json.loads((out / "runinfo.json").read_text())
    row = runinfo["barrier"][0]
    for key in ("trials_run", "wall_hits", "reinjected", "pieces",
                "depth_capped", "breakout_waits", "breakout_wait_time"):
        assert key in row
    h, series = read_series_csv(out / "series.csv")
    assert "barrier_shift" in series[0].columns


def test_simulate_bbbm_runinfo_reports_breakout_waits(tmp_path):
    # every trial breaks out; in this run a replica's breakout ends before
    # an earlier trial of its replica, and its decision waits for that one
    text = BBBM_INI.replace("epsilon = 1e9", "epsilon = 1e-6").replace(
        "zeta_breakout = false", "zeta_breakout = true").replace(
        "horizon = 10.0", "horizon = 30.0\nreplicas = 4")
    ini = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
    rows = json.loads((out / "runinfo.json").read_text())["barrier"]
    cfg, _ = parse_config(ini)
    for row, res in zip(rows, run_bbbm(cfg), strict=True):
        assert row["breakout_waits"] == res.breakout_waits
        assert row["breakout_wait_time"] == res.breakout_wait_time
        assert row["trials_run"] == row["wall_hits"]
    assert sum(row["breakout_waits"] for row in rows) > 0
    for row in rows:
        # a wait ends by the end of the step in which the earlier trial,
        # launched before the waiting one, reaches zeta
        assert 0.0 <= row["breakout_wait_time"] \
            <= (6.0 + 0.05) * row["breakout_waits"]


def test_simulate_bbbm_runinfo_reports_capacity_headroom(tmp_path):
    ini = _write(tmp_path, BBBM_INI)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(ini), "--out", str(out),
                 "--replicas", "2"]) == 0
    rows = json.loads((out / "runinfo.json").read_text())["barrier"]
    _, series = read_series_csv(out / "series.csv")
    assert [row["replica"] for row in rows] == [0, 1]
    for row, s in zip(rows, series):
        assert s.columns["count"].max() <= row["peak_count"] <= row["max_pop"]


def test_simulate_bbbm_runinfo_rows_carry_every_result_field(tmp_path):
    ini = _write(tmp_path, BBBM_INI)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
    rows = json.loads((out / "runinfo.json").read_text())["barrier"]
    want = {"replica"} | {f.name for f in fields(BarrierResult)} \
        - {"series", "path", "mode", "final_positions"}
    assert [set(row) for row in rows] == [want]


@pytest.mark.parametrize("mode", MODES)
def test_simulate_names_every_key_its_mode_needs(tmp_path, capsys, mode):
    barrier = ["[interval] a", "[bbbm] A", "[bbbm] epsilon", "[bbbm] y",
               "[bbbm] zeta"]
    want = {"nbbm": ["[selection] N"],
            "coupled": ["[selection] N", "[run] horizon"],
            "bbbm": barrier}.get(mode, barrier + ["[bbbm] delta_color"])
    ini = _write(tmp_path, "[law]\nq2 = 1.0\n")
    assert main(["simulate", "--config", str(ini), "--mode", mode,
                 "--out", str(tmp_path / "x")]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
    assert err == {"type": "ConfigError", "message":
                   f"mode {mode} requires {', '.join(want)} (missing)"}


@pytest.mark.parametrize("mode", ["nbbm", "bbbm"])
@pytest.mark.parametrize("key", ["horizon", "dt", "sample_every"])
def test_simulate_rejects_non_finite_run_lengths(tmp_path, capsys, mode,
                                                 key):
    # drop the finite value; [run] is the last section, so the appended
    # line lands in it
    text = re.sub(rf"^{key} = .*\n", "",
                  NBBM_INI if mode == "nbbm" else BBBM_INI,
                  flags=re.M) + f"{key} = inf\n"
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(_write(tmp_path, text)),
                 "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    # bad config values surface as ConfigError, a ValueError subclass
    assert err["error"]["type"] == "ConfigError"
    assert f"{key} must be positive and finite" in err["error"]["message"]
    assert json.loads((out / "error.json").read_text()) == err
    assert not (out / "series.csv").exists()


@pytest.mark.parametrize("mode, key", [("bbbm", "A"),
                                       ("bflat", "delta_color")])
def test_simulate_rejects_non_finite_barrier_parameters(tmp_path, capsys,
                                                        mode, key):
    text = re.sub(rf"^{key} = .*\n", "",
                  BBBM_INI.replace("mode = bbbm", f"mode = {mode}"),
                  flags=re.M).replace("[bbbm]\n", f"[bbbm]\n{key} = inf\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(_write(tmp_path, text)),
                 "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"]["type"] == "ConfigError"
    assert f"{key} must be positive and finite" in err["error"]["message"]
    assert json.loads((out / "error.json").read_text()) == err
    assert not (out / "series.csv").exists()


@pytest.mark.parametrize("values", [
    {"A": "800", "horizon": "1.0"},  # e^A overflows
    {"A": "800", "horizon": None},  # and the default horizon 1.5 e^A a^2
    {"a": "1000", "A": "3"},  # e^(mu a) overflows
    {"A": "707", "horizon": None},  # only the default horizon overflows
], ids=["A-800", "A-800-default-horizon", "a-1000", "A-707-default-horizon"])
def test_simulate_rejects_an_overflowing_profile_count(tmp_path, capsys,
                                                       values):
    """A profile count or default horizon past the largest double ends the
    run with one ValueError naming A and a, not a traceback."""
    text = BBBM_INI
    for key, val in values.items():
        text = re.sub(rf"^{key} = .*\n",
                      "" if val is None else f"{key} = {val}\n", text,
                      flags=re.M)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(_write(tmp_path, text)),
                 "--out", str(out)]) == 1
    errs = [ln for ln in capsys.readouterr().err.splitlines()
            if ln.startswith("{")]
    assert len(errs) == 1
    err = json.loads(errs[0])
    assert err["error"]["type"] == "ValueError"
    a = float(values.get("a", 5.0))
    assert f"A = {float(values['A'])!r}, a = {a!r}" in err["error"]["message"]
    assert json.loads((out / "error.json").read_text()) == err
    assert [p.name for p in out.iterdir()] == ["error.json"]


@pytest.mark.parametrize("mode", ["nbbm", "bbbm"])
@pytest.mark.parametrize("alphas", ["0.5, 0.5", "0.1234567, 0.1234568"])
def test_simulate_rejects_alphas_that_share_a_column(tmp_path, capsys, mode,
                                                     alphas):
    # both alphas print as the same med_{alpha:g} series column
    if mode == "nbbm":
        text = NBBM_INI.replace("alphas = 0.25, 0.5", f"alphas = {alphas}")
    else:
        text = BBBM_INI.replace(
            "[run]\n", f"[selection]\nalphas = {alphas}\n\n[run]\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(_write(tmp_path, text)),
                 "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"]["type"] == "ConfigError"
    assert "alphas" in err["error"]["message"]
    assert not (out / "series.csv").exists()


def test_simulate_mode_requirements(tmp_path, capsys):
    ini = _write(tmp_path, "[law]\nq2 = 1.0\n")
    assert main(["simulate", "--config", str(ini), "--mode", "bbbm",
                 "--out", str(tmp_path / "x")]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"]["type"] == "ConfigError"
    assert "[bbbm] A" in err["error"]["message"]


def test_simulate_without_mode_fails(tmp_path, capsys):
    ini = _write(tmp_path, "[law]\nq2 = 1.0\n")
    assert main(["simulate", "--config", str(ini),
                 "--out", str(tmp_path / "x")]) == 1
    assert "no mode" in capsys.readouterr().err


def test_simulate_rejects_event_log_outside_nbbm(tmp_path, capsys):
    ini = _write(tmp_path, BBBM_INI)
    assert main(["simulate", "--config", str(ini), "--out",
                 str(tmp_path / "x"), "--log-events"]) == 1
    assert "only available for mode nbbm" in capsys.readouterr().err
    # mode coupled refuses the flag too, before it runs
    ini = _write(tmp_path, NBBM_INI.replace("mode = nbbm", "mode = coupled"))
    out = tmp_path / "c"
    assert main(["simulate", "--config", str(ini), "--out", str(out),
                 "--log-events"]) == 1
    assert "only available for mode nbbm" in capsys.readouterr().err
    assert not (out / "runinfo.json").exists()


def test_simulate_prints_regime_warnings(tmp_path, capsys):
    ini = _write(tmp_path, BBBM_INI.replace("epsilon = 1e9",
                                            "epsilon = 0.2")
                 .replace("horizon = 10.0", "horizon = 0.5"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
    assert "regime condition" in capsys.readouterr().err


def test_simulate_warns_of_a_sample_cadence_off_the_step_grid(tmp_path,
                                                              capsys):
    # dt = 0.05 records every 0.05, not every 0.07 as asked
    out = tmp_path / "out"
    ini = _write(tmp_path, NBBM_INI + "sample_every = 0.07\n")
    assert main(["simulate", "--config", str(ini), "--out", str(out)]) == 0
    assert "series are recorded every 1 step(s), every 0.05" \
        in capsys.readouterr().err
    _, series = read_series_csv(out / "series.csv")
    assert np.allclose(np.diff(series[0].times), 0.05, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# other subcommands


def test_selfcheck_passes(capsys):
    assert main(["kernels-selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_levy_outputs(tmp_path):
    out = tmp_path / "levy"
    assert main(["levy", "--out", str(out), "--samples", "500",
                 "--t", "0.01", "--seed", "3", "--lambdas", "3.5"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    h, table = read_levy_csv(out / "increments.csv")
    assert h == manifest["hash"]
    assert len(table["value"]) == 500
    assert np.all(table["t"] == 0.01)
    assert np.all(table["seed"] == 3)
    kappa_lines = (out / "kappa.csv").read_text().splitlines()
    assert kappa_lines[0] == f"# manifest={h}"
    lams = [float(ln.split(",")[0]) for ln in kappa_lines[2:]]
    assert lams == sorted([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.5])


def test_levy_kappa_table_holds_the_exponent(tmp_path):
    out = tmp_path / "levy"
    assert main(["levy", "--out", str(out), "--samples", "1", "--t", "0.01",
                 "--c", "0.5", "--lambdas", "3.5", "-0.25", "1.0"]) == 0
    h, header, cells = _table(out / "kappa.csv")
    assert h == json.loads((out / "manifest.json").read_text())["hash"]
    assert header == ["lam", "re_kappa", "im_kappa"]
    lams = sorted(set(_CF_LAMBDAS) | {3.5, -0.25})
    assert cells[:, 0].tolist() == lams
    params = LevyParams(c=0.5)
    for la, re_k, im_k in cells:
        k = kappa(la, params)
        assert (re_k, im_k) == (k.real, k.imag)


@pytest.mark.parametrize("flags, needle", [
    (["--samples", "-5"], "--samples"), (["--samples", "0"], "--samples"),
    (["--t", "nan"], "--t"), (["--t", "-1"], "--t"), (["--t", "inf"], "--t"),
    (["--lambdas", "nan"], "--lambdas"),
    (["--lambdas", "1", "inf"], "--lambdas"),
])
def test_levy_rejects_bad_samples_and_span_before_writing(tmp_path, capsys,
                                                          flags, needle):
    out = tmp_path / "levy"
    assert main(["levy", "--out", str(out), *flags]) == 1
    capsys.readouterr()
    assert [p.name for p in out.iterdir()] == ["error.json"]
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "ValueError" and needle in err["message"]


def test_levy_is_deterministic(tmp_path):
    args = ["levy", "--samples", "200", "--t", "0.5", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "increments.csv").read_bytes() == \
        (b / "increments.csv").read_bytes()


def test_couple_verifies_dominance(tmp_path, capsys):
    out = tmp_path / "couple"
    assert main(["couple", "--n", "25", "--horizon", "3.0", "--replicas",
                 "2", "--slack", "2", "--extra", "1",
                 "--out", str(out)]) == 0
    assert "dominance verified" in capsys.readouterr().out
    rows = json.loads((out / "runinfo.json").read_text())["coupled"]
    assert len(rows) == 2
    assert all(r["dominance_verified"] for r in rows)


def test_couple_fault_injection_fails(capsys, faulty_check):
    assert main(["couple", "--n", "25", "--horizon", "3.0"]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"]["type"] == "CouplingError"


def test_couple_leaves_an_error_record_when_a_check_fails(tmp_path, capsys,
                                                          faulty_check):
    out = tmp_path / "couple"
    assert main(["couple", "--n", "25", "--horizon", "3.0",
                 "--out", str(out)]) == 1
    capsys.readouterr()
    assert [p.name for p in out.iterdir()] == ["error.json"]
    err = json.loads((out / "error.json").read_text())["error"]
    assert err["type"] == "CouplingError"


@pytest.mark.parametrize("flags", [["--horizon", "nan"],
                                   ["--horizon", "-1"],
                                   ["--horizon", "3.0", "--replicas", "0"]])
def test_couple_rejects_bad_horizon_and_replicas(flags, capsys):
    assert main(["couple", "--n", "25", *flags]) == 1
    captured = capsys.readouterr()
    assert "dominance verified" not in captured.out
    err = json.loads(captured.err.splitlines()[-1])
    assert err["error"]["type"] == "ValueError"


def test_report_on_series_and_events(tmp_path):
    ini = _write(tmp_path, NBBM_INI)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(ini), "--out", str(out),
                 "--log-events"]) == 0
    rep = tmp_path / "rep"
    assert main(["report", "--series", str(out / "series.csv"),
                 "--events", str(out / "events.csv"),
                 "--out", str(rep)]) == 0
    bundle = json.loads((rep / "verdicts.json").read_text())
    names = {v["name"]: v for v in bundle["verdicts"]}
    assert names["speed_med_0.5"]["verdict"] == "info"
    assert "slope" in names["speed_med_0.5"]
    assert names["event_counts"]["branch"] > 0
    assert bundle["failed"] == 0
    mean = (rep / "series_mean.csv").read_text().splitlines()
    assert mean[1] == "t,med_0.25,med_0.5,count"
    assert len(mean) == 2 + len(read_series_csv(out / "series.csv")[1][0].times)


def test_report_series_mean_is_the_mean_of_each_cell(tmp_path):
    # from 8 replicas on, a mean along the replica axis sums pairwise and
    # rounds differently from np.mean over one cell's replicas
    ini = _write(tmp_path, BBBM_INI)
    out, rep = tmp_path / "run", tmp_path / "rep"
    assert main(["simulate", "--config", str(ini), "--out", str(out),
                 "--replicas", "12"]) == 0
    assert main(["report", "--series", str(out / "series.csv"),
                 "--out", str(rep)]) == 0
    h, series = read_series_csv(out / "series.csv")
    mh, header, mean = _table(rep / "series_mean.csv")
    assert mh == h and header == ["t"] + list(series[0].columns)
    assert np.array_equal(mean[:, 0], series[0].times)
    nonfinite = 0
    for j, col in enumerate(header[1:], start=1):
        stack = np.stack([s.columns[col] for s in series])
        for i, cell in enumerate(stack.T):
            if np.isfinite(cell).all():
                assert mean[i, j] == np.mean(cell), (col, i)
            else:
                assert math.isnan(mean[i, j]), (col, i)
                nonfinite += 1
    assert nonfinite > 0


@pytest.mark.parametrize("rows", [
    "0,0.0,1.0\n0,0.5,2.0\n1,0.0,1.5\n",
    "0,0.0,1.0\n0,0.5,2.0\n1,0.0,1.5\n1,0.25,2.5\n",
], ids=["unequal-counts", "other-times"])
def test_report_rejects_replicas_off_one_time_grid(tmp_path, capsys, rows):
    bad = _write(tmp_path, "# manifest=x\nreplica,t,med_0.5\n" + rows,
                 "series.csv")
    rep = tmp_path / "rep"
    rep.mkdir()
    assert main(["report", "--series", str(bad), "--out", str(rep)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"]["type"] == "ValueError"
    assert str(bad) in err["error"]["message"]
    assert "time grid" in err["error"]["message"]
    assert json.loads((rep / "error.json").read_text()) == err
    assert not (rep / "series_mean.csv").exists()


def test_report_levy_tables(tmp_path):
    rng = np.random.default_rng(5)
    inc = tmp_path / "increments.csv"
    write_levy_csv(inc, np.arange(2000), np.full(2000, 0.01),
                   rng.normal(0.1, 0.5, 2000), 5, "ab")
    rep = tmp_path / "rep"
    main(["report", "--levy", str(inc), "--out", str(rep)])
    h, header, cf = _table(rep / "cf_table.csv")
    assert h == "ab"
    assert header == ["lam", "emp_re", "emp_im", "model_re", "model_im",
                      "deviation", "se"]
    assert cf[:, 0].tolist() == list(_CF_LAMBDAS)
    h, header, dens = _table(rep / "increment_density.csv")
    assert h == "ab" and header == ["bin_lo", "bin_hi", "mass"]
    assert np.array_equal(dens[1:, 0], dens[:-1, 1])
    assert np.all(dens[:, 0] < dens[:, 1]) and np.all(dens[:, 2] >= 0.0)
    assert math.isclose(math.fsum(dens[:, 2]), 1.0, rel_tol=1e-12)


# Run in a fresh interpreter, where no scipy module is loaded yet and a
# finder at the head of sys.meta_path makes every scipy import raise.
# argv: the nbbm config, the bbbm config, the scratch directory.
_SCIPY_FREE_RUNS = """\
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, BlockScipy())
import nbbm.calibrate
from nbbm.cli import main

nbbm_ini, bbbm_ini, tmp = sys.argv[1:]
report = {"polynomial": sorted(m for m in sys.modules
                               if m.startswith("numpy.polynomial"))}
runs = {
    "nbbm": ["simulate", "--config", nbbm_ini, "--out", tmp + "/nbbm"],
    "bbbm": ["simulate", "--config", bbbm_ini, "--out", tmp + "/bbbm"],
    "coupled": ["simulate", "--config", nbbm_ini, "--mode", "coupled",
                "--out", tmp + "/coupled"],
    "couple": ["couple", "--n", "25", "--horizon", "1.0", "--out",
               tmp + "/couple"],
    "report": ["report", "--series", tmp + "/nbbm/series.csv", "--out",
               tmp + "/report"],
    "levy": ["levy", "--samples", "200", "--t", "0.5", "--out",
             tmp + "/levy"],
    "report-levy": ["report", "--levy", tmp + "/levy/increments.csv",
                    "--out", tmp + "/report-levy"],
    "kernels-selfcheck": ["kernels-selfcheck"],
}
for name, argv in runs.items():
    report[name] = main(argv)
try:
    import scipy.special
    report["blocked"] = False
except ImportError:
    report["blocked"] = True
print(json.dumps(report))
"""


def test_runs_never_import_scipy(tmp_path):
    env = dict(os.environ)
    src = str(Path(nbbm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUNS,
         str(_write(tmp_path, NBBM_INI, "nbbm.ini")),
         str(_write(tmp_path, BBBM_INI, "bbbm.ini")), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    # importing the package leaves the quadrature's numpy.polynomial unloaded
    assert report.pop("polynomial") == []
    assert report.pop("blocked") is True
    assert report == dict.fromkeys(
        ["nbbm", "bbbm", "coupled", "couple", "report", "levy", "report-levy",
         "kernels-selfcheck"], 0), report


def test_report_passes_true_increments(tmp_path):
    lev = tmp_path / "levy"
    assert main(["levy", "--out", str(lev), "--samples", "5000",
                 "--t", "0.01", "--seed", "3"]) == 0
    rep = tmp_path / "rep"
    assert main(["report", "--levy", str(lev / "increments.csv"),
                 "--out", str(rep)]) == 0
    bundle = json.loads((rep / "verdicts.json").read_text())
    cf = next(v for v in bundle["verdicts"] if v["name"] == "cf_vs_kappa")
    assert cf["verdict"] == "pass"
    assert (rep / "cf_table.csv").exists()
    assert (rep / "increment_density.csv").exists()


def test_report_fails_gaussian_impostor(tmp_path):
    from nbbm.engine import rng_stream
    from nbbm.runio import write_levy_csv

    rng = rng_stream(9, 0, 0)
    vals = rng.normal(0.103, math.sqrt(0.325), 2000)
    fake = tmp_path / "fake.csv"
    write_levy_csv(fake, np.arange(2000), np.full(2000, 0.01), vals, 9, "ff")
    rep = tmp_path / "rep"
    assert main(["report", "--levy", str(fake), "--out", str(rep)]) == 1
    bundle = json.loads((rep / "verdicts.json").read_text())
    assert bundle["failed"] == 1


def _series(cols, replicas, times, cells):
    """A hand-written series CSV: cells(r, t) gives replica r's row at t."""
    rows = [",".join(map(repr, (r, t, *cells(r, t))))
            for r in range(replicas) for t in times]
    return "\n".join(["# manifest=x", "replica,t," + ",".join(cols)]
                     + rows) + "\n"


def _increments(spans):
    """A hand-written levy CSV, one increment of each span."""
    rows = [f"{i},{t!r},{0.01 * (i % 7)!r},3" for i, t in enumerate(spans)]
    return "\n".join(["# manifest=x", "replica,t,value,seed"] + rows) + "\n"


@pytest.mark.parametrize("flag, text, name, verdict, needle", [
    ("--series", _series(["med_0.5"], 1, [0.0, 1.0, 2.0, 3.0],
                         lambda r, t: (t,)),
     "speed_med_0.5", "skipped", "need >= 2 replicas"),
    # the default burn-in, a quarter of the last time, leaves t = 1 and 2
    ("--series", _series(["med_0.5"], 2, [0.0, 1.0, 2.0],
                         lambda r, t: (t + r,)),
     "speed_med_0.5", "skipped", "burn_in leaves fewer than 3 samples"),
    ("--series", _series(["Z"], 30, [0.0, 1.0],
                         lambda r, t: (1.0 + 0.1 * t * (-1) ** r,)),
     "martingale_Z", "pass", "pass Z martingale"),
    ("--series", _series(["Z"], 30, [0.0, 1.0],
                         lambda r, t: (1.0 + t + 0.1 * t * (-1) ** r,)),
     "martingale_Z", "fail", "FAIL Z martingale"),
    ("--levy", _increments([0.01] * 300 + [0.02]),
     "cf_vs_kappa", "skipped", "mixed increment spans"),
    ("--levy", _increments([0.01] * 199),
     "cf_vs_kappa", "skipped", "unreliable below 200"),
], ids=["speed-one-replica", "speed-burn-in-past-the-data",
        "martingale-pass", "martingale-fail", "cf-mixed-spans",
        "cf-too-few-increments"])
def test_report_verdict_branches(tmp_path, flag, text, name, verdict, needle):
    data = _write(tmp_path, text, "input.csv")
    rep = tmp_path / "rep"
    code = main(["report", flag, str(data), "--out", str(rep)])
    assert code == (1 if verdict == "fail" else 0)
    bundle = json.loads((rep / "verdicts.json").read_text())
    found = {v["name"]: v for v in bundle["verdicts"]}[name]
    assert found["verdict"] == verdict
    assert needle in (found.get("reason") or found["line"])


def test_report_requires_an_input(capsys):
    assert main(["report", "--out", "x"]) == 1
    assert "at least one input" in capsys.readouterr().err


def test_error_record_lands_in_out_dir(tmp_path, capsys):
    rep = tmp_path / "rep"
    rep.mkdir()
    assert main(["report", "--series", str(tmp_path / "missing.csv"),
                 "--out", str(rep)]) == 1
    record = json.loads((rep / "error.json").read_text())
    assert record["error"]["type"] == "FileNotFoundError"
    capsys.readouterr()


@pytest.mark.parametrize("text, needle", [
    ("# manifest=x\n", "replica,t"),
    ("# manifest=x\nreplica,t,med_0.5\n", "no data rows"),
    ("# manifest=x\nreplica,t,med_0.5\n0,0.0,1.0\n0,0.1\n", "2 fields"),
], ids=["manifest-only", "header-only", "short-row"])
def test_report_rejects_a_series_without_data(tmp_path, capsys, text,
                                              needle):
    bad = _write(tmp_path, text, "series.csv")
    rep = tmp_path / "rep"
    rep.mkdir()
    assert main(["report", "--series", str(bad), "--out", str(rep)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"]["type"] == "ValueError"
    assert str(bad) in err["error"]["message"]
    assert needle in err["error"]["message"]
    assert json.loads((rep / "error.json").read_text()) == err


@pytest.mark.parametrize("text, needle", [
    ("# manifest=x\n", "levy header ''"),
    ("# manifest=x\nreplica,t,value,seed\n", "no data rows"),
    ("# manifest=x\nreplica,t,value,seed\n0,0.01,0.2,3\n1,0.01,0.2\n",
     "3 fields"),
], ids=["manifest-only", "header-only", "short-row"])
def test_report_rejects_levy_increments_without_data(tmp_path, capsys, text,
                                                    needle):
    bad = _write(tmp_path, text, "increments.csv")
    rep = tmp_path / "rep"
    rep.mkdir()
    assert main(["report", "--levy", str(bad), "--out", str(rep)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"]["type"] == "ValueError"
    assert str(bad) in err["error"]["message"]
    assert needle in err["error"]["message"]
    assert json.loads((rep / "error.json").read_text()) == err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__
