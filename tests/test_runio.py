"""Persistence formats: manifests, CSV logs, binary checkpoints."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nbbm.engine import ReproductionLaw, SimConfig
from nbbm.kernels import IntervalParams
from nbbm.runio import (
    ExperimentManifest,
    _config_from_dict,
    _config_to_dict,
    canonical_hash,
    fmt_real,
    load_population,
    read_events_csv,
    read_levy_csv,
    read_series_csv,
    save_population,
    series_columns,
    write_events_csv,
    write_levy_csv,
    write_series_csv,
)
from nbbm.stats import StatsSeries


# ---------------------------------------------------------------------------
# primitives


def test_fmt_real_round_trips_awkward_doubles():
    values = [0.1, 1.0 / 3.0, math.pi, 1e-300, 2.0 ** 1023, -0.0,
              np.nextafter(1.0, 2.0), 6.02e23, -1.7976931348623157e308]
    for v in values:
        assert float(fmt_real(v)) == v


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_real_round_trips_any_double(x):
    assert float(fmt_real(x)) == x


def test_canonical_hash_ignores_key_order():
    h1 = canonical_hash({"a": 1, "b": [2, 3]})
    h2 = canonical_hash({"b": [2, 3], "a": 1})
    assert h1 == h2
    assert len(h1) == 16 and int(h1, 16) >= 0
    assert canonical_hash({"a": 2, "b": [2, 3]}) != h1


# ---------------------------------------------------------------------------
# manifest


def _cfg(**kw):
    base = dict(law=ReproductionLaw.binary(), interval=IntervalParams(5.0),
                dt=0.1, horizon=10.0, replicas=2, seed=7, alphas=(0.5,),
                A=1.0, epsilon=0.5, y=2.0, zeta=4.0)
    base.update(kw)
    return SimConfig(**base)


def _full_cfg():
    # every SimConfig field set, none at its default
    return SimConfig(law=ReproductionLaw((0.1, 0.0, 0.6, 0.3)),
                     interval=IntervalParams(5.0), dt=0.05, horizon=10.0,
                     replicas=3, seed=7, n_select=40, alphas=(0.25, 0.5),
                     A=1.2, epsilon=1e-6, y=2.0, zeta=6.0, delta_color=0.5,
                     sample_every=0.5, zeta_breakout=False)


def test_manifest_config_schema_is_pinned():
    # the manifest's config dict and hash are an on-disk format: a change
    # to either moves the hash of every manifest
    assert _config_to_dict(_full_cfg()) == {
        "law": [0.1, 0.0, 0.6, 0.3], "interval_a": 5.0, "dt": 0.05,
        "horizon": 10.0, "replicas": 3, "seed": 7, "n_select": 40,
        "alphas": [0.25, 0.5], "A": 1.2, "epsilon": 1e-06, "y": 2.0,
        "zeta": 6.0, "delta_color": 0.5, "sample_every": 0.5,
        "zeta_breakout": False}
    assert ExperimentManifest(_full_cfg(), "bbbm",
                              code_version="0.0.0").hash() \
        == "792c72f884b91680"


@pytest.mark.parametrize("cfg", [
    SimConfig(law=ReproductionLaw.binary()), _full_cfg()],
    ids=["optional-fields-none", "every-field-set"])
def test_config_dict_round_trips(cfg):
    assert _config_from_dict(_config_to_dict(cfg)) == cfg


def test_manifest_round_trip(tmp_path):
    m = ExperimentManifest(_cfg(), "bbbm", outputs={"series": "s.csv"},
                           created_at="2024-05-01T00:00:00Z")
    path = tmp_path / "manifest.json"
    m.save(path)
    back = ExperimentManifest.load(path)
    assert back.hash() == m.hash()
    assert back.mode == "bbbm"
    assert back.outputs == {"series": "s.csv"}
    assert back.config.seed == 7
    assert back.config.interval.a == 5.0
    assert back.config.law.probabilities == (0.0, 0.0, 1.0)


def test_manifest_hash_excludes_run_placement():
    base = ExperimentManifest(_cfg(), "bbbm")
    # a manifest written while the config had a thread count still loads,
    # with the same hash
    old = base.to_json_dict()
    old["config"]["threads"] = 8
    assert "threads" not in base.to_json_dict()["config"]
    assert ExperimentManifest.from_json_dict(old).hash() == base.hash()
    assert ExperimentManifest(_cfg(), "bbbm",
                              outputs={"x": "y"}).hash() == base.hash()
    assert ExperimentManifest(_cfg(), "bbbm",
                              created_at="now").hash() == base.hash()


def test_manifest_loads_an_old_config_with_c_center():
    # c_center was parsed and hashed but read by no simulation; an old
    # manifest that still carries it loads, its stored hash aside
    base = ExperimentManifest(_cfg(), "bbbm")
    old = base.to_json_dict()
    old["config"]["c_center"] = 0.25
    assert "c_center" not in base.to_json_dict()["config"]
    assert _config_from_dict(old["config"]) == base.config
    del old["hash"]
    assert ExperimentManifest.from_json_dict(old).hash() == base.hash()


def test_manifest_loads_an_old_config_with_eta():
    # eta fed only two regime warnings; an old manifest that still carries
    # it loads as one with c_center does, its stored hash aside
    base = ExperimentManifest(_cfg(), "bbbm")
    old = base.to_json_dict()
    old["config"]["eta"] = 1e-5
    assert "eta" not in base.to_json_dict()["config"]
    assert _config_from_dict(old["config"]) == base.config
    del old["hash"]
    assert ExperimentManifest.from_json_dict(old).hash() == base.hash()


def test_manifest_loads_an_old_config_with_max_segments():
    # max_segments bounded only a companion event-log run, which is gone;
    # an old manifest that still carries it loads as one with c_center
    # does: its stored hash covered the key, so only without that hash
    base = ExperimentManifest(_cfg(), "nbbm")
    old = base.to_json_dict()
    old["config"]["max_segments"] = 50_000_000
    assert "max_segments" not in base.to_json_dict()["config"]
    assert _config_from_dict(old["config"]) == base.config
    old["hash"] = canonical_hash({k: old[k] for k in (
        "schema", "mode", "code_version", "config")})
    with pytest.raises(ValueError, match="hash mismatch"):
        ExperimentManifest.from_json_dict(old)
    del old["hash"]
    assert ExperimentManifest.from_json_dict(old).hash() == base.hash()


def test_manifest_hash_covers_the_experiment_identity():
    base = ExperimentManifest(_cfg(), "bbbm").hash()
    assert ExperimentManifest(_cfg(seed=8), "bbbm").hash() != base
    assert ExperimentManifest(_cfg(dt=0.2), "bbbm").hash() != base
    assert ExperimentManifest(_cfg(), "bflat",
                              ).hash() != base  # mode matters
    other = ExperimentManifest(_cfg(), "bbbm", code_version="0.0.0")
    assert other.hash() != base


def test_manifest_rejects_unknown_mode():
    with pytest.raises(ValueError):
        ExperimentManifest(_cfg(), "warp")


def test_manifest_rejects_tampered_payload(tmp_path):
    m = ExperimentManifest(_cfg(), "bbbm")
    d = m.to_json_dict()
    d["config"]["seed"] = 99
    d["seed"] = 99
    with pytest.raises(ValueError, match="hash mismatch"):
        ExperimentManifest.from_json_dict(d)
    with pytest.raises(ValueError, match="schema"):
        ExperimentManifest.from_json_dict({"schema": "nbbm-manifest-9"})


# ---------------------------------------------------------------------------
# series CSV


def _series(replica, scale=1.0):
    times = np.array([0.0, 0.5, 1.0])
    return StatsSeries(times, {
        "med_0.5": scale * np.array([0.1, 0.2, 1.0 / 3.0]),
        "med_0.25": scale * np.array([1.0, 2.0, math.pi]),
        "count": np.array([3.0, 4.0, 5.0]),
        "Z": scale * np.array([1e-10, 2.5, 17.0]),
    }, replica=replica)


def test_series_csv_round_trip(tmp_path):
    path = tmp_path / "series.csv"
    orig = [_series(0), _series(1, scale=0.7)]
    write_series_csv(path, orig, "deadbeefdeadbeef")
    text = path.read_text()
    assert text.startswith("# manifest=deadbeefdeadbeef\n")
    assert text.splitlines()[1] == "replica,t,med_0.25,med_0.5,count,Z"
    h, back = read_series_csv(path)
    assert h == "deadbeefdeadbeef"
    assert len(back) == 2
    for s_in, s_out in zip(orig, back):
        assert s_out.replica == s_in.replica
        assert np.array_equal(s_out.times, s_in.times)
        for name, col in s_in.columns.items():
            assert np.array_equal(s_out.columns[name], col), name


def test_series_csv_errors(tmp_path):
    with pytest.raises(ValueError):
        write_series_csv(tmp_path / "x.csv", [], "h")
    other = StatsSeries(np.array([0.0]), {"count": np.array([1.0])},
                        replica=1)
    with pytest.raises(ValueError, match="column sets differ"):
        write_series_csv(tmp_path / "x.csv", [_series(0), other], "h")
    bad = tmp_path / "bad.csv"
    bad.write_text("replica,t,count\n0,0.0,1\n")
    with pytest.raises(ValueError, match="manifest header"):
        read_series_csv(bad)
    bad.write_text("# manifest=h\nt,replica,count\n")
    with pytest.raises(ValueError, match="replica,t"):
        read_series_csv(bad)


def test_series_csv_renders_each_cell_as_fmt_real(tmp_path):
    # columns rendered whole must give the bytes of the cell-by-cell
    # rendering: awkward doubles, and integer and boolean columns
    tiny = np.nextafter(0.0, 1.0)
    awkward = np.array([-math.inf, math.nan, 0.0, -0.0, tiny, -tiny * 3,
                        2.2250738585072014e-308 / 7, math.inf, 1.0 / 3.0,
                        1e300])
    n = len(awkward)
    series = [StatsSeries(np.linspace(0.0, 0.9, n), {
        "med_0.5": awkward,
        "count": np.arange(n, dtype=np.int64) * (2 ** 40 + 1),
        "R_cum": np.arange(n) % 3 == 0,
        "Z": awkward[::-1] * 0.5,
    }, replica=r) for r in (0, 7)]
    path = tmp_path / "series.csv"
    write_series_csv(path, series, "h")
    cols = series_columns(series[0])
    want = ["# manifest=h", ",".join(["replica", "t"] + cols)]
    for s in series:
        for i, t in enumerate(s.times):
            want.append(",".join([str(s.replica), fmt_real(t)]
                                 + [fmt_real(s.columns[c][i]) for c in cols]))
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def test_series_column_order():
    s = StatsSeries(np.array([0.0]), {
        "zebra": np.array([1.0]),
        "barrier_shift": np.array([0.0]),
        "med_0.75": np.array([1.0]),
        "count": np.array([1.0]),
        "med_0.5": np.array([1.0]),
        "alpha_extra": np.array([2.0]),
    })
    assert series_columns(s) == ["med_0.5", "med_0.75", "count",
                                 "barrier_shift", "alpha_extra", "zebra"]


# ---------------------------------------------------------------------------
# events CSV


def test_events_csv_round_trip(tmp_path):
    events = [(0.25, -1, 3.5, 2), (0.5, -2, 1.0 / 3.0, 0), (0.75, 0, -2.0, 3)]
    path = tmp_path / "events.csv"
    write_events_csv(path, events, "cafecafecafecafe")
    lines = path.read_text().splitlines()
    assert lines[0] == "# manifest=cafecafecafecafe"
    assert lines[1] == "time,parent,position,k"
    assert lines[2] == "0.25,-1,3.5,2"
    h, back = read_events_csv(path)
    assert h == "cafecafecafecafe"
    assert list(zip(*(back[c].tolist()
                      for c in ("time", "parent", "position", "k")))) == events
    assert back["parent"].dtype == back["k"].dtype == np.int64


def test_events_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "events.csv"
    for body, needle in (
            ("event,time,label,position,k\nbranch,0,1,0.0,2\n", "header"),
            ("time,parent,position,k\n0.1,-1,0.0\n", "4 fields"),
            ("time,parent,position,k\n0.1,-1,0.0,2\n0.2,1,0.0,2\n",
             "precede")):
        path.write_text("# manifest=h\n" + body)
        with pytest.raises(ValueError, match=needle):
            read_events_csv(path)


# ---------------------------------------------------------------------------
# levy CSV


def test_levy_csv_round_trip(tmp_path):
    path = tmp_path / "levy.csv"
    rep = np.array([0, 0, 1])
    t = np.array([1.0, 2.0, 1.0])
    val = np.array([0.125, -3.5, 1.0 / 3.0])
    write_levy_csv(path, rep, t, val, seed=42, manifest_hash="aa")
    h, data = read_levy_csv(path)
    assert h == "aa"
    assert np.array_equal(data["replica"], rep)
    assert np.array_equal(data["t"], t)
    assert np.array_equal(data["value"], val)
    assert np.all(data["seed"] == 42)


def test_levy_csv_length_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_levy_csv(tmp_path / "x.csv", np.array([0]),
                       np.array([1.0, 2.0]), np.array([1.0]), 0, "h")


# ---------------------------------------------------------------------------
# population checkpoints


_POS = np.array([0.5, -1.25, 1e-12])


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "pop.bin"
    save_population(path, _POS, 3.25, "feedfacefeedface")
    h, time, pos = load_population(path)
    assert h == "feedfacefeedface" and time == 3.25
    assert np.array_equal(pos, _POS) and pos.dtype == np.float64
    # header, count and time, then eight bytes per position
    assert len(path.read_bytes()) == 42 + 8 * len(_POS)


def test_checkpoint_unstamped_hash_is_empty(tmp_path):
    path = tmp_path / "pop.bin"
    save_population(path, _POS, 0.0)
    assert load_population(path)[0] == ""


@pytest.mark.parametrize("cut", [8, 12, 20])
def test_checkpoint_refuses_a_truncated_header(tmp_path, cut):
    path = tmp_path / "pop.bin"
    save_population(path, _POS, 3.25, "abcdef0123456789")
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="truncated checkpoint"):
        load_population(path)


def test_checkpoint_corruption_errors(tmp_path):
    path = tmp_path / "pop.bin"
    save_population(path, _POS, 3.25, "aa")
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTAPOP!" + bytes(blob[8:]))
    with pytest.raises(ValueError, match="not a population checkpoint"):
        load_population(bad)

    versioned = bytearray(blob)
    versioned[8] = 99
    bad.write_bytes(bytes(versioned))
    with pytest.raises(ValueError, match="version"):
        load_population(bad)

    for cut in (4, len(blob) - 20):
        bad.write_bytes(bytes(blob[:-cut]))
        with pytest.raises(ValueError, match="truncated"):
            load_population(bad)

    bad.write_bytes(bytes(blob) + b"\x00\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_population(bad)


def test_checkpoint_rejects_bad_payloads(tmp_path):
    path = tmp_path / "pop.bin"
    with pytest.raises(ValueError, match="1-d"):
        save_population(path, _POS.reshape(3, 1), 0.0)
    with pytest.raises(ValueError, match="too long"):
        save_population(path, _POS, 0.0, "x" * 17)
    save_population(path, np.array([1.0, math.inf]), 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        load_population(path)
