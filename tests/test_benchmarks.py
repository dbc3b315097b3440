"""The A/B harness benchmarks/ab.py: its loader, comparer and command line."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks"
                                               / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# each layer's first case shrunk to a few ms: one call of the step, short
# runs and two barrier replicas
SHORT = {"segment": dict(calls=1), "coupled": dict(horizon=0.25),
         "barrier": dict(horizon=1.0, replicas=2), "nbbm": dict(horizon=2.0)}


@pytest.fixture(autouse=True)
def _forget_the_baseline():
    yield
    for name in [m for m in sys.modules if m.startswith("nbbm_baseline")]:
        del sys.modules[name]


def _short(layer):
    unit, make, cases = ab.LAYERS[layer]
    label, name, kw = cases[0]
    return unit, make, [(label, name, {**kw, **SHORT[layer]})]


def _resolves_every_function(layer, where):
    names = {name for _, name, _ in ab.LAYERS[layer][2]}
    for name in names:
        fn = ab.load(name, str(ROOT / where))
        module, func = name.rsplit(".", 1)
        assert fn.__module__ == f"nbbm_baseline.{module}"
        assert fn.__name__ == func
    return names


@pytest.mark.parametrize("where", [".", "src"])
def test_segment_step_baseline_is_a_checkout_or_its_src(where):
    assert _resolves_every_function("segment", where) \
        == {"ensemble.step_segments"}


@pytest.mark.parametrize("where", [".", "src"])
def test_coupled_per_event_baseline_is_a_checkout_or_its_src(where):
    assert _resolves_every_function("coupled", where) \
        == {"selection.run_coupled"}


@pytest.mark.parametrize("where", [".", "src"])
def test_barrier_step_baseline_is_a_checkout_or_its_src(where):
    assert _resolves_every_function("barrier", where) \
        == {"selection.run_bbbm", "selection.run_bflat",
            "selection.run_bsharp"}


@pytest.mark.parametrize("where", [".", "src"])
def test_nbbm_lane_baseline_is_a_checkout_or_its_src(where):
    assert _resolves_every_function("nbbm", where) == {"selection.run_nbbm"}


def test_baseline_io_and_cli_run_on_the_baselines_own_classes():
    # a baseline's runio and cli must not reach back into the library's nbbm
    for name in ("runio.write_series_csv", "cli.main"):
        module = sys.modules[ab.load(name, str(ROOT)).__module__]
        assert module.SimConfig.__module__ == "nbbm_baseline.engine", name


def _elsewhere_names_the_path(layer, where):
    for _, name, _ in ab.LAYERS[layer][2]:
        with pytest.raises(SystemExit) as exc:
            ab.load(name, str(where))
        assert str(where) in str(exc.value.code)


def test_segment_step_baseline_elsewhere_names_the_path(tmp_path):
    _elsewhere_names_the_path("segment", tmp_path)


def test_coupled_per_event_baseline_elsewhere_names_the_path(tmp_path):
    _elsewhere_names_the_path("coupled", tmp_path)


def test_barrier_step_baseline_elsewhere_names_the_path(tmp_path):
    _elsewhere_names_the_path("barrier", tmp_path)


def test_nbbm_lane_baseline_elsewhere_names_the_path(tmp_path):
    _elsewhere_names_the_path("nbbm", tmp_path)


def _identical_to_itself_until(layer, change):
    # the two packages' classes differ, so the comparison must not lean on
    # their equality, yet must still see one changed entry
    _, make, ((_, name, kw),) = _short(layer)
    old, new = (make(fn, 1, **kw)()[0]
                for fn in (ab.load(name, str(ROOT)), ab.load(name)))
    assert type(old) is not type(new) or type(new).__module__ == "builtins"
    assert ab.same(new, old)
    change(new)
    assert not ab.same(new, old)


def test_segment_step_finds_a_checkout_identical_to_itself():
    def change(out):
        out[0][0] += 1e-12  # one survivor's position
    _identical_to_itself_until("segment", change)


def test_coupled_per_event_finds_a_checkout_identical_to_itself():
    def change(out):
        assert out.events > 0
        out.final_minus[-1] += 1e-12
    _identical_to_itself_until("coupled", change)


def test_barrier_step_finds_a_checkout_identical_to_itself():
    def change(out):
        assert out[0].series.columns["count"][-1] > 0
        out[1].series.columns["Y"][0] += 1.0
    _identical_to_itself_until("barrier", change)


def test_nbbm_lane_finds_a_checkout_identical_to_itself():
    def change(out):
        out.series[0].columns["med_0.5"][-1] += 1e-12
    _identical_to_itself_until("nbbm", change)


@pytest.mark.parametrize("layer", list(SHORT))
def test_ab_times_each_layer_against_a_checkout(layer, monkeypatch, capsys):
    monkeypatch.setitem(ab.LAYERS, layer, _short(layer))
    ab.main([layer, "--baseline", str(ROOT), "--pairs", "1"])
    out = capsys.readouterr().out
    assert "new/old per pair" in out
    assert "identical in every pair: True" in out
