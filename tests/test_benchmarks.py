"""Command-line handling of the scripts under benchmarks/."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name, monkeypatch):
    # the scripts import the shared loader from their own directory
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "benchmarks" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(autouse=True)
def _forget_the_baseline():
    yield
    for name in [m for m in sys.modules if m.startswith("nbbm_baseline")]:
        del sys.modules[name]


@pytest.fixture()
def segment_step(monkeypatch):
    return _script("segment_step", monkeypatch)


@pytest.fixture()
def coupled_per_event(monkeypatch):
    return _script("coupled_per_event", monkeypatch)


@pytest.mark.parametrize("where", [".", "src"])
def test_segment_step_baseline_is_a_checkout_or_its_src(segment_step, where):
    step = segment_step.load_baseline(str(ROOT / where),
                                      segment_step.BASELINE)
    assert step.__module__ == "nbbm_baseline.ensemble"
    assert step.__name__ == "step_segments"


def test_segment_step_baseline_elsewhere_names_the_path(segment_step,
                                                        tmp_path):
    with pytest.raises(SystemExit) as exc:
        segment_step.load_baseline(str(tmp_path), segment_step.BASELINE)
    assert str(tmp_path) in str(exc.value.code)


@pytest.mark.parametrize("where", [".", "src"])
def test_coupled_per_event_baseline_is_a_checkout_or_its_src(
        coupled_per_event, where):
    run = coupled_per_event.load_baseline(str(ROOT / where),
                                          coupled_per_event.BASELINE)
    assert run.__module__ == "nbbm_baseline.selection"
    assert run.__name__ == "run_coupled"


def test_coupled_per_event_baseline_elsewhere_names_the_path(
        coupled_per_event, tmp_path):
    with pytest.raises(SystemExit) as exc:
        coupled_per_event.load_baseline(str(tmp_path),
                                        coupled_per_event.BASELINE)
    assert str(tmp_path) in str(exc.value.code)
