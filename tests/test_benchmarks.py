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


@pytest.fixture()
def barrier_step(monkeypatch):
    return _script("barrier_step", monkeypatch)


@pytest.mark.parametrize("where", [".", "src"])
def test_barrier_step_baseline_is_a_checkout_or_its_src(barrier_step, where):
    for mode, name in barrier_step.BASELINES.items():
        run = barrier_step.load_baseline(str(ROOT / where), name)
        assert run.__module__ == "nbbm_baseline.selection"
        assert run.__name__ == f"run_{mode}"


def test_barrier_step_baseline_elsewhere_names_the_path(barrier_step,
                                                        tmp_path):
    with pytest.raises(SystemExit) as exc:
        barrier_step.load_baseline(str(tmp_path),
                                   barrier_step.BASELINES["bbbm"])
    assert str(tmp_path) in str(exc.value.code)


def test_barrier_step_finds_a_checkout_identical_to_itself(barrier_step):
    # the two packages' classes differ, so the comparison must not lean on
    # their equality, yet must still see a changed entry; a short run of
    # each case keeps this cheap
    for mode, name in barrier_step.BASELINES.items():
        kw = dict(barrier_step.CASES[mode], horizon=1.0, replicas=2)
        runs = (barrier_step.load_baseline(str(ROOT), name),
                barrier_step.RUNNERS[mode])
        old, new = (run(barrier_step.config(run, 1, **kw)) for run in runs)
        assert barrier_step.identical(new, old)
        assert new[0].series.columns["count"][-1] > 0
        new[1].series.columns["Y"][0] += 1.0
        assert not barrier_step.identical(new, old)
