"""Command-line handling of the scripts under benchmarks/."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def segment_step():
    spec = importlib.util.spec_from_file_location(
        "segment_step", ROOT / "benchmarks" / "segment_step.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    yield mod
    for name in [m for m in sys.modules if m.startswith("nbbm_baseline")]:
        del sys.modules[name]


@pytest.mark.parametrize("where", [".", "src"])
def test_segment_step_baseline_is_a_checkout_or_its_src(segment_step, where):
    step = segment_step.load_step(str(ROOT / where))
    assert step.__module__ == "nbbm_baseline.ensemble"


def test_segment_step_baseline_elsewhere_names_the_path(segment_step,
                                                        tmp_path):
    with pytest.raises(SystemExit) as exc:
        segment_step.load_step(str(tmp_path))
    assert str(tmp_path) in str(exc.value.code)
