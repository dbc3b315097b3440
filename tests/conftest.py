import numpy as np
import pytest

from nbbm import selection
from nbbm.engine import IntervalParams, ReproductionLaw, rng_stream


@pytest.fixture(scope="session")
def binary_law():
    return ReproductionLaw.binary()


@pytest.fixture(scope="session")
def mixed_law():
    # q(0)=0.2, q(2)=0.5, q(3)=0.3: m = 0.9, m2 = 2.8
    return ReproductionLaw((0.2, 0.0, 0.5, 0.3))


@pytest.fixture(scope="session")
def iv5():
    return IntervalParams(5.0)


@pytest.fixture(scope="session")
def iv10():
    return IntervalParams(10.0)


@pytest.fixture(scope="session")
def iv15():
    return IntervalParams(15.0)


@pytest.fixture()
def faulty_check(monkeypatch):
    """Make `run_coupled`'s per-event check see a fault from the 20th event
    on: a copy of its mid offsets with the first live one, that of the mid
    in the lowest slot carrying one, set to -0.5, moving that mid right of
    its carrier."""
    check, calls = selection.check_coupling, []

    def faulty(p_x, m_off, w_off):
        calls.append(None)
        if len(calls) >= 20:
            m_off = m_off.copy()
            m_off[np.argmax(m_off != -np.inf)] = -0.5
        check(p_x, m_off, w_off)
    monkeypatch.setattr(selection, "check_coupling", faulty)
    return calls


@pytest.fixture()
def rng():
    return rng_stream(1234, 0, 0)


def assert_close(actual, expected, tol, label=""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = float(np.max(np.abs(actual - expected)))
    assert err <= tol, f"{label or 'value'}: |{actual} - {expected}| = {err:g} > {tol:g}"
