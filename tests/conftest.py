from pathlib import Path

import numpy as np
import pytest

from padefit import Dataset, rational, selection
from padefit.cli import read_points

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def table1() -> Dataset:
    """Shipped failure-time fixture: 10 sorted times with Benard ranks."""
    x, f = read_points(str(DATA_DIR / "table1.csv"))
    return Dataset(x, f)


@pytest.fixture
def bisections(monkeypatch) -> list:
    """The arguments of every padefit.rational._bisect call in the test."""
    calls = []
    bisect = rational._bisect
    monkeypatch.setattr(rational, "_bisect", lambda *args: calls.append(args) or bisect(*args))
    return calls


@pytest.fixture
def scan_evaluations(monkeypatch) -> list:
    """The interval and model count of every pole-scan batch evaluation
    (padefit.rational._scan) in the test."""
    calls = []
    scan = rational._scan

    def counting(c, exponents, a, b, points):
        calls.append(((a, b), len(exponents)))
        return scan(c, exponents, a, b, points)

    monkeypatch.setattr(rational, "_scan", counting)
    return calls


@pytest.fixture
def substitutions(monkeypatch) -> list:
    """The exponent and abscissa shape of every domain check that
    padefit.rational makes in the test: one per substitution t = x**q
    (rational._substitutions), and one of shape () per exponent of a pole
    scan batch."""
    calls = []
    check = rational.require_nonnegative

    def counting(x, x_power):
        calls.append((x_power, np.shape(x)))
        return check(x, x_power)

    monkeypatch.setattr(rational, "require_nonnegative", counting)
    return calls


@pytest.fixture
def counted_scans(monkeypatch) -> list:
    """The interval and model count of every pole_scans call that
    padefit.selection makes in the test."""
    calls = []
    scans = selection.pole_scans

    def counting(models, interval, points):
        calls.append((tuple(interval), len(models)))
        return scans(models, interval, points)

    monkeypatch.setattr(selection, "pole_scans", counting)
    return calls


@pytest.fixture
def linalg_calls(monkeypatch) -> dict:
    """The number of np.linalg.qr, svd and solve calls in the test."""
    calls = {"qr": 0, "svd": 0, "solve": 0}

    def counted(name, call):
        def counting(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)

        return counting

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls


@pytest.fixture
def factored(monkeypatch) -> list:
    """(name, matrices) of every np.linalg.qr, svd and solve call in the
    test: the leading stack size of its first argument, 1 for one matrix."""
    calls = []

    def counted(name, call):
        def counting(a, *args, **kwargs):
            calls.append((name, a.shape[0] if a.ndim > 2 else 1))
            return call(a, *args, **kwargs)

        return counting

    for name in ("qr", "svd", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls
