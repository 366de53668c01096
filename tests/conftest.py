"""Fixtures shared by the test modules."""

from unittest import mock

import pytest

PLAIN_SUM = sum


class CompensatedSum:
    """The builtin ``sum`` as Python 3.12 computes it for floats, which it
    Neumaier-compensates, recording every float it is given.

    ``patch()`` puts it in place of the builtin. A total taken with
    ``qcore.left_sum`` never reaches it, so ``floats`` stays empty and the
    total rounds the same on every Python version.
    """

    def __init__(self):
        self.floats = []

    @staticmethod
    def neumaier(values, start=0):
        if not values or not all(type(v) is float for v in values):
            return PLAIN_SUM(values, start)
        total, compensation = float(start), 0.0
        for v in values:
            step = total + v
            if abs(total) >= abs(v):
                compensation += (total - step) + v
            else:
                compensation += (v - step) + total
            total = step
        return total + compensation

    def __call__(self, values, start=0):
        values = list(values)
        self.floats.extend(v for v in values if isinstance(v, float))
        return self.neumaier(values, start)

    def patch(self):
        return mock.patch("builtins.sum", self)


@pytest.fixture(scope="session")
def compensated_sum():
    """``CompensatedSum``, to make one recorder per check (session-scoped,
    so that hypothesis tests may take it)."""
    # a reference that rounds as a left-to-right sum would show nothing
    assert CompensatedSum.neumaier([0.1] * 10) != PLAIN_SUM([0.1] * 10)
    return CompensatedSum


@pytest.fixture
def built_records(monkeypatch):
    """The classes of the ``protocols.BranchResult`` records built while a
    test runs, one entry per record, whether through the constructor or
    without checks through ``qcore._prechecked``."""
    from rrqc import protocols, qcore

    built = []
    prechecked, init = qcore._prechecked, protocols.BranchResult.__init__

    def counting_prechecked(cls, fields):
        if issubclass(cls, protocols.BranchResult):
            built.append(cls)
        return prechecked(cls, fields)

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(qcore, "_prechecked", counting_prechecked)
    monkeypatch.setattr(protocols.BranchResult, "__init__", counting_init)
    return built
