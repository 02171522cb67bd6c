"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def sweeps(monkeypatch):
    """The arguments of each sweep the test makes, from an empty store."""
    from omegalab import complexity

    sweep, swept = complexity._sweep, []
    monkeypatch.setattr(complexity, "_store", {})
    monkeypatch.setattr(complexity, "_sweep", lambda *args: swept.append(args) or sweep(*args))
    return swept
