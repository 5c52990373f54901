"""Fixtures shared by the test modules."""

import pytest

from otpsense import simulate


@pytest.fixture
def engine_chunks(monkeypatch):
    """Round counts of every chunk the round engine runs (it still runs them)."""
    chunks, engine = [], simulate._run_rounds

    def recording(*args):
        chunks.append(args[-1])
        return engine(*args)

    monkeypatch.setattr(simulate, "_run_rounds", recording)
    return chunks
