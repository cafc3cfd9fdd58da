"""Hypothesis draws the same examples on every run and keeps no example
database, so the suite is deterministic."""

import pytest
from hypothesis import settings

from biolock import iris

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def iris_max_shift(monkeypatch):
    """Sets the iris shift range for one test: ``DEFAULT_MAX_SHIFT``, which the
    oracles read, and the shift tables the matcher builds from it at import."""
    def set_max_shift(shift):
        monkeypatch.setattr(iris, "DEFAULT_MAX_SHIFT", shift)
        monkeypatch.setattr(iris, "_SHIFT_TABLES",
                            {scheme: iris._shift_table(scheme) for scheme in iris._SHIFT_TABLES})
    return set_max_shift
