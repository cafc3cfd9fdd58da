"""Hypothesis draws the same examples on every run and keeps no example
database, so the suite is deterministic."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
