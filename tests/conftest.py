"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture()
def use_cpus(monkeypatch):
    """A function that makes the library see n CPUs available to the
    process (os.sched_getaffinity), whatever the host has, until the test
    ends."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return use
