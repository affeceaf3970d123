"""Fixtures for the resilience suite: evaluators, spaces, isolation.

The metrics registry is process-wide; the autouse fixture here gives
every test a private one, so chaos tests cannot leak counters into each
other (or into the rest of the suite).  Journaling is off unless a test
installs a :class:`~repro.runconfig.RunConfig` with a ``checkpoint``
directory, and the root conftest restores the session's config after
every test.
"""

from __future__ import annotations

import pytest

from repro.core.params import ApplicationProfile, MachineParameters
from repro.dse.evaluate import SurrogateEvaluator
from repro.dse.space import DesignSpace, Parameter
from repro.laws.gfunction import PowerLawG
from repro.obs import MetricsRegistry, set_registry


@pytest.fixture(autouse=True)
def fresh_registry() -> MetricsRegistry:
    """Swap in a private process-wide registry for the test's duration."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


@pytest.fixture
def app() -> ApplicationProfile:
    return ApplicationProfile(f_seq=0.02, f_mem=0.35, concurrency=4.0,
                              g=PowerLawG(1.0))


@pytest.fixture
def machine() -> MachineParameters:
    return MachineParameters(total_area=400.0, shared_area=40.0)


@pytest.fixture
def surrogate(app, machine) -> SurrogateEvaluator:
    return SurrogateEvaluator(app, machine)


@pytest.fixture
def small_space() -> DesignSpace:
    return DesignSpace([
        Parameter("a0", (0.25, 0.5, 1.0, 2.0)),
        Parameter("a1", (0.1, 0.25, 0.5, 1.0)),
        Parameter("a2", (0.5, 1.0, 2.0, 4.0)),
        Parameter("n", (2, 8, 32, 64)),
        Parameter("issue_width", (1, 2, 4, 8)),
        Parameter("rob_size", (32, 128, 512)),
    ])


@pytest.fixture
def configs(small_space) -> list:
    """A deterministic mixed batch: every 9th point of the space."""
    return [small_space.config_at(i)
            for i in range(0, small_space.size, 9)]
