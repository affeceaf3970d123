"""Shared fixtures for the test suite.

Besides the basic deterministic fixtures, this module hosts the seeded
generators behind the DSE property/differential tests
(``tests/dse/test_batch_*.py``): factories that grow randomized design
spaces and configuration batches from an explicit seed, so every
"random" case is reproducible from its parametrized seed alone.

Every test starts from the session's
:class:`~repro.runconfig.RunConfig` and gets it back afterwards, so a
test that installs its own config (or runs ``c2bound`` in-process)
cannot leak settings into the next one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import ApplicationProfile, MachineParameters
from repro.runconfig import current, install


@pytest.fixture(autouse=True)
def _run_config():
    """Run each test under the session's config, restored afterwards."""
    previous = install(current())
    yield
    install(previous)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def random_space_factory():
    """Seeded generator of randomized surrogate-ready design spaces.

    ``factory(seed)`` draws a :class:`~repro.dse.space.DesignSpace` over
    the six C2-Bound parameters with randomized grid sizes and values —
    wide enough to straddle the Eq. 12 feasibility boundary so batches
    mix feasible and infeasible points.
    """
    from repro.dse.space import DesignSpace, Parameter

    def factory(seed: int, *, max_values: int = 4) -> DesignSpace:
        gen = np.random.default_rng(seed)

        def fgrid(lo: float, hi: float) -> tuple:
            k = int(gen.integers(2, max_values + 1))
            vals = np.sort(gen.uniform(lo, hi, size=k))
            # Perturb duplicates apart (uniform draws collide with
            # probability ~0, but stay deterministic about it).
            return tuple(float(v) + 1e-9 * i for i, v in enumerate(vals))

        def igrid(lo: int, hi: int) -> tuple:
            k = int(gen.integers(2, max_values + 1))
            vals = gen.choice(np.arange(lo, hi + 1), size=k, replace=False)
            return tuple(int(v) for v in np.sort(vals))

        return DesignSpace([
            Parameter("a0", fgrid(0.1, 4.0)),
            Parameter("a1", fgrid(0.05, 2.0)),
            Parameter("a2", fgrid(0.05, 4.0)),
            Parameter("n", igrid(1, 128)),
            Parameter("issue_width", igrid(1, 10)),
            Parameter("rob_size", igrid(8, 512)),
        ])

    return factory


@pytest.fixture
def random_config_batch_factory():
    """Seeded generator of config batches with deliberate duplicates.

    ``factory(space, seed, size)`` samples configurations (with
    replacement) from a design space and shuffles in exact duplicates —
    the adversarial input for memoization/budget invariants.
    """

    def factory(space, seed: int, size: int = 40) -> list[dict]:
        gen = np.random.default_rng(seed)
        idx = gen.integers(0, space.size, size=size)
        configs = [space.config_at(int(i)) for i in idx]
        # Re-append a third of the batch as duplicates, then shuffle.
        dups = [dict(configs[int(i)])
                for i in gen.integers(0, size, size=max(size // 3, 1))]
        batch = configs + dups
        gen.shuffle(batch)
        return batch

    return factory


@pytest.fixture
def default_app() -> ApplicationProfile:
    """A representative application profile."""
    return ApplicationProfile(f_seq=0.02, f_mem=0.3, concurrency=4.0)


@pytest.fixture
def default_machine() -> MachineParameters:
    """The default machine parameters."""
    return MachineParameters()
