"""Registers the shared fixtures of :mod:`tests.fixtures` with pytest.

All fixture definitions live in ``tests/fixtures.py`` so that test
modules, benchmarks, and ad-hoc scripts can import them without relying
on conftest side effects; this file only re-exports them for fixture
discovery — plus the suite-wide global-RNG guard below.
"""

import pytest

from repro.utils.rng import forbid_global_rng

from tests.fixtures import (  # noqa: F401
    build_micro_database,
    engine,
    micro_db,
    random_databases,
    rng,
    wiki_db,
    wiki_db_session,
)


@pytest.fixture(autouse=True)
def _no_global_rng():
    """Fail any test that draws from the process-global RNGs.

    The runtime companion of lint rules DET001/DET002: framework code
    must thread explicit generators from :mod:`repro.utils.rng`, so a
    draw from ``random.*`` or ``np.random.*`` during a test is a
    determinism bug regardless of which code path issued it.  Tests that
    need to exercise the patched behaviour itself can use the context
    manager directly.
    """
    with forbid_global_rng():
        yield
