"""Session-scoped Ray fixture (driver contract: init ONCE per session)."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf001():
    """The sf0.01 table directory the correctness gate runs the
    registered queries on (a sibling of the entry smoke's sf0.001)."""
    import os

    import __ray_entry__

    return os.path.join(os.path.dirname(__ray_entry__.SF0001), "sf0.01")
