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


def _exchange_width(monkeypatch, n_cpus: int) -> list:
    """Cut shardutil's exchanges for ``n_cpus`` CPUs; returns the list
    of ``_split_runs`` calls (split tasks started on their own)."""
    from skosconverter_ray.stages import shardutil

    monkeypatch.setattr(shardutil, "_session_cpus", lambda: n_cpus)
    real, calls = shardutil._split_runs, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(shardutil, "_split_runs", spy)
    return calls


@pytest.fixture
def one_task(monkeypatch):
    """Exchanges cut for one CPU: on inputs under the split target the
    split and the gather run in one task, so no split task runs on its
    own."""
    calls = _exchange_width(monkeypatch, 1)
    yield
    assert not calls


@pytest.fixture
def split_gather(monkeypatch):
    """Exchanges cut for four CPUs: split tasks, then at least
    min(B, 4) gather tasks (an empty input may start no exchange)."""
    _exchange_width(monkeypatch, 4)


@pytest.fixture
def ray_calls(monkeypatch):
    """Counts what the driver starts while the test runs: Ray Data
    streaming executions (``executions``) and Ray tasks submitted, by
    remote function name (``tasks``, a Counter)."""
    import types
    from collections import Counter

    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )
    from ray.remote_function import RemoteFunction

    calls = types.SimpleNamespace(executions=0, tasks=Counter())
    execute, remote = StreamingExecutor.execute, RemoteFunction._remote

    def counted_execute(self, *args, **kwargs):
        calls.executions += 1
        return execute(self, *args, **kwargs)

    def counted_remote(self, *args, **kwargs):
        calls.tasks[self._function.__name__] += 1
        return remote(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted_execute)
    monkeypatch.setattr(RemoteFunction, "_remote", counted_remote)
    return calls
