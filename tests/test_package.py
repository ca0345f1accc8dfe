"""Package-level plumbing: the fsspec import shim and the bench's
headline list."""

from __future__ import annotations

import importlib.util
import sys

import pytest

import skosconverter_ray

_HTTP = "fsspec.implementations.http"


@pytest.mark.parametrize("aiohttp_present", [False, True])
def test_fsspec_shim_stubs_only_without_aiohttp(monkeypatch,
                                                aiohttp_present):
    """A failing http-filesystem import is stubbed when aiohttp is
    absent, and re-raised when aiohttp is installed (some other fault
    that the stub must not hide)."""
    real_find_spec = importlib.util.find_spec

    def find_spec(name, *a, **k):
        if name == "aiohttp":
            return object() if aiohttp_present else None
        return real_find_spec(name, *a, **k)

    monkeypatch.setattr(importlib.util, "find_spec", find_spec)
    # a None entry makes the import fail with ImportError
    monkeypatch.setitem(sys.modules, _HTTP, None)
    if aiohttp_present:
        with pytest.raises(ImportError):
            skosconverter_ray._shim_fsspec_http()
        return
    skosconverter_ray._shim_fsspec_http()
    with pytest.raises(ModuleNotFoundError, match="aiohttp"):
        sys.modules[_HTTP].HTTPFileSystem()


def test_bench_headline_queries_are_registered():
    import bench
    from skosconverter_ray.queries import QUERIES

    assert [n for n in bench.HEADLINE if n not in QUERIES] == []
