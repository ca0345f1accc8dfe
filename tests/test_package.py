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


def test_no_unreferenced_top_level_defs():
    """Every top-level function and class of the package is referenced
    (called, imported or named) somewhere in the tracked ``.py`` files
    besides its own definition. Decorated definitions are skipped: a
    decorator such as the queries' ``@_q`` registers them by name."""
    import ast
    import glob
    import os
    import subprocess
    from collections import Counter

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        files = subprocess.run(["git", "ls-files", "*.py"], cwd=root,
                               capture_output=True, text=True,
                               check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):  # not a git checkout
        files = glob.glob("**/*.py", root_dir=root, recursive=True)
    refs: Counter = Counter()
    defined = []
    for path in files:
        with open(os.path.join(root, path), encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.alias):
                refs[node.name.rsplit(".", 1)[-1]] += 1
        if path.startswith("skosconverter_ray/"):
            defined += [(path, n.name) for n in tree.body
                        if isinstance(n, (ast.FunctionDef,
                                          ast.AsyncFunctionDef, ast.ClassDef))
                        and not n.decorator_list]
    assert [f"{p}::{n}" for p, n in defined if not refs[n]] == []


# Constant ``true AS <col>`` oracle columns whose check reads only the
# query's own pipeline output and starts no second pass over the input.
# A check that needs a second engine or an exact path belongs in
# tests/test_query_checks.py, not in the timed query.
_OWN_OUTPUT_CHECKS = {
    ("doc_bpe_train", "merges_nonempty"),
    ("embedding_kmeans", "inertia_monotone"),
    ("embedding_semantic_dedup", "kept_frac_ok"),
    ("flagship_graph", "has_triples"),
    ("graph_communities", "labels_are_members"),
    ("graph_hits", "bipartite_split"),
    ("graph_hits", "norms_unit"),
    ("graph_kcore", "core_is_subset"),
    ("jsonld_graph_roundtrip", "lossless"),
}


def test_constant_true_oracle_columns_are_own_output_checks():
    """Every constant ``true AS <col>`` column of ``ORACLE_SQL`` is on
    the allow-list of own-output invariants, so a second engine cannot
    come back into a registered query's row unnoticed."""
    import re

    from skosconverter_ray.queries import ORACLE_SQL

    found = {(name, col) for name, sql in ORACLE_SQL.items()
             for col in re.findall(r"\btrue\s+AS\s+(\w+)", sql, re.I)}
    assert found == _OWN_OUTPUT_CHECKS


def test_shard_classes_are_table_kernels():
    """No ``_*Shard`` class under ``stages/`` names ``ray`` (no import,
    no ``ray.get``/``ray.put``): the shards take and return tables, and
    shardutil.ShardGroup's trampoline does the object-store work."""
    import ast
    import glob
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shards, bad = [], []
    for path in glob.glob(os.path.join(root, "skosconverter_ray", "stages",
                                       "*.py")):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef)
                    and cls.name.startswith("_")
                    and cls.name.endswith("Shard")):
                continue
            shards.append(cls.name)
            for node in ast.walk(cls):
                names = {ast.Name: lambda n: [n.id],
                         ast.Attribute: lambda n: [n.attr],
                         ast.Import: lambda n: [a.name for a in n.names],
                         ast.ImportFrom: lambda n: [n.module or ""]
                         }.get(type(node), lambda n: [])(node)
                bad += [f"{cls.name}:{node.lineno}" for x in names
                        if x.split(".")[0] == "ray"]
    assert sorted(shards) == ["_CCShard", "_HITSShard", "_KCoreShard",
                              "_LPAShard", "_PRShard", "_TreeShard"]
    assert bad == []


def test_no_environment_variable_selects_a_code_path():
    """No module of the package reads ``os.environ`` or ``os.getenv``
    (nor ``environ``/``getenv`` imported from ``os``), so no environment
    variable picks a code path or moves a size gate. The one exception
    is ``config.use_hash_shuffle``'s opt-in, which perfbench imports."""
    import ast
    import glob
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    allowed = {("skosconverter_ray/config.py", "use_hash_shuffle")}
    reads = []
    for path in sorted(glob.glob("skosconverter_ray/**/*.py", root_dir=root,
                                 recursive=True)):
        with open(os.path.join(root, path), encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                hit = (isinstance(node, ast.Attribute)
                       and node.attr in ("environ", "getenv")
                       and isinstance(node.value, ast.Name)
                       and node.value.id == "os") or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "os"
                    and {a.name for a in node.names} & {"environ",
                                                         "getenv"})
                if hit and (path, owner) not in allowed:
                    reads.append(f"{path}:{node.lineno} ({owner})")
    assert reads == []
