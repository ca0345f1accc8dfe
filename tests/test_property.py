"""Randomized property tests (SURVEY.md §5.3 item 4): random
equivalence graphs and edge sets vs sequential oracles."""

import pyarrow as pa
import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

import ray.data as rd

from skosconverter_ray import schemas
from skosconverter_ray.config import (
    OWL_SAME_AS,
    SKOS_BROADER,
    SKOS_NARROWER,
    SKOS_RELATED,
)
from skosconverter_ray.stages.canonicalize import (
    canonical_map,
    canonical_map_table,
)
from skosconverter_ray.stages.triples import dedup_triples, inverse_consistency

PREF_NS = "http://pref.example/"
ALT_NS = "http://alt.example/"

_SETTINGS = settings(max_examples=8, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _triples_table(rows):
    return pa.table(
        {
            "subj": pa.array([r[0] for r in rows], pa.string()),
            "pred": pa.array([r[1] for r in rows], pa.string()),
            "obj": pa.array([r[2] for r in rows], pa.string()),
            "obj_is_literal": pa.array([False] * len(rows), pa.bool_()),
            "lang": pa.array([None] * len(rows), pa.string()),
            "source_doc": pa.array([None] * len(rows), pa.string()),
        },
        schema=schemas.TRIPLES,
    )


@st.composite
def equivalence_edges(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    nodes = [(PREF_NS if draw(st.booleans()) else ALT_NS) + f"n{i}"
             for i in range(n)]
    n_edges = draw(st.integers(min_value=1, max_value=2 * n))
    idx = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(idx, idx), min_size=n_edges,
                          max_size=n_edges))
    return [(nodes[a], OWL_SAME_AS, nodes[b]) for a, b in edges if a != b]


@_SETTINGS
@given(equivalence_edges())
def test_canonical_map_matches_union_find(ray_session, rows):
    if not rows:
        return
    parent: dict[str, str] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def rank(u):
        return (0 if u.startswith(PREF_NS) else 1, u)

    for s, _, o in rows:
        ra, rb = find(s), find(o)
        if ra != rb:
            lo, hi = sorted((ra, rb), key=rank)
            parent[hi] = lo
    expected = {x: find(x) for x in list(parent) if find(x) != x}

    got_ds = canonical_map(rd.from_arrow(_triples_table(rows)),
                           preferred_ns=PREF_NS)
    got = {r["uri"]: r["canonical_uri"] for r in got_ds.take_all()}
    assert got == expected

    # the pure in-memory path (flagship fast path) must agree exactly
    tbl = canonical_map_table(_triples_table(rows), preferred_ns=PREF_NS)
    got_tbl = dict(zip(tbl["uri"].to_pylist(),
                       tbl["canonical_uri"].to_pylist()))
    assert got_tbl == expected


@st.composite
def edge_sets(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    idx = st.integers(min_value=0, max_value=n - 1)
    pred = st.sampled_from([SKOS_BROADER, SKOS_NARROWER, SKOS_RELATED])
    m = draw(st.integers(min_value=1, max_value=3 * n))
    raw = draw(st.lists(st.tuples(idx, idx, pred), min_size=m, max_size=m))
    return [(f"http://x/{a}", p, f"http://x/{b}") for a, b, p in raw
            if a != b]


_INV = {SKOS_BROADER: SKOS_NARROWER, SKOS_NARROWER: SKOS_BROADER,
        SKOS_RELATED: SKOS_RELATED}


@_SETTINGS
@given(edge_sets())
def test_inverse_closure_and_idempotence(ray_session, rows):
    if not rows:
        return
    ds = dedup_triples(rd.from_arrow(_triples_table(rows)))
    once = inverse_consistency(ds)
    got = {(r["subj"], r["pred"], r["obj"]) for r in once.take_all()}
    # oracle: set closure
    base = {(s, p, o) for s, p, o in rows}
    expected = base | {(o, _INV[p], s) for s, p, o in base}
    assert got == expected
    # idempotence: a second pass adds nothing
    twice = inverse_consistency(rd.from_items(
        [{"subj": s, "pred": p, "obj": o, "obj_is_literal": False,
          "lang": None, "source_doc": None} for s, p, o in sorted(got)]))
    got2 = {(r["subj"], r["pred"], r["obj"]) for r in twice.take_all()}
    assert got2 == got


@_SETTINGS
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3),
                          st.integers(0, 5)), min_size=1, max_size=60))
def test_dedup_matches_set_semantics(ray_session, raw):
    rows = [(f"http://s/{a}", f"http://p/{b}", f"http://o/{c}")
            for a, b, c in raw]
    ds = dedup_triples(rd.from_arrow(_triples_table(rows)))
    got = [(r["subj"], r["pred"], r["obj"]) for r in ds.take_all()]
    assert sorted(got) == sorted(set(rows))


# witnesses: ASCII, non-ASCII and non-BMP, so byte and code-point
# orders would part if UTF-8 did not keep them equal
_DOCS = ["d1", "d2", "D3", "é", "z", "\uffff", "\U0001f600"]


def _witness_table(seed: int) -> pa.Table:
    """Seeded triples in duplicate runs whose ``source_doc`` values are
    all null, all equal or mixed, with lang null/"" and literal
    null/False (one key each) and a null-typed ``source_doc`` now and
    then."""
    import random

    r = random.Random(seed)
    rows = []
    for k in range(r.randint(1, 12)):
        mode = r.choice(["null", "equal", "mixed"])
        doc = r.choice(_DOCS)
        for _ in range(r.randint(1, 5)):
            rows.append({
                "subj": f"s{k % 4}", "pred": f"p{k % 3}", "obj": f"o{k}",
                "obj_is_literal": r.choice([None, False]) if k % 2
                else True,
                "lang": r.choice([None, ""]),
                "source_doc": None if mode == "null" else doc
                if mode == "equal" else r.choice([None, *_DOCS])})
    r.shuffle(rows)
    t = pa.Table.from_pylist(rows, schema=schemas.TRIPLES)
    if all(d is None for d in t["source_doc"].to_pylist()) and seed % 2:
        t = t.set_column(5, "source_doc", pa.nulls(t.num_rows))
    return t


def _old_witness_rows(t: pa.Table) -> list[dict]:
    """The earlier dedup rule, transcribed: of each (subj, pred, obj,
    literal, lang) key, with null literal as False and null lang as "",
    the row ``i`` with the least ``(doc is None, doc, i)``, in input
    order."""
    rows = t.to_pylist()
    best = {}
    for i, row in enumerate(rows):
        key = (row["subj"], row["pred"], row["obj"],
               bool(row["obj_is_literal"]), row["lang"] or "")
        doc = row["source_doc"]
        best[key] = min(best.get(key, (True, "", len(rows))),
                        (doc is None, doc or "", i))
    return [rows[i] for i in sorted(i for _, _, i in best.values())]


def test_dedup_witness_matches_old_rule(ray_session):
    """``dedup_table`` keeps the old rule's rows in its order, and
    ``dedup_triples`` (both branches) its row set, on tables whose
    duplicate runs hold null, equal and mixed documents."""
    from skosconverter_ray.stages.triples import dedup_table

    def key(row):
        return tuple((v is None, str(v)) for v in row.values())

    for seed in range(200):
        t = _witness_table(seed)
        want = _old_witness_rows(t)
        assert dedup_table(t).to_pylist() == want, seed
        if seed % 40 == 0:
            ds = rd.from_arrow([t.slice(0, t.num_rows // 2),
                                t.slice(t.num_rows // 2)])
            for coalesce in (False, True):
                got = [r for b in dedup_triples(ds, num_buckets=4,
                                                coalesce=coalesce)
                       .iter_batches(batch_format="pyarrow")
                       for r in b.cast(schemas.TRIPLES).to_pylist()]
                assert sorted(got, key=key) == sorted(want, key=key), seed


def test_distributed_canonicalization_matches_driver_path(
        ray_session, monkeypatch):
    """Force the distributed label-propagation path (driver threshold 0)
    on seeded random graphs and require exact agreement with the
    in-memory union-find."""
    import random

    from skosconverter_ray.stages import canonicalize as cz

    monkeypatch.setattr(cz, "_DRIVER_UF_MAX", 0)
    rng = random.Random(11)
    for trial in range(3):
        n = 40 + trial * 30
        nodes = [(PREF_NS if rng.random() < 0.3 else ALT_NS) + f"n{i:03d}"
                 for i in range(n)]
        rows = []
        for _ in range(n):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                rows.append((nodes[a], OWL_SAME_AS, nodes[b]))
        if not rows:
            continue
        got_ds = canonical_map(rd.from_arrow(_triples_table(rows)),
                               preferred_ns=PREF_NS, num_buckets=8,
                               engine="actors")
        got = {r["uri"]: r["canonical_uri"] for r in got_ds.take_all()}
        tbl = canonical_map_table(_triples_table(rows), preferred_ns=PREF_NS)
        expected = dict(zip(tbl["uri"].to_pylist(),
                            tbl["canonical_uri"].to_pylist()))
        assert got == expected, f"trial {trial}"


def test_distributed_canonicalization_million_nodes(ray_session, monkeypatch):
    """>=1M-node equivalence graph through the distributed path with
    bounded driver memory: labels stay distributed (the driver only
    ever sees the per-round changed-count), and the result is verified
    formulaically — node i's canonical is its cluster's min URI."""
    import numpy as np

    from skosconverter_ray.stages import canonicalize as cz
    from skosconverter_ray.stages.canonicalize import equivalence_edges

    monkeypatch.setattr(cz, "_DRIVER_UF_MAX", 0)

    N = 1_000_000
    CLUSTER = 4  # chains of 4 -> several propagation rounds

    def gen(batch):
        # rows i -> edge (n{i}, sameAs, n{i+1}) within each chain
        ids = batch["id"].to_numpy()
        keep = ids[(ids % CLUSTER) != CLUSTER - 1]
        subj = [f"{ALT_NS}n{i:07d}" for i in keep]
        obj = [f"{ALT_NS}n{i + 1:07d}" for i in keep]
        n = len(keep)
        return pa.table({
            "subj": pa.array(subj, pa.string()),
            "pred": pa.array([OWL_SAME_AS] * n, pa.string()),
            "obj": pa.array(obj, pa.string()),
            "obj_is_literal": pa.array([False] * n, pa.bool_()),
            "lang": pa.array([None] * n, pa.string()),
            "source_doc": pa.array([None] * n, pa.string()),
        }, schema=schemas.TRIPLES)

    triples = rd.range(N, override_num_blocks=32) \
                .map_batches(gen, batch_format="pyarrow")
    out = canonical_map(triples, preferred_ns=None, num_buckets=64)

    n_rows = 0
    for b in out.iter_batches(batch_format="pyarrow", batch_size=65536):
        uris = b["uri"].to_pylist()
        canons = b["canonical_uri"].to_pylist()
        n_rows += len(uris)
        for u, c in zip(uris[:64], canons[:64]):  # spot-check per batch
            i = int(u.rsplit("n", 1)[1])
            root = (i // CLUSTER) * CLUSTER
            assert c == f"{ALT_NS}n{root:07d}", (u, c)
    # every non-root node appears exactly once
    assert n_rows == N - N // CLUSTER


# ---------------------------------------------------------------------------
# Round-4 primitives: CMS one-sided bound, span interval-union
# arithmetic, inclusive prefix max — each vs a brute-force oracle on
# hypothesis-generated inputs (no Ray needed: pure kernels)
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(0, 40), min_size=1, max_size=400),
       st.integers(16, 128))
@_SETTINGS
def test_cms_never_undercounts_property(items, width):
    import numpy as np

    from skosconverter_ray.stages.sketch import cms_estimate, cms_partial

    toks = [f"t{i}" for i in items]
    mat = cms_partial(pa.array(toks), None, width=width)
    from collections import Counter
    exact = Counter(toks)
    keys = sorted(exact)
    est = cms_estimate(mat, pa.array(keys))
    ex = np.array([exact[k] for k in keys])
    assert (est >= ex).all()
    # total mass is conserved exactly in every row
    assert (mat.sum(axis=1) == len(toks)).all()


@given(st.lists(st.integers(0, 60), min_size=0, max_size=60,
                unique=True))
@_SETTINGS
def test_span_interval_union_telescoping_property(starts):
    """Σ min(gap, n) over sorted starts == |union of [s, s+n-1]| —
    the arithmetic doc_span_dedup's cov_bucket relies on."""
    import numpy as np

    n = 5
    s = np.array(sorted(starts), np.int64)
    if len(s) == 0:
        return
    d = np.full(len(s), n, np.int64)
    if len(s) > 1:
        d[1:] = np.minimum(s[1:] - s[:-1], n)
    covered = set()
    for x in s:
        covered.update(range(x, x + n))
    assert int(d.sum()) == len(covered)


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=300))
@_SETTINGS
def test_prefix_max_bucket_fold_property(vals):
    """The two-phase max-scan's bucket algebra: exclusive-scanned
    bucket maxima + local inclusive cummax == global cummax, for any
    bucket split."""
    import numpy as np

    v = np.array(vals, np.int64)
    want = np.maximum.accumulate(v)
    NEG = np.iinfo(np.int64).min
    for nb in (1, 2, 3, 7):
        cuts = np.linspace(0, len(v), nb + 1).astype(int)
        maxes = np.array([v[a:b].max() if b > a else NEG
                          for a, b in zip(cuts[:-1], cuts[1:])])
        base = np.full(nb, NEG, np.int64)
        base[1:] = np.maximum.accumulate(maxes[:-1])
        got = np.concatenate([
            np.maximum(np.maximum.accumulate(v[a:b]), base[i])
            if b > a else np.empty(0, np.int64)
            for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:]))])
        assert (got == want).all()
