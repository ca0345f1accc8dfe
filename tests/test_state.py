"""Checkpoint-manifest resume + salted-aggregation tests."""

import glob
import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from skosconverter_ray.state.manifest import (Manifest, partition_id_array,
                                              write_partitioned)


def _triples(n=200):
    return rd.from_items([
        {"subj": f"http://x/{i % 40}", "pred": "p", "obj": str(i)}
        for i in range(n)
    ])


def _data_files(part_dir):
    return [f for f in os.listdir(part_dir) if not f.startswith((".", "_"))]


def test_write_partitioned_layout(ray_session, tmp_path):
    out = str(tmp_path / "graph")
    t0 = time.monotonic()
    path = write_partitioned(_triples(), out, key_col="subj", n_parts=8,
                             stage="graph", lineage="test")
    elapsed = time.monotonic() - t0
    parts = sorted(glob.glob(os.path.join(out, "part=*")))
    assert parts, "no partition directories written"
    recs = [json.loads(l) for l in open(path)]
    assert all(r["status"] == "done" and r["stage"] == "graph" for r in recs)
    assert sum(r["row_count"] for r in recs) == 200
    assert all(r["input_lineage"] == "test" for r in recs)
    # one data file per partition, and the manifest counts what it holds
    assert len(recs) == len(parts)
    for r in recs:
        part_dir = os.path.join(out, f"part={r['partition_id']}")
        files = _data_files(part_dir)
        assert len(files) == 1, f"{part_dir} holds {files}"
        assert pq.read_table(os.path.join(part_dir, files[0])).num_rows \
            == r["row_count"]
    # each wall_s is that partition's own write time: positive, inside
    # the call, and not one total shared out evenly
    walls = [r["wall_s"] for r in recs]
    assert all(0 < w <= elapsed for w in walls)
    assert len(set(walls)) > 1, f"one shared wall_s for all rows: {walls}"
    # partition assignment is content-addressed: re-derivable anywhere
    back = pq.read_table(out)
    pids = partition_id_array(back["subj"], 8).to_pylist()
    assert pids == [int(p) for p in back["part"].to_pylist()]


def test_resume_skips_done_partitions(ray_session, tmp_path):
    out = str(tmp_path / "graph")
    # simulate a killed run: partitions 0..3 already recorded done
    mani = Manifest(out, "graph")
    for pid in range(4):
        mani.record(pid, 0, "test", "done", 0.0)

    write_partitioned(_triples(), out, key_col="subj", n_parts=8,
                      stage="graph", lineage="test")
    written = {int(os.path.basename(p).split("=")[1])
               for p in glob.glob(os.path.join(out, "part=*"))}
    assert written & {4, 5, 6, 7}, "remaining partitions not written"
    assert not (written & {0, 1, 2, 3}), (
        f"done partitions rewritten: {written}")


def test_rerun_after_unrecorded_write_does_not_duplicate(ray_session,
                                                        tmp_path):
    """A run killed after the parquet write but before the manifest
    append leaves files no manifest row covers; the rerun must replace
    them, not write a second copy beside them."""
    out = str(tmp_path / "graph")
    path = write_partitioned(_triples(), out, key_col="subj", n_parts=8,
                             stage="graph", lineage="test")
    os.remove(path)
    write_partitioned(_triples(), out, key_col="subj", n_parts=8,
                      stage="graph", lineage="test")
    assert pq.read_table(out).num_rows == 200


def test_resumed_run_completes_identically(ray_session, tmp_path):
    full, resumed = str(tmp_path / "full"), str(tmp_path / "resumed")
    write_partitioned(_triples(), full, key_col="subj", n_parts=8,
                      stage="g", lineage="")
    # interrupted run wrote partitions {0,1} then died
    first = rd.from_arrow(
        pq.read_table(full).filter(
            pa.compute.is_in(pq.read_table(full)["part"],
                             value_set=pa.array(["0", "1"]))
        ).drop_columns(["part"]))
    write_partitioned(first, resumed, key_col="subj", n_parts=8,
                      stage="g", lineage="")
    write_partitioned(_triples(), resumed, key_col="subj", n_parts=8,
                      stage="g", lineage="")
    a = pq.read_table(full).sort_by([("subj", "ascending"),
                                     ("obj", "ascending")])
    b = pq.read_table(resumed).sort_by([("subj", "ascending"),
                                        ("obj", "ascending")])
    assert a.select(["subj", "pred", "obj"]).equals(
        b.select(["subj", "pred", "obj"]))


def test_write_partitioned_applies_kernel(ray_session, tmp_path):
    """The kernel runs on each whole partition before its write, and
    the manifest counts the kernel's output rows."""
    out = str(tmp_path / "graph")

    def keep_even(t: pa.Table) -> pa.Table:
        return t.filter(pa.compute.equal(
            pa.compute.bit_wise_and(pa.compute.cast(t["obj"], pa.int64()),
                                    1), 0))

    path = write_partitioned(_triples(), out, key_col="subj", n_parts=8,
                             stage="graph", kernel=keep_even)
    back = pq.read_table(out)
    assert sorted(int(o) for o in back["obj"].to_pylist()) \
        == list(range(0, 200, 2))
    recs = [json.loads(l) for l in open(path)]
    assert sum(r["row_count"] for r in recs) == back.num_rows == 100


def test_resume_refuses_other_lineage(ray_session, tmp_path):
    """Done partitions from another input lineage are not kept: the
    write refuses the manifest instead of mixing two inputs' rows."""
    out = str(tmp_path / "graph")
    write_partitioned(_triples(), out, key_col="subj", n_parts=8,
                      stage="graph", lineage="corpus-a")
    with pytest.raises(ValueError, match="corpus-a"):
        write_partitioned(_triples(), out, key_col="subj", n_parts=8,
                          stage="graph", lineage="corpus-b")
    assert Manifest(out, "graph").done_partitions("corpus-a")


def test_salted_aggregate_matches_plain_groupby(ray_session):
    from ray.data.aggregate import Count, Max, Min, Sum

    from skosconverter_ray.stages.skew import salted_aggregate

    # one pathologically hot key: 90% of rows
    rows = ([{"k": "hub", "v": i} for i in range(900)]
            + [{"k": f"t{i}", "v": i} for i in range(100)])
    ds = rd.from_items(rows).repartition(16)

    got = salted_aggregate(
        ds, ["k"],
        [("count", "", "n"), ("sum", "v", "s"),
         ("min", "v", "lo"), ("max", "v", "hi")],
        salt_buckets=8).take_all()
    want = (rd.from_items(rows).groupby("k")
            .aggregate(Count(alias_name="n"), Sum("v", alias_name="s"),
                       Min("v", alias_name="lo"), Max("v", alias_name="hi"))
            ).take_all()
    key = lambda r: r["k"]
    assert sorted(got, key=key) == sorted(want, key=key)


def test_salted_aggregate_rejects_non_algebraic(ray_session):
    from skosconverter_ray.stages.skew import salted_aggregate

    with pytest.raises(ValueError):
        salted_aggregate(_triples(), ["subj"], [("mean", "obj", "m")])


def test_bucket_aggregate_matches_plain_groupby(ray_session):
    """High-cardinality path: many distinct int keys, multi-key
    grouping with a string member, vs Ray's direct groupby."""
    from ray.data.aggregate import Count, Max, Min, Sum

    from skosconverter_ray.stages.skew import bucket_aggregate

    rng = __import__("random").Random(7)
    rows = [{"k": rng.randrange(200), "g": f"g{rng.randrange(3)}",
             "v": rng.randrange(-50, 1000)} for _ in range(5000)]
    ds = rd.from_items(rows).repartition(16)

    got = bucket_aggregate(
        ds, ["k", "g"],
        [("count", None, "n"), ("sum", "v", "s"),
         ("min", "v", "lo"), ("max", "v", "hi")],
        num_buckets=16, bucket_key="k").take_all()
    want = (rd.from_items(rows).groupby(["k", "g"])
            .aggregate(Count(alias_name="n"), Sum("v", alias_name="s"),
                       Min("v", alias_name="lo"), Max("v", alias_name="hi"))
            ).take_all()
    key = lambda r: (r["k"], r["g"])
    assert sorted(got, key=key) == sorted(want, key=key)


def test_bucket_aggregate_string_bucket_key(ray_session):
    from ray.data.aggregate import Sum

    from skosconverter_ray.stages.skew import bucket_aggregate

    rows = [{"k": f"key-{i % 37}", "v": i} for i in range(1000)]
    ds = rd.from_items(rows).repartition(8)
    got = bucket_aggregate(ds, ["k"], [("sum", "v", "s")],
                           num_buckets=8).take_all()
    want = (rd.from_items(rows).groupby("k")
            .aggregate(Sum("v", alias_name="s"))).take_all()
    key = lambda r: r["k"]
    assert sorted(got, key=key) == sorted(want, key=key)


def test_manifest_refuses_mismatched_partitioner(tmp_path):
    """Round-4 format bump: manifest rows stamp the partition hasher;
    resuming under a different partitioner (including the pre-bump
    crc32 manifests, which carry no hasher field) must fail loudly —
    a silent mix would route rows of a done partition into an
    unfinished one."""
    out = str(tmp_path / "graph")
    mani = Manifest(out, "graph")
    # a legacy (crc32-era) record: no "hasher" field
    with open(mani.path, "a") as f:
        f.write(json.dumps({
            "partition_id": 0, "stage": "graph", "row_count": 10,
            "input_lineage": "old", "status": "done", "wall_s": 0.1,
        }) + "\n")
    with pytest.raises(ValueError, match="partitioner"):
        mani.done_partitions()
    # same-build records round-trip fine
    out2 = str(tmp_path / "graph2")
    mani2 = Manifest(out2, "graph")
    mani2.record(3, 10, "new", "done", 0.1)
    assert mani2.done_partitions() == {3}
