"""Checkpoint manifest: per-partition lineage + metrics, resumable runs.

Ray Data has no mid-shuffle checkpointing, so resumability is
implemented at *stage boundaries* (SURVEY.md §7.3): output is written
as one directory per hash partition, and a ``manifest.jsonl`` records
``(partition_id, stage, row_count, input_lineage, status, wall_s)``.
A rerun loads the manifest, skips already-``done`` partitions at the
write, and only produces the missing ones — idempotent because
partition assignment is a pure function of the key and each
partition's file name a pure function of (partition, stage).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def partitioner_algo() -> str:
    """Identity of the partition hash actually running. Manifests
    persist partition assignments across runs, so every manifest row
    stamps this and ``done_partitions`` REFUSES to resume under a
    different partitioner — a silent mismatch would route rows of a
    "done" partition into an unfinished one. (Format bump, round 4:
    earlier manifests used a per-row ``zlib.crc32(str(key))`` loop —
    the write path's dominant Python cost; they carry no ``hasher``
    field and are refused the same way.)"""
    from ..functions.hashing import _HAS_POLARS

    if _HAS_POLARS:
        import polars as pl

        return f"polars-ahash-{pl.__version__}-seed41"
    return "blake2b8-seed41"


def partition_id_array(keys: pa.ChunkedArray | pa.Array, n_parts: int) -> pa.Array:
    """Deterministic partition id: vectorized 64-bit string hash
    (functions/hashing.hash_strings, seed 41) % n_parts — never Python
    ``hash`` (salted per process). ~17x the old per-row crc32 loop;
    cross-run stability is guarded by the ``partitioner_algo`` stamp."""
    from ..functions.hashing import hash_strings

    arr = keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys
    if not isinstance(arr, pa.Array):
        arr = pa.array([str(v) for v in arr], pa.string())
    else:
        arr = pc.cast(arr, pa.string())
    h = hash_strings(arr, seed=41)
    # top 32 bits -> int64 before the modulo: numpy's uint64 % has no
    # SIMD path and costs more than the hash itself at 1M rows
    h32 = (h >> np.uint64(32)).astype(np.int64)
    return pa.array((h32 % n_parts).astype(np.int32), pa.int32())


class Manifest:
    def __init__(self, out_dir: str, stage: str):
        # '_'-prefixed so Arrow/Ray parquet dataset discovery over
        # out_dir skips it (default ignore_prefixes ['.', '_'])
        self.path = os.path.join(out_dir, "_manifest.jsonl")
        self.out_dir = out_dir
        self.stage = stage
        os.makedirs(out_dir, exist_ok=True)

    def done_partitions(self, lineage: str | None = None) -> set[int]:
        """Partitions recorded ``done`` for this stage. Refuses a
        manifest written by another partitioner, or (``lineage`` given)
        one whose done partitions came from another input lineage:
        resuming would keep that input's rows in the output."""
        done = set()
        algo = partitioner_algo()
        if os.path.exists(self.path):
            with open(self.path) as f:
                for line in f:
                    rec = json.loads(line)
                    if rec["stage"] != self.stage:
                        continue
                    if rec.get("hasher", "zlib-crc32") != algo:
                        raise ValueError(
                            f"manifest {self.path} was written with "
                            f"partitioner {rec.get('hasher', 'zlib-crc32')!r}"
                            f" but this build uses {algo!r}; resuming "
                            "would mix partition layouts — rerun from "
                            "scratch or restore the matching build")
                    if rec["status"] != "done":
                        continue
                    if lineage is not None \
                            and rec["input_lineage"] != lineage:
                        raise ValueError(
                            f"manifest {self.path} is of input "
                            f"{rec['input_lineage']!r}, not {lineage!r}")
                    done.add(rec["partition_id"])
        return done

    def part_file(self, partition_id: int) -> str:
        """The one file this stage writes for ``partition_id``."""
        return os.path.join(self.out_dir, f"part={partition_id}",
                            f"{self.stage}.parquet")

    def record(self, partition_id: int, row_count: int, lineage: str,
               status: str, wall_s: float) -> None:
        rec = {
            "partition_id": partition_id,
            "stage": self.stage,
            "row_count": row_count,
            "input_lineage": lineage,
            "status": status,
            "wall_s": round(wall_s, 4),
            "hasher": partitioner_algo(),
        }
        with open(self.path, "a") as f:
            f.write(json.dumps(rec) + "\n")


def write_partitioned(ds, out_dir: str, *, key_col: str, n_parts: int,
                      stage: str, lineage: str = "", kernel=None):
    """Adjacency-partitioned, resumable sink, in one pass over ``ds``.

    One keyed exchange (shardutil.cogroup_scatter_refs, bucket =
    ``partition_id_array(key)``) hands each partition's rows to one
    call in a gather task. That call applies ``kernel`` (optional
    ``pa.Table -> pa.Table`` on the whole partition, e.g.
    ``triples.dedup_table``, so an operation keyed on ``key_col`` needs
    no exchange of its own),
    writes the result as ONE file, ``part=<i>/<stage>.parquet`` (temp
    name, then rename), and returns its row count and its own wall;
    the driver appends one manifest row per non-empty partition from
    those returns. Partitions already in the manifest are neither
    written nor recorded again; a manifest whose done partitions carry
    another ``lineage`` is refused. The file name depends only on
    (partition, stage), so a rerun after a write whose manifest append
    was lost replaces the file instead of adding a copy. Returns the
    manifest path.
    """
    import ray

    from ..stages.shardutil import cogroup_scatter_refs

    mani = Manifest(out_dir, stage)
    done = mani.done_partitions(lineage)
    result_schema = pa.schema([("part", pa.int32()), ("rows", pa.int64()),
                               ("wall_s", pa.float64())])

    def write_one(tbl: pa.Table) -> pa.Table:
        part = partition_id_array(tbl[key_col].slice(0, 1),
                                  n_parts)[0].as_py()
        if part in done:
            return result_schema.empty_table()
        t0 = time.monotonic()
        if kernel is not None:
            tbl = kernel(tbl)
        path = mani.part_file(part)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # '.'-prefixed temp name: dataset discovery skips it, and the
        # rename makes the file appear whole or not at all
        tmp = os.path.join(os.path.dirname(path), f".{stage}.parquet.tmp")
        pq.write_table(tbl, tmp)
        os.replace(tmp, path)
        return pa.table({"part": [part], "rows": [tbl.num_rows],
                         "wall_s": [time.monotonic() - t0]},
                        schema=result_schema)

    refs, _ = cogroup_scatter_refs(
        [(ds, key_col)], n_parts, write_one,
        key_to_bucket=lambda keys: partition_id_array(
            keys, n_parts).to_numpy(),
        empty_result=result_schema.empty_table())
    # one row per written partition: read straight from the refs (a
    # Dataset read of them would start a streaming-executor run)
    for rec in pa.concat_tables(ray.get(refs)).to_pylist():
        mani.record(rec["part"], rec["rows"], lineage, "done",
                    rec["wall_s"])
    return mani.path
