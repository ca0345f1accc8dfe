"""Driver-checkable query registry: one entry per implemented operator
(SURVEY.md §2), each with a DuckDB oracle when SQL-expressible.

Contract: every callable takes ``sf_dir`` and returns a Dataset /
pandas DataFrame / pyarrow Table whose column NAMES match the oracle
SQL exactly. Floats that come out of aggregations are rounded
identically on both sides so the driver's value-hash is stable.

Scale discipline: reads prune columns; joins are broadcast
(dimension-sized side), bucket-cogroup hash joins (stages/joinutil),
or semi-join reductions (rank first, look up only the winners);
aggregates go through Ray's combiner-based groupby; nothing
materializes the full input on the driver.
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

QUERIES = {}
ORACLE_SQL = {}


def _q(name: str, sql: str | None = None):
    def deco(fn):
        QUERIES[name] = fn
        if sql is not None:
            ORACLE_SQL[name] = sql
        return fn

    return deco


_TINY_ROWS = 32768


def _pool_width(cap: int = 32) -> tuple[int, int]:
    """Autoscaling actor-pool bounds sized to the SESSION, not a
    constant: a (1, 4) pool left 12 of 16 cores idle in the round-5
    curation scaling trace (the pool, not the data, was the width
    ceiling), while the same (1, cpus) bounds still collapse to a
    small pool on a narrow box. ``cap`` bounds per-actor state
    replicas for stages whose per-actor cache matters."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return (1, max(2, min(cap, cpus)))


def _minhash_partitions(sf_dir: str | None = None) -> int:
    """Exchange width for the minhash banding/verify scatters: tiny
    gate corpora keep a narrow exchange (per-bucket dispatch cost
    dominates under ~20k docs — the sf0.001/sf0.01 lesson), larger
    corpora get the session's CPU width so the two-exchange verify
    cogroup is never parallelism-capped (round 5: a pinned 8 ran the
    300k-doc curation trace at half the box's width)."""
    rows = _meta_rows(sf_dir, "documents") if sf_dir else None
    if rows is not None and rows <= 20_000:
        return 8
    return max(8, _pool_width()[1])


def _meta_rows(sf_dir: str, table: str) -> int:
    """Row count from the parquet footer — never touches data pages."""
    import pyarrow.parquet as pq

    return pq.read_metadata(f"{sf_dir}/{table}.parquet").num_rows


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    path = f"{sf_dir}/{table}.parquet"
    kwargs = {}
    n = _meta_rows(sf_dir, table)
    if n < _TINY_ROWS:
        # A tiny table split into Ray's default ~2x-cpus blocks pays
        # more per-task dispatch than compute: 64 blocks of 78 rows
        # cost 2.8 s for a 5000-row dedup, 8 blocks 0.3 s (measured,
        # BASELINE.md). Clamp block count so each block carries >=
        # ~256 rows; large tables keep Ray's own splitting, so the
        # scale path is untouched.
        kwargs["override_num_blocks"] = max(4, min(32, n // 256 + 1))
    return rd.read_parquet(path, columns=columns, **kwargs)


def _adaptive_buckets(sf_dir: str, table: str, *, rows_per_bucket: int = 1000,
                      lo: int = 8, hi: int = 64) -> int:
    """Reduce-side bucket count sized to the table: tiny inputs pay
    per-reduce-task dispatch, huge ones need the full fan-out. At
    100 TB callers should pass an explicit num_buckets >= cluster
    reduce slots instead."""
    return max(lo, min(hi, _meta_rows(sf_dir, table) // rows_per_bucket + 1))


def _round_col(tbl: pa.Table, col: str, ndigits: int) -> pa.Table:
    i = tbl.schema.get_field_index(col)
    return tbl.set_column(i, col, pc.round(tbl[col], ndigits=ndigits))


def _to_cents(arr) -> pa.Array:
    """double -> int64 hundredths via trunc. Summing integers
    distributes exactly, so Ray's reduction order can never diverge
    from the SQL oracle; trunc (not round) because Arrow rounds
    half-to-even while DuckDB rounds half-away — trunc is identical on
    identical doubles. SQL side: CAST(trunc(x * 100) AS BIGINT)."""
    return pc.cast(pc.trunc(pc.multiply(arr, pa.scalar(100.0))), pa.int64())


def _collect(ds, schema: pa.Schema) -> pa.Table:
    """Stream a (small, result-sized) Dataset into one Arrow table,
    preserving the schema even when empty."""
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=65536))
    if not batches:
        return schema.empty_table()
    return pa.concat_tables(batches).cast(schema)


def _from_cents(tbl: pa.Table, col: str) -> pa.Table:
    i = tbl.schema.get_field_index(col)
    return tbl.set_column(
        i, col, pc.divide(pc.cast(tbl[col], pa.float64()), pa.scalar(100.0)))


# ---------------------------------------------------------------------------
# Documents: exact dedup (training-data op; engine analogue of U4)
# ---------------------------------------------------------------------------

def _text_hash_batch(batch: pa.Table) -> pa.Table:
    """Canonical content hash, vectorized (functions/hashing.py
    content_hash64 — shared with the incremental-ingest store; never
    Python hash(): salted per interpreter)."""
    from .functions.hashing import content_hash64

    return batch.append_column(
        "_h", pa.array(content_hash64(batch["text"]), pa.int64()))


@_q(
    "doc_dedup_exact",
    """
    SELECT min(doc_id) AS doc_id, count(*) AS n_copies
    FROM documents GROUP BY text
    """,
)
def doc_dedup_exact(sf_dir: str):
    """Exact dedup: hash-partition on content hash, keep first
    (min doc_id) per group. The groupby key is the 64-bit hash, so the
    shuffle moves 16 bytes/row, not the text."""
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ds = ds.map_batches(_text_hash_batch, batch_format="pyarrow")
    out = bucket_aggregate(ds.select_columns(["_h", "doc_id"]), ["_h"],
                           [("min", "doc_id", "doc_id"),
                            ("count", None, "n_copies")],
                           num_buckets=_adaptive_buckets(sf_dir, "documents"))
    return out.select_columns(["doc_id", "n_copies"])


# ---------------------------------------------------------------------------
# Documents: token counting per language (text-analysis op)
# ---------------------------------------------------------------------------

@_q(
    "doc_token_stats",
    """
    SELECT lang,
           count(*) AS n_docs,
           CAST(sum(length(regexp_extract_all(text, '[A-Za-z0-9]+'))) AS BIGINT)
             AS total_tokens
    FROM documents GROUP BY lang
    """,
)
def doc_token_stats(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def tokens(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch["text"], pattern="[A-Za-z0-9]+")
        return pa.table({"lang": batch["lang"],
                         "tok": pc.cast(n, pa.int64())})

    ds = ds.map_batches(tokens, batch_format="pyarrow")
    return ds.groupby("lang").aggregate(
        Count(alias_name="n_docs"), Sum("tok", alias_name="total_tokens"))


# ---------------------------------------------------------------------------
# Documents: BPE-ish subword token counting (text-analysis op)
# ---------------------------------------------------------------------------

@_q(
    "doc_token_bpe",
    r"""
    SELECT lang,
           count(*) AS n_docs,
           CAST(sum(length(regexp_extract_all(
               text, '[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]'))) AS BIGINT)
             AS total_subtokens
    FROM documents GROUP BY lang
    """,
)
def doc_token_bpe(sf_dir: str):
    """BPE-style pre-tokenizer count: letter runs, single digits, and
    punctuation marks each count as one token (the GPT-2 pre-tokenizer
    shape: digits split one-per-token, punctuation separate). One
    vectorized regex-count kernel per batch + combiner groupby."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def tokens(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(
            batch["text"], pattern=r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]")
        return pa.table({"lang": batch["lang"],
                         "tok": pc.cast(n, pa.int64())})

    ds = ds.map_batches(tokens, batch_format="pyarrow")
    return ds.groupby("lang").aggregate(
        Count(alias_name="n_docs"), Sum("tok", alias_name="total_subtokens"))


# ---------------------------------------------------------------------------
# Documents: inter-document duplicated n-gram rate (substring-dup signal)
# ---------------------------------------------------------------------------

@_q(
    "doc_dup_ngrams",
    """
    WITH toks AS (
      SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
      FROM documents
    ), grams AS (
      SELECT doc_id, array_to_string(t[i:i+4], ' ') AS g
      FROM toks, UNNEST(range(1, greatest(len(t) - 4, 0) + 1)) AS u(i)
    ), df AS (
      SELECT g, count(DISTINCT doc_id) AS df FROM grams GROUP BY g
    )
    SELECT g2.doc_id,
           count(*) AS n_grams,
           CAST(sum(CASE WHEN df.df >= 2 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_dup
    FROM grams g2 JOIN df ON g2.g = df.g
    GROUP BY g2.doc_id
    """,
)
def doc_dup_ngrams(sf_dir: str):
    """Per-document INTER-doc duplicated 5-gram rate — the substring-
    duplication signal of Lee et al. 2022 (arXiv:2107.06499) at n-gram
    granularity (doc_repetition_signals covers the INTRA-doc case).
    n_grams = token-position 5-grams in the doc; n_dup = those whose
    gram also appears in at least one other document.

    Shape (same as TF-IDF): per-batch vectorized gram emit (polars
    shift-and-concat over exploded tokens — a doc never splits across
    rows), one bucket aggregate for per-(doc,gram) tf, one for
    gram document-frequency, one cogroup join on gram (the DF table is
    gram-cardinality — never broadcast), one per-doc aggregate. Every
    exchange is the task-level hash scatter."""
    import polars as pl

    from .stages.joinutil import cogroup_join
    from .stages.skew import bucket_aggregate

    n = 5
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    nb = _adaptive_buckets(sf_dir, "documents")

    tf_schema = pa.schema([("doc_id", pa.int64()), ("gram", pa.string()),
                           ("tf", pa.int64())])

    def tf_batch(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        d = (df.with_columns(
            pl.col("text").str.to_lowercase()
              .str.extract_all(r"[a-z0-9]+").alias("tok"))
            .drop("text").explode("tok")
            .filter(pl.col("tok").is_not_null()))
        shifted = [pl.col("tok")] + [
            pl.col("tok").shift(-i).over("doc_id").alias(f"_t{i}")
            for i in range(1, n)]
        d = (d.with_columns(
                pl.concat_str(shifted, separator=" ").alias("gram"))
             .filter(pl.col("gram").is_not_null())
             .group_by(["doc_id", "gram"]).len(name="tf"))
        return d.to_arrow().cast(tf_schema)

    tf_ds = ds.map_batches(tf_batch, batch_format="pyarrow").materialize()
    df_ds = bucket_aggregate(tf_ds.select_columns(["gram"]), ["gram"],
                             [("count", None, "df")], num_buckets=nb)
    joined = cogroup_join(
        tf_ds, df_ds, left_on="gram", right_on="gram",
        join_type="inner", num_buckets=nb,
        left_schema=tf_schema,
        right_schema=pa.schema([("gram", pa.string()),
                                ("df", pa.int64())]))

    def per_doc_partial(batch: pa.Table) -> pa.Table:
        tf = batch["tf"].to_numpy(zero_copy_only=False)
        dup = np.where(
            batch["df"].to_numpy(zero_copy_only=False) >= 2, tf, 0)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_grams": pa.array(tf, pa.int64()),
            "n_dup": pa.array(dup, pa.int64()),
        })

    out = bucket_aggregate(
        joined.map_batches(per_doc_partial, batch_format="pyarrow"),
        ["doc_id"], [("sum", "n_grams", "n_grams"),
                     ("sum", "n_dup", "n_dup")], num_buckets=nb)
    return _collect(out, pa.schema([("doc_id", pa.int64()),
                                    ("n_grams", pa.int64()),
                                    ("n_dup", pa.int64())]))


# ---------------------------------------------------------------------------
# Documents: duplicated-SPAN removal accounting (Lee et al. 2022 exact-
# substring dedup at 5-gram granularity: which token positions of each
# document are covered by a corpus-duplicated gram, i.e. would be cut
# by span removal)
# ---------------------------------------------------------------------------

@_q(
    "doc_span_dedup",
    r"""
    WITH toks AS (
      SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t
      FROM documents
    ), grams AS (
      SELECT doc_id, i AS pos, array_to_string(t[i:i+4], ' ') AS g
      FROM toks, UNNEST(range(1, greatest(len(t) - 4, 0) + 1)) AS u(i)
    ), c AS (
      SELECT g, count(*) AS c FROM grams GROUP BY g
    ), starts AS (
      SELECT doc_id, pos FROM grams JOIN c USING (g) WHERE c.c >= 2
    ), cov AS (
      SELECT doc_id, count(*) AS dup_starts,
             CAST(sum(LEAST(d, 5)) AS BIGINT) AS covered_tokens
      FROM (SELECT doc_id,
                   pos - coalesce(lag(pos) OVER (PARTITION BY doc_id
                                                 ORDER BY pos),
                                  pos - 5) AS d
            FROM starts)
      GROUP BY doc_id
    )
    SELECT toks.doc_id, len(toks.t) AS n_tokens,
           coalesce(cov.dup_starts, 0) AS dup_starts,
           coalesce(cov.covered_tokens, 0) AS covered_tokens
    FROM toks LEFT JOIN cov USING (doc_id)
    """,
)
def doc_span_dedup(sf_dir: str):
    """Exact-substring span-removal accounting (Lee et al. 2022,
    arXiv:2107.06499, at token-5-gram granularity): for every document,
    how many token positions fall inside a span covered by a gram that
    occurs >= 2 times in the corpus — the mass that span removal would
    cut. dup_starts = duplicated gram occurrences; covered_tokens =
    |union of [pos, pos+4] over those starts| (exact interval-union
    arithmetic: with starts sorted, each contributes min(gap_to_prev,
    5) new tokens, so the sum telescopes without building positions).

    Shape: one gram-OCCURRENCE pass (positions kept — no aggregation),
    one gram-bucket count aggregate, one gram cogroup join + c>=2
    filter, one task-level hash scatter by doc for the interval union
    (all starts of a doc land in one bucket; the per-bucket kernel is
    one lexsort + reduceat across every doc in the bucket), one doc
    cogroup left join against the per-doc token counts so zero-dup
    docs keep a row. No all-pairs, no broadcast of corpus-sized state."""
    import polars as pl

    from .functions.hashing import mix64
    from .stages.joinutil import cogroup_join
    from .stages.shardutil import scatter_apply_by_value
    from .stages.skew import bucket_aggregate

    n = 5
    nb = _adaptive_buckets(sf_dir, "documents")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    occ_schema = pa.schema([("doc_id", pa.int64()), ("pos", pa.int64()),
                            ("gram", pa.string())])

    def occ_batch(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        d = (df.with_columns(
            pl.col("text").str.to_lowercase()
              .str.extract_all(r"[a-z0-9]+").alias("tok"))
            .drop("text").explode("tok")
            .filter(pl.col("tok").is_not_null())
            .with_row_index("_i"))
        # 0-based position within the doc (explode keeps doc rows
        # contiguous and ordered, so a global row index re-based per
        # doc is the token position)
        d = d.with_columns(
            (pl.col("_i") - pl.col("_i").min().over("doc_id"))
            .cast(pl.Int64).alias("pos")).drop("_i")
        shifted = [pl.col("tok")] + [
            pl.col("tok").shift(-i).over("doc_id").alias(f"_t{i}")
            for i in range(1, n)]
        d = (d.with_columns(
                pl.concat_str(shifted, separator=" ").alias("gram"))
             .filter(pl.col("gram").is_not_null())
             .select(["doc_id", "pos", "gram"]))
        return d.to_arrow().cast(occ_schema)

    occ = ds.map_batches(occ_batch, batch_format="pyarrow").materialize()
    cnt = bucket_aggregate(occ.select_columns(["gram"]), ["gram"],
                           [("count", None, "c")], num_buckets=nb)
    joined = cogroup_join(
        occ, cnt, left_on="gram", right_on="gram", join_type="inner",
        num_buckets=nb, left_schema=occ_schema,
        right_schema=pa.schema([("gram", pa.string()),
                                ("c", pa.int64())]))

    def dup_starts(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch["c"], pa.scalar(2, pa.int64()))
        t = batch.filter(keep)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        b = ((mix64(did.astype(np.uint64)) >> np.uint64(32))
             .astype(np.int64) % nb)
        return pa.table({"doc_id": t["doc_id"], "pos": t["pos"],
                         "_bucket": pa.array(b, pa.int64())})

    starts = joined.map_batches(dup_starts, batch_format="pyarrow")

    cov_schema = pa.schema([("doc_id", pa.int64()),
                            ("dup_starts", pa.int64()),
                            ("covered_tokens", pa.int64())])

    def cov_bucket(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        pos = t["pos"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, did))
        did, pos = did[order], pos[order]
        d = np.full(len(pos), n, np.int64)
        if len(pos) > 1:
            gap = pos[1:] - pos[:-1]
            same = did[1:] == did[:-1]
            d[1:][same] = np.minimum(gap[same], n)
        uniq, idx = np.unique(did, return_index=True)
        covered = np.add.reduceat(d, idx) if len(d) else np.array([], np.int64)
        n_starts = np.diff(np.append(idx, len(did)))
        return pa.table({"doc_id": pa.array(uniq, pa.int64()),
                         "dup_starts": pa.array(n_starts, pa.int64()),
                         "covered_tokens": pa.array(covered, pa.int64())})

    cov = scatter_apply_by_value(starts.materialize(), "_bucket", nb,
                                 cov_bucket,
                                 empty_result=cov_schema.empty_table())

    # per-doc token counts (cheap vectorized count — no explode)
    def tok_counts(batch: pa.Table) -> pa.Table:
        nt = pc.count_substring_regex(
            pc.utf8_lower(batch["text"]), pattern=r"[a-z0-9]+")
        return pa.table({"doc_id": batch["doc_id"],
                         "n_tokens": pc.cast(nt, pa.int64())})

    stats = ds.map_batches(tok_counts, batch_format="pyarrow")
    out = cogroup_join(
        stats, cov, left_on="doc_id", right_on="doc_id",
        join_type="left outer", num_buckets=nb,
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("n_tokens", pa.int64())]),
        right_schema=cov_schema)

    def fin(batch: pa.Table) -> pa.Table:
        z = pa.scalar(0, pa.int64())
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": batch["n_tokens"],
            "dup_starts": pc.coalesce(batch["dup_starts"], z),
            "covered_tokens": pc.coalesce(batch["covered_tokens"], z),
        })

    return _collect(out.map_batches(fin, batch_format="pyarrow"),
                    pa.schema([("doc_id", pa.int64()),
                               ("n_tokens", pa.int64()),
                               ("dup_starts", pa.int64()),
                               ("covered_tokens", pa.int64())]))


# ---------------------------------------------------------------------------
# Documents: BPE tokenizer TRAINING (distributed merge learning)
# ---------------------------------------------------------------------------

def _bpe_word_counts(sf_dir: str):
    """Materialized (word, cnt) table over documents — the one corpus
    pass + one exchange shared by the BPE train/encode queries."""
    import polars as pl

    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    wc_schema = pa.schema([("word", pa.string()), ("cnt", pa.int64())])

    def wc_batch(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select(["text"]))
        out = (df.with_columns(
            pl.col("text").str.to_lowercase()
              .str.extract_all(r"[a-z]+").alias("word"))
            .drop("text").explode("word")
            .filter(pl.col("word").is_not_null())
            .group_by("word").len(name="cnt"))
        return out.to_arrow().cast(wc_schema)

    return bucket_aggregate(
        ds.map_batches(wc_batch, batch_format="pyarrow"),
        ["word"], [("sum", "cnt", "cnt")],
        num_buckets=_adaptive_buckets(sf_dir, "documents")).materialize()


@_q(
    "doc_bpe_train",
    """
    SELECT (SELECT count(*) FROM documents) AS n_docs,
           CAST(12 AS BIGINT) AS n_merges,
           true AS merges_nonempty
    """,
)
def doc_bpe_train(sf_dir: str):
    """Distributed BPE-merge training (stages/bpe.py): ONE corpus pass
    + one word-count exchange, then 12 fused apply-merge/count-pairs
    task waves over the dimension-sized distinct-word table — blocks
    never transit the driver, only pair-count partials do. Oracle row:
    n_docs is SQL-live; merges_nonempty reads the learned merge list.
    The merge list's parity with the sequential trainer
    (bpe_train_sequential) on the same word counts is
    tests/test_query_checks.py's to pin."""
    from .stages.bpe import bpe_train

    n_merges = 12
    merges = bpe_train(_bpe_word_counts(sf_dir), n_merges=n_merges)
    return pa.table({
        "n_docs": pa.array([_meta_rows(sf_dir, "documents")], pa.int64()),
        "n_merges": pa.array([n_merges], pa.int64()),
        "merges_nonempty": pa.array([len(merges) > 0], pa.bool_()),
    })


def _bpe_encode(sf_dir: str, merges):
    """Materialized (doc_id, n_words, n_subtokens) of every document
    holding a word, encoded with ``merges`` on the BpeEncoder actor
    pool."""
    from .stages.bpe import BpeEncoder

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        BpeEncoder, fn_constructor_kwargs={"merges": merges},
        concurrency=_pool_width(), batch_size=512,
        batch_format="pyarrow").materialize()


@_q(
    "doc_bpe_encode",
    """
    SELECT (SELECT count(*) FROM documents) AS n_docs,
           CAST(12 AS BIGINT) AS n_merges
    """,
)
def doc_bpe_encode(sf_dir: str):
    """BPE ENCODE over the corpus with the trained merges — the
    stateful actor-pool stage (stages/bpe.BpeEncoder: merge-rank table
    loads once per actor in __init__, per-batch work is one encode per
    DISTINCT word via np.unique + a per-actor cache; Zipf keeps
    distinct-per-batch tiny). Oracle row: n_docs SQL-live. The encode's
    parity with the sequential encoder (encode_word_sequential) and
    its n_words <= n_subtokens <= letters bound are
    tests/test_query_checks.py's to pin."""
    from .stages.bpe import bpe_train

    n_merges = 12
    merges = bpe_train(_bpe_word_counts(sf_dir), n_merges=n_merges)
    _bpe_encode(sf_dir, merges)
    return pa.table({
        "n_docs": pa.array([_meta_rows(sf_dir, "documents")], pa.int64()),
        "n_merges": pa.array([n_merges], pa.int64()),
    })


# ---------------------------------------------------------------------------
# Documents: multi-signal quality scoring (length/punct/stopword ratios)
# ---------------------------------------------------------------------------

_STOPWORDS_RX = r"\b(the|a|of|and|to|in|is|it|for|on)\b"

@_q(
    "doc_quality_signals",
    rf"""
    SELECT source,
           count(*) AS n_docs,
           CAST(sum(length(text)) AS BIGINT) AS total_chars,
           round(avg(CAST(length(regexp_replace(text, '[A-Za-z0-9\s]', '', 'g')) AS DOUBLE)
                     / nullif(length(text), 0)), 4) AS punct_ratio,
           round(avg(CAST(length(regexp_extract_all(text, '{_STOPWORDS_RX}')) AS DOUBLE)
                     / nullif(length(regexp_extract_all(text, '[A-Za-z0-9]+')), 0)), 4)
             AS stopword_ratio
    FROM documents GROUP BY source
    """,
)
def doc_quality_signals(sf_dir: str):
    """Per-source quality signals a filtering pipeline thresholds on:
    document length, punctuation density, stopword fraction — all
    pyarrow regex kernels, combiner groupby."""
    from ray.data.aggregate import Count, Mean, Sum

    ds = _read(sf_dir, "documents", ["source", "text"])

    def signals(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        total = pc.utf8_length(text)
        nz = pc.if_else(pc.equal(total, 0), pa.scalar(None, pa.int32()),
                        total)
        punct = pc.utf8_length(
            pc.replace_substring_regex(text, r"[A-Za-z0-9\s]", ""))
        stop = pc.count_substring_regex(text, pattern=_STOPWORDS_RX)
        words = pc.count_substring_regex(text, pattern=r"[A-Za-z0-9]+")
        wz = pc.if_else(pc.equal(words, 0), pa.scalar(None, pa.int32()),
                        words)
        return pa.table({
            "source": batch["source"],
            "chars": pc.cast(total, pa.int64()),
            "punct_ratio": pc.divide(pc.cast(punct, pa.float64()),
                                     pc.cast(nz, pa.float64())),
            "stop_ratio": pc.divide(pc.cast(stop, pa.float64()),
                                    pc.cast(wz, pa.float64())),
        })

    ds = ds.map_batches(signals, batch_format="pyarrow")
    out = ds.groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("chars", alias_name="total_chars"),
        Mean("punct_ratio", alias_name="punct_ratio"),
        Mean("stop_ratio", alias_name="stopword_ratio"))

    def fin(t: pa.Table) -> pa.Table:
        t = _round_col(t, "punct_ratio", 4)
        return _round_col(t, "stopword_ratio", 4)

    return out.map_batches(fin, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Documents: quality scoring per source (text-analysis op)
# ---------------------------------------------------------------------------

@_q(
    "doc_quality",
    """
    SELECT source,
           count(*) AS n_docs,
           round(avg(CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS DOUBLE)
                     / nullif(length(text), 0)), 4) AS alpha_ratio
    FROM documents GROUP BY source
    """,
)
def doc_quality(sf_dir: str):
    from ray.data.aggregate import Count, Mean

    ds = _read(sf_dir, "documents", ["source", "text"])

    def quality(batch: pa.Table) -> pa.Table:
        total = pc.utf8_length(batch["text"])
        stripped = pc.replace_substring_regex(batch["text"], "[^A-Za-z]", "")
        alpha = pc.utf8_length(stripped)
        ratio = pc.divide(
            pc.cast(alpha, pa.float64()),
            pc.cast(pc.if_else(pc.equal(total, 0), pa.scalar(None, pa.int32()),
                               total), pa.float64()),
        )
        return pa.table({"source": batch["source"], "ratio": ratio})

    ds = ds.map_batches(quality, batch_format="pyarrow")
    out = ds.groupby("source").aggregate(
        Count(alias_name="n_docs"), Mean("ratio", alias_name="alpha_ratio"))
    return out.map_batches(lambda t: _round_col(t, "alpha_ratio", 4),
                           batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Lineitem: pricing-summary aggregate (A5/A6-style groupby pivot)
# ---------------------------------------------------------------------------

@_q(
    "pricing_summary",
    """
    SELECT l_returnflag, l_linestatus,
           CAST(sum(CAST(trunc(l_quantity * 100) AS BIGINT)) AS BIGINT) / 100.0
             AS sum_qty,
           CAST(sum(CAST(trunc(l_extendedprice * 100) AS BIGINT)) AS BIGINT) / 100.0
             AS sum_base,
           CAST(sum(CAST(trunc(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT) / 100.0
             AS sum_disc,
           count(*) AS n
    FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
)
def pricing_summary(sf_dir: str):
    """Money sums in integer cents so the distributed sum is exact and
    bit-identical to the oracle regardless of reduction order."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount"])

    def cents(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(batch["l_extendedprice"],
                           pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "qty_c": _to_cents(batch["l_quantity"]),
            "base_c": _to_cents(batch["l_extendedprice"]),
            "disc_c": _to_cents(disc),
        })

    ds = ds.map_batches(cents, batch_format="pyarrow")
    out = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("qty_c", alias_name="sum_qty"),
        Sum("base_c", alias_name="sum_base"),
        Sum("disc_c", alias_name="sum_disc"),
        Count(alias_name="n"),
    )

    def fin(t: pa.Table) -> pa.Table:
        for c in ("sum_qty", "sum_base", "sum_disc"):
            t = _from_cents(t, c)
        return t

    return out.map_batches(fin, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Lineitem ⋈ orders: top-k by aggregated revenue (join + sort + limit)
# ---------------------------------------------------------------------------

@_q(
    "top_orders_by_revenue",
    """
    SELECT o.o_orderkey, o.o_orderstatus,
           CAST(sum(CAST(trunc(l.l_extendedprice * (1 - l.l_discount) * 100) AS BIGINT)) AS BIGINT) / 100.0
             AS revenue
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    GROUP BY o.o_orderkey, o.o_orderstatus
    ORDER BY revenue DESC, o_orderkey LIMIT 10
    """,
)
def top_orders_by_revenue(sf_dir: str):
    from .stages.skew import bucket_aggregate

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"])

    def rev(batch: pa.Table) -> pa.Table:
        r = pc.multiply(batch["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return pa.table({"l_orderkey": batch["l_orderkey"],
                         "rev": _to_cents(r)})

    # pre-aggregate per order BEFORE the join: the join input shrinks
    # from |lineitem| to |orders| rows (scale discipline: A9-adjacent).
    # bucket_aggregate = map-side combine + 64-way cogroup, replacing
    # the 147k-key sort exchange (5.1s -> 1.8s at sf0.1/32cpus)
    per_order = bucket_aggregate(
        li.map_batches(rev, batch_format="pyarrow"),
        ["l_orderkey"], [("sum", "rev", "revenue")])
    # SEMI-JOIN REDUCTION (the scale plan): rank per-order revenues
    # FIRST (partial top-k per block, one tiny global sort), then look
    # up o_orderstatus for only the winning keys via parquet filter
    # pushdown — the |orders|-sized hash join disappears entirely
    # (measured: Dataset.join here cost ~5s of mostly fixed exchange
    # latency; the pushdown read is <0.5s). Missing-FK guard: if fewer
    # than 10 of the K candidates have an orders row (inner-join
    # semantics), K escalates 10x and re-ranks — never a silently
    # truncated result.
    import pyarrow.parquet as pq

    per_order = per_order.materialize()

    def candidates(k: int):
        def local_topk(batch: pa.Table) -> pa.Table:
            idx = pc.sort_indices(
                batch, sort_keys=[("revenue", "descending"),
                                  ("l_orderkey", "ascending")])
            return batch.take(idx[:k])

        return (per_order.map_batches(local_topk, batch_format="pyarrow")
                .sort(["revenue", "l_orderkey"], descending=[True, False])
                .limit(k).take_all())

    k = 20
    while True:
        top = candidates(k)
        keys = [r["l_orderkey"] for r in top]
        otab = pq.read_table(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderstatus"],
                             filters=[("o_orderkey", "in", keys)])
        status = dict(zip(otab["o_orderkey"].to_pylist(),
                          otab["o_orderstatus"].to_pylist()))
        rows = [(r["l_orderkey"], status[r["l_orderkey"]],
                 r["revenue"] / 100.0)
                for r in top if r["l_orderkey"] in status][:10]
        if len(rows) >= 10 or len(top) < k:
            break
        k *= 10
    return pa.table({
        "o_orderkey": pa.array([r[0] for r in rows], pa.int64()),
        "o_orderstatus": pa.array([r[1] for r in rows], pa.string()),
        "revenue": pa.array([r[2] for r in rows], pa.float64()),
    })


# ---------------------------------------------------------------------------
# Events: per-user/day aggregate (streaming-shaped groupby)
# ---------------------------------------------------------------------------

@_q(
    "events_daily",
    """
    SELECT user_id, strftime(ts, '%Y-%m-%d') AS day,
           count(*) AS n_events,
           CAST(sum(CAST(trunc(value * 100) AS BIGINT)) AS BIGINT) / 100.0
             AS total_value
    FROM events GROUP BY user_id, strftime(ts, '%Y-%m-%d')
    """,
)
def events_daily(sf_dir: str):
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def day(batch: pa.Table) -> pa.Table:
        d = pc.strftime(batch["ts"], format="%Y-%m-%d")
        return pa.table({"user_id": batch["user_id"], "day": d,
                         "value": _to_cents(batch["value"])})

    ds = ds.map_batches(day, batch_format="pyarrow")
    # bucket on user_id alone: co-locates every (user, day) group of a
    # user in one bucket; the in-bucket group_by keys on the full pair
    out = bucket_aggregate(ds, ["user_id", "day"],
                           [("count", None, "n_events"),
                            ("sum", "value", "total_value")],
                           bucket_key="user_id")
    return out.map_batches(lambda t: _from_cents(t, "total_value"),
                           batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Anti-join: customers with no orders (J3-style orphan detection)
# ---------------------------------------------------------------------------

@_q(
    "customers_without_orders",
    """
    SELECT c_custkey FROM customer c
    WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)
    """,
)
def customers_without_orders(sf_dir: str):
    """Distributed anti-join (stages/joinutil.cogroup_join
    join_type="left anti"): both sides shuffle once into key buckets,
    per-bucket existence check, no driver-collected key set (the old
    broadcast-np.isin shape scaled with the fact table's distinct
    keys). Per-batch pre-dedup shrinks the right side before the
    shuffle."""
    from .stages.joinutil import cogroup_join

    uniq = _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        lambda b: pa.table({"o_custkey": pa.array(np.unique(
            b["o_custkey"].to_numpy(zero_copy_only=False)))}),
        batch_format="pyarrow")
    cust = _read(sf_dir, "customer", ["c_custkey"])
    out = cogroup_join(
        cust, uniq, left_on="c_custkey", right_on="o_custkey",
        join_type="left anti", num_buckets=16,
        left_schema=pa.schema([("c_custkey", pa.int64())]),
        right_schema=pa.schema([("o_custkey", pa.int64())]))
    # materialize as Arrow so an empty result keeps its schema (an
    # all-empty Dataset loses column names through to_pandas)
    return _collect(out, pa.schema([("c_custkey", pa.int64())]))


@_q(
    "customers_without_big_orders",
    """
    SELECT c_custkey FROM customer c
    WHERE NOT EXISTS (SELECT 1 FROM orders o
                      WHERE o.o_custkey = c.c_custkey
                        AND o.o_totalprice > 150000)
    """,
)
def customers_without_big_orders(sf_dir: str):
    """Filtered distributed anti-join (non-empty at every sf): filter
    + per-batch dedup the orders side, then cogroup_join "left anti" —
    existence decided per key bucket, nothing collects on the
    driver."""
    from .stages.joinutil import cogroup_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def big(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater(batch["o_totalprice"], 150000.0))
        return pa.table({"o_custkey": pa.array(np.unique(
            t["o_custkey"].to_numpy(zero_copy_only=False)))})

    uniq = orders.map_batches(big, batch_format="pyarrow")
    cust = _read(sf_dir, "customer", ["c_custkey"])
    out = cogroup_join(
        cust, uniq, left_on="c_custkey", right_on="o_custkey",
        join_type="left anti", num_buckets=16,
        left_schema=pa.schema([("c_custkey", pa.int64())]),
        right_schema=pa.schema([("o_custkey", pa.int64())]))
    return _collect(out, pa.schema([("c_custkey", pa.int64())]))


# ---------------------------------------------------------------------------
# Broadcast dimension joins: customer -> nation -> region rollup
# ---------------------------------------------------------------------------

@_q(
    "region_customer_stats",
    """
    SELECT r.r_name AS region, n.n_name AS nation,
           count(*) AS n_customers, round(avg(c.c_acctbal), 2) AS avg_acctbal
    FROM customer c
    JOIN nation n ON c.c_nationkey = n.n_nationkey
    JOIN region r ON n.n_regionkey = r.r_regionkey
    GROUP BY r.r_name, n.n_name
    """,
)
def region_customer_stats(sf_dir: str):
    """nation/region are dimension-sized: broadcast dict lookup inside
    map_batches (ray.put once), no shuffle join (guide §Joins)."""
    import ray
    from ray.data.aggregate import Count, Mean

    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    rmap = dict(zip(region["r_regionkey"].to_pylist(),
                    region["r_name"].to_pylist()))
    nmap = {
        k: (name, rmap[rk])
        for k, name, rk in zip(nation["n_nationkey"].to_pylist(),
                               nation["n_name"].to_pylist(),
                               nation["n_regionkey"].to_pylist())
    }
    nmap_ref = ray.put(nmap)

    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def annotate(batch: pa.Table) -> pa.Table:
        m = ray.get(nmap_ref)
        pairs = [m[k] for k in batch["c_nationkey"].to_pylist()]
        return pa.table({
            "region": pa.array([p[1] for p in pairs], pa.string()),
            "nation": pa.array([p[0] for p in pairs], pa.string()),
            "c_acctbal": batch["c_acctbal"],
        })

    ds = cust.map_batches(annotate, batch_format="pyarrow")
    out = ds.groupby(["region", "nation"]).aggregate(
        Count(alias_name="n_customers"),
        Mean("c_acctbal", alias_name="avg_acctbal"))
    return out.map_batches(lambda t: _round_col(t, "avg_acctbal", 2),
                           batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Embeddings: brute-force cosine top-k ANN (similarity-search op)
# ---------------------------------------------------------------------------

@_q(
    "ann_range_search",
    """
    WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0),
    d AS (
      SELECT e.vec_id,
        CAST(list_sum(list_transform(list_zip(e.embedding, q.qe),
             x -> CAST(trunc(CAST(x[1] AS DOUBLE) * 1000) AS BIGINT)
                * CAST(trunc(CAST(x[2] AS DOUBLE) * 1000) AS BIGINT)))
             AS BIGINT) AS dot,
        CAST(list_sum(list_transform(e.embedding,
             v -> CAST(trunc(CAST(v AS DOUBLE) * 1000) AS BIGINT)
                * CAST(trunc(CAST(v AS DOUBLE) * 1000) AS BIGINT)))
             AS BIGINT) AS xx
      FROM embeddings e, q
    ),
    qq AS (SELECT CAST(list_sum(list_transform(qe,
            v -> CAST(trunc(CAST(v AS DOUBLE) * 1000) AS BIGINT)
               * CAST(trunc(CAST(v AS DOUBLE) * 1000) AS BIGINT)))
            AS BIGINT) AS qq FROM q)
    SELECT vec_id, dot AS dot_milli
    FROM d, qq
    WHERE vec_id <> 0 AND dot > 0 AND 16 * dot * dot >= qq.qq * xx
    """,
)
def ann_range_search(sf_dir: str):
    """RANGE similarity search (radius query — "everything at cosine
    ≥ 0.25 of the query", the dedup-by-similarity / recall-set shape
    that top-k cannot express): vectors quantize to milli-units
    (trunc(v·1000) — both engines quantize through the same
    double-precision expression), so dot products and norms are EXACT
    int64 and the threshold test is the integer inequality
    16·dot² ≥ |q|²·|x|² with dot > 0 — no float comparison anywhere,
    no boundary row can flap. Zero-shuffle shape: the quantized query
    broadcasts in the task closure, one vectorized int64 matmul per
    batch, a stateless filter — at 100 TB this is an embarrassingly
    parallel scan, exactly as it should be."""
    import pyarrow.parquet as pq

    from .functions.arrays import list_column_to_matrix

    qtab = pq.read_table(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"],
                         filters=[("vec_id", "=", 0)])
    qv = np.trunc(np.asarray(qtab["embedding"].to_pylist()[0],
                             dtype=np.float64) * 1000).astype(np.int64)
    qq = int((qv * qv).sum())

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def in_range(batch: pa.Table, _q=qv, _qq=qq) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        m = np.trunc(list_column_to_matrix(
            batch["embedding"], dtype=np.float64) * 1000) \
            .astype(np.int64)
        dot = m @ _q
        xx = (m * m).sum(axis=1)
        keep = (ids != 0) & (dot > 0) & (16 * dot * dot >= _qq * xx)
        return pa.table({
            "vec_id": pa.array(ids[keep], pa.int64()),
            "dot_milli": pa.array(dot[keep], pa.int64()),
        })

    out = ds.map_batches(in_range, batch_format="pyarrow")
    return _collect(out, pa.schema([("vec_id", pa.int64()),
                                    ("dot_milli", pa.int64())]))


@_q(
    "ann_topk_cosine",
    """
    WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0)
    SELECT e.vec_id,
           round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.qe AS DOUBLE[])), 6) AS cos_sim
    FROM embeddings e, q
    WHERE e.vec_id <> 0
    ORDER BY cos_sim DESC, e.vec_id LIMIT 10
    """,
)
def ann_topk_cosine(sf_dir: str):
    """Brute-force baseline: broadcast the query vector, per-batch
    numpy matmul in float64, global top-k via sort+limit. The IVF/LSH
    scale path lives in stages/similarity.py."""
    import pyarrow.parquet as pq

    qtab = pq.read_table(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"],
                         filters=[("vec_id", "=", 0)])
    q = np.asarray(qtab["embedding"].to_pylist()[0], dtype=np.float64)
    qn = q / np.linalg.norm(q)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def cos(batch: pa.Table) -> pa.Table:
        from .functions.arrays import list_column_to_matrix

        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        mat = list_column_to_matrix(batch["embedding"])
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        sims = (mat @ qn) / norms
        keep = ids != 0
        return pa.table({
            "vec_id": pa.array(ids[keep]),
            "cos_sim": pa.array(np.round(sims[keep], 6), pa.float64()),
        })

    out = ds.map_batches(cos, batch_format="pyarrow")
    return out.sort(["cos_sim", "vec_id"], descending=[True, False]).limit(10)


# ---------------------------------------------------------------------------
# Part: per-type stats (simple groupby over a second table)
# ---------------------------------------------------------------------------

@_q(
    "part_type_stats",
    """
    SELECT p_type, count(*) AS n,
           round(avg(p_retailprice), 2) AS avg_price, max(p_size) AS max_size
    FROM part GROUP BY p_type
    """,
)
def part_type_stats(sf_dir: str):
    from ray.data.aggregate import Count, Max, Mean

    ds = _read(sf_dir, "part", ["p_type", "p_retailprice", "p_size"])
    out = ds.groupby("p_type").aggregate(
        Count(alias_name="n"),
        Mean("p_retailprice", alias_name="avg_price"),
        Max("p_size", alias_name="max_size"))
    return out.map_batches(lambda t: _round_col(t, "avg_price", 2),
                           batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Non-SQL-expressible: flagship KG construction (rows-only check)
# ---------------------------------------------------------------------------

def _flagship_graph_outputs(sf_dir: str) -> dict:
    """Shared flagship run (synthetic pinned corpus ∪ sf documents ->
    linked mentions -> canonical, inverse-consistent graph), used by
    the flagship_graph oracle row and its pytests."""
    from . import corpus, vocab
    from .pipelines.flagship import run_flagship

    voc = vocab.generate_vocab(vocab.VocabSpec(n_schemes=2, n_concepts=60, seed=42))
    synthetic = corpus.documents_dataset(300, voc, seed=42, override_num_blocks=8)
    flat = corpus.from_flat_documents(
        _read(sf_dir, "documents", ["doc_id", "text"]))
    return run_flagship(synthetic.union(flat), voc.triples,
                        preferred_ns="http://example.org/vocab/",
                        batch_size=512, materialize_before_dedup=False)


@_q(
    "flagship_graph",
    """
    SELECT (SELECT count(*) FROM documents) AS n_docs,
           CASE WHEN (SELECT CAST(sum(length(text)) AS BIGINT)
                      FROM documents) = 149174
                THEN CAST(1566 AS BIGINT)
                ELSE CAST(-1 AS BIGINT) END AS n_triples_pinned,
           true AS has_triples
    """,
)
def flagship_graph(sf_dir: str):
    """Flagship KG construction surfaced as an oracle row (stateful
    linking + union-find has no SQL expression): one flagship run,
    reduced to its triple count. The triple-count regression pin (1566
    on the seed-42 ∪ sf documents corpus) is sf-DEPENDENT, so both
    sides key it on the corpus identity (total text chars — 149174
    only at the gate's sf0.01 table) and degrade to -1 plus the
    has_triples invariant at any other scale. Linking precision/recall
    on the pinned synthetic corpus and the inverse-consistency
    fixpoint are pytest-checked (tests/test_flagship.py); the raw
    graph stays exposed through entry()."""
    n_triples = _flagship_graph_outputs(sf_dir)["graph"].count()

    # corpus identity for the sf-dependent triple-count pin (one
    # metadata+chars pass over the 2 needed columns)
    docs = _read(sf_dir, "documents", ["text"])
    n_chars = 0
    n_docs = 0
    for b in docs.map_batches(
            lambda t: pa.table({
                "n": pa.array([t.num_rows], pa.int64()),
                "c": pa.array([int(pc.sum(
                    pc.utf8_length(t["text"])).as_py() or 0)],
                    pa.int64())}),
            batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        n_docs += pc.sum(b["n"]).as_py() or 0
        n_chars += pc.sum(b["c"]).as_py() or 0
    pinned = n_triples if n_chars == 149174 else -1
    return pa.table({
        "n_docs": pa.array([n_docs], pa.int64()),
        "n_triples_pinned": pa.array([pinned], pa.int64()),
        "has_triples": pa.array([n_triples > 0], pa.bool_()),
    })


# ---------------------------------------------------------------------------
# SKOS render / validate pipelines (rows-only: graph+order semantics
# beyond SQL; conformance is pytest-verified against golden outputs)
# ---------------------------------------------------------------------------

def _tree_order_row(rows_ds) -> pa.Table:
    """(n_rows, order_hash) of an ordered tree_rows Dataset: the row
    count plus a hash of the full ordered (title, parent, scheme,
    level, uri) sequence — any ordering or content drift flips it."""
    import hashlib

    seq = [(r["title"], r["parent"], r["scheme"], r["level"], r["uri"])
           for r in rows_ds.take_all()]
    h = hashlib.sha256(
        "\x1e".join("\x1f".join(str(v) for v in t) for t in seq)
        .encode()).hexdigest()[:16]
    return pa.table({"n_rows": pa.array([len(seq)], pa.int64()),
                     "order_hash": pa.array([h], pa.string())})


def _tree_vocab_triples():
    """The pinned seed-42 generator vocabulary both tree-order rows
    read."""
    from . import vocab

    return vocab.generate_vocab(vocab.VocabSpec(n_schemes=3, n_concepts=120,
                                                seed=42)).triples


_TREE_ORDER_SQL = """
    SELECT CAST(123 AS BIGINT) AS n_rows,
           '7828963196cf33c5' AS order_hash
    """


@_q("skos_tree_rows", _TREE_ORDER_SQL)
def skos_tree_rows(sf_dir: str):
    """Vocabulary triples -> inverse-closed, globally ordered tree_rows
    (the render IR behind the CSV/MD/XML/JSON sinks), surfaced as an
    oracle row: the DFS-preorder row count plus the order hash
    (_tree_order_row) on the pinned seed-42 generator vocabulary. Raw
    rows stay covered by the render golden tests."""
    import ray.data as rd

    from .pipelines.skos2notion import tree_rows_pipeline

    return _tree_order_row(
        tree_rows_pipeline(rd.from_arrow(_tree_vocab_triples())))


@_q("skos_tree_order_distributed", _TREE_ORDER_SQL)
def skos_tree_order_distributed(sf_dir: str):
    """The same pipeline and row as skos_tree_rows, forced onto the
    above-gate placement (per-bucket kernels, min-path propagation on
    shard actors, no driver-side skeleton): it must hash to the same
    order. Both placements are pytest-checked row for row against a
    reference DFS (tests/test_hierarchy_distributed.py)."""
    import ray.data as rd

    from .pipelines.skos2notion import tree_rows_pipeline

    return _tree_order_row(tree_rows_pipeline(
        rd.from_arrow(_tree_vocab_triples()), engine="actors"))


@_q(
    "skos_validate",
    """
    SELECT * FROM (VALUES
      ('error',   'missing_label',        CAST(1 AS BIGINT)),
      ('error',   'multiple_pref_labels', 1),
      ('error',   'cycle',                2),
      ('warning', 'orphan_no_scheme',     2),
      ('warning', 'orphan_in_scheme',     4),
      ('warning', 'topconcept_onesided',  2),
      ('warning', 'duplicate_label',      1),
      ('warning', 'polyhierarchy',        1),
      ('warning', 'depth_exceeded',       1)
    ) AS t(severity, "check", n)
    """,
)
def skos_validate(sf_dir: str):
    """Validator suite over the pathology fixture, surfaced as an
    oracle row: per-(severity, check) issue counts on the pinned
    seed-7 pathology vocabulary (constants — the fixture is
    deterministic, so a validator regression changes a count). Raw
    issue rows stay covered by tests/test_validate.py."""
    import ray.data as rd

    from . import vocab
    from .stages.skew import bucket_aggregate
    from .stages.validate import validate

    voc = vocab.generate_vocab(vocab.VocabSpec(n_schemes=2, n_concepts=40,
                                               seed=7, pathologies=True))
    issues = validate(rd.from_arrow(voc.triples))
    out = bucket_aggregate(issues.select_columns(["severity", "check"]),
                           ["severity", "check"],
                           [("count", None, "n")], num_buckets=2)
    return _collect(out, pa.schema([("severity", pa.string()),
                                    ("check", pa.string()),
                                    ("n", pa.int64())]))


# ---------------------------------------------------------------------------
# Documents: MinHash+LSH near-dup pairs with exact-Jaccard verification
# (training-data dedup; oracle = brute-force exact word-3gram Jaccard)
# ---------------------------------------------------------------------------

@_q(
    "doc_dedup_minhash",
    r"""
    WITH words AS (
      SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
      FROM documents
    ),
    sh AS (
      SELECT doc_id,
             list_distinct([w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                            FOR i IN generate_series(1, len(w)-2)]) AS s
      FROM words WHERE len(w) >= 3
    )
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
             / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
             AS jaccard
    FROM sh a JOIN sh b ON a.doc_id < b.doc_id
    WHERE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
          / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))) >= 0.8
    """,
)
def doc_dedup_minhash(sf_dir: str):
    """MinHash(128) + LSH(32x4) candidate generation, then exact
    word-3gram Jaccard verification via two hash joins on the compact
    shingle-hash sets. The oracle brute-forces all O(n^2) pairs — the
    engine never does (stages/dedup.py docstring has the recall math:
    P(miss | j>=0.8) ~ 5e-8). Jaccard is emitted un-rounded: both
    sides compute inter/union as a double division of exact integer
    counts, so the doubles are bitwise identical."""
    from .stages.dedup import minhash_near_dup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_near_dup_pairs(ds, threshold=0.8,
                                   num_partitions=_minhash_partitions(sf_dir))
    return _collect(pairs, pa.schema([("doc_a", pa.int64()),
                                      ("doc_b", pa.int64()),
                                      ("jaccard", pa.float64())]))


# ---------------------------------------------------------------------------
# Iterative graph computation: PageRank over the supplier->part graph
# (rows-only: float power iteration has no SQL oracle; the algorithm
# is pinned against a sequential dense oracle in tests/test_graph.py)
# ---------------------------------------------------------------------------

def _pagerank_edges(sf_dir: str):
    """Bipartite supplier->part string edge Dataset from lineitem
    (shared by the graph_pagerank/graph_ppr/graph_hits oracle rows and
    their engine-parity pytests)."""
    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"])

    def edges(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src": pc.binary_join_element_wise(
                pa.array(["s"] * batch.num_rows),
                pc.cast(batch["l_suppkey"], pa.string()), ""),
            "dst": pc.binary_join_element_wise(
                pa.array(["p"] * batch.num_rows),
                pc.cast(batch["l_partkey"], pa.string()), ""),
        })

    return li.map_batches(edges, batch_format="pyarrow").materialize()


def _rank_row(ranks) -> pa.Table:
    """(n_nodes, rank_sum) of a (node, rank) Dataset: the node count
    plus probability-mass conservation (Σ rank = 1 to 6 dp)."""
    ranks = ranks.materialize()
    return pa.table({
        "n_nodes": pa.array([ranks.count()], pa.int64()),
        "rank_sum": pa.array([round(ranks.sum("rank"), 6)], pa.float64()),
    })


_PPR_SEEDS = ("s1", "s2", "s3")


@_q(
    "graph_ppr",
    """
    SELECT (SELECT count(DISTINCT l_suppkey) FROM lineitem)
         + (SELECT count(DISTINCT l_partkey) FROM lineitem) AS n_nodes,
           CAST(3 AS BIGINT) AS n_seeds,
           1.0 AS rank_sum
    """,
)
def graph_ppr(sf_dir: str):
    """PERSONALIZED PageRank / random walk with restart (teleport
    vector = 1/3 on suppliers s1/s2/s3, dangling mass restarts at the
    seeds) over the same bipartite lineitem graph as graph_pagerank —
    ranks measure proximity to the seed set, the similarity primitive
    behind graph-based recommendation and seed-expansion labeling.
    Oracle row: n_nodes SQL-live; rank_sum pins mass conservation.
    Driver-vs-actor parity and seed localization are pytest-checked
    (tests/test_graph.py)."""
    from .stages.graph import pagerank

    ranks = pagerank(_pagerank_edges(sf_dir), n_iter=5,
                     seeds=list(_PPR_SEEDS))
    return _rank_row(ranks).append_column(
        "n_seeds", pa.array([len(_PPR_SEEDS)], pa.int64()))


@_q(
    "graph_pagerank",
    """
    SELECT (SELECT count(DISTINCT l_suppkey) FROM lineitem)
         + (SELECT count(DISTINCT l_partkey) FROM lineitem) AS n_nodes,
           1.0 AS rank_sum
    """,
)
def graph_pagerank(sf_dir: str):
    """PageRank (5 synchronous rounds, d=0.85) over the bipartite
    supplier->part edge list from lineitem (stages/graph.py), surfaced
    as an oracle row: n_nodes is SQL-live (distinct suppliers + parts
    — the s/p prefixes keep the namespaces disjoint) and rank_sum pins
    probability-mass conservation. Driver-vs-actor parity and top-rank
    ordering are pytest-checked (tests/test_graph.py)."""
    from .stages.graph import pagerank

    return _rank_row(pagerank(_pagerank_edges(sf_dir), n_iter=5))


@_q(
    "graph_hits",
    """
    SELECT (SELECT count(DISTINCT l_suppkey) FROM lineitem)
         + (SELECT count(DISTINCT l_partkey) FROM lineitem) AS n_nodes,
           true AS norms_unit,
           true AS bipartite_split
    """,
)
def graph_hits(sf_dir: str):
    """HITS hubs & authorities (Kleinberg 1999) over the bipartite
    supplier->part lineitem graph — here the decomposition is exactly
    interpretable: suppliers are pure hubs (no in-edges => auth 0) and
    parts pure authorities (no out-edges => hub 0), which the
    bipartite_split bit pins structurally. Oracle row: n_nodes is
    SQL-live; norms_unit pins ||hub||2 = ||auth||2 = 1 after the final
    round. Driver-vs-actor parity is pytest-checked
    (tests/test_graph.py)."""
    from .stages.graph import hits

    n_nodes = 0
    h_ssq = a_ssq = 0.0
    split_ok = True
    for b in hits(_pagerank_edges(sf_dir), n_iter=5).iter_batches(
            batch_format="pyarrow", batch_size=8192):
        h = b["hub"].to_numpy(zero_copy_only=False)
        a = b["auth"].to_numpy(zero_copy_only=False)
        n_nodes += b.num_rows
        h_ssq += float((h * h).sum())
        a_ssq += float((a * a).sum())
        is_sup = pc.starts_with(b["node"], "s").to_numpy(
            zero_copy_only=False)
        split_ok &= bool((a[is_sup] == 0.0).all()
                         and (h[~is_sup] == 0.0).all())
    norms_unit = abs(h_ssq - 1.0) < 1e-9 and abs(a_ssq - 1.0) < 1e-9
    return pa.table({
        "n_nodes": pa.array([n_nodes], pa.int64()),
        "norms_unit": pa.array([bool(norms_unit)], pa.bool_()),
        "bipartite_split": pa.array([bool(split_ok)], pa.bool_()),
    })


def _copart_supplier_pairs(sf_dir: str, part_mod: int | None = None,
                           min_weight: int | None = None):
    """Supplier co-part edges (a, b int64; a and b supply a common
    part; one row per distinct (part, a, b) — shared-part multiplicity
    kept): distinct (p, s) via bucket aggregate, per-part pair
    expansion inside one task-scatter cogroup. ``part_mod`` keeps only
    parts with ``hash(p) % part_mod == 0`` (bounded subgraphs for
    sequential-oracle parity rows). ``min_weight`` collapses the pair
    rows to DISTINCT edges kept only when the two suppliers share >=
    that many parts — the co-occurrence-strength projection that keeps
    the graph sparse: the raw projection of a dense bipartite table
    degenerates to (nearly) complete (at sf0.1 every supplier pair
    shares a part — 500k edges, K_1000), and any graph algorithm on a
    complete graph measures nothing."""
    from .stages.skew import bucket_aggregate

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def norm(b: pa.Table) -> pa.Table:
        t = pa.table({"p": pc.cast(b["l_partkey"], pa.int64()),
                      "s": pc.cast(b["l_suppkey"], pa.int64())})
        if part_mod is not None:
            pv = t["p"].to_numpy(zero_copy_only=False)
            t = t.filter(pa.array(
                ((np.abs(pv) % 1000003) * 2654435761 % 1000003)
                % part_mod == 0))
        return t

    ps = bucket_aggregate(
        li.map_batches(norm, batch_format="pyarrow"),
        ["p", "s"], [("count", None, "_c")],
        num_buckets=16).drop_columns(["_c"])

    def part_pairs(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        p = group["p"].to_numpy(zero_copy_only=False)
        s = group["s"].to_numpy(zero_copy_only=False)
        order = np.lexsort((s, p))
        p_s, s_s = p[order], s[order]
        _u, starts = np.unique(p_s, return_index=True)
        lens = np.diff(np.append(starts, len(p_s)))
        ranks = np.arange(len(p_s)) - np.repeat(starts, lens)
        cnt = np.repeat(lens, lens) - 1 - ranks
        total = int(cnt.sum())
        if not total:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        first = np.repeat(np.arange(len(p_s)), cnt)
        second = first + 1 + (np.arange(total)
                              - np.repeat(np.cumsum(cnt) - cnt, cnt))
        return pa.table({"a": s_s[first], "b": s_s[second]})

    # bucket_aggregate keyed its reduce on hash(p) (bucket_key
    # defaults to keys[0]), so every row of one part already sits in
    # ONE of its output blocks — the pair expansion maps whole blocks
    # (batch_size=None) with ZERO additional exchange (round 5: this
    # replaced a string-hash tag plus a second task scatter).
    pairs = ps.map_batches(part_pairs, batch_format="pyarrow",
                           batch_size=None)
    if min_weight is None:
        return pairs
    weighted = bucket_aggregate(pairs, ["a", "b"],
                                [("count", None, "_w")],
                                num_buckets=16, bucket_key="a")

    def strong(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(
            batch["_w"], pa.scalar(min_weight, pa.int64()))) \
            .drop_columns(["_w"])

    return weighted.map_batches(strong, batch_format="pyarrow")


_COPART_MIN_W = 25


@_q(
    "graph_triangles",
    """
    WITH ps AS (SELECT DISTINCT l_partkey AS p, l_suppkey AS s
                FROM lineitem),
    e AS (SELECT a.s AS x, b.s AS y
          FROM ps a JOIN ps b ON a.p = b.p AND a.s < b.s
          GROUP BY 1, 2 HAVING count(*) >= 25)
    SELECT (SELECT count(*) FROM e e1
            JOIN e e2 ON e2.x = e1.x AND e2.y > e1.y
            JOIN e e3 ON e3.x = e1.y AND e3.y = e2.y) AS n_triangles,
           (SELECT count(*) FROM e) AS n_edges
    """,
)
def graph_triangles(sf_dir: str):
    """Exact triangle count over the STRONG supplier co-part graph
    (suppliers connect iff they share >= 25 parts — the raw one-part
    projection degenerates to K_1000 at sf0.1: 500k edges, 166M
    triangles, and a triangle count of a complete graph measures
    nothing). The engine path is the degree-oriented wedge join
    (stages/graph.triangle_count — the Suri-Vassilvitskii 'last
    reducer' shape: wedges generate only at each edge's
    lower-(degree, id) endpoint, so hub fanout is arboricity-bounded);
    the weighted co-supplier edges come from a per-part pair expansion
    inside one bucket cogroup + one pair-count aggregate. Oracle: the
    3-way self-join in DuckDB over the same HAVING-thresholded
    projection."""
    from .stages.graph import triangle_count

    edges = _copart_supplier_pairs(sf_dir, min_weight=_COPART_MIN_W)
    n_tri, n_edges = triangle_count(edges, num_buckets=16)
    return pa.table({"n_triangles": pa.array([n_tri], pa.int64()),
                     "n_edges": pa.array([n_edges], pa.int64())})


@_q(
    "graph_communities",
    """
    WITH ps AS (SELECT DISTINCT l_partkey AS p, l_suppkey AS s
                FROM lineitem),
    e AS (SELECT a.s AS x, b.s AS y
          FROM ps a JOIN ps b ON a.p = b.p AND a.s < b.s
          GROUP BY 1, 2 HAVING count(*) >= 25)
    SELECT (SELECT count(*) FROM e) AS n_edges,
           CAST(5 AS BIGINT) AS n_rounds,
           true AS labels_are_members
    """,
)
def graph_communities(sf_dir: str):
    """Deterministic synchronous label propagation
    (stages/communities.py — the fourth iterative-tier operator, and
    the first with MODE message aggregation) over the supplier
    co-part graph (unipartite and clique-rich: synchronous LPA
    oscillates on bipartite graphs, so the raw supplier->part edges
    would be the wrong input). The run uses the min_weight=25 strong
    projection (the raw one is K_1000 at sf0.1 — see
    _copart_supplier_pairs). Oracle row: n_edges (strong-edge count)
    is SQL-live; labels_are_members pins every community label to be
    one of its member node ids. Driver-vs-actor parity and the
    plain-Python sequential oracle are pytest-checked on a hash-bounded
    part subgraph (tests/test_graph.py)."""
    from .stages.communities import label_propagation

    n_rounds = 5
    edges = _copart_supplier_pairs(
        sf_dir, min_weight=_COPART_MIN_W).materialize()
    nodes, labels = set(), set()
    for b in label_propagation(edges, n_iter=n_rounds, src_col="a",
                               dst_col="b").iter_batches(
            batch_format="pyarrow", batch_size=65536):
        nodes.update(b["node"].to_pylist())
        labels.update(b["label"].to_pylist())
    labels_ok = labels <= nodes and len(nodes) > 0
    return pa.table({
        "n_edges": pa.array([edges.count()], pa.int64()),
        "n_rounds": pa.array([n_rounds], pa.int64()),
        "labels_are_members": pa.array([bool(labels_ok)], pa.bool_()),
    })


# ---------------------------------------------------------------------------
# TPC-H Q3-style shipping priority: dimension broadcast semi-filter +
# pre-aggregated fact side + one cogroup join + partial top-k
# ---------------------------------------------------------------------------

@_q(
    "shipping_priority",
    """
    SELECT l.l_orderkey,
           CAST(sum(CAST(trunc(l.l_extendedprice * (1 - l.l_discount)
                               * 100) AS BIGINT)) AS BIGINT) / 100.0
             AS revenue,
           strftime(o.o_orderdate, '%Y-%m-%d') AS o_orderdate
    FROM customer c
    JOIN orders o ON c.c_custkey = o.o_custkey
    JOIN lineitem l ON l.l_orderkey = o.o_orderkey
    WHERE c.c_mktsegment = 'BUILDING'
      AND o.o_orderdate < TIMESTAMP '1995-03-15'
      AND l.l_shipdate > TIMESTAMP '1995-03-15'
    GROUP BY l.l_orderkey, o.o_orderdate
    ORDER BY revenue DESC, l_orderkey LIMIT 10
    """,
)
def shipping_priority(sf_dir: str):
    """Q3 shape, Ray-Data-first: orders are semi-filtered to BUILDING
    customers via Bloom fast-reject (KB-sized bits broadcast, never
    the key set) + ONE distributed left-semi cogroup verify over the
    bloom-surviving remainder — no driver-collected custkey set, so
    the build side can outgrow driver memory; lineitem
    ship-date-filtered then pre-aggregated to |orders| rows BEFORE the
    single cogroup join; top-10 via per-block partial top-k + one tiny
    global sort."""
    import datetime as dt

    from .stages.bloom import semi_join_bloom
    from .stages.joinutil import cogroup_join
    from .stages.skew import bucket_aggregate
    from .stages.topk import top_k_per_key

    cutoff = pa.scalar(dt.datetime(1995, 3, 15), pa.timestamp("us"))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    n_cust = cust.count()  # parquet-footer metadata, no data read
    cust_b = cust.map_batches(
        lambda b: pa.table({"c_custkey": pc.cast(
            b["c_custkey"].filter(pc.equal(b["c_mktsegment"], "BUILDING")),
            pa.int64())}),
        batch_format="pyarrow").materialize()

    def ofilt(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.less(batch["o_orderdate"], cutoff))
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"],
                         "o_orderdate": t["o_orderdate"]})

    orders_f = _read(sf_dir, "orders",
                     ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(ofilt, batch_format="pyarrow")
    # Bloom prefilter (verify=None: bits only, ~1% false positives
    # survive) ...
    orders_pre = semi_join_bloom(orders_f, cust_b, on="o_custkey",
                                 small_on="c_custkey",
                                 n_expected=max(64, n_cust), verify=None)
    # ... then exact verify as a distributed left-semi cogroup over
    # the already-date+bloom-reduced remainder
    orders = cogroup_join(
        orders_pre, cust_b, left_on="o_custkey", right_on="c_custkey",
        join_type="left semi", num_buckets=8,
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64()),
                               ("o_orderdate", pa.timestamp("us"))]),
        right_schema=pa.schema([("c_custkey", pa.int64())]),
    ).select_columns(["o_orderkey", "o_orderdate"])

    def lrev(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater(batch["l_shipdate"], cutoff))
        r = pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "rev": _to_cents(r)})

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount",
                "l_shipdate"])
    per_order = bucket_aggregate(
        li.map_batches(lrev, batch_format="pyarrow"),
        ["l_orderkey"], [("sum", "rev", "cents")])

    joined = cogroup_join(
        per_order, orders, left_on="l_orderkey", right_on="o_orderkey",
        num_buckets=16,
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("cents", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_orderdate", pa.timestamp("us"))]))

    def tag_const(batch: pa.Table) -> pa.Table:
        return batch.append_column("_one", pa.array(
            np.zeros(batch.num_rows, np.int8)))

    top = top_k_per_key(
        joined.map_batches(tag_const, batch_format="pyarrow"),
        ["_one"], "cents", 10, descending=True, tiebreak="l_orderkey",
        num_buckets=1)

    def fin(batch: pa.Table) -> pa.Table:
        ts = batch["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]")
        return pa.table({
            "l_orderkey": batch["l_orderkey"],
            "revenue": pc.divide(pc.cast(batch["cents"], pa.float64()),
                                 pa.scalar(100.0)),
            "o_orderdate": pa.array(
                np.datetime_as_string(ts, unit="D").tolist(), pa.string()),
        })

    t = _collect(top.map_batches(fin, batch_format="pyarrow"),
                 pa.schema([("l_orderkey", pa.int64()),
                            ("revenue", pa.float64()),
                            ("o_orderdate", pa.string())]))
    order = pc.sort_indices(t, sort_keys=[("revenue", "descending"),
                                          ("l_orderkey", "ascending")])
    return t.take(order).slice(0, 10)


# ---------------------------------------------------------------------------
# Events: deterministic per-key sample — min-k over an SQL-expressible
# multiplicative hash, so the "random" sample is oracle-reproducible
# ---------------------------------------------------------------------------

@_q(
    "events_sample_per_type",
    """
    SELECT event_id, event_type FROM (
      SELECT event_id, event_type,
             row_number() OVER (
               PARTITION BY event_type
               ORDER BY ((abs(event_id) % 1000003) * 2654435761) % 4294967296,
                        event_id
             ) AS rn
      FROM events) WHERE rn <= 20
    """,
)
def events_sample_per_type(sf_dir: str):
    """Deterministic 20-row-per-type sample: rank by a Knuth
    multiplicative hash of the row id (uniform-ish, seedable by
    changing the multiplier, and exactly reproducible in SQL), select
    via the partial-top-k operator — the shuffle sees ≤ k rows per
    (batch, key), never the corpus."""
    from .stages.topk import top_k_per_key

    ds = _read(sf_dir, "events", ["event_id", "event_type"])

    def h(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        # abs() first: numpy's % is floored (non-negative) while
        # DuckDB's is truncated (negative for negative ids) — abs
        # makes the two agree for any id; % 1000003 keeps the product
        # < 2^63 (same reasoning as events_split_counts)
        return batch.append_column(
            "_h", pa.array(((np.abs(eid) % 1000003) * 2654435761)
                           % 4294967296,
                           pa.int64()))

    out = top_k_per_key(ds.map_batches(h, batch_format="pyarrow"),
                        ["event_type"], "_h", 20,
                        descending=False, tiebreak="event_id",
                        num_buckets=8)
    return _collect(out.select_columns(["event_id", "event_type"]),
                    pa.schema([("event_id", pa.int64()),
                               ("event_type", pa.string())]))


# ---------------------------------------------------------------------------
# Incremental ingest: cross-run dedup against a persisted fingerprint
# store — round 1 absorbs half the corpus, round 2 offers all of it;
# the oracle derives both rounds' survivor counts from SQL alone.
# ---------------------------------------------------------------------------

@_q(
    "incremental_ingest",
    """
    SELECT 1 AS round, count(*) AS n_new
    FROM documents WHERE doc_id < 250
    UNION ALL
    SELECT 2 AS round, count(*) AS n_new
    FROM documents
    WHERE text NOT IN (SELECT text FROM documents WHERE doc_id < 250)
    """,
)
def incremental_ingest(sf_dir: str):
    """Two ingest rounds against a fresh fingerprint store
    (stages/incremental.py): Bloom fast-reject + exact-confirm
    anti-join on 8-byte content hashes, append-only parquet shards.
    Round 2 admits exactly the documents whose text round 1 never
    saw."""
    import shutil
    import tempfile

    from .stages.incremental import ingest_round

    store = tempfile.mkdtemp(prefix="graft_fps_", dir="/tmp")
    try:
        docs = _read(sf_dir, "documents", ["doc_id", "text"])
        r1 = ingest_round(docs.filter(expr="doc_id < 250"), store)
        n1 = r1.count()
        r2 = ingest_round(docs, store)
        n2 = r2.count()
        return pa.table({"round": pa.array([1, 2], pa.int64()),
                         "n_new": pa.array([n1, n2], pa.int64())})
    finally:
        shutil.rmtree(store, ignore_errors=True)


# ---------------------------------------------------------------------------
# IO: JSONL sink + source round-trip. The oracle aggregates the parquet
# directly, so the round-trip must preserve every row and value.
# ---------------------------------------------------------------------------

@_q(
    "jsonl_roundtrip",
    """
    SELECT lang, count(*) AS n, CAST(sum(n_chars) AS BIGINT) AS chars
    FROM documents GROUP BY lang
    """,
)
def jsonl_roundtrip(sf_dir: str):
    """documents -> sharded JSONL under /tmp -> read_json back -> per
    lang count/chars. Exercises the JSONL sink/source pair (newline
    JSON is the interchange format of every crawl pipeline); the
    aggregate proves the round-trip is lossless."""
    import shutil
    import tempfile

    import ray.data as rd

    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    tmp = tempfile.mkdtemp(prefix="graft_jsonl_", dir="/tmp")
    try:
        ds.write_json(tmp)
        back = rd.read_json(tmp)
        out = bucket_aggregate(
            back.select_columns(["lang", "n_chars"]), ["lang"],
            [("count", None, "n"), ("sum", "n_chars", "chars")],
            num_buckets=4)
        return _collect(out.select_columns(["lang", "n", "chars"]),
                        pa.schema([("lang", pa.string()),
                                   ("n", pa.int64()),
                                   ("chars", pa.int64())]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@_q(
    "jsonl_gz_roundtrip",
    """
    SELECT lang, count(*) AS n, CAST(sum(n_chars) AS BIGINT) AS chars
    FROM documents GROUP BY lang
    """,
)
def jsonl_gz_roundtrip(sf_dir: str):
    """documents -> gzip JSONL shards (sources/jsonl.write_jsonl_gz:
    polars NDJSON + stdlib gzip per block, atomic shard publish) ->
    read_json with arrow-level decompression -> per-lang count/chars.
    Compressed newline-JSON is how crawl corpora actually ship
    (*.jsonl.gz); the aggregate proves the compressed round-trip is
    lossless."""
    import shutil
    import tempfile

    from .sources.jsonl import read_jsonl_gz, write_jsonl_gz
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    tmp = tempfile.mkdtemp(prefix="graft_jsonlgz_", dir="/tmp")
    try:
        write_jsonl_gz(ds, tmp)
        back = read_jsonl_gz(tmp)
        out = bucket_aggregate(
            back.select_columns(["lang", "n_chars"]), ["lang"],
            [("count", None, "n"), ("sum", "n_chars", "chars")],
            num_buckets=4)
        return _collect(out.select_columns(["lang", "n", "chars"]),
                        pa.schema([("lang", pa.string()),
                                   ("n", pa.int64()),
                                   ("chars", pa.int64())]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# Documents: regex extract-all to rows (flat-map extraction — the URL /
# entity-mining shape; vectorized rust-regex extract + one explode)
# ---------------------------------------------------------------------------

@_q(
    "doc_extract_terms",
    r"""
    SELECT doc_id, unnest(regexp_extract_all(text, '[a-z]{5,}')) AS term
    FROM documents
    """,
)
def doc_extract_terms(sf_dir: str):
    """Every ≥5-letter lowercase run per document, one output row per
    match (order-insensitive set parity with the SQL oracle): polars'
    vectorized ``str.extract_all`` + explode inside one map — the
    flat-map extraction shape used for URL / entity mining; zero
    shuffles."""
    import polars as pl

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def extract(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = (df.with_columns(
            pl.col("text").str.extract_all(r"[a-z]{5,}").alias("term"))
            .drop("text").explode("term")
            .filter(pl.col("term").is_not_null()))
        return out.to_arrow().cast(pa.schema([("doc_id", pa.int64()),
                                              ("term", pa.string())]))

    out = ds.map_batches(extract, batch_format="pyarrow")
    return _collect(out, pa.schema([("doc_id", pa.int64()),
                                    ("term", pa.string())]))


# ---------------------------------------------------------------------------
# Documents: TF-IDF salient terms — corpus-level DF + per-doc top-k
# ---------------------------------------------------------------------------

@_q(
    "doc_tfidf_top_terms",
    r"""
    WITH tf AS (
      SELECT doc_id, t AS term, count(*) AS tf
      FROM (SELECT doc_id,
                   unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t
            FROM documents)
      GROUP BY doc_id, t
    ), df AS (
      SELECT term, count(*) AS df FROM tf GROUP BY term
    )
    SELECT doc_id, term, tf, df,
           tf * length(bin((SELECT count(*) FROM documents) // df)) AS score
    FROM tf JOIN df USING (term)
    QUALIFY row_number()
        OVER (PARTITION BY doc_id ORDER BY score DESC, term) <= 5
    """,
)
def doc_tfidf_top_terms(sf_dir: str):
    """Per-document salient terms by integer TF-IDF: score = tf x
    (floor(log2(N // df)) + 1). The integer-log idf keeps Ray/DuckDB
    value parity exact (float ln() differs at the ULP between libm
    builds). Shape: per-batch vectorized tf (a document never splits
    across rows, so no shuffle), one high-card bucket aggregate for
    DF, one cogroup join on term (the DF table is term-cardinality —
    too big to broadcast at corpus scale), partial-top-k per doc."""
    return _collect(_doc_salient_terms(sf_dir, k=5),
                    pa.schema([("doc_id", pa.int64()),
                               ("term", pa.string()),
                               ("tf", pa.int64()), ("df", pa.int64()),
                               ("score", pa.int64())]))


def _doc_salient_terms(sf_dir: str, k: int):
    """(doc_id, term, tf, df, score) Dataset of each document's top-k
    integer-TF-IDF terms; shared by doc_tfidf_top_terms and
    term_cooccurrence."""
    import numpy as np
    import polars as pl

    from .stages.joinutil import cogroup_join
    from .stages.skew import bucket_aggregate
    from .stages.topk import top_k_per_key

    n_docs = _meta_rows(sf_dir, "documents")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    tf_schema = pa.schema([("doc_id", pa.int64()), ("term", pa.string()),
                           ("tf", pa.int64())])

    def tf_batch(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = (df.with_columns(
            pl.col("text").str.to_lowercase()
              .str.extract_all(r"[a-z0-9]+").alias("term"))
            .drop("text").explode("term")
            .filter(pl.col("term").is_not_null())
            .group_by(["doc_id", "term"]).len(name="tf"))
        return out.to_arrow().cast(tf_schema)

    # materialized: consumed by the DF aggregate AND the join left side
    tf_ds = ds.map_batches(tf_batch, batch_format="pyarrow").materialize()
    df_ds = bucket_aggregate(
        tf_ds.select_columns(["term"]), ["term"],
        [("count", None, "df")],
        num_buckets=_adaptive_buckets(sf_dir, "documents"))
    joined = cogroup_join(tf_ds, df_ds, left_on="term", right_on="term",
                          join_type="inner",
                          right_schema=pa.schema([("term", pa.string()),
                                                  ("df", pa.int64())]))

    def score(batch: pa.Table) -> pa.Table:
        dfv = batch["df"].to_numpy(zero_copy_only=False)
        tfv = batch["tf"].to_numpy(zero_copy_only=False)
        # exact shift arithmetic (== floor(log2)+1 for x >= 1): the
        # float log2 can misreport just below powers of two for
        # x >= ~2^47, breaking DuckDB parity (same discipline as
        # doc_unigram_surprisal)
        from .functions.hashing import bit_length_u64
        idf = bit_length_u64(
            np.maximum(n_docs // dfv, 1).astype(np.uint64))
        return batch.append_column("score", pa.array(tfv * idf, pa.int64()))

    scored = joined.map_batches(score, batch_format="pyarrow")
    out = top_k_per_key(scored, ["doc_id"], "score", k,
                        descending=True, tiebreak="term",
                        num_buckets=_adaptive_buckets(sf_dir, "documents"))
    return out.select_columns(["doc_id", "term", "tf", "df", "score"])


@_q(
    "doc_unigram_surprisal",
    r"""
    WITH tok AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t
      FROM documents
    ),
    cnt AS (SELECT t, count(*) AS c FROM tok GROUP BY t),
    tot AS (SELECT count(*) AS n FROM tok)
    SELECT doc_id, count(*) AS n_tokens,
           CAST(sum(length(bin((SELECT n FROM tot) // c))) AS BIGINT)
             AS surprisal_bits
    FROM tok JOIN cnt USING (t)
    GROUP BY doc_id
    """,
)
def doc_unigram_surprisal(sf_dir: str):
    """Perplexity-proxy quality scoring (the CCNet-style LM filter,
    with the corpus itself as the LM): train a unigram model over the
    whole corpus, then score every document by its total surprisal.
    Per-token surprisal is the INTEGER bit length of
    total_tokens // count(token) — floor(log2)+1 in exact shift
    arithmetic (functions/hashing.bit_length_u64), so Ray and DuckDB
    agree bit-for-bit with no float summation-order flap. Shape: one
    materialized tf table (two consumers), one vocab-bucket aggregate
    for counts, a map-side partial-sum driver fold for the scalar
    total (no exchange), one term-bucket cogroup join, one per-doc
    bucket aggregate. Rank by surprisal_bits/n_tokens downstream."""
    import polars as pl

    from .functions.hashing import bit_length_u64
    from .stages.joinutil import cogroup_join
    from .stages.skew import bucket_aggregate

    tf_schema = pa.schema([("doc_id", pa.int64()), ("term", pa.string()),
                           ("tf", pa.int64())])

    def tf_batch(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = (df.with_columns(
            pl.col("text").str.to_lowercase()
              .str.extract_all(r"[a-z0-9]+").alias("term"))
            .drop("text").explode("term")
            .filter(pl.col("term").is_not_null())
            .group_by(["doc_id", "term"]).len(name="tf"))
        return out.to_arrow().cast(tf_schema)

    nb = _adaptive_buckets(sf_dir, "documents")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    # materialized: consumed by the count aggregate AND the join left
    tf_ds = ds.map_batches(tf_batch, batch_format="pyarrow").materialize()
    # materialized: chaining the count groupby lazily INTO the join's
    # cogroup execution measured 35 s vs 6 s at sf0.1 (two nested
    # all-to-alls in one streaming plan starve each other)
    cnt_ds = bucket_aggregate(tf_ds.select_columns(["term", "tf"]),
                              ["term"], [("sum", "tf", "c")],
                              num_buckets=nb).materialize()
    # scalar token total: map-side partial sums over the PINNED tf
    # blocks, folded on the driver — no extra exchange
    total = 0
    for b in tf_ds.map_batches(
            lambda b: pa.table({"s": [pc.sum(b["tf"]).as_py() or 0]}),
            batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        total += int(pc.sum(b["s"]).as_py() or 0)

    joined = cogroup_join(tf_ds, cnt_ds, left_on="term", right_on="term",
                          join_type="inner", num_buckets=nb,
                          left_schema=tf_schema,
                          right_schema=pa.schema([("term", pa.string()),
                                                  ("c", pa.int64())]))

    def score(batch: pa.Table, _total=total) -> pa.Table:
        c = batch["c"].to_numpy(zero_copy_only=False).astype(np.uint64)
        tf = batch["tf"].to_numpy(zero_copy_only=False)
        bits = bit_length_u64(np.uint64(_total) // c)
        return pa.table({"doc_id": batch["doc_id"],
                         "n_tokens": tf,
                         "w_bits": tf * bits})

    out = bucket_aggregate(
        joined.map_batches(score, batch_format="pyarrow"), ["doc_id"],
        [("sum", "n_tokens", "n_tokens"),
         ("sum", "w_bits", "surprisal_bits")], num_buckets=nb)
    return _collect(out, pa.schema([("doc_id", pa.int64()),
                                    ("n_tokens", pa.int64()),
                                    ("surprisal_bits", pa.int64())]))


# ---------------------------------------------------------------------------
# Documents: BM25 retrieval top-k for a fixed query (hard-negative
# mining / decontamination-by-retrieval / RAG relevance — exact
# integer-rational scoring, so Ray and DuckDB agree bit-for-bit)
# ---------------------------------------------------------------------------

_BM25_TERMS = ("hash", "join", "merge", "sort")


def _bm25_sql() -> str:
    """BM25(k1=1.2, b=0.75) in EXACT integer arithmetic. With
    adl = (1000·T)//N (milli-avgdl, an exact integer both engines
    compute identically), each term's contribution is the rational
        idf_bits · (22·tf·adl·10^6) // (10·adl·tf + 3·adl + 9000·dl)
    — the classic tf·(k1+1)/(tf + k1(1-b+b·dl/avgdl)) scaled by
    10·adl so numerator and denominator are integers (micro units;
    every factor is doc-length-bounded, so int64 never overflows
    regardless of corpus size), with idf_bits = floor(log2(N//df))+1
    (length(bin(...)) — the same integer idf as doc_tfidf_top_terms;
    float ln differs at the ULP between libm builds). Summing integer
    micro-scores is reduction-order-free, so the engine's parallel
    fold and DuckDB's serial sum cannot diverge."""
    tf_cols = ",\n             ".join(
        f"len(list_filter(w, x -> x = '{t}')) AS tf{i}"
        for i, t in enumerate(_BM25_TERMS))
    contrib = " + ".join(
        f"""(CASE WHEN tf{i} = 0 THEN 0 ELSE
             length(bin((SELECT n FROM stats)
                        // greatest(1, (SELECT count(*) FROM d
                                        WHERE tf{i} > 0))))
             * ((22 * tf{i} * (SELECT adl FROM stats) * 1000000)
                // (10 * (SELECT adl FROM stats) * tf{i}
                    + 3 * (SELECT adl FROM stats) + 9000 * dl))
             END)"""
        for i in range(len(_BM25_TERMS)))
    return f"""
    WITH tok AS (
      SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS w
      FROM documents
    ),
    d AS (
      SELECT doc_id, len(w) AS dl,
             {tf_cols}
      FROM tok
    ),
    stats AS (
      SELECT count(*) AS n,
             (1000 * sum(dl)) // count(*) AS adl
      FROM d
    )
    SELECT doc_id, CAST(score_micro AS BIGINT) AS score_micro FROM (
      SELECT doc_id, {contrib} AS score_micro FROM d
    ) WHERE score_micro > 0
    ORDER BY score_micro DESC, doc_id LIMIT 20
    """


@_q("doc_bm25_topk", _bm25_sql())
def doc_bm25_topk(sf_dir: str):
    """Top-20 documents by BM25 for the fixed query {hash join merge
    sort} (see _bm25_sql for the exact-integer scoring contract).

    Shape: ONE tokenize pass builds the query-term forward index
    (doc_id, dl, tf per query term — a handful of ints per doc,
    pinned); corpus stats (N, Σdl, df per term) fold on the driver as
    per-block scalars from those SAME pinned blocks (no exchange);
    one stateless scoring map; local top-k per block then one
    bounded driver merge of num_blocks × 20 rows. Zero all-to-all
    exchanges — retrieval scoring against a fixed query is
    embarrassingly parallel and should be shaped that way."""
    import polars as pl

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    k = 20

    def fwd(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        exprs = [pl.col("w").list.len().cast(pl.Int64).alias("dl")]
        exprs += [pl.col("w").list.count_matches(t).cast(pl.Int64)
                  .alias(f"tf{i}") for i, t in enumerate(_BM25_TERMS)]
        out = (df.with_columns(
            pl.col("text").str.to_lowercase()
              .str.extract_all(r"[a-z0-9]+").alias("w"))
            .select([pl.col("doc_id"), *exprs]))
        return out.to_arrow().cast(pa.schema(
            [("doc_id", pa.int64()), ("dl", pa.int64())]
            + [(f"tf{i}", pa.int64())
               for i in range(len(_BM25_TERMS))]))

    fwd_ds = ds.map_batches(fwd, batch_format="pyarrow",
                            batch_size=2048).materialize()

    # corpus stats: per-block partial scalars -> driver fold
    n_docs = 0
    tot_dl = 0
    dfs = np.zeros(len(_BM25_TERMS), np.int64)
    for b in fwd_ds.map_batches(
            lambda t: pa.table(
                {"n": pa.array([t.num_rows], pa.int64()),
                 "s": pa.array([int(pc.sum(t["dl"]).as_py() or 0)],
                               pa.int64()),
                 **{f"d{i}": pa.array(
                     [int(pc.sum(pc.cast(pc.greater(
                         t[f"tf{i}"], 0), pa.int64())).as_py() or 0)],
                     pa.int64())
                    for i in range(len(_BM25_TERMS))}}),
            batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        n_docs += pc.sum(b["n"]).as_py() or 0
        tot_dl += pc.sum(b["s"]).as_py() or 0
        for i in range(len(_BM25_TERMS)):
            dfs[i] += pc.sum(b[f"d{i}"]).as_py() or 0
    if n_docs == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "score_micro": pa.array([], pa.int64())})
    adl = (1000 * tot_dl) // n_docs
    from .functions.hashing import bit_length_u64

    idf = bit_length_u64(
        np.uint64(n_docs) // np.maximum(dfs, 1).astype(np.uint64))

    def score_topk(batch: pa.Table, _adl=adl, _idf=idf,
                   _k=k) -> pa.Table:
        dl = batch["dl"].to_numpy(zero_copy_only=False)
        s = np.zeros(batch.num_rows, np.int64)
        for i in range(len(_BM25_TERMS)):
            tf = batch[f"tf{i}"].to_numpy(zero_copy_only=False)
            s += _idf[i] * ((22 * tf * _adl * 1_000_000)
                            // (10 * _adl * tf + 3 * _adl + 9000 * dl))
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = s > 0
        doc, s = doc[keep], s[keep]
        ordr = np.lexsort((doc, -s))[:_k]
        return pa.table({"doc_id": pa.array(doc[ordr], pa.int64()),
                         "score_micro": pa.array(s[ordr], pa.int64())})

    # local top-k per pinned block, bounded driver merge
    parts = [b for b in fwd_ds.map_batches(
        score_topk, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_format="pyarrow")]
    allc = pa.concat_tables(parts) if parts else pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "score_micro": pa.array([], pa.int64())})
    doc = allc["doc_id"].to_numpy(zero_copy_only=False)
    s = allc["score_micro"].to_numpy(zero_copy_only=False)
    ordr = np.lexsort((doc, -s))[:k]
    return pa.table({"doc_id": pa.array(doc[ordr], pa.int64()),
                     "score_micro": pa.array(s[ordr], pa.int64())})


_RESUME_COLS = ["doc_id", "lang", "source"]


def _resumed_write(sf_dir: str, out_dir: str) -> None:
    """The documents table written to ``out_dir`` through the
    adjacency-partitioned checkpoint sink by an interrupted run and
    its rerun: the first run lands partitions 0 and 1 and dies, the
    rerun consults the manifest and writes only the missing six."""
    from .state.manifest import partition_id_array, write_partitioned

    ds = _read(sf_dir, "documents", _RESUME_COLS)

    def first_two(batch: pa.Table) -> pa.Table:
        part = partition_id_array(batch["doc_id"], 8)
        return batch.filter(pc.less(part, pa.scalar(2, pa.int32())))

    write_partitioned(ds.map_batches(first_two, batch_format="pyarrow"),
                      out_dir, key_col="doc_id", n_parts=8, stage="docs",
                      lineage=sf_dir)
    write_partitioned(ds, out_dir, key_col="doc_id", n_parts=8,
                      stage="docs", lineage=sf_dir)


@_q(
    "graph_checkpoint_resume",
    r"""
    SELECT CAST(8 AS BIGINT) AS n_parts,
           (SELECT count(*) FROM documents) AS rows_resumed
    """,
)
def graph_checkpoint_resume(sf_dir: str):
    """North-rule resumability, surfaced as an oracle row: an
    interrupted run of the adjacency-partitioned checkpoint sink
    (state/manifest.write_partitioned) plus its rerun
    (``_resumed_write``); n_parts and rows_resumed are the partition
    directories and parquet rows on disk afterwards. That the resumed
    output is row-identical to one uninterrupted write is
    tests/test_query_checks.py's to pin."""
    import glob as _glob
    import os
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    tmp = tempfile.mkdtemp(prefix="ckpt_resume_", dir="/tmp")
    try:
        _resumed_write(sf_dir, tmp)
        return pa.table({
            "n_parts": pa.array(
                [len(_glob.glob(os.path.join(tmp, "part=*")))], pa.int64()),
            "rows_resumed": pa.array([pq.read_table(tmp).num_rows],
                                     pa.int64()),
        })
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@_q(
    "doc_repetition_signals",
    r"""
    WITH words AS (
      SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
      FROM documents
    ),
    base AS (
      SELECT doc_id, CAST(len(w) AS BIGINT) AS n_words,
             CAST(len(list_distinct(w)) AS BIGINT) AS n_distinct_words, w
      FROM words WHERE len(w) >= 2
    ),
    g AS (
      SELECT doc_id, unnest([w[i] || ' ' || w[i+1]
                             FOR i IN generate_series(1, len(w)-1)]) AS g2
      FROM base
    ),
    cnt AS (SELECT doc_id, g2, CAST(count(*) AS BIGINT) AS c
            FROM g GROUP BY doc_id, g2),
    top AS (
      SELECT doc_id, g2 AS top_2gram, c AS top_2gram_count
      FROM cnt
      QUALIFY row_number() OVER (PARTITION BY doc_id
                                 ORDER BY c DESC, g2) = 1
    )
    SELECT b.doc_id, b.n_words, b.n_distinct_words, t.top_2gram,
           t.top_2gram_count,
           t.top_2gram_count * CAST(length(t.top_2gram) AS BIGINT)
             AS top_2gram_chars
    FROM base b JOIN top t USING (doc_id)
    """,
)
def doc_repetition_signals(sf_dir: str):
    """Gopher-style repetition quality rules: per document, the
    duplicate-word signal (n_words vs n_distinct_words) and the most
    frequent word 2-gram with its count and character mass (ties break
    lexicographically). All integers/strings so parity is exact, and —
    because a document never splits across rows — the whole operator
    is ONE map_batches with a vectorized polars kernel: zero shuffles
    at any corpus size."""
    import polars as pl

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_words", pa.int64()),
        ("n_distinct_words", pa.int64()), ("top_2gram", pa.string()),
        ("top_2gram_count", pa.int64()), ("top_2gram_chars", pa.int64()),
    ])

    def rep_batch(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(
            pl.col("text").str.extract_all(r"\S+").alias("toks"))
        base = df.filter(pl.col("toks").list.len() >= 2).select(
            "doc_id",
            pl.col("toks").list.len().cast(pl.Int64).alias("n_words"),
            pl.col("toks").list.unique().list.len().cast(pl.Int64)
              .alias("n_distinct_words"),
            "toks")
        if base.height == 0:
            return out_schema.empty_table()
        ex = base.select("doc_id", "toks").explode("toks")
        g2 = (ex.with_columns(
                pl.col("toks").shift(-1).over("doc_id").alias("nxt"))
              .drop_nulls("nxt")
              .select("doc_id", (pl.col("toks") + " " + pl.col("nxt"))
                      .alias("g2"))
              .group_by(["doc_id", "g2"]).len(name="c")
              .sort(["doc_id", "c", "g2"],
                    descending=[False, True, False])
              .group_by("doc_id", maintain_order=True).first())
        out = base.drop("toks").join(g2, on="doc_id", how="inner") \
            .select("doc_id", "n_words", "n_distinct_words",
                    pl.col("g2").alias("top_2gram"),
                    pl.col("c").cast(pl.Int64).alias("top_2gram_count"),
                    (pl.col("c").cast(pl.Int64)
                     * pl.col("g2").str.len_chars().cast(pl.Int64))
                    .alias("top_2gram_chars"))
        return out.to_arrow().cast(out_schema)

    ds = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(rep_batch, batch_format="pyarrow")
    return _collect(ds, out_schema)


@_q(
    "doc_bigram_lm",
    r"""
    WITH arr AS (
      SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS a
      FROM documents
    ),
    tok AS (
      SELECT doc_id, unnest(a) AS t,
             generate_subscripts(a, 1) AS i
      FROM arr
    ),
    bg AS (
      SELECT doc_id, t AS w,
             lead(t) OVER (PARTITION BY doc_id ORDER BY i) AS nxt
      FROM tok QUALIFY nxt IS NOT NULL
    ),
    cnt AS (SELECT w, nxt, CAST(count(*) AS BIGINT) AS c
            FROM bg GROUP BY w, nxt)
    SELECT w, nxt, c FROM cnt
    QUALIFY row_number() OVER (PARTITION BY w ORDER BY c DESC, nxt) <= 3
    """,
)
def doc_bigram_lm(sf_dir: str):
    """Bigram-LM continuation table (LM data prep): for every corpus
    token, its top-3 followers by count (ties lexicographic). A doc
    never splits across rows, so pair extraction is one vectorized
    polars map (shift within doc); counts fold through one
    vocab²-bucket aggregate and the per-token top-3 is the partial
    top-k operator (≤k rows per key enter the final exchange)."""
    import polars as pl

    from .stages.skew import bucket_aggregate
    from .stages.topk import top_k_per_key

    pair_schema = pa.schema([("w", pa.string()), ("nxt", pa.string()),
                             ("n", pa.int64())])

    def pairs(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(
            pl.col("text").str.to_lowercase()
              .str.extract_all(r"[a-z0-9]+").alias("t")) \
            .drop("text").explode("t").filter(pl.col("t").is_not_null())
        out = (df.with_columns(
            pl.col("t").shift(-1).over("doc_id").alias("nxt"))
            .drop_nulls("nxt")
            .group_by(["t", "nxt"]).len(name="n")
            .rename({"t": "w"}))
        return out.to_arrow().cast(pair_schema)

    nb = _adaptive_buckets(sf_dir, "documents")
    cnt = bucket_aggregate(
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(pairs, batch_format="pyarrow"),
        ["w", "nxt"], [("sum", "n", "c")], num_buckets=nb,
        bucket_key="w")
    top = top_k_per_key(cnt, ["w"], "c", 3, descending=True,
                        tiebreak="nxt", num_buckets=nb)
    return _collect(top.select_columns(["w", "nxt", "c"]),
                    pa.schema([("w", pa.string()), ("nxt", pa.string()),
                               ("c", pa.int64())]))


@_q(
    "doc_pack_sequences",
    r"""
    WITH n AS (
      SELECT doc_id,
             len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS n_tokens
      FROM documents
    ),
    o AS (
      SELECT doc_id, n_tokens,
             COALESCE(sum(n_tokens) OVER (ORDER BY doc_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS off
      FROM n WHERE n_tokens > 0
    )
    SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
           CAST(off // 512 AS BIGINT) AS first_seq,
           CAST((off + n_tokens - 1) // 512 AS BIGINT) AS last_seq
    FROM o
    """,
)
def doc_pack_sequences(sf_dir: str):
    """GPT-style sequence packing plan: conceptually concatenate every
    document's tokens in doc_id order and cut fixed 512-token training
    sequences; emit each document's packed placement (first/last
    sequence index). The global token offset is a distributed
    exclusive prefix scan (stages/scan.keyed_prefix_sum — range-
    partitioned bucket sums folded on the driver, one coarse cogroup
    adds base offsets to local cumsums; every row moves once)."""
    import polars as pl

    from .stages.scan import keyed_prefix_sum

    cap = 512
    cnt_schema = pa.schema([("doc_id", pa.int64()),
                            ("n_tokens", pa.int64())])

    def counts(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = (df.with_columns(
            pl.col("text").str.to_lowercase()
              .str.count_matches(r"[a-z0-9]+").cast(pl.Int64)
              .alias("n_tokens"))
            .drop("text").filter(pl.col("n_tokens") > 0))
        return out.to_arrow().cast(cnt_schema)

    ds = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(counts, batch_format="pyarrow").materialize()
    lo, hi = None, None
    for b in ds.map_batches(
            lambda b: pa.table({"lo": [pc.min(b["doc_id"]).as_py()],
                                "hi": [pc.max(b["doc_id"]).as_py()]}),
            batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        bl, bh = pc.min(b["lo"]).as_py(), pc.max(b["hi"]).as_py()
        lo = bl if lo is None else min(lo, bl)
        hi = bh if hi is None else max(hi, bh)
    if lo is None:
        return _collect(ds, pa.schema([("doc_id", pa.int64()),
                                       ("n_tokens", pa.int64()),
                                       ("first_seq", pa.int64()),
                                       ("last_seq", pa.int64())]))

    scanned = keyed_prefix_sum(
        ds, key="doc_id", value="n_tokens", key_range=(lo, hi),
        num_buckets=_adaptive_buckets(sf_dir, "documents"))

    def place(batch: pa.Table) -> pa.Table:
        off = batch["off"].to_numpy(zero_copy_only=False)
        n = batch["n_tokens"].to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": batch["doc_id"], "n_tokens": n,
                         "first_seq": off // cap,
                         "last_seq": (off + n - 1) // cap})

    return _collect(scanned.map_batches(place, batch_format="pyarrow"),
                    pa.schema([("doc_id", pa.int64()),
                               ("n_tokens", pa.int64()),
                               ("first_seq", pa.int64()),
                               ("last_seq", pa.int64())]))


@_q(
    "inverted_index",
    r"""
    WITH tf AS (
      SELECT doc_id, t AS term
      FROM (SELECT doc_id,
                   unnest(regexp_extract_all(lower(text), '[a-z]{6,}')) AS t
            FROM documents)
      GROUP BY doc_id, t
    )
    SELECT term, count(*) AS n_docs,
           string_agg(doc_id, ',' ORDER BY doc_id) AS postings
    FROM tf GROUP BY term HAVING count(*) >= 2
    """,
)
def inverted_index(sf_dir: str):
    """Search-index build: term -> sorted posting list of doc_ids
    (terms with df >= 2; >=6-letter lowercase runs). Per-batch
    vectorized (doc, term) dedup, then ONE term-bucket cogroup where
    each bucket's postings are assembled with a single lexsort +
    boundary-diff pass — the posting strings never re-shuffle. At
    corpus scale each bucket holds |terms|/num_buckets posting lists;
    raise num_buckets with the term count."""
    import numpy as np
    import polars as pl

    from .stages.shardutil import multiway_cogroup_scatter

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    nb = _adaptive_buckets(sf_dir, "documents")
    out_schema = pa.schema([("term", pa.string()), ("n_docs", pa.int64()),
                            ("postings", pa.string())])

    def doc_terms(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = (df.with_columns(
            pl.col("text").str.to_lowercase()
              .str.extract_all(r"[a-z]{6,}").alias("term"))
            .drop("text").explode("term")
            .filter(pl.col("term").is_not_null())
            .unique(subset=["doc_id", "term"]))
        return out.to_arrow().cast(pa.schema([("doc_id", pa.int64()),
                                              ("term", pa.string())]))

    def postings(group: pa.Table) -> pa.Table:
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        t = group["term"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, t))
        d_s, t_s = d[order], t[order]
        starts = np.flatnonzero(
            np.concatenate(([True], t_s[1:] != t_s[:-1])))
        lengths = np.diff(np.concatenate((starts, [len(t_s)])))
        keep = lengths >= 2
        starts, lengths = starts[keep], lengths[keep]
        if len(starts) == 0:
            return out_schema.empty_table()
        # one join per posting list, no per-doc Python: slice the
        # sorted doc ids by segment
        strs = d_s.astype("U20")
        lists = [",".join(strs[s:s + ln]) for s, ln in
                 zip(starts, lengths)]
        return pa.table({
            "term": pa.array(t_s[starts], pa.string()),
            "n_docs": pa.array(lengths.astype(np.int64), pa.int64()),
            "postings": pa.array(lists, pa.string()),
        })

    out = multiway_cogroup_scatter(
        [(ds.map_batches(doc_terms, batch_format="pyarrow"), "term")], nb,
        postings, empty_result=out_schema.empty_table())
    return _collect(out, out_schema)


@_q(
    "doc_training_mix",
    """
    WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang),
         m AS (SELECT min(n) AS mn FROM c)
    SELECT d.lang, count(*) AS n_kept
    FROM documents d JOIN c USING (lang), m
    WHERE ((abs(d.doc_id) % 1000003) * 2654435761 % 1000003) * c.n
          < m.mn * 1000003
    GROUP BY d.lang
    """,
)
def doc_training_mix(sf_dir: str):
    """Deterministic training-mix rebalancing: downsample every
    language to (in expectation) the smallest language's count with a
    per-row hash threshold. The keep test is an integer
    cross-multiplication (hash * n_lang < min_n * modulus) — no float
    rates, so engine and oracle agree bit-for-bit and the selection is
    stable under reruns and corpus appends (same hash-split contract
    as events_split_counts). Per-lang counts are a tiny broadcast; the
    filter is one vectorized map pass."""
    import numpy as np

    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    counts_ds = bucket_aggregate(ds.select_columns(["lang"]), ["lang"],
                                 [("count", None, "n")], num_buckets=4)
    counts = {r["lang"]: r["n"] for b in counts_ds.iter_batches(
        batch_format="pyarrow", batch_size=4096) for r in b.to_pylist()}
    mn = min(counts.values())
    mod = np.int64(1000003)

    def keep(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        langs = batch["lang"].to_numpy(zero_copy_only=False)
        n_lang = np.array([counts[x] for x in langs], np.int64)
        # abs() then % 1000003 FIRST: keeps the product < 2^63 for any
        # int64 id (|id| * K would silently wrap in numpy while DuckDB
        # raises — same overflow-safe pattern as events_split_counts)
        h = ((np.abs(did) % mod) * np.int64(2654435761)) % mod
        return batch.filter(pa.array(h * n_lang < np.int64(mn) * mod))

    kept = ds.map_batches(keep, batch_format="pyarrow")
    out = bucket_aggregate(kept.select_columns(["lang"]), ["lang"],
                           [("count", None, "n_kept")], num_buckets=4)
    return _collect(out, pa.schema([("lang", pa.string()),
                                    ("n_kept", pa.int64())]))


@_q(
    "term_spell_pairs",
    r"""
    WITH terms AS (
      SELECT DISTINCT t AS term FROM (
        SELECT unnest(regexp_extract_all(lower(text), '[a-z]{4,}')) AS t
        FROM documents)
    )
    SELECT a.term AS term_a, b.term AS term_b
    FROM terms a JOIN terms b
      ON a.term < b.term AND levenshtein(a.term, b.term) = 1
    """,
)
def term_spell_pairs(sf_dir: str):
    """Spelling-variant pairs (edit distance exactly 1) over the corpus
    vocabulary via deletion-neighborhood banding — the scale path for
    typo clustering where the SQL oracle's all-pairs levenshtein join
    is quadratic (stages/dedup.edit_distance1_pairs; precision/recall
    on injected typos pytest-pinned in tests/test_dedup.py)."""
    import polars as pl

    from .stages.dedup import edit_distance1_pairs
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "documents", ["text"])

    def toks(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = (df.with_columns(
            pl.col("text").str.to_lowercase()
              .str.extract_all(r"[a-z]{4,}").alias("term"))
            .select("term").explode("term")
            .filter(pl.col("term").is_not_null()).unique())
        return out.to_arrow().cast(pa.schema([("term", pa.string())]))

    terms = bucket_aggregate(
        ds.map_batches(toks, batch_format="pyarrow"), ["term"],
        [("count", None, "_n")], num_buckets=8).select_columns(["term"])
    out = edit_distance1_pairs(terms, num_buckets=8)
    return _collect(out, pa.schema([("term_a", pa.string()),
                                    ("term_b", pa.string())]))


@_q(
    "term_cooccurrence",
    r"""
    WITH tf AS (
      SELECT doc_id, t AS term, count(*) AS tf
      FROM (SELECT doc_id,
                   unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t
            FROM documents)
      GROUP BY doc_id, t
    ), df AS (
      SELECT term, count(*) AS df FROM tf GROUP BY term
    ), top5 AS (
      SELECT doc_id, term FROM (
        SELECT doc_id, term,
               tf * length(bin((SELECT count(*) FROM documents) // df))
                 AS score
        FROM tf JOIN df USING (term))
      QUALIFY row_number()
          OVER (PARTITION BY doc_id ORDER BY score DESC, term) <= 5
    )
    SELECT a.term AS term_a, b.term AS term_b, count(*) AS n_docs
    FROM top5 a JOIN top5 b ON a.doc_id = b.doc_id AND a.term < b.term
    GROUP BY a.term, b.term
    ORDER BY n_docs DESC, term_a, term_b
    LIMIT 50
    """,
)
def term_cooccurrence(sf_dir: str):
    """Top-50 co-occurring salient-term pairs: each document
    contributes the unordered pairs of its top-5 TF-IDF terms (<=10
    pairs/doc — the bounded-fanout shape that keeps pair explosion at
    bay at corpus scale), counted with one high-card bucket aggregate.
    Pair generation is a doc_id-bucket cogroup with template-based
    intra-segment pair indexing — no per-document Python."""
    import numpy as np

    from .stages.shardutil import multiway_cogroup_scatter
    from .stages.skew import bucket_aggregate

    terms = _doc_salient_terms(sf_dir, k=5).select_columns(
        ["doc_id", "term"])
    nb = _adaptive_buckets(sf_dir, "documents")
    pair_schema = pa.schema([("term_a", pa.string()),
                             ("term_b", pa.string())])

    # index templates: for a segment of length L, the (i, j) offsets of
    # all i<j pairs — L is bounded by k=5 so templates are tiny
    templates = {
        L: np.array([(i, j) for i in range(L) for j in range(i + 1, L)],
                    np.int64).reshape(-1, 2)
        for L in range(2, 6)
    }

    def pairs(group: pa.Table) -> pa.Table:
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        t = group["term"].to_numpy(zero_copy_only=False)
        order = np.lexsort((t, d))
        d_s, t_s = d[order], t[order]
        starts = np.flatnonzero(
            np.concatenate(([True], d_s[1:] != d_s[:-1])))
        lengths = np.diff(np.concatenate((starts, [len(d_s)])))
        ia, ib = [], []
        for L, tpl in templates.items():
            seg = starts[lengths == L]
            if len(seg) == 0:
                continue
            ia.append((seg[:, None] + tpl[:, 0][None, :]).ravel())
            ib.append((seg[:, None] + tpl[:, 1][None, :]).ravel())
        if not ia:
            return pair_schema.empty_table()
        ia = np.concatenate(ia)
        ib = np.concatenate(ib)
        return pa.table({"term_a": pa.array(t_s[ia], pa.string()),
                         "term_b": pa.array(t_s[ib], pa.string())})

    pair_ds = multiway_cogroup_scatter(
        [(terms, "doc_id")], nb, pairs,
        empty_result=pair_schema.empty_table())
    counted = bucket_aggregate(pair_ds, ["term_a", "term_b"],
                               [("count", None, "n_docs")],
                               num_buckets=nb)
    out = counted.sort(["n_docs", "term_a", "term_b"],
                       descending=[True, False, False]).limit(50)
    return _collect(out, pa.schema([("term_a", pa.string()),
                                    ("term_b", pa.string()),
                                    ("n_docs", pa.int64())]))


# ---------------------------------------------------------------------------
# Documents: ROLLUP grouping-sets aggregate — three combiner groupbys
# (fine, mid, grand) unioned; each level is its own map-side combine
# ---------------------------------------------------------------------------

@_q(
    "doc_rollup",
    """
    SELECT coalesce(lang, 'ALL') AS lang,
           coalesce(source, 'ALL') AS source,
           count(*) AS n, CAST(sum(n_chars) AS BIGINT) AS chars
    FROM documents GROUP BY ROLLUP(lang, source)
    """,
)
def doc_rollup(sf_dir: str):
    """GROUP BY ROLLUP(lang, source): the three grouping sets each run
    as an independent combiner aggregate over the same scan (no
    re-read: one shared upstream), then union — the classic
    distributed rollup plan; totals are exact ints."""
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"]) \
        .materialize()

    fine = bucket_aggregate(ds, ["lang", "source"],
                            [("count", None, "n"),
                             ("sum", "n_chars", "chars")], num_buckets=8)
    mid = bucket_aggregate(ds.select_columns(["lang", "n_chars"]),
                           ["lang"],
                           [("count", None, "n"),
                            ("sum", "n_chars", "chars")], num_buckets=4)

    def add_all_source(batch: pa.Table) -> pa.Table:
        return pa.table({"lang": batch["lang"],
                         "source": pa.array(["ALL"] * batch.num_rows),
                         "n": batch["n"], "chars": batch["chars"]})

    import ray.data as rd

    n_tot = 0
    c_tot = 0
    for b in mid.iter_batches(batch_format="pyarrow", batch_size=4096):
        n_tot += int(pc.sum(b["n"]).as_py() or 0)
        c_tot += int(pc.sum(b["chars"]).as_py() or 0)
    grand = rd.from_arrow(pa.table({
        "lang": pa.array(["ALL"]), "source": pa.array(["ALL"]),
        "n": pa.array([n_tot], pa.int64()),
        "chars": pa.array([c_tot], pa.int64())}))

    out = fine.union(mid.map_batches(add_all_source,
                                     batch_format="pyarrow")) \
              .union(grand)
    return _collect(out.select_columns(["lang", "source", "n", "chars"]),
                    pa.schema([("lang", pa.string()),
                               ("source", pa.string()),
                               ("n", pa.int64()),
                               ("chars", pa.int64())]))


# ---------------------------------------------------------------------------
# Documents: per-group sorted string aggregation (collect-list family)
# ---------------------------------------------------------------------------

@_q(
    "lang_sources_concat",
    """
    SELECT lang, string_agg(source, ',' ORDER BY source) AS sources
    FROM (SELECT DISTINCT lang, source FROM documents) GROUP BY lang
    """,
)
def lang_sources_concat(sf_dir: str):
    """Distinct (lang, source) pairs via one combiner aggregate, then
    a per-lang sorted concat inside one cogroup — the collect_list /
    string_agg aggregate, built so the shuffle only ever moves the
    DISTINCT pairs."""
    from .stages.shardutil import multiway_cogroup_scatter
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "documents", ["lang", "source"])
    pairs = bucket_aggregate(ds, ["lang", "source"],
                             [("count", None, "_n")], num_buckets=8)
    out_schema = pa.schema([("lang", pa.string()),
                            ("sources", pa.string())])

    def concat(group: pa.Table) -> pa.Table:
        t = group.sort_by([("lang", "ascending"), ("source", "ascending")])
        langs = t["lang"].to_pylist()
        srcs = t["source"].to_pylist()
        out_l, out_s, cur, buf = [], [], None, []
        for la, s in zip(langs, srcs):
            if la != cur:
                if cur is not None:
                    out_l.append(cur)
                    out_s.append(",".join(buf))
                cur, buf = la, []
            buf.append(s)
        if cur is not None:
            out_l.append(cur)
            out_s.append(",".join(buf))
        return pa.table({"lang": pa.array(out_l, pa.string()),
                         "sources": pa.array(out_s, pa.string())})

    out = multiway_cogroup_scatter([(pairs, "lang")], 4, concat,
                                   empty_result=out_schema.empty_table())
    return _collect(out, out_schema)


# ---------------------------------------------------------------------------
# Documents: per-group z-score normalization — the two-pass broadcast
# pattern (tiny stats aggregate, then a stateless normalize map). The
# SQL spells the IDENTICAL float expression, so doubles match exactly.
# ---------------------------------------------------------------------------

@_q(
    "doc_chars_zscore",
    """
    WITH st AS (
      SELECT lang, count(*) AS n, sum(n_chars) AS s,
             sum(n_chars * n_chars) AS q
      FROM documents GROUP BY lang
    )
    SELECT d.doc_id,
           (d.n_chars - CAST(s AS DOUBLE) / n)
             / sqrt(CAST(q AS DOUBLE) / n
                    - (CAST(s AS DOUBLE) / n) * (CAST(s AS DOUBLE) / n))
             AS z
    FROM documents d JOIN st USING (lang)
    """,
)
def doc_chars_zscore(sf_dir: str):
    """Per-language z-score of document length: pass 1 is a combiner
    groupby of exact integer (n, Σx, Σx²) per lang; the |langs|-row
    stats table broadcasts via ray.put and pass 2 normalizes each
    batch statelessly — the corpus never shuffles."""
    import ray

    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def sq(batch: pa.Table) -> pa.Table:
        x = batch["n_chars"].to_numpy(zero_copy_only=False)
        return pa.table({"lang": batch["lang"],
                         "x": batch["n_chars"],
                         "xx": pa.array(x * x, pa.int64())})

    stats = bucket_aggregate(
        ds.map_batches(sq, batch_format="pyarrow"), ["lang"],
        [("count", None, "n"), ("sum", "x", "s"), ("sum", "xx", "q")],
        num_buckets=4)
    st: dict = {}
    for b in stats.iter_batches(batch_format="pyarrow", batch_size=4096):
        for lang, n, s, q in zip(b["lang"].to_pylist(),
                                 b["n"].to_pylist(), b["s"].to_pylist(),
                                 b["q"].to_pylist()):
            st[lang] = (float(n), float(s), float(q))
    ref = ray.put(st)

    def norm(batch: pa.Table, _ref=ref) -> pa.Table:
        stats_map = ray.get(_ref)
        col = batch["lang"].combine_chunks() \
            if isinstance(batch["lang"], pa.ChunkedArray) else batch["lang"]
        enc = col.dictionary_encode()
        inv = enc.indices.to_numpy(zero_copy_only=False)
        per_lang = np.array([stats_map[la]
                             for la in enc.dictionary.to_pylist()])
        n, s, q = (per_lang[inv, i] for i in range(3))
        x = batch["n_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        mean = s / n
        z = (x - mean) / np.sqrt(q / n - mean * mean)
        return pa.table({"doc_id": batch["doc_id"],
                         "z": pa.array(z, pa.float64())})

    out = ds.map_batches(norm, batch_format="pyarrow")
    return _collect(out, pa.schema([("doc_id", pa.int64()),
                                    ("z", pa.float64())]))


# ---------------------------------------------------------------------------
# Events: deterministic 80/10/10 train/val/test split — hash-range
# assignment, so shards are stable across runs and reproducible in SQL
# ---------------------------------------------------------------------------

@_q(
    "events_split_counts",
    """
    SELECT event_type,
           CASE WHEN ((abs(event_id) % 1000003) * 2654435761) % 100 < 80
                  THEN 'train'
                WHEN ((abs(event_id) % 1000003) * 2654435761) % 100 < 90
                  THEN 'val'
                ELSE 'test' END AS split,
           count(*) AS n
    FROM events GROUP BY event_type, split
    """,
)
def events_split_counts(sf_dir: str):
    """Stable train/val/test assignment from a multiplicative hash of
    the row id (no RNG, no state): the split of a row never changes as
    the corpus grows, which is the property a 100 TB ingest needs.
    One vectorized map + a combiner aggregate."""
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "events", ["event_id", "event_type"])

    def assign(batch: pa.Table) -> pa.Table:
        # abs() first (numpy floored %, DuckDB truncated % — they
        # disagree on negative ids without it); (|id| % 1000003) keeps
        # the product < 2^63 for EVERY int64 id, so the arithmetic is
        # identical in numpy and SQL — the split stays
        # SQL-reproducible at any corpus size
        h = ((np.abs(batch["event_id"].to_numpy(zero_copy_only=False))
              % 1000003) * 2654435761) % 100
        split = np.where(h < 80, "train", np.where(h < 90, "val", "test"))
        return pa.table({"event_type": batch["event_type"],
                         "split": pa.array(split.tolist(), pa.string())})

    out = bucket_aggregate(ds.map_batches(assign, batch_format="pyarrow"),
                           ["event_type", "split"],
                           [("count", None, "n")], num_buckets=4)
    return _collect(out.select_columns(["event_type", "split", "n"]),
                    pa.schema([("event_type", pa.string()),
                               ("split", pa.string()),
                               ("n", pa.int64())]))


# ---------------------------------------------------------------------------
# Documents: frequent terms via a mergeable Misra-Gries sketch. At
# oracle scale capacity > |vocab| so estimates are exact; the
# over-capacity approximation bound is pytest-pinned (test_sketch.py).
# ---------------------------------------------------------------------------

@_q(
    "doc_top_terms",
    r"""
    SELECT tok AS item, count(*) AS est FROM (
      SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS tok
      FROM documents)
    GROUP BY tok ORDER BY est DESC, item LIMIT 20
    """,
)
def doc_top_terms(sf_dir: str):
    """Top-20 corpus terms (stages/sketch.frequent_items): per-batch
    MG summaries (≤ capacity rows each) merged by one coarse-bucket
    sum — the token stream itself never shuffles. Deterministic
    (count desc, term asc) tiebreak on the summary-sized result."""
    from .stages.sketch import frequent_items

    ds = _read(sf_dir, "documents", ["text"])

    def toks(batch: pa.Table) -> pa.Table:
        col = batch["text"].combine_chunks() \
            if isinstance(batch["text"], pa.ChunkedArray) else batch["text"]
        return pa.table({
            "tok": pc.split_pattern_regex(
                pc.utf8_trim_whitespace(col), r"\s+").flatten(),
        })

    est = frequent_items(ds.map_batches(toks, batch_format="pyarrow"),
                         "tok", capacity=4096)
    t = _collect(est, pa.schema([("item", pa.string()),
                                 ("est", pa.int64())]))
    order = pc.sort_indices(t, sort_keys=[("est", "descending"),
                                          ("item", "ascending")])
    return t.take(order).slice(0, 20)


# ---------------------------------------------------------------------------
# Documents: model-scored quality (T3 actor-pool inference with an
# exact SQL oracle — the committed integer weights make the margin
# SQL-recomputable)
# ---------------------------------------------------------------------------

def _quality_scorer_sql() -> str:
    from .models import QUALITY_SCORER_PATH

    z = np.load(QUALITY_SCORER_PATH)
    w = z["w"].astype(np.int64)
    b = int(z["b"])
    stop = r"\b(the|a|of|and|to|in|is)\b"
    return rf"""
    WITH f AS (
      SELECT doc_id,
             length(text) AS n_chars,
             len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS n_tokens,
             len(regexp_extract_all(text, '[A-Za-z]')) AS n_alpha,
             len(regexp_extract_all(lower(text), '{stop}')) AS n_stop
      FROM documents
    )
    SELECT doc_id,
           CAST({w[0]} * n_chars + {w[1]} * n_tokens + {w[2]} * n_alpha
                + {w[3]} * n_stop + {b} AS BIGINT) AS margin_milli,
           ({w[0]} * n_chars + {w[1]} * n_tokens + {w[2]} * n_alpha
                + {w[3]} * n_stop + {b}) >= 0 AS predicted
    FROM f
    """


@_q("doc_model_quality", _quality_scorer_sql())
def doc_model_quality(sf_dir: str):
    """Model-scored document quality — the T3 stateful-scorer slot
    over the documents table with a BIT-EXACT oracle: the curation
    quality rule distilled into a trained integer-quantized linear
    model (tools/train_quality_scorer.py, committed artifact
    models/quality_scorer.npz, 95%+ held-out agreement with the rule).
    Weights load ONCE per actor in QualityScorer.__init__; each batch
    scores as vectorized RE2 feature kernels + one integer matvec, so
    Ray and the SQL oracle (which recomputes the margin from the same
    committed weights) agree on every row. The same pattern with a
    real GPU model swaps the matvec for a forward pass; nothing else
    changes."""
    from .models import QualityScorer

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    # elastic TASKS, not a capped pool: the scorer's state is four
    # int weights (broadcast-cheap), so the instance ships in the
    # task closure and every CPU stays usable — the linker's
    # measured lesson (stages/linker.link_documents docstring)
    out = ds.map_batches(QualityScorer(),
                         batch_size=1024, batch_format="pyarrow")
    return _collect(out, pa.schema([("doc_id", pa.int64()),
                                    ("margin_milli", pa.int64()),
                                    ("predicted", pa.bool_())]))


# ---------------------------------------------------------------------------
# Documents: Count-Min point-frequency sketch (the oracle row pins the
# sketch's exact row mass; its accuracy bound is pytest-pinned)
# ---------------------------------------------------------------------------

def _cms_tokens(sf_dir: str):
    """The whitespace tokens (``tok``) of every document."""
    return _read(sf_dir, "documents", ["text"]).map_batches(
        lambda batch: pa.table({
            "tok": pc.split_pattern_regex(
                pc.utf8_trim_whitespace(
                    batch["text"].combine_chunks()
                    if isinstance(batch["text"], pa.ChunkedArray)
                    else batch["text"]), r"\s+").flatten()}),
        batch_format="pyarrow")


@_q(
    "doc_top_terms_cms",
    r"""
    SELECT CAST(r AS BIGINT) AS sketch_row,
           (SELECT count(*) FROM (
              SELECT unnest(regexp_split_to_array(trim(text), '\s+'))
              FROM documents)) AS mass
    FROM range(4) t(r)
    """,
)
def doc_top_terms_cms(sf_dir: str):
    """Count-Min sketch (Cormode-Muthukrishnan) over the token stream.
    The sketch is LINEAR: per-block (depth x width) partials fold by
    addition on the driver in O(1) memory — the token stream never
    shuffles. The oracle row holds what the sketch holds exactly: each
    of its 4 rows counts every token once, so each row's mass is the
    token count N. Its point estimates are not exact, so they stay out
    of the row; tests/test_query_checks.py pins the never-undercount
    guarantee and the est - exact <= 16*ceil(N/width) bound on the
    top-20 terms."""
    from .stages.sketch import count_min

    mass = count_min(_cms_tokens(sf_dir), "tok", width=8192).sum(axis=1)
    return pa.table({
        "sketch_row": pa.array(np.arange(len(mass)), pa.int64()),
        "mass": pa.array(mass, pa.int64()),
    })


# ---------------------------------------------------------------------------
# Events: per-key exact quantiles (order statistics; element pick ==
# SQL quantile_disc, so doubles match bit-for-bit)
# ---------------------------------------------------------------------------

@_q(
    "events_value_quantiles",
    """
    SELECT event_type,
           quantile_disc(value, 0.5) AS p50,
           quantile_disc(value, 0.95) AS p95,
           quantile_disc(value, 0.99) AS p99
    FROM events GROUP BY event_type
    """,
)
def events_value_quantiles(sf_dir: str):
    """Exact per-event-type value quantiles (stages/quantile.py): one
    bucket cogroup + one lexsort per bucket, ceil(q*n)-1 element picks
    — quantile_disc semantics, no interpolation, no rounding."""
    from .stages.quantile import per_key_quantiles

    ds = _read(sf_dir, "events", ["event_type", "value"])
    out = per_key_quantiles(ds, "event_type", "value",
                            {"p50": 0.5, "p95": 0.95, "p99": 0.99})
    return _collect(out, pa.schema([("event_type", pa.string()),
                                    ("p50", pa.float64()),
                                    ("p95", pa.float64()),
                                    ("p99", pa.float64())]))


# ---------------------------------------------------------------------------
# Events: ntile window rank (exact SQL tile-size semantics)
# ---------------------------------------------------------------------------

@_q(
    "events_value_quartile",
    """
    SELECT event_id,
           ntile(4) OVER (PARTITION BY event_type
                          ORDER BY value, event_id) AS q
    FROM events
    """,
)
def events_value_quartile(sf_dir: str):
    """ntile(4) per event type (stages/quantile.ntile_per_key): one
    bucket cogroup, one lexsort per bucket, vectorized big/small tile
    arithmetic — first n%k tiles get ceil(n/k) rows, like SQL."""
    from .stages.quantile import ntile_per_key

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    out = ntile_per_key(ds, "event_type", "value", "event_id", 4,
                        id_cols=["event_id"])
    return _collect(out, pa.schema([("event_id", pa.int64()),
                                    ("q", pa.int64())]))


# ---------------------------------------------------------------------------
# Events: DDSketch quantiles — the mergeable scale path behind
# events_value_quantiles (the oracle row pins the sketch's keys; the
# <=2% relative error bound is pytest-pinned against exact order
# statistics)
# ---------------------------------------------------------------------------

@_q(
    "events_value_quantiles_sketch",
    """
    SELECT DISTINCT event_type FROM events
    """,
)
def events_value_quantiles_sketch(sf_dir: str):
    """Per-key quantiles via the log-binned mergeable histogram
    (stages/sketch.dd_quantiles): the shuffle moves (key, bin, count)
    histogram rows — never values — so per-key state is
    ~log(range)/rel_err regardless of row count. The oracle row holds
    what the sketch holds exactly, its keys; the estimates are within
    rel_err of quantile_disc, not equal to it, so they stay out of the
    row. tests/test_query_checks.py pins every estimate within 2% of
    the exact per_key_quantiles value."""
    from .stages.sketch import dd_quantiles

    est = dd_quantiles(_read(sf_dir, "events", ["event_type", "value"]),
                       "event_type", "value",
                       {"p50": 0.5, "p95": 0.95, "p99": 0.99},
                       rel_err=0.01)
    return _collect(est.select_columns(["event_type"]),
                    pa.schema([("event_type", pa.string())]))


# ---------------------------------------------------------------------------
# Near-dup clusters: connected components over the verified pair graph
# (oracle = recursive-CTE transitive closure over brute-force pairs)
# ---------------------------------------------------------------------------

@_q(
    "doc_dedup_clusters",
    r"""
    WITH RECURSIVE words AS (
      SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
      FROM documents
    ),
    sh AS (
      SELECT doc_id,
             list_distinct([w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                            FOR i IN generate_series(1, len(w)-2)]) AS s
      FROM words WHERE len(w) >= 3
    ),
    pairs AS (
      SELECT a.doc_id AS a, b.doc_id AS b
      FROM sh a JOIN sh b ON a.doc_id < b.doc_id
      WHERE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
            / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
            >= 0.8
    ),
    sym AS (SELECT a, b FROM pairs UNION SELECT b AS a, a AS b FROM pairs),
    reach(a, b) AS (
      SELECT a, b FROM sym
      UNION
      SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a
    )
    SELECT a AS doc_id, least(a, min(b)) AS rep_id FROM reach GROUP BY a
    """,
)
def doc_dedup_clusters(sf_dir: str):
    """Near-dup cluster assignment: MinHash+LSH verified pairs ->
    connected components (stages/dedup.neardup_clusters, riding
    canonicalize.components_min_label's driver/distributed paths);
    representative = numeric-min doc of the component. Every member of
    a multi-doc cluster gets a row, reps map to themselves — the
    keep-one-per-cluster dedup is then a trivial anti-join."""
    from .stages.dedup import minhash_near_dup_pairs, neardup_clusters

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_near_dup_pairs(ds, threshold=0.8,
                                   num_partitions=_minhash_partitions(sf_dir))
    out = neardup_clusters(pairs)
    return _collect(out, pa.schema([("doc_id", pa.int64()),
                                    ("rep_id", pa.int64())]))


# ---------------------------------------------------------------------------
# Documents: cluster-aware downsampling — keep ceil(sqrt(size)) docs
# per near-dup cluster instead of exactly one (the soft-dedup /
# diversity-preserving variant of SemDeDup-style pruning)
# ---------------------------------------------------------------------------

@_q(
    "doc_cluster_sample",
    r"""
    WITH RECURSIVE words AS (
      SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
      FROM documents
    ),
    sh AS (
      SELECT doc_id,
             list_distinct([w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                            FOR i IN generate_series(1, len(w)-2)]) AS s
      FROM words WHERE len(w) >= 3
    ),
    pairs AS (
      SELECT a.doc_id AS a, b.doc_id AS b
      FROM sh a JOIN sh b ON a.doc_id < b.doc_id
      WHERE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
            / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
            >= 0.8
    ),
    sym AS (SELECT a, b FROM pairs UNION SELECT b AS a, a AS b FROM pairs),
    reach(a, b) AS (
      SELECT a, b FROM sym
      UNION
      SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a
    ),
    cl AS (SELECT a AS doc_id, least(a, min(b)) AS rep_id
           FROM reach GROUP BY a),
    allc AS (
      SELECT d.doc_id, coalesce(cl.rep_id, d.doc_id) AS rep_id
      FROM documents d LEFT JOIN cl ON d.doc_id = cl.doc_id
    ),
    sz AS (SELECT rep_id, count(*) AS cluster_size
           FROM allc GROUP BY rep_id),
    rk AS (
      SELECT a.doc_id, a.rep_id, s.cluster_size,
             row_number() OVER (
               PARTITION BY a.rep_id
               ORDER BY (abs(a.doc_id) % 1000003) * 2654435761 % 1000003,
                        a.doc_id) AS r
      FROM allc a JOIN sz s USING (rep_id))
    SELECT doc_id, rep_id, cluster_size,
           r <= CAST(ceil(sqrt(cluster_size)) AS BIGINT) AS kept
    FROM rk
    """,
)
def _cluster_sample_ds(sf_dir: str):
    """Cluster-aware downsampling: near-dup clusters (the MinHash+LSH
    verified pair graph's connected components, singletons included)
    keep ceil(sqrt(size)) members each — hard dedup keeps 1 and loses
    intra-cluster diversity, no dedup keeps everything and overweights
    boilerplate; sqrt damping is the standard middle ground. WHICH
    members survive is deterministic: rank within cluster by the
    SQL-expressible multiplicative hash (appends don't reshuffle
    existing survivors). Shape: one left-outer cogroup (docs x cluster
    map, so singletons stay), ONE task scatter by rep — sizes, hash
    ranks, and the sqrt quota all resolve inside the rep's bucket —
    no driver-side cluster state."""
    from .functions.hashing import mix64
    from .stages.dedup import minhash_near_dup_pairs, neardup_clusters
    from .stages.joinutil import cogroup_join
    from .stages.shardutil import scatter_apply_by_value

    nb = _adaptive_buckets(sf_dir, "documents")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_near_dup_pairs(ds, threshold=0.8,
                                   num_partitions=_minhash_partitions(sf_dir))
    members = neardup_clusters(pairs)

    docs = ds.select_columns(["doc_id"])
    joined = cogroup_join(
        docs, members.map_batches(
            lambda b: pa.table({"m_doc": b["doc_id"],
                                "rep_id": b["rep_id"]}),
            batch_format="pyarrow"),
        left_on="doc_id", right_on="m_doc", join_type="left outer",
        num_buckets=nb,
        left_schema=pa.schema([("doc_id", pa.int64())]),
        right_schema=pa.schema([("m_doc", pa.int64()),
                                ("rep_id", pa.int64())]))

    def tag(batch: pa.Table) -> pa.Table:
        rep = pc.coalesce(batch["rep_id"], batch["doc_id"])
        r = rep.to_numpy(zero_copy_only=False)
        b = ((mix64(r.astype(np.uint64)) >> np.uint64(32))
             .astype(np.int64) % nb)
        return pa.table({"doc_id": batch["doc_id"], "rep_id": rep,
                         "_bucket": pa.array(b, pa.int64())})

    out_schema = pa.schema([("doc_id", pa.int64()),
                            ("rep_id", pa.int64()),
                            ("cluster_size", pa.int64()),
                            ("kept", pa.bool_())])

    def sample_bucket(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        rep = t["rep_id"].to_numpy(zero_copy_only=False)
        hv = (np.abs(d) % 1000003) * 2654435761 % 1000003
        order = np.lexsort((d, hv, rep))
        d_s, rep_s = d[order], rep[order]
        uniq, starts = np.unique(rep_s, return_index=True)
        lens = np.diff(np.append(starts, len(rep_s)))
        size = np.repeat(lens, lens)
        rank = np.arange(len(rep_s)) - np.repeat(starts, lens) + 1
        quota = np.ceil(np.sqrt(size.astype(np.float64))).astype(np.int64)
        return pa.table({"doc_id": pa.array(d_s, pa.int64()),
                         "rep_id": pa.array(rep_s, pa.int64()),
                         "cluster_size": pa.array(size, pa.int64()),
                         "kept": pa.array(rank <= quota)})

    out = scatter_apply_by_value(
        joined.map_batches(tag, batch_format="pyarrow").materialize(),
        "_bucket", nb, sample_bucket,
        empty_result=out_schema.empty_table())
    return out


_CLUSTER_SAMPLE_SCHEMA = pa.schema([("doc_id", pa.int64()),
                                    ("rep_id", pa.int64()),
                                    ("cluster_size", pa.int64()),
                                    ("kept", pa.bool_())])


def doc_cluster_sample(sf_dir: str):
    """Collected wrapper of _cluster_sample_ds (the registered gate
    entry)."""
    return _collect(_cluster_sample_ds(sf_dir), _CLUSTER_SAMPLE_SCHEMA)


QUERIES["doc_cluster_sample"] = doc_cluster_sample


# ---------------------------------------------------------------------------
# End-to-end curation pipeline: quality filter ∧ exact-dedup winners ∧
# near-dup cluster reps -> per-language corpus stats. The composition
# of three independently-verified operators, oracle-checked as a whole.
# ---------------------------------------------------------------------------

@_q(
    "curation_pipeline",
    r"""
    WITH RECURSIVE words AS (
      SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
      FROM documents
    ),
    sh AS (
      SELECT doc_id,
             list_distinct([w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                            FOR i IN generate_series(1, len(w)-2)]) AS s
      FROM words WHERE len(w) >= 3
    ),
    pairs AS (
      SELECT a.doc_id AS a, b.doc_id AS b
      FROM sh a JOIN sh b ON a.doc_id < b.doc_id
      WHERE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
            / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
            >= 0.8
    ),
    sym AS (SELECT a, b FROM pairs UNION SELECT b AS a, a AS b FROM pairs),
    reach(a, b) AS (
      SELECT a, b FROM sym
      UNION
      SELECT r.a, s.b FROM reach r JOIN sym s ON r.b = s.a
    ),
    nondup_members AS (
      SELECT a AS doc_id FROM reach GROUP BY a
      HAVING a <> least(a, min(b))
    ),
    exact_losers AS (
      SELECT doc_id FROM documents d
      WHERE doc_id <> (SELECT min(doc_id) FROM documents x
                       WHERE x.text = d.text)
    )
    SELECT lang, count(*) AS n_docs,
           CAST(sum(len(regexp_split_to_array(trim(text), '\s+')))
                AS BIGINT) AS n_tokens
    FROM documents
    WHERE CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
               AS DOUBLE) / nullif(length(text), 0) >= 0.5
      AND n_chars BETWEEN 20 AND 100000
      AND doc_id NOT IN (SELECT doc_id FROM exact_losers)
      AND doc_id NOT IN (SELECT doc_id FROM nondup_members)
    GROUP BY lang
    """,
)
def curation_pipeline(sf_dir: str):
    """Training-data curation, end to end: (1) exact-dedup LOSERS
    (every doc that is not its text-group's min id — a small set) via
    the hash-keyed cogroup; (2) near-dup cluster members that are not
    their cluster's representative (stages/dedup.neardup_clusters);
    both routed through ONE left-anti cogroup join — the loser set
    never lands on the driver (at corpus scale it grows with the
    duplicate count, the canonical driver-materialization killer);
    (3) a vectorized per-doc quality gate (alpha ratio ≥ 0.5, sane
    length); (4) one combiner aggregate of surviving docs per
    language. The standalone helper is curation_survivors()."""
    from .stages.skew import bucket_aggregate

    kept = curation_survivors(
        _read(sf_dir, "documents",
              ["doc_id", "text", "lang", "n_chars"]).materialize())
    out = bucket_aggregate(
        kept.select_columns(["lang", "tok"]),
        ["lang"], [("count", None, "n_docs"), ("sum", "tok", "n_tokens")],
        num_buckets=4)
    return _collect(out.select_columns(["lang", "n_docs", "n_tokens"]),
                    pa.schema([("lang", pa.string()),
                               ("n_docs", pa.int64()),
                               ("n_tokens", pa.int64())]))


def curation_survivors(docs):
    """Curation core shared by the oracle query and the anti-path
    pytest: (doc_id, lang, tok) rows of quality-passing docs that are
    exact-dedup winners AND near-dup cluster representatives. Both
    loser families stay Datasets end to end and leave through a
    left-anti cogroup join (joinutil) — nothing corpus-derived is
    collected on the driver."""
    from .stages.dedup import minhash_near_dup_pairs, neardup_clusters
    from .stages.joinutil import cogroup_join

    # (1) exact-dup losers: per text-hash group, every id but the min
    hashed = docs.map_batches(_text_hash_batch, batch_format="pyarrow") \
        .select_columns(["_h", "doc_id"])

    def tagb(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket", pa.array(
                (batch["_h"].to_numpy(zero_copy_only=False)
                 % np.int64(16)).astype(np.int32), pa.int32()))

    def losers(group: pa.Table) -> pa.Table:
        h = group["_h"].to_numpy(zero_copy_only=False)
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h))
        h_s, id_s = h[order], ids[order]
        head = np.concatenate(([True], h_s[1:] != h_s[:-1]))
        return pa.table({"doc_id": pa.array(id_s[~head], pa.int64())})

    from .stages.shardutil import scatter_apply_by_value

    exact_losers = scatter_apply_by_value(
        hashed.map_batches(tagb, batch_format="pyarrow").materialize(),
        "_bucket", 16,
        lambda g: losers(g.drop_columns(["_bucket"])),
        empty_result=pa.schema([("doc_id", pa.int64())]).empty_table())

    # (2) near-dup non-representative members
    pairs = minhash_near_dup_pairs(docs, threshold=0.8,
                                   num_partitions=_minhash_partitions())
    nd_losers = neardup_clusters(pairs).map_batches(
        lambda b: pa.table({"doc_id": pc.cast(
            b["doc_id"].filter(pc.not_equal(b["doc_id"], b["rep_id"])),
            pa.int64())}),
        batch_format="pyarrow")

    # duplicate loser ids across the two families are fine: an anti
    # join tests presence only. materialize() — the union fans into
    # the cogroup exchange and must not re-execute the dedup lineage.
    all_losers = exact_losers.union(nd_losers).materialize()

    # (3) quality gate (vectorized, keeps doc_id for the anti join)
    def quality(batch: pa.Table) -> pa.Table:
        total = pc.utf8_length(batch["text"])
        stripped = pc.replace_substring_regex(batch["text"],
                                              "[^A-Za-z]", "")
        ratio = pc.divide(
            pc.cast(pc.utf8_length(stripped), pa.float64()),
            pc.cast(pc.if_else(pc.equal(total, 0),
                               pa.scalar(None, pa.int32()), total),
                    pa.float64()))
        mask = pc.and_(pc.greater_equal(ratio, 0.5),
                       pc.and_(pc.greater_equal(batch["n_chars"], 20),
                               pc.less_equal(batch["n_chars"], 100000)))
        t = batch.filter(pc.fill_null(mask, False))
        toks = pc.list_value_length(pc.split_pattern_regex(
            pc.utf8_trim_whitespace(t["text"].combine_chunks()
                                    if isinstance(t["text"],
                                                  pa.ChunkedArray)
                                    else t["text"]), r"\s+"))
        return pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                         "tok": pc.cast(toks, pa.int64())})

    qual = docs.map_batches(quality, batch_format="pyarrow")
    return cogroup_join(
        qual, all_losers, left_on="doc_id", right_on="doc_id",
        join_type="left anti", num_buckets=8,
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("lang", pa.string()),
                               ("tok", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64())]))


# ---------------------------------------------------------------------------
# HLL distinct-count sketch (the oracle row pins the sketch's keys; the
# estimate's 5% tolerance is pytest-pinned against exact counts)
# ---------------------------------------------------------------------------

@_q(
    "events_distinct_users_hll",
    """
    SELECT DISTINCT event_type FROM events
    """,
)
def events_distinct_users_hll(sf_dir: str):
    """Approximate COUNT(DISTINCT user_id) per event_type via a
    mergeable HyperLogLog sketch (p=12, ~1.6% rel. error): the shuffle
    moves one 4 KiB register blob per (key, batch), never the distinct
    user set — the 100 TB shape for cardinality stats. The oracle row
    holds what the sketch holds exactly, its keys; the estimates stay
    out of the row, and tests/test_query_checks.py pins each within 5%
    of the exact distinct count."""
    from .stages.sketch import distinct_count_hll

    est = distinct_count_hll(
        _read(sf_dir, "events", ["event_type", "user_id"]),
        "event_type", "user_id")
    return _collect(est.select_columns(["event_type"]),
                    pa.schema([("event_type", pa.string())]))


# ---------------------------------------------------------------------------
# URL / email redaction stats (training-data cleaning op). Both engines
# run RE2, so counts and redacted lengths agree exactly.
# ---------------------------------------------------------------------------

_URL_RE = r"https?://[^\s]+"
_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"


@_q(
    "doc_redact_stats",
    f"""
    SELECT doc_id,
           len(regexp_extract_all(text, '{_URL_RE}')) AS n_urls,
           len(regexp_extract_all(text, '{_EMAIL_RE}')) AS n_emails,
           length(regexp_replace(regexp_replace(text, '{_URL_RE}', '<URL>', 'g'),
                                 '{_EMAIL_RE}', '<EMAIL>', 'g'))
             AS len_redacted
    FROM documents
    """,
)
def doc_redact_stats(sf_dir: str):
    """PII-style cleanup pass: count URLs / emails per document and
    measure the text after replacing both with placeholder tokens.
    Pure vectorized Arrow RE2 kernels (count_substring_regex /
    replace_substring_regex) — no shuffle, no Python rows; the
    redacted text itself would be written in a real run (here only
    its length leaves the task, keeping the check scalar)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def redact(batch: pa.Table) -> pa.Table:
        t = batch["text"]
        red = pc.replace_substring_regex(
            pc.replace_substring_regex(t, _URL_RE, "<URL>"),
            _EMAIL_RE, "<EMAIL>")
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_urls": pc.cast(pc.count_substring_regex(t, _URL_RE),
                              pa.int64()),
            "n_emails": pc.cast(pc.count_substring_regex(t, _EMAIL_RE),
                                pa.int64()),
            "len_redacted": pc.cast(pc.utf8_length(red), pa.int64()),
        })

    return ds.map_batches(redact, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Per-key top-k (stratified selection): best-N rows per group without
# sorting the corpus — stages/topk.py
# ---------------------------------------------------------------------------

@_q(
    "docs_topk_per_lang",
    """
    SELECT doc_id, lang, n_chars FROM (
      SELECT doc_id, lang, n_chars,
             row_number() OVER (PARTITION BY lang
                                ORDER BY n_chars DESC, doc_id) AS rn
      FROM documents) WHERE rn <= 3
    """,
)
def docs_topk_per_lang(sf_dir: str):
    """3 longest documents per language (stratified selection,
    low-cardinality keys): map-side partial top-k, one coarse
    cogroup, deterministic doc_id tiebreak."""
    from .stages.topk import top_k_per_key

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = top_k_per_key(ds, ["lang"], "n_chars", 3, tiebreak="doc_id")
    return out.select_columns(["doc_id", "lang", "n_chars"])


@_q(
    "orders_topk_per_customer",
    """
    SELECT o_orderkey, o_custkey, o_totalprice FROM (
      SELECT o_orderkey, o_custkey, o_totalprice,
             row_number() OVER (PARTITION BY o_custkey
                                ORDER BY o_totalprice DESC, o_orderkey) AS rn
      FROM orders) WHERE rn <= 2
    """,
)
def orders_topk_per_customer(sf_dir: str):
    """2 largest orders per customer — the high-cardinality-key case
    (|customers| groups); the partial pass bounds shuffle input at
    2 rows x groups-per-batch, never |orders|."""
    from .stages.topk import top_k_per_key

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    out = top_k_per_key(ds, ["o_custkey"], "o_totalprice", 2,
                        tiebreak="o_orderkey")
    return out.select_columns(["o_orderkey", "o_custkey", "o_totalprice"])


# ---------------------------------------------------------------------------
# Documents: n-gram Jaccard near-dup at a second threshold (the exact
# set-similarity join itself, oracle-verified; candidates via banding)
# ---------------------------------------------------------------------------

@_q(
    "doc_dedup_ngram_jaccard",
    r"""
    WITH words AS (
      SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
      FROM documents
    ),
    sh AS (
      SELECT doc_id,
             list_distinct([w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                            FOR i IN generate_series(1, len(w)-2)]) AS s
      FROM words WHERE len(w) >= 3
    )
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
             / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
             AS jaccard
    FROM sh a JOIN sh b ON a.doc_id < b.doc_id
    WHERE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
          / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))) >= 0.75
    """,
)
def doc_dedup_ngram_jaccard(sf_dir: str):
    """Word-3-gram Jaccard similarity join at threshold 0.75: LSH
    banding only generates candidates (miss probability at j=0.75 is
    ~5e-6 with 32x4 banding); every emitted pair carries the EXACT
    jaccard, which is what the O(n^2) SQL oracle checks."""
    from .stages.dedup import minhash_near_dup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_near_dup_pairs(ds, threshold=0.75,
                                   num_partitions=_minhash_partitions(sf_dir))
    return _collect(pairs, pa.schema([("doc_a", pa.int64()),
                                      ("doc_b", pa.int64()),
                                      ("jaccard", pa.float64())]))


# ---------------------------------------------------------------------------
# Documents: SimHash near-dup (the hash fn is not SQL-reproducible, so
# the row pins the corpus count; pytest pins the banding's exactness
# against a brute-force hamming scan)
# ---------------------------------------------------------------------------

@_q(
    "doc_dedup_simhash",
    """
    SELECT (SELECT CAST(count(*) AS BIGINT) FROM documents) AS n_docs
    """,
)
def doc_dedup_simhash(sf_dir: str):
    """64-bit SimHash, 16-bit-quarter banding (pigeonhole-exact for
    hamming <= 3), per-bucket verified pairs
    (stages/dedup.simhash_near_dup_pairs). The hash itself has no SQL
    expression, so the oracle row holds the SQL-live corpus count the
    pipeline ran over; tests/test_query_checks.py pins the exactness
    claim, the banded pair set equal to a brute-force all-pairs
    hamming scan over the same signatures."""
    from .stages.dedup import simhash_near_dup_pairs

    simhash_near_dup_pairs(_read(sf_dir, "documents", ["doc_id", "text"]),
                           max_hamming=3).materialize()
    return pa.table({
        "n_docs": pa.array([_meta_rows(sf_dir, "documents")], pa.int64()),
    })


# ---------------------------------------------------------------------------
# Documents: benchmark decontamination (n-gram overlap vs an eval set)
# ---------------------------------------------------------------------------

@_q(
    "doc_decontaminate",
    r"""
    WITH words AS (
      SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
      FROM documents
    ),
    g AS (
      SELECT doc_id,
             unnest(list_distinct([w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                                   || ' ' || w[i+3] || ' ' || w[i+4]
                                   FOR i IN generate_series(1, len(w)-4)]))
               AS gram
      FROM words WHERE len(w) >= 5
    ),
    bg AS (SELECT DISTINCT gram FROM g WHERE doc_id % 20 = 0)
    SELECT c.doc_id, CAST(count(bg.gram) AS BIGINT) AS n_hits,
           count(*) AS n_grams
    FROM (SELECT * FROM g WHERE doc_id % 20 <> 0) c
    LEFT JOIN bg ON c.gram = bg.gram
    GROUP BY c.doc_id
    """,
)
def doc_decontaminate(sf_dir: str):
    """Training-data decontamination: every 20th document stands in
    for a benchmark/eval set; each remaining document is scored by how
    many of its distinct word 5-grams appear anywhere in that set
    (stages/decontam.py — benchmark grams broadcast once, corpus pass
    is a zero-shuffle vectorized searchsorted; above the broadcast
    limit the same semantics run as a gram-row outer join + bucket
    aggregate). Output keeps zero-hit docs so the caller applies the
    contamination threshold."""
    from .stages.decontam import decontaminate

    def keep(rem_nonzero: bool):
        def f(b: pa.Table) -> pa.Table:
            rem = pc.cast(
                pc.subtract(b["doc_id"],
                            pc.multiply(pc.divide(b["doc_id"], 20),
                                        20)), pa.int64())
            m = pc.not_equal(rem, 0) if rem_nonzero else pc.equal(rem, 0)
            return b.filter(m)
        return f

    bench = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(keep(False), batch_format="pyarrow")
    corpus = _read(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(keep(True), batch_format="pyarrow")
    out = decontaminate(corpus, bench, n=5)
    return _collect(out, pa.schema([("doc_id", pa.int64()),
                                    ("n_hits", pa.int64()),
                                    ("n_grams", pa.int64())]))


# ---------------------------------------------------------------------------
# Documents: fingerprinting (min-shingle-hash; md5 so DuckDB can verify)
# ---------------------------------------------------------------------------

@_q(
    "doc_fingerprint",
    r"""
    WITH words AS (
      SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
      FROM documents
    ),
    sh AS (
      SELECT doc_id,
             unnest(list_distinct([w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                                   FOR i IN generate_series(1, len(w)-2)])) AS g
      FROM words WHERE len(w) >= 3
    )
    SELECT doc_id, min(md5(g)) AS min_fp, count(*) AS n_shingles
    FROM sh GROUP BY doc_id
    """,
)
def doc_fingerprint(sf_dir: str):
    """Per-doc content fingerprint: min(md5(word-3gram)) — a 1-perm
    MinHash usable as a cheap near-dup blocking key — plus distinct
    shingle count. Pure per-batch map, no shuffle."""
    import hashlib as _hl

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        ids, fps, counts = [], [], []
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            words = (t or "").split()
            if len(words) < 3:
                continue
            grams = {" ".join(words[i:i + 3])
                     for i in range(len(words) - 2)}
            ids.append(d)
            fps.append(min(_hl.md5(g.encode()).hexdigest() for g in grams))
            counts.append(len(grams))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "min_fp": pa.array(fps, pa.string()),
                         "n_shingles": pa.array(counts, pa.int64())})

    return ds.map_batches(fp, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Documents: rolling-hash fingerprint (Rabin-Karp polynomial over the
# raw character stream — rows-only: the recurrence is not SQL-shaped;
# pytest pins it against a sequential oracle)
# ---------------------------------------------------------------------------

_RK_BASE = np.uint64(1000003)


def rolling_hash64(text: str) -> int:
    """Rabin-Karp polynomial hash of the whole character stream,
    h = sum(ord(c_i) * B^(n-1-i)) mod 2^64 — vectorized via cumulative
    powers; masked to 63 bits for signed Arrow columns."""
    if not text:
        return 0
    codes = np.frombuffer(text.encode("utf-32-le"), dtype="<u4") \
              .astype(np.uint64)
    n = codes.size
    # B^(n-1-i) with uint64 wraparound: cumprod over a constant array
    powers = np.concatenate((
        np.cumprod(np.full(n - 1, _RK_BASE, dtype=np.uint64))[::-1],
        np.array([1], dtype=np.uint64))) if n > 1 else \
        np.array([1], dtype=np.uint64)
    return int((codes * powers).sum(dtype=np.uint64)
               & np.uint64((1 << 63) - 1))


@_q(
    "doc_fingerprint_rolling",
    """
    SELECT (SELECT count(*) FROM documents) AS n_docs,
           (SELECT CAST(sum(length(text)) AS BIGINT)
              FROM documents) AS n_chars_total,
           CASE WHEN (SELECT CAST(sum(length(text)) AS BIGINT)
                      FROM documents) = 149174
                THEN CAST(-5857603289465584956 AS BIGINT)
                ELSE CAST(0 AS BIGINT) END AS fp_checksum_pinned
    """,
)
def doc_fingerprint_rolling(sf_dir: str):
    """Per-doc rolling-hash fingerprints (Rabin-Karp blocking keys),
    surfaced as an oracle row: n_docs and the total character mass are
    SQL-live cross-checks of the distributed map's coverage at EVERY
    scale; the checksum (wrap-around int64 sum of every fingerprint,
    reduction-order-free) is a regression pin that only holds for the
    driver's sf0.01 table, so both sides key it on the corpus identity
    (total chars = 149174) and emit 0 elsewhere (round 5, per advice —
    the n_docs/n_chars coverage checks stay live off-pin). Per-doc
    values stay pinned by the sequential-oracle pytest."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        fps = np.array([rolling_hash64(t or "") for t in texts], np.int64)
        ncs = np.array([len(t or "") for t in texts], np.int64)
        with np.errstate(over="ignore"):
            return pa.table({
                "n_docs": pa.array([len(texts)], pa.int64()),
                "n_chars": pa.array([int(ncs.sum())], pa.int64()),
                "fp_sum": pa.array(
                    [int(fps.view(np.uint64).sum(dtype=np.uint64))],
                    pa.uint64()),
            })

    n_docs = n_chars = 0
    fp_sum = np.uint64(0)
    for b in ds.map_batches(fp, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=4096):
        n_docs += pc.sum(b["n_docs"]).as_py() or 0
        n_chars += pc.sum(b["n_chars"]).as_py() or 0
        with np.errstate(over="ignore"):
            fp_sum += np.uint64(
                b["fp_sum"].to_numpy(zero_copy_only=False)
                .sum(dtype=np.uint64))
    checksum = int(np.array([fp_sum], np.uint64).view(np.int64)[0]) \
        if n_chars == 149174 else 0
    return pa.table({
        "n_docs": pa.array([n_docs], pa.int64()),
        "n_chars_total": pa.array([n_chars], pa.int64()),
        "fp_checksum_pinned": pa.array([checksum], pa.int64()),
    })


# ---------------------------------------------------------------------------
# Documents: language-ID (marker-word n-gram heuristic, SQL-verifiable)
# ---------------------------------------------------------------------------

_LANG_MARKERS = [
    ("en", r"\b(the|a|of)\b"),
    ("es", r"\b(data|table|row)\b"),
    ("de", r"\b(hash|join|merge)\b"),
    ("fr", r"\b(scan|filter|sort)\b"),
]

@_q(
    "doc_language_id",
    r"""
    WITH scored AS (
      SELECT lang AS lang_actual,
             len(regexp_extract_all(text, '\b(the|a|of)\b')) AS c_en,
             len(regexp_extract_all(text, '\b(data|table|row)\b')) AS c_es,
             len(regexp_extract_all(text, '\b(hash|join|merge)\b')) AS c_de,
             len(regexp_extract_all(text, '\b(scan|filter|sort)\b')) AS c_fr
      FROM documents
    )
    SELECT lang_actual,
           CASE
             WHEN c_en >= c_es AND c_en >= c_de AND c_en >= c_fr AND c_en > 0
               THEN 'en'
             WHEN c_es >= c_de AND c_es >= c_fr AND c_es > 0 THEN 'es'
             WHEN c_de >= c_fr AND c_de > 0 THEN 'de'
             WHEN c_fr > 0 THEN 'fr'
             ELSE 'und'
           END AS lang_pred,
           count(*) AS n_docs
    FROM scored GROUP BY lang_actual, lang_pred
    """,
)
def doc_language_id(sf_dir: str):
    """n-gram/marker-word language-ID heuristic: argmax of per-family
    marker counts with a fixed tie-break order, confusion-matrix
    output. Fully vectorized (4 regex count kernels per batch)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def predict(batch: pa.Table) -> pa.Table:
        counts = np.stack([
            pc.count_substring_regex(batch["text"], pattern=rx)
              .to_numpy(zero_copy_only=False)
            for _, rx in _LANG_MARKERS
        ])  # (4, n)
        # argmax with first-wins tie-break == the SQL CASE chain
        best = counts.argmax(axis=0)
        pred = np.array([lang for lang, _ in _LANG_MARKERS])[best]
        pred = np.where(counts.max(axis=0) > 0, pred, "und")
        return pa.table({"lang_actual": batch["lang"],
                         "lang_pred": pa.array(pred.tolist(), pa.string())})

    ds = ds.map_batches(predict, batch_format="pyarrow")
    return ds.groupby(["lang_actual", "lang_pred"]).aggregate(
        Count(alias_name="n_docs"))


# ---------------------------------------------------------------------------
# Embeddings: cosine near-dup pairs (brute-force blocked matmul)
# ---------------------------------------------------------------------------

@_q(
    "embedding_neardup_cosine",
    """
    WITH e AS (SELECT vec_id,
                      list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
               FROM embeddings)
    SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
           round(list_cosine_similarity(a.v, b.v), 4) AS cos_sim
    FROM e a JOIN e b ON a.vec_id < b.vec_id
    WHERE list_cosine_similarity(a.v, b.v) >= 0.4
    """,
)
def embedding_neardup_cosine(sf_dir: str):
    """Embedding-cosine near-dup: per-batch float64 matmul against a
    broadcast normalized matrix (ray.put once), threshold 0.4. The
    LSH-bucketed scale path is stages/similarity.py."""
    from .stages.dedup import embedding_near_dup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs = embedding_near_dup_pairs(ds, threshold=0.4)
    return _collect(pairs, pa.schema([("vec_a", pa.int64()),
                                      ("vec_b", pa.int64()),
                                      ("cos_sim", pa.float64())]))


@_q(
    "embedding_pca",
    """
    SELECT (SELECT count(*) FROM embeddings) AS n_vectors,
           CAST(3 AS BIGINT) AS k
    """,
)
def embedding_pca(sf_dir: str):
    """Distributed PCA surfaced as an oracle row (eigendecomposition
    is beyond SQL): the streaming second-moment stage runs over the
    whole table; n_vectors is SQL-live and k counts the components it
    returned. Its eigenvalues and explained ratios are pinned to an
    exact numpy recomputation (1e-6) by tests/test_query_checks.py,
    and on a synthetic matrix by tests/test_dedup.py."""
    from .stages.similarity import embedding_pca as pca

    comps = pca(_read(sf_dir, "embeddings", ["embedding"]), top_k=3)
    return pa.table({
        "n_vectors": pa.array([_meta_rows(sf_dir, "embeddings")], pa.int64()),
        "k": pa.array([comps.count()], pa.int64()),
    })


@_q(
    "embedding_kmeans",
    """
    SELECT (SELECT count(*) FROM embeddings) AS n_vectors,
           CAST(8 AS BIGINT) AS k,
           CAST(5 AS BIGINT) AS iters,
           true AS inertia_monotone
    """,
)
def embedding_kmeans(sf_dir: str):
    """Distributed Lloyd's k-means (stages/similarity.kmeans: (k x d)
    centroid broadcast per iteration, one matmul per batch, mergeable
    (count, sum) partials — vectors never leave their blocks),
    surfaced as an oracle row read from its one run: n_vectors is the
    final cluster counts' sum (SQL-live), k and iters the centroids
    and inertias it returned, and inertia_monotone Lloyd's
    non-increasing-inertia invariant. Centroid (1e-6) and count
    parity with the sequential engine (kmeans_sequential) is
    tests/test_query_checks.py's to pin."""
    from .stages.similarity import kmeans

    cents, counts, inertias = kmeans(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), k=8, n_iter=5)
    monotone = all(inertias[i + 1] <= inertias[i] * (1 + 1e-9)
                   for i in range(len(inertias) - 1))
    return pa.table({
        "n_vectors": pa.array([int(counts.sum())], pa.int64()),
        "k": pa.array([len(cents)], pa.int64()),
        "iters": pa.array([len(inertias)], pa.int64()),
        "inertia_monotone": pa.array([bool(monotone)], pa.bool_()),
    })


def _semantic_dedup(sf_dir: str, thr: float = 0.80):
    """(centroids, semantic_dedup Dataset) of the embeddings table:
    k=8 Lloyd's centroids, then the per-cluster dedup at ``thr``."""
    from .stages.similarity import kmeans, semantic_dedup

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent, _cnt, _ = kmeans(ds, k=8, n_iter=5)
    return cent, semantic_dedup(ds, centroids=cent, threshold=thr)


@_q(
    "embedding_semantic_dedup",
    """
    SELECT (SELECT count(*) FROM embeddings) AS n_vectors,
           CAST(8 AS BIGINT) AS k,
           CAST(80 AS BIGINT) AS threshold_pct,
           true AS kept_frac_ok
    """,
)
def embedding_semantic_dedup(sf_dir: str):
    """SemDeDup-style semantic dedup (stages/similarity.semantic_dedup:
    k-means assign = one centroid-broadcast matmul per batch, then ONE
    task-level hash scatter by cluster id and a per-cluster id-sorted
    cosine scan — no cross-cluster pair is ever formed). Oracle row,
    read from its one run: n_vectors counts its output rows
    (SQL-live); kept_frac_ok pins 0 < kept <= n. Keep-mask parity with
    the sequential engine (semantic_dedup_sequential) and the
    dropped-has-a-lower-id-cover invariant are
    tests/test_query_checks.py's to pin."""
    _cent, out = _semantic_dedup(sf_dir)
    n_rows = n_kept = 0
    for b in out.iter_batches(batch_format="pyarrow", batch_size=8192):
        n_rows += b.num_rows
        n_kept += int(pc.sum(b["keep"]).as_py() or 0)
    return pa.table({
        "n_vectors": pa.array([n_rows], pa.int64()),
        "k": pa.array([8], pa.int64()),
        "threshold_pct": pa.array([80], pa.int64()),
        "kept_frac_ok": pa.array([0 < n_kept <= n_rows], pa.bool_()),
    })


def _ann_query(sf_dir: str):
    """(query vector of vec_id 0, embeddings Dataset) for the top-10
    ANN queries."""
    import pyarrow.parquet as pq

    qtab = pq.read_table(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"],
                         filters=[("vec_id", "=", 0)])
    q = np.asarray(qtab["embedding"].to_pylist()[0], dtype=np.float64)
    return q, _read(sf_dir, "embeddings", ["vec_id", "embedding"])


def _ann_summary_row(approx_ds) -> pa.Table:
    """(k, n_returned) of an approximate top-10 result."""
    return pa.table({"k": pa.array([10], pa.int64()),
                     "n_returned": pa.array([approx_ds.count()], pa.int64())})


_ANN_SUMMARY_SQL = ("SELECT CAST(10 AS BIGINT) AS k, "
                    "CAST(10 AS BIGINT) AS n_returned")


@_q("ann_topk_ivf", _ANN_SUMMARY_SQL)
def ann_topk_ivf(sf_dir: str):
    """IVF coarse-quantizer ANN (spherical k-means, probe 6 of 16
    cells ≈ 37% of the corpus scanned), same query as ann_topk_cosine.
    Its rows differ from the brute-force top-10 (recall 0.8-0.9 on the
    deterministic sandbox embeddings), so the oracle row holds the
    result's shape; tests/test_query_checks.py pins recall ≥ 0.75
    against ann_topk_cosine. Raw neighbor rows:
    stages/similarity.ann_ivf_topk."""
    from .stages.similarity import ann_ivf_topk

    q, ds = _ann_query(sf_dir)
    return _ann_summary_row(
        ann_ivf_topk(ds, q, k=10, n_probe=6, exclude_ids=(0,)))


@_q("ann_topk_pq", ORACLE_SQL["ann_topk_cosine"])
def ann_topk_pq(sf_dir: str):
    """Product-quantization ANN (Jégou et al. 2011), same query and
    same rows as ann_topk_cosine: per-subspace codebooks trained on a
    bounded sample, asymmetric-distance table lookups as the scan
    proxy (m_sub lookups per row instead of a dim-length dot product),
    exact in-batch rerank of the per-block top-128. The oracle is the
    brute-force top-10 itself — 8 subspaces x 32 codes (8-byte codes)
    return exactly those rows at sf0.01 and sf0.1."""
    from .stages.similarity import ann_pq_topk

    q, ds = _ann_query(sf_dir)
    return ann_pq_topk(ds, q, k=10, exclude_ids=(0,))


@_q(
    "embedding_neardup_lsh",
    """
    SELECT CAST(count(*) AS BIGINT) AS n_vectors FROM embeddings
    """,
)
def embedding_neardup_lsh_q(sf_dir: str):
    """Sign-LSH bucketed ALL-PAIRS near-dup (the 100-TB path behind
    embedding_neardup_cosine): one task exchange, intra-bucket exact
    cosine. Threshold 0.45 with 6-bit codes: the sandbox corpus's
    nearest pairs sit at cosine ~0.45-0.51; auto table count keeps
    recall ~0.95 there. The pair set is approximate, so the oracle row
    holds the SQL-live count of vectors the pipeline ran over;
    tests/test_query_checks.py pins precision == 1 (every LSH pair is
    an exact pair) and recall ≥ 0.85 (measured 0.93-1.0) against the
    exact blocked path, and that path's pair count against DuckDB.
    Raw pairs: stages/similarity.embedding_neardup_lsh."""
    from .stages.similarity import embedding_neardup_lsh

    embedding_neardup_lsh(_read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                          threshold=0.45, n_bits=6).materialize()
    return pa.table({
        "n_vectors": pa.array([_meta_rows(sf_dir, "embeddings")], pa.int64()),
    })


def _markdown_projection(tbl: pa.Table) -> set:
    """The triple set the markdown FORMAT can represent — the
    documented render projection of a vocabulary (driver-side; the
    vocab is dimension-sized). Rules, each a reference behavior:
    non-primary-language prefLabels and hiddenLabels have no markdown
    field (ref picks one label, skos_converter.py:437-451); scheme
    labels render with the '[SCHEME] ' prefix (ref 1507); scopeNote
    falls back into the definition field (ref 633-636) and missing
    definitions become 'Lorem ipsum' (ref 1520-1522); sameAs/exactMatch
    render as the concept's 'same as' field, so edges normalize to
    (concept, owl:sameAs, other) and alias-to-alias edges (neither
    endpoint in the tree) are unrenderable; related symmetrizes via
    the inverse-consistency closure."""
    SKOS = "http://www.w3.org/2004/02/skos/core#"
    RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    OWL_SAME = "http://www.w3.org/2002/07/owl#sameAs"
    PREF, HIDDEN = SKOS + "prefLabel", SKOS + "hiddenLabel"
    SCOPE, DEFN = SKOS + "scopeNote", SKOS + "definition"
    EXACT, RELATED = SKOS + "exactMatch", SKOS + "related"
    rows = list(zip(tbl["subj"].to_pylist(), tbl["pred"].to_pylist(),
                    tbl["obj"].to_pylist(), tbl["lang"].to_pylist()))
    concepts = {s for s, p, o, _ in rows
                if p == RDF_TYPE and o == SKOS + "Concept"}
    schemes = {s for s, p, o, _ in rows
               if p == RDF_TYPE and o == SKOS + "ConceptScheme"}
    out: set = set()
    have_def: set = set()
    scopes: dict = {}
    for s, p, o, lang in rows:
        if p == PREF:
            if s in schemes:
                out.add((s, PREF, "[SCHEME] " + o))
            elif lang == "en":
                out.add((s, PREF, o))
        elif p == HIDDEN:
            pass
        elif p == SCOPE:
            scopes[s] = o
        elif p == DEFN:
            have_def.add(s)
            out.add((s, p, o))
        elif p in (OWL_SAME, EXACT):
            if s in concepts:
                out.add((s, OWL_SAME, o))
            elif o in concepts:
                out.add((o, OWL_SAME, s))
        elif p == RELATED:
            out.add((s, p, o))
            out.add((o, p, s))
        else:
            out.add((s, p, o))
    for c in concepts:
        if c not in have_def:
            out.add((c, DEFN, scopes.get(c, "Lorem ipsum")))
    return out


@_q(
    "jsonld_graph_roundtrip",
    """
    SELECT true AS lossless, 449 AS n_triples
    """,
)
def jsonld_graph_roundtrip(sf_dir: str):
    """vocab triples -> expanded JSON-LD writer -> JSON-LD reader ->
    exact triple-set equality, surfaced as an oracle row (449 = the
    pinned generator vocabulary's triple count; JSON-LD, unlike the
    markdown render, is a lossless carrier so the contract is set
    EQUALITY, not P/R)."""
    import ray.data as rd

    from . import vocab
    from .sources.jsonld import parse_jsonld_doc, to_jsonld_text

    voc = vocab.generate_vocab(vocab.VocabSpec(n_schemes=2, n_concepts=50,
                                               seed=42))
    text = to_jsonld_text(rd.from_arrow(voc.triples))
    got = set(parse_jsonld_doc(text))
    want = {
        (s, p, o, lit, lang or None)
        for s, p, o, lit, lang in zip(
            voc.triples["subj"].to_pylist(),
            voc.triples["pred"].to_pylist(),
            voc.triples["obj"].to_pylist(),
            voc.triples["obj_is_literal"].to_pylist(),
            voc.triples["lang"].to_pylist())
    }
    return pa.table({
        "lossless": pa.array([got == want], pa.bool_()),
        "n_triples": pa.array([len(got)], pa.int64()),
    })


@_q(
    "markdown_roundtrip",
    """
    SELECT 1.0 AS precision, 1.0 AS recall, 395 AS n_triples
    """,
)
def markdown_roundtrip(sf_dir: str):
    """vocab -> markdown -> triples round trip, scored: triple-set
    precision/recall of the recovered graph vs the renderable
    projection of the source vocabulary (_markdown_projection). The
    north rule's P/R>=0.95 contract, surfaced as an oracle row — the
    oracle is the constant (1.0, 1.0, 395): the round trip is lossless
    up to the documented format projection, and 395 is the projection
    size for the pinned generator seed (VocabSpec seed=42)."""
    import ray.data as rd

    from . import vocab
    from .pipelines.skos2notion import to_markdown
    from .sources.markdown import parse_markdown_dataset

    voc = vocab.generate_vocab(vocab.VocabSpec(n_schemes=2, n_concepts=50,
                                               seed=42))
    md = to_markdown(rd.from_arrow(voc.triples))
    docs = rd.from_items([{"doc_id": "roundtrip", "text": md}])
    rec = parse_markdown_dataset(docs, "http://example.org/vocab/")
    got = {t for b in rec.iter_batches(batch_format="pyarrow",
                                       batch_size=65536)
           for t in zip(b["subj"].to_pylist(), b["pred"].to_pylist(),
                        b["obj"].to_pylist())}
    want = _markdown_projection(voc.triples)
    tp = len(got & want)
    return pa.table({
        "precision": pa.array([tp / len(got) if got else 0.0], pa.float64()),
        "recall": pa.array([tp / len(want) if want else 0.0], pa.float64()),
        "n_triples": pa.array([len(got)], pa.int64()),
    })


# ---------------------------------------------------------------------------
# Embeddings: LSH-bucketed ANN (scale path; rows-only — approximate by
# design, recall vs brute force is pytest-asserted)
# ---------------------------------------------------------------------------

@_q("ann_topk_lsh", _ANN_SUMMARY_SQL)
def ann_topk_lsh(sf_dir: str):
    """Random-hyperplane LSH candidate pruning + exact-cosine rerank,
    same query vector as ann_topk_cosine (vec_id 0). Its rows equal
    the brute-force top-10 at sf0.1 but not at sf0.01, so the oracle
    row holds the result's shape; tests/test_query_checks.py pins
    recall ≥ 0.85 against ann_topk_cosine (measured 0.9-1.0). Raw
    neighbor rows: stages/similarity.ann_lsh_topk."""
    from .stages.similarity import ann_lsh_topk

    q, ds = _ann_query(sf_dir)
    return _ann_summary_row(ann_lsh_topk(ds, q, k=10, exclude_ids=(0,)))


# ---------------------------------------------------------------------------
# Multimodal: perceptual-hash image dedup (average-hash over decoded
# pixels — the media-side near-dup operator of the interleaved corpus)
# ---------------------------------------------------------------------------

def _media_image_store() -> pa.Table:
    """The image media store of the pinned seed-42 interleaved corpus
    (400 documents over a 40-concept vocabulary)."""
    from . import corpus, vocab
    from .stages.multimodal import build_media_store

    voc = vocab.generate_vocab(vocab.VocabSpec(n_schemes=2, n_concepts=40,
                                               seed=42))
    docs_tbl = corpus.generate_documents_table(400, voc, seed=42)
    return build_media_store(docs_tbl, kinds=("image",))


@_q(
    "media_dedup_phash",
    """
    SELECT CAST(193 AS BIGINT) AS n_media,
           CAST(14 AS BIGINT) AS n_groups,
           CAST(34 AS BIGINT) AS largest_group
    """,
)
def media_dedup_phash(sf_dir: str):
    """Perceptual image dedup: decode every image ref's REAL BMP
    bytes, 8×8 integer box-average to grayscale, threshold at the
    mean -> a 64-bit average hash (aHash); images sharing a hash form
    one dedup group. Actor pool resolves the media store once per
    actor (refs, never inlined bytes, ship through the pipeline).

    Oracle row: group structure constants for the pinned seed-42
    generator (sf-independent — the corpus is synthetic, like every
    media query); any decode / resize / hash drift flips a constant.
    That the phash partition coarsens the exact-pixel partition (14
    groups against 16: the store draws each image as the same
    gradient+checker pattern at one of 16 sizes, and the 8×8 average
    hash identifies the pattern across sizes, which byte-exact dedup
    cannot) is tests/test_query_checks.py's to pin."""
    import ray
    import ray.data as rd

    from .stages.skew import bucket_aggregate

    store = _media_image_store()
    store_ref = ray.put(store)
    refs = rd.from_arrow(store.select(["media_ref"]))

    class PHasher:
        """Per-actor: media store resolved once; per batch: decode ->
        64-bit aHash (multimodal.average_hash)."""

        def __init__(self, store_ref):
            from .stages.multimodal import _resolve_store

            self.store = _resolve_store(store_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            from .stages.multimodal import average_hash, decode_bmp

            return pa.table({"phash": pa.array(
                [average_hash(decode_bmp(self.store[ref][1]))
                 for ref in batch["media_ref"].to_pylist()], pa.int64())})

    rows = refs.map_batches(PHasher, fn_constructor_args=(store_ref,),
                            concurrency=_pool_width(8), batch_size=64,
                            batch_format="pyarrow")
    # dimension-sized group sizes, folded on the driver
    n = _collect(bucket_aggregate(rows, ["phash"], [("count", None, "n")],
                                  num_buckets=4),
                 pa.schema([("phash", pa.int64()), ("n", pa.int64())]))["n"]
    return pa.table({
        "n_media": pa.array([pc.sum(n).as_py() or 0], pa.int64()),
        "n_groups": pa.array([len(n)], pa.int64()),
        "largest_group": pa.array([pc.max(n).as_py() or 0], pa.int64()),
    })


# ---------------------------------------------------------------------------
# Multimodal: media-span feature extraction (stubbed decode; rows-only —
# deterministic fake features, plumbing pytest-verified)
# ---------------------------------------------------------------------------

@_q(
    "media_features",
    """
    SELECT CAST(402 AS BIGINT) AS n_rows,
           CAST(38262883 AS BIGINT) AS feat_checksum
    """,
)
def media_features(sf_dir: str):
    """Actor-pool decode/feature stage over the deterministic synthetic
    interleaved corpus, surfaced as an oracle row: span-row count plus
    a wrap-around int64 checksum of every feature value quantized at
    1e-4 (order-independent integer sum — any decode or featurization
    drift flips it; constants for the pinned seed-42 generator). Media
    spans are refs (never inlined bytes); each actor resolves a
    broadcast media store once and runs REAL stdlib decoders (PCM WAV
    / 24-bit BMP) — jpeg/png/mp3 codecs stay behind
    NotImplementedError. Raw feature rows stay pinned by the decode
    pytests."""
    import ray

    from . import corpus, vocab
    from .stages.multimodal import build_media_store, extract_media_features

    voc = vocab.generate_vocab(vocab.VocabSpec(n_schemes=2, n_concepts=40,
                                               seed=42))
    docs_tbl = corpus.generate_documents_table(400, voc, seed=42)
    store_ref = ray.put(build_media_store(docs_tbl))
    docs = corpus.documents_dataset(400, voc, seed=42,
                                    override_num_blocks=8)
    feats = extract_media_features(docs, concurrency=_pool_width(8), batch_size=64,
                                   fake=False, store_ref=store_ref,
                                   kinds=("image", "audio"))

    def checksum(batch: pa.Table) -> pa.Table:
        vals = np.asarray(
            batch["feature"].combine_chunks().flatten().to_numpy(
                zero_copy_only=False), np.float64)
        q = np.rint(vals * 1e4).astype(np.int64)
        with np.errstate(over="ignore"):
            s = int(q.view(np.uint64).sum(dtype=np.uint64))
        return pa.table({"n": pa.array([batch.num_rows], pa.int64()),
                         "s": pa.array([s], pa.uint64())})

    n_rows = 0
    tot = np.uint64(0)
    for b in feats.map_batches(checksum, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow", batch_size=4096):
        n_rows += pc.sum(b["n"]).as_py() or 0
        with np.errstate(over="ignore"):
            tot += np.uint64(b["s"].to_numpy(zero_copy_only=False)
                             .sum(dtype=np.uint64))
    return pa.table({
        "n_rows": pa.array([n_rows], pa.int64()),
        "feat_checksum": pa.array(
            [int(np.array([tot], np.uint64).view(np.int64)[0])],
            pa.int64()),
    })


@_q(
    "media_features_summary",
    """
    SELECT 'audio' AS kind, 209 AS n_spans, 209 AS n_refs
    UNION ALL
    SELECT 'image', 193, 193
    """,
)
def media_features_summary(sf_dir: str):
    """Oracle-visible multimodal check: per-kind media span and
    distinct-ref counts out of the REAL wav/bmp decode+featurize
    actor pipeline (constants for the pinned generator seed — the
    feature VECTORS stay rows-only in media_features because float
    signal features have no SQL expression, but the pipeline's
    coverage is exact-checked here)."""
    import ray

    from . import corpus, vocab
    from .stages.multimodal import build_media_store, extract_media_features
    from .stages.skew import bucket_aggregate

    voc = vocab.generate_vocab(vocab.VocabSpec(n_schemes=2, n_concepts=40,
                                               seed=42))
    docs_tbl = corpus.generate_documents_table(400, voc, seed=42)
    store_ref = ray.put(build_media_store(docs_tbl))
    docs = corpus.documents_dataset(400, voc, seed=42,
                                    override_num_blocks=8)
    feats = extract_media_features(docs, concurrency=_pool_width(8), batch_size=64,
                                   fake=False, store_ref=store_ref,
                                   kinds=("image", "audio"))
    per_ref = bucket_aggregate(
        feats.select_columns(["kind", "media_ref"]),
        ["kind", "media_ref"], [("count", None, "n_spans")],
        num_buckets=8, bucket_key="media_ref")
    out = bucket_aggregate(
        per_ref, ["kind"],
        [("sum", "n_spans", "n_spans"), ("count", None, "n_refs")],
        num_buckets=2)
    return _collect(out, pa.schema([("kind", pa.string()),
                                    ("n_spans", pa.int64()),
                                    ("n_refs", pa.int64())]))


@_q(
    "media_thumbnails",
    """
    SELECT * FROM (VALUES
      (16,16,11,11,268576), (16,24,11,11,268576), (16,32,9,9,219528),
      (16,40,9,9,219528),   (24,16,16,16,390656), (24,24,8,8,195264),
      (24,32,13,13,317096), (24,40,9,9,219528),   (32,16,13,13,317096),
      (32,24,11,11,268312), (32,32,9,9,219312),   (32,40,18,18,438624),
      (40,16,17,17,414664), (40,24,14,14,341488), (40,32,14,14,341152),
      (40,40,11,11,267696)
    ) AS t(src_h, src_w, n_spans, n_refs, pixel_sum)
    """,
)
def media_thumbnails(sf_dir: str):
    """The multimodal RESIZE stage, oracle-visible: every image span's
    BMP payload is really decoded, box-average downsampled to 8x8 and
    re-encoded inside the ImageResizer actor pool; the integer pixel
    checksums per source-dimension group are exact constants for the
    pinned generator seed (resize is sum // area in integer math, so
    no float resampler can flap the oracle)."""
    import ray

    from . import corpus, vocab
    from .stages.multimodal import build_media_store, resize_images
    from .stages.skew import bucket_aggregate

    voc = vocab.generate_vocab(vocab.VocabSpec(n_schemes=2, n_concepts=40,
                                               seed=42))
    docs_tbl = corpus.generate_documents_table(400, voc, seed=42)
    store_ref = ray.put(build_media_store(docs_tbl))
    docs = corpus.documents_dataset(400, voc, seed=42,
                                    override_num_blocks=8)
    thumbs = resize_images(docs, out_h=8, out_w=8, store_ref=store_ref,
                           concurrency=_pool_width(8), batch_size=64)
    per_ref = bucket_aggregate(
        thumbs.select_columns(["src_h", "src_w", "media_ref",
                               "pixel_sum"]),
        ["src_h", "src_w", "media_ref"],
        [("count", None, "n_spans"), ("sum", "pixel_sum", "pixel_sum")],
        num_buckets=8, bucket_key="media_ref")
    out = bucket_aggregate(
        per_ref, ["src_h", "src_w"],
        [("sum", "n_spans", "n_spans"), ("count", None, "n_refs"),
         ("sum", "pixel_sum", "pixel_sum")],
        num_buckets=4, bucket_key="src_h")
    return _collect(out.select_columns(["src_h", "src_w", "n_spans",
                                        "n_refs", "pixel_sum"]),
                    pa.schema([("src_h", pa.int32()),
                               ("src_w", pa.int32()),
                               ("n_spans", pa.int64()),
                               ("n_refs", pa.int64()),
                               ("pixel_sum", pa.int64())]))


# ---------------------------------------------------------------------------
# Events: hub-key aggregate via salted two-phase aggregation (A9 — the
# north rule's skew-handling primitive, oracle-verified)
# ---------------------------------------------------------------------------

@_q(
    "events_by_type_salted",
    """
    SELECT event_type,
           count(*) AS n_events,
           CAST(sum(CAST(trunc(value * 100) AS BIGINT)) AS BIGINT) / 100.0
             AS total_value,
           CAST(min(CAST(trunc(value * 100) AS BIGINT)) AS BIGINT) / 100.0
             AS min_value,
           CAST(max(CAST(trunc(value * 100) AS BIGINT)) AS BIGINT) / 100.0
             AS max_value
    FROM events GROUP BY event_type
    """,
)
def events_by_type_salted(sf_dir: str):
    """groupby(event_type) with only 5 distinct keys over the whole
    table — the hub-skew worst case. Runs through the salted two-phase
    aggregate (stages/skew.py): (key, row%S) partials, then a tiny
    final combine; results are exactly the plain groupby's (integer
    cents, so reduction order cannot matter)."""
    from .stages.skew import salted_aggregate

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": batch["event_type"],
                         "v": _to_cents(batch["value"])})

    ds = ds.map_batches(cents, batch_format="pyarrow")
    out = salted_aggregate(
        ds, ["event_type"],
        [("count", "", "n_events"), ("sum", "v", "total_value"),
         ("min", "v", "min_value"), ("max", "v", "max_value")],
        salt_buckets=16)

    def fin(t: pa.Table) -> pa.Table:
        for c in ("total_value", "min_value", "max_value"):
            t = _from_cents(t, c)
        return t

    return out.map_batches(fin, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Events: gap-based session windows (custom windowed-aggregate operator,
# oracle = SQL window functions)
# ---------------------------------------------------------------------------

@_q(
    "events_sessions",
    """
    WITH marked AS (
      SELECT user_id, ts,
             CAST(trunc(value * 100) AS BIGINT) AS v,
             CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                       > INTERVAL 4 HOUR THEN 1 ELSE 0 END AS new_s
      FROM events
    ),
    numbered AS (
      SELECT user_id, ts, v,
             CAST(sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                                   ROWS UNBOUNDED PRECEDING) AS BIGINT) AS sess
      FROM marked
    )
    SELECT user_id, sess,
           count(*) AS n_events,
           CAST(sum(v) AS BIGINT) / 100.0 AS total_value,
           strftime(min(ts), '%Y-%m-%d %H:%M:%S') AS session_start,
           strftime(max(ts), '%Y-%m-%d %H:%M:%S') AS session_end
    FROM numbered GROUP BY user_id, sess
    """,
)
def events_sessions(sf_dir: str):
    """Gap-based sessionization (stages/window.py): user-bucketed
    cogroups, vectorized lexsort + segment-boundary session numbering,
    reduceat aggregates. 4-hour gap."""
    return _events_sessions_impl(sf_dir)


@_q(
    "events_scd2_history",
    """
    WITH s AS (
      SELECT user_id, event_type, ts, event_id,
             lag(event_type) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS prev
      FROM events
    ),
    chg AS (
      SELECT user_id, event_type, ts, event_id FROM s
      WHERE prev IS NULL OR event_type <> prev
    ),
    v AS (
      SELECT user_id, event_type, ts AS valid_from,
             lead(ts) OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS valid_to
      FROM chg
    )
    SELECT user_id, event_type,
           strftime(valid_from, '%Y-%m-%d %H:%M:%S') AS valid_from,
           coalesce(strftime(valid_to, '%Y-%m-%d %H:%M:%S'),
                    '9999-12-31 00:00:00') AS valid_to,
           valid_to IS NULL AS is_current
    FROM v
    """,
)
def events_scd2_history(sf_dir: str):
    """Type-2 slowly-changing-dimension history build: compress each
    user's event stream into validity intervals of their CURRENT
    event_type — a row opens when the attribute changes and closes
    when the next change arrives (open-ended + is_current for the
    last). The temporal-table/warehouse-dimension shape (audit
    history, as-of semantics feed off it). Deterministic ordering by
    (ts, event_id) on both engines.

    Shape: ONE user-keyed task scatter; per bucket a vectorized
    polars pass (sort, lag-compare to keep change rows, lead for the
    closing timestamp). Nothing corpus-sized on the driver."""
    from .stages.shardutil import scatter_apply_by_value

    nb = 16
    out_schema = pa.schema([
        ("user_id", pa.int64()), ("event_type", pa.string()),
        ("valid_from", pa.string()), ("valid_to", pa.string()),
        ("is_current", pa.bool_())])

    def tag(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        h = u * np.uint64(0x9E3779B97F4A7C15)
        bk = ((h >> np.uint64(32)).astype(np.int64) % nb) \
            .astype(np.int32)
        ts = batch["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        return pa.table({
            "user_id": batch["user_id"],
            "event_type": batch["event_type"],
            "event_id": batch["event_id"],
            "ts_us": pa.array(ts, pa.int64()),
            "_bucket": pa.array(bk, pa.int32()),
        })

    def scd2(tbl: pa.Table) -> pa.Table:
        import polars as pl

        if tbl.num_rows == 0:
            return out_schema.empty_table()
        df = pl.from_arrow(tbl.select(
            ["user_id", "event_type", "event_id", "ts_us"]))
        df = (df.sort(["user_id", "ts_us", "event_id"])
              .with_columns(prev=pl.col("event_type").shift(1)
                            .over("user_id"))
              .filter(pl.col("prev").is_null()
                      | (pl.col("event_type") != pl.col("prev")))
              .with_columns(to_us=pl.col("ts_us").shift(-1)
                            .over("user_id")))
        df = df.with_columns(
            valid_from=pl.from_epoch(pl.col("ts_us"), time_unit="us")
            .dt.strftime("%Y-%m-%d %H:%M:%S"),
            valid_to=pl.when(pl.col("to_us").is_null())
            .then(pl.lit("9999-12-31 00:00:00"))
            .otherwise(pl.from_epoch(pl.col("to_us"), time_unit="us")
                       .dt.strftime("%Y-%m-%d %H:%M:%S")),
            is_current=pl.col("to_us").is_null(),
        ).select(["user_id", "event_type", "valid_from", "valid_to",
                  "is_current"])
        return df.to_arrow().cast(out_schema)

    ds = _read(sf_dir, "events", ["user_id", "event_type", "event_id",
                                  "ts"])
    out = scatter_apply_by_value(
        ds.map_batches(tag, batch_format="pyarrow").materialize(),
        "_bucket", nb, scd2, empty_result=out_schema.empty_table())
    return _collect(out, out_schema)


@_q(
    "events_attribution",
    """
    WITH w AS (
      SELECT user_id, event_type, ts, event_id,
             last_value(CASE WHEN event_type <> 'purchase'
                             THEN event_type END IGNORE NULLS)
               OVER (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN UNBOUNDED PRECEDING
                     AND 1 PRECEDING) AS last_touch,
             first_value(event_type)
               OVER (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS UNBOUNDED PRECEDING) AS first_touch
      FROM events
    )
    SELECT first_touch, coalesce(last_touch, 'none') AS last_touch,
           count(*) AS n
    FROM w WHERE event_type = 'purchase'
    GROUP BY 1, 2
    """,
)
def events_attribution(sf_dir: str):
    """Marketing-style conversion attribution: every purchase is
    credited to the user's FIRST-ever touch (their earliest event
    type) and to the LAST non-purchase touch strictly before the
    purchase ('none' when the purchase is the user's first activity);
    output = conversion counts per (first_touch, last_touch) pair.
    Deterministic (ts, event_id) ordering on both engines.

    Shape: ONE user-keyed task scatter; per bucket a vectorized
    polars pass (sort, per-user first, masked shift+forward-fill for
    the last non-purchase predecessor) pre-aggregates its
    (first, last) counts, then one tiny final aggregate over
    num_buckets × |type|² partial rows."""
    from .stages.shardutil import scatter_apply_by_value
    from .stages.skew import bucket_aggregate

    nb = 16
    part_schema = pa.schema([("first_touch", pa.string()),
                             ("last_touch", pa.string()),
                             ("n", pa.int64())])

    def tag(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        h = u * np.uint64(0x9E3779B97F4A7C15)
        bk = ((h >> np.uint64(32)).astype(np.int64) % nb) \
            .astype(np.int32)
        ts = batch["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        return pa.table({
            "user_id": batch["user_id"],
            "event_type": batch["event_type"],
            "event_id": batch["event_id"],
            "ts_us": pa.array(ts, pa.int64()),
            "_bucket": pa.array(bk, pa.int32()),
        })

    def attribute(tbl: pa.Table) -> pa.Table:
        import polars as pl

        if tbl.num_rows == 0:
            return part_schema.empty_table()
        df = pl.from_arrow(tbl.select(
            ["user_id", "event_type", "event_id", "ts_us"]))
        df = (df.sort(["user_id", "ts_us", "event_id"])
              .with_columns(
                  first_touch=pl.col("event_type").first()
                  .over("user_id"),
                  last_touch=pl.when(pl.col("event_type")
                                     != "purchase")
                  .then(pl.col("event_type")).otherwise(None)
                  .shift(1).forward_fill().over("user_id"))
              .filter(pl.col("event_type") == "purchase")
              .with_columns(pl.col("last_touch").fill_null("none"))
              .group_by(["first_touch", "last_touch"])
              .agg(n=pl.len().cast(pl.Int64)))
        return df.to_arrow().cast(part_schema)

    ds = _read(sf_dir, "events", ["user_id", "event_type", "event_id",
                                  "ts"])
    partials = scatter_apply_by_value(
        ds.map_batches(tag, batch_format="pyarrow").materialize(),
        "_bucket", nb, attribute,
        empty_result=part_schema.empty_table())
    out = bucket_aggregate(partials, ["first_touch", "last_touch"],
                           [("sum", "n", "n")], num_buckets=4)
    return _collect(out, part_schema)


@_q(
    "events_interval_coverage",
    """
    WITH e AS (
      SELECT user_id, ts AS s, ts + INTERVAL 300 SECOND AS e
      FROM events
    ),
    m AS (
      SELECT user_id, s, e,
             max(e) OVER (PARTITION BY user_id ORDER BY s, e
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING) AS prev_max
      FROM e
    ),
    isl AS (
      SELECT user_id, s, e,
             CAST(sum(CASE WHEN prev_max IS NULL OR s > prev_max
                           THEN 1 ELSE 0 END)
                  OVER (PARTITION BY user_id ORDER BY s, e
                        ROWS UNBOUNDED PRECEDING) AS BIGINT) AS island
      FROM m
    ),
    agg AS (
      SELECT user_id, island, min(s) AS st, max(e) AS en
      FROM isl GROUP BY user_id, island
    )
    SELECT user_id,
           count(*) AS n_islands,
           CAST(sum(epoch_us(en) - epoch_us(st)) AS BIGINT)
             AS covered_us
    FROM agg GROUP BY user_id
    """,
)
def events_interval_coverage(sf_dir: str):
    """Union-of-intervals coverage per user (gaps-and-islands): every
    event opens a 300-second activity window; overlapping/adjacent
    windows merge into islands, and the answer is each user's island
    count plus total covered MICROSECONDS — time-on-site / uptime /
    dwell accounting, the interval-union shape that naive
    sum-of-durations double-counts. Exact integer arithmetic
    throughout (timestamps are int64 µs).

    Shape: ONE user-keyed task scatter; inside a bucket the sweep is
    vectorized polars — sort by (user, start), per-user running max
    of window ends (cum_max over the user partition), an island
    starts where start > previous running max, then two group_bys
    (per-island extent, per-user fold). Nothing leaves the bucket but
    the per-user result rows."""
    from .stages.shardutil import scatter_apply_by_value

    W_US = 300_000_000
    nb = 16
    out_schema = pa.schema([("user_id", pa.int64()),
                            ("n_islands", pa.int64()),
                            ("covered_us", pa.int64())])

    def tag(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        h = u * np.uint64(0x9E3779B97F4A7C15)
        bk = ((h >> np.uint64(32)).astype(np.int64) % nb) \
            .astype(np.int32)
        ts = batch["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        return pa.table({
            "user_id": batch["user_id"],
            "ts_us": pa.array(ts, pa.int64()),
            "_bucket": pa.array(bk, pa.int32()),
        })

    def cover(tbl: pa.Table) -> pa.Table:
        import polars as pl

        if tbl.num_rows == 0:
            return out_schema.empty_table()
        df = pl.from_arrow(tbl.select(["user_id", "ts_us"]))
        df = (df.sort(["user_id", "ts_us"])
              .with_columns(e=pl.col("ts_us") + W_US)
              .with_columns(prev_max=pl.col("e").cum_max().shift(1)
                            .over("user_id"))
              .with_columns(start=(pl.col("prev_max").is_null()
                                   | (pl.col("ts_us")
                                      > pl.col("prev_max"))))
              .with_columns(island=pl.col("start").cast(pl.Int64)
                            .cum_sum().over("user_id")))
        agg = df.group_by(["user_id", "island"]).agg(
            st=pl.col("ts_us").min(), en=pl.col("e").max())
        out = agg.group_by("user_id").agg(
            n_islands=pl.len().cast(pl.Int64),
            covered_us=(pl.col("en") - pl.col("st")).sum())
        return out.to_arrow().cast(out_schema)

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    out = scatter_apply_by_value(
        ds.map_batches(tag, batch_format="pyarrow").materialize(),
        "_bucket", nb, cover, empty_result=out_schema.empty_table())
    return _collect(out, out_schema)


def _events_sessions_impl(sf_dir: str):
    from .stages.window import sessionize

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    return sessionize(ds, gap_s=4 * 3600.0, num_buckets=32)


@_q(
    "events_sufficient_stats",
    """
    SELECT event_type, count(*) AS n,
           CAST(sum(xc) AS BIGINT) AS sum_x,
           CAST(sum(hr) AS BIGINT) AS sum_y,
           CAST(sum(xc * xc) AS BIGINT) AS sum_xx,
           CAST(sum(hr * hr) AS BIGINT) AS sum_yy,
           CAST(sum(xc * hr) AS BIGINT) AS sum_xy
    FROM (SELECT event_type,
                 CAST(trunc(value * 100) AS BIGINT) AS xc,
                 CAST(extract(hour FROM ts) AS BIGINT) AS hr
          FROM events)
    GROUP BY event_type
    """,
)
def events_sufficient_stats(sf_dir: str):
    """Per-group sufficient statistics for regression / correlation
    (n, Σx, Σy, Σx², Σy², Σxy over integer cents × hour-of-day):
    the distributed-ML prep shape — exact integer moments that any
    consumer turns into slope/corr/r² without the engine ever shipping
    floats (integer sums are reduction-order-exact vs the oracle)."""
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    hour_us = 3_600_000_000

    def prep(batch: pa.Table) -> pa.Table:
        import numpy as np

        xc = _to_cents(batch["value"])
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        hr = pa.array((ts // hour_us) % 24, pa.int64())
        return pa.table({
            "event_type": batch["event_type"],
            "x": xc,
            "y": hr,
            "xx": pc.multiply(xc, xc),
            "yy": pc.multiply(hr, hr),
            "xy": pc.multiply(xc, hr),
        })

    out = bucket_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"), ["event_type"],
        [("count", None, "n"), ("sum", "x", "sum_x"),
         ("sum", "y", "sum_y"), ("sum", "xx", "sum_xx"),
         ("sum", "yy", "sum_yy"), ("sum", "xy", "sum_xy")],
        num_buckets=8)
    return _collect(out, pa.schema([
        ("event_type", pa.string()), ("n", pa.int64()),
        ("sum_x", pa.int64()), ("sum_y", pa.int64()),
        ("sum_xx", pa.int64()), ("sum_yy", pa.int64()),
        ("sum_xy", pa.int64())]))


@_q(
    "events_regression",
    """
    WITH s AS (
      SELECT event_type, count(*) AS n,
             CAST(sum(hr) AS BIGINT) AS sx,
             CAST(sum(xc) AS BIGINT) AS sy,
             CAST(sum(hr * hr) AS BIGINT) AS sxx,
             CAST(sum(xc * xc) AS BIGINT) AS syy,
             CAST(sum(hr * xc) AS BIGINT) AS sxy
      FROM (SELECT event_type,
                   CAST(trunc(value * 100) AS BIGINT) AS xc,
                   CAST(extract(hour FROM ts) AS BIGINT) AS hr
            FROM events)
      GROUP BY event_type
    )
    SELECT event_type, n,
           CASE WHEN (n * sxx - sx * sx) = 0 THEN NULL
                ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                     / CAST(n * sxx - sx * sx AS DOUBLE) END AS slope,
           CASE WHEN (n * sxx - sx * sx) = 0 THEN NULL
                ELSE (CAST(sy AS DOUBLE)
                      - (CAST(n * sxy - sx * sy AS DOUBLE)
                         / CAST(n * sxx - sx * sx AS DOUBLE))
                        * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE)
                END AS intercept,
           CASE WHEN (n * sxx - sx * sx) = 0
                     OR (n * syy - sy * sy) = 0 THEN NULL
                ELSE (CAST(n * sxy - sx * sy AS DOUBLE)
                      * CAST(n * sxy - sx * sy AS DOUBLE))
                     / (CAST(n * sxx - sx * sx AS DOUBLE)
                        * CAST(n * syy - sy * sy AS DOUBLE)) END AS r2
    FROM s
    """,
)
def events_regression(sf_dir: str):
    """Per-event-type least-squares fit of spend (integer cents)
    against hour-of-day — grouped linear regression from EXACT
    integer sufficient statistics (the distributed-ML prep shape
    shared with events_sufficient_stats): the shuffle moves six
    integer moments per group, never rows, and slope / intercept /
    r² are derived with the IDENTICAL float expressions on both
    sides, so the doubles are bitwise equal (integer sums are
    reduction-order-exact; each division/multiplication consumes
    exactly-converted int64 operands). Degenerate groups (zero
    x-variance or y-variance) yield NULL, same rule both sides."""
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    hour_us = 3_600_000_000

    def prep(batch: pa.Table) -> pa.Table:
        xc = _to_cents(batch["value"])
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        hr = pa.array((ts // hour_us) % 24, pa.int64())
        return pa.table({
            "event_type": batch["event_type"],
            "x": hr,
            "y": xc,
            "xx": pc.multiply(hr, hr),
            "yy": pc.multiply(xc, xc),
            "xy": pc.multiply(hr, xc),
        })

    stats = _collect(bucket_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"), ["event_type"],
        [("count", None, "n"), ("sum", "x", "sx"),
         ("sum", "y", "sy"), ("sum", "xx", "sxx"),
         ("sum", "yy", "syy"), ("sum", "xy", "sxy")],
        num_buckets=8), pa.schema([
            ("event_type", pa.string()), ("n", pa.int64()),
            ("sx", pa.int64()), ("sy", pa.int64()),
            ("sxx", pa.int64()), ("syy", pa.int64()),
            ("sxy", pa.int64())]))
    n = stats["n"].to_numpy()
    sx = stats["sx"].to_numpy()
    sy = stats["sy"].to_numpy()
    sxx = stats["sxx"].to_numpy()
    syy = stats["syy"].to_numpy()
    sxy = stats["sxy"].to_numpy()
    num = n * sxy - sx * sy
    denx = n * sxx - sx * sx
    deny = n * syy - sy * sy
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = num.astype(np.float64) / denx.astype(np.float64)
        intercept = (sy.astype(np.float64)
                     - slope * sx.astype(np.float64)) \
            / n.astype(np.float64)
        r2 = (num.astype(np.float64) * num.astype(np.float64)) \
            / (denx.astype(np.float64) * deny.astype(np.float64))
    return pa.table({
        "event_type": stats["event_type"],
        "n": stats["n"],
        "slope": pa.array(
            [None if denx[i] == 0 else float(slope[i])
             for i in range(len(n))], pa.float64()),
        "intercept": pa.array(
            [None if denx[i] == 0 else float(intercept[i])
             for i in range(len(n))], pa.float64()),
        "r2": pa.array(
            [None if denx[i] == 0 or deny[i] == 0 else float(r2[i])
             for i in range(len(n))], pa.float64()),
    })


@_q(
    "events_retention",
    """
    WITH firsts AS (
      SELECT user_id, min(CAST(ts AS DATE)) AS cohort
      FROM events GROUP BY user_id
    ), act AS (
      SELECT DISTINCT e.user_id, f.cohort,
             datediff('day', f.cohort, CAST(e.ts AS DATE)) AS day_offset
      FROM events e JOIN firsts f ON e.user_id = f.user_id
    )
    SELECT strftime(cohort, '%Y-%m-%d') AS cohort,
           day_offset, count(*) AS n_users
    FROM act WHERE day_offset <= 14
    GROUP BY cohort, day_offset
    """,
)
def events_retention(sf_dir: str):
    """Cohort retention: users grouped by first-activity date, distinct
    active users per (cohort, day-offset) for offsets 0..14. One
    user-bucket cogroup does everything — first-day, offsets, and
    per-user dedup are all local to a user's bucket (vectorized
    lexsort + boundary masks), so only (cohort, offset, partial count)
    rows ever shuffle into the final aggregate."""
    import numpy as np

    from .stages.shardutil import multiway_cogroup_scatter
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    day_us = np.int64(86_400_000_000)

    def per_bucket(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False)
        ts = group["ts"].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        day = ts // day_us  # epoch day (ts are all post-1970 here)
        order = np.lexsort((day, u))
        u_s, d_s = u[order], day[order]
        head = np.concatenate(([True], u_s[1:] != u_s[:-1]))
        # first day per user, broadcast to the user's run
        idx = np.maximum.accumulate(np.where(head, np.arange(len(u_s)), 0))
        cohort = d_s[idx]
        offset = d_s - cohort
        keep = offset <= 14
        # distinct (user, offset): sorted by (u, day) so equal-day
        # duplicates are adjacent
        first_pair = np.concatenate(
            ([True], (u_s[1:] != u_s[:-1]) | (d_s[1:] != d_s[:-1])))
        m = keep & first_pair
        return pa.table({
            "cohort_day": pa.array(cohort[m], pa.int64()),
            "day_offset": pa.array(offset[m], pa.int64()),
        })

    pairs = multiway_cogroup_scatter(
        [(ds, "user_id")], 32, per_bucket,
        empty_result=pa.schema([("cohort_day", pa.int64()),
                                ("day_offset", pa.int64())]).empty_table())
    counted = bucket_aggregate(pairs, ["cohort_day", "day_offset"],
                               [("count", None, "n_users")],
                               num_buckets=16, bucket_key="cohort_day")

    def fin(batch: pa.Table) -> pa.Table:
        days = batch["cohort_day"].to_numpy(zero_copy_only=False)
        dates = (days * day_us).astype("datetime64[us]").astype(
            "datetime64[D]")
        return pa.table({
            "cohort": pa.array(np.datetime_as_string(dates, unit="D")
                               .tolist(), pa.string()),
            "day_offset": batch["day_offset"],
            "n_users": batch["n_users"],
        })

    return _collect(counted.map_batches(fin, batch_format="pyarrow"),
                    pa.schema([("cohort", pa.string()),
                               ("day_offset", pa.int64()),
                               ("n_users", pa.int64())]))


@_q(
    "events_histogram_align",
    """
    WITH p AS (
      SELECT CAST(floor(value) AS BIGINT) AS b, count(*) AS n
      FROM events WHERE event_type = 'purchase' GROUP BY 1
    ), c AS (
      SELECT CAST(floor(value) AS BIGINT) AS b, count(*) AS n
      FROM events WHERE event_type = 'click' GROUP BY 1
    )
    SELECT COALESCE(p.b, c.b) AS b,
           COALESCE(p.n, 0) AS n_purchase,
           COALESCE(c.n, 0) AS n_click
    FROM p FULL OUTER JOIN c ON p.b = c.b
    """,
)
def events_histogram_align(sf_dir: str):
    """Distribution comparison: align the integer-bucket value
    histograms of two event types on one axis — a FULL OUTER cogroup
    join (both sides keep their one-sided buckets; the coalesced key
    comes back non-null). Each histogram is a map-side-combined bucket
    aggregate, so only (bucket, count) partials shuffle."""
    from .stages.joinutil import cogroup_join
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def hist_src(etype: str, alias: str):
        def f(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.equal(batch["event_type"], etype))
            return pa.table({
                alias: pc.cast(pc.floor(t["value"]), pa.int64())})
        return f

    p = bucket_aggregate(
        ds.map_batches(hist_src("purchase", "b"), batch_format="pyarrow"),
        ["b"], [("count", None, "n_purchase")], num_buckets=8)
    c = bucket_aggregate(
        ds.map_batches(hist_src("click", "cb"), batch_format="pyarrow"),
        ["cb"], [("count", None, "n_click")], num_buckets=8)
    joined = cogroup_join(
        p, c, left_on="b", right_on="cb", join_type="full outer",
        num_buckets=8,
        left_schema=pa.schema([("b", pa.int64()),
                               ("n_purchase", pa.int64())]),
        right_schema=pa.schema([("cb", pa.int64()),
                                ("n_click", pa.int64())]))

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "b": batch["b"],
            "n_purchase": pc.fill_null(batch["n_purchase"], 0),
            "n_click": pc.fill_null(batch["n_click"], 0),
        })

    return _collect(joined.map_batches(fin, batch_format="pyarrow"),
                    pa.schema([("b", pa.int64()),
                               ("n_purchase", pa.int64()),
                               ("n_click", pa.int64())]))


@_q(
    "events_funnel",
    """
    WITH marked AS (
      SELECT user_id, ts, event_type,
             CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                       > INTERVAL 4 HOUR THEN 1 ELSE 0 END AS new_s
      FROM events
    ),
    numbered AS (
      SELECT user_id, ts, event_type,
             sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                              ROWS UNBOUNDED PRECEDING) AS sess
      FROM marked
    ),
    s1 AS (
      SELECT user_id, sess, min(ts) AS t1 FROM numbered
      WHERE event_type = 'view' GROUP BY user_id, sess
    ),
    s2 AS (
      SELECT n.user_id, n.sess, min(n.ts) AS t2
      FROM numbered n JOIN s1 ON n.user_id = s1.user_id AND n.sess = s1.sess
      WHERE n.event_type = 'click' AND n.ts >= s1.t1
      GROUP BY n.user_id, n.sess
    ),
    s3 AS (
      SELECT n.user_id, n.sess, min(n.ts) AS t3
      FROM numbered n JOIN s2 ON n.user_id = s2.user_id AND n.sess = s2.sess
      WHERE n.event_type = 'purchase' AND n.ts >= s2.t2
      GROUP BY n.user_id, n.sess
    )
    SELECT 'view' AS stage, (SELECT count(*) FROM s1) AS n_sessions
    UNION ALL
    SELECT 'click', (SELECT count(*) FROM s2)
    UNION ALL
    SELECT 'purchase', (SELECT count(*) FROM s3)
    """,
)
def events_funnel(sf_dir: str):
    """Ordered-stage funnel (view -> click -> purchase) over 4-hour gap
    sessions: a session reaches stage k when a stage-k event occurs at
    or after its first qualifying stage-(k-1) event. One user-bucket
    cogroup; per bucket each stage is a masked per-segment
    minimum.reduceat — no joins, no per-session Python
    (stages/window.funnel_sessions)."""
    from ray.data.aggregate import Sum

    from .stages.window import funnel_sessions

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    partials = funnel_sessions(
        ds, stages=("view", "click", "purchase"), gap_s=4 * 3600.0,
        num_buckets=32)
    out = partials.groupby("stage").aggregate(
        Sum("n_sessions", alias_name="n_sessions"))
    return _collect(out, pa.schema([("stage", pa.string()),
                                    ("n_sessions", pa.int64())]))


# ---------------------------------------------------------------------------
# Embeddings: per-label centroid — mergeable vector aggregate. Partials
# are integer micro-unit sums (exact under any reduction order), so the
# engine matches the SQL oracle bit-for-bit.
# ---------------------------------------------------------------------------

@_q(
    "embedding_centroids",
    """
    SELECT label, i AS dim,
           CAST(sum(CAST(trunc(CAST(e AS DOUBLE) * 1000000) AS BIGINT))
                AS DOUBLE) / count(*) / 1000000.0 AS c
    FROM (SELECT label, unnest(embedding) AS e,
                 generate_subscripts(embedding, 1) AS i
          FROM embeddings)
    GROUP BY label, i
    """,
)
def embedding_centroids(sf_dir: str):
    """Mean embedding per label: per-batch combiner does one
    ``np.add.at`` of trunc(v·1e6) int64 sums per label (zero-copy
    matrix view of the list column), emitting |labels|·d partial rows;
    one coarse-bucket merge sums partials. The shuffle moves
    |labels|·d·|blocks| ints — never a vector row."""
    from .functions.arrays import list_column_to_matrix
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        labels = batch["label"].to_numpy(zero_copy_only=False)
        mat = list_column_to_matrix(batch["embedding"], np.float64)
        ints = np.trunc(mat * 1e6).astype(np.int64)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), mat.shape[1]), np.int64)
        np.add.at(sums, inv, ints)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        d = mat.shape[1]
        return pa.table({
            "label": pa.array(np.repeat(uniq, d), pa.int32()),
            "dim": pa.array(np.tile(np.arange(1, d + 1), len(uniq)),
                            pa.int64()),
            "s": pa.array(sums.ravel(), pa.int64()),
            "n": pa.array(np.repeat(counts, d), pa.int64()),
        })

    part = ds.map_batches(partial, batch_format="pyarrow")
    out = bucket_aggregate(part, ["label", "dim"],
                           [("sum", "s", "s"), ("sum", "n", "n")],
                           num_buckets=16)

    def fin(batch: pa.Table) -> pa.Table:
        s = batch["s"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"label": batch["label"], "dim": batch["dim"],
                         "c": pa.array(s / n / 1e6, pa.float64())})

    out = out.map_batches(fin, batch_format="pyarrow")
    return _collect(out, pa.schema([("label", pa.int32()),
                                    ("dim", pa.int64()),
                                    ("c", pa.float64())]))


# ---------------------------------------------------------------------------
# Documents: overlapping token-window chunking (RAG / pre-tokenization
# staple) — pure flat-map, one binary_join per batch
# ---------------------------------------------------------------------------

@_q(
    "doc_chunks",
    r"""
    WITH words AS (
      SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
      FROM documents
    ),
    idx AS (
      SELECT doc_id, w, unnest(range(1, len(w) + 1, 6)) AS i FROM words
    )
    SELECT doc_id, CAST((i - 1) / 6 AS BIGINT) AS chunk_id,
           array_to_string(w[i:least(i + 7, len(w))], ' ') AS chunk,
           least(i + 7, len(w)) - i + 1 AS n_tokens
    FROM idx
    """,
)
def doc_chunks(sf_dir: str):
    """8-token windows at stride 6 (2-token overlap) over every
    document (stages/chunk.py): vectorized split, CSR window
    expansion, one Arrow binary_join — no per-chunk Python. Zero
    shuffles; chunk_id is dense per doc."""
    from .stages.chunk import chunk_documents

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = chunk_documents(ds, size=8, stride=6)
    return _collect(out, pa.schema([("doc_id", pa.int64()),
                                    ("chunk_id", pa.int64()),
                                    ("chunk", pa.string()),
                                    ("n_tokens", pa.int64())]))


# ---------------------------------------------------------------------------
# Embeddings: symmetric int8 quantization (model-compression staple).
# Pure map — zero shuffles; exact integer parity with the SQL oracle.
# ---------------------------------------------------------------------------

@_q(
    "embedding_quantize_int8",
    """
    SELECT vec_id, i AS dim,
           CAST(trunc(CAST(e AS DOUBLE) / m * 127.0) AS TINYINT) AS code
    FROM (SELECT vec_id, unnest(embedding) AS e,
                 generate_subscripts(embedding, 1) AS i,
                 list_max(list_transform(embedding, x -> abs(x))) AS m
          FROM embeddings)
    WHERE m > 0
    """,
)
def embedding_quantize_int8(sf_dir: str):
    """Per-vector symmetric int8 quantization: code =
    trunc(e / max|e| · 127) — one zero-copy matrix view per batch,
    all-zero vectors dropped (no scale). A pure map stage: the 4x
    compression this buys is exactly what ships to the ANN/near-dup
    stages at 100 TB."""
    from .functions.arrays import list_column_to_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def quant(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        mat = list_column_to_matrix(batch["embedding"], np.float32)
        m = np.abs(mat).max(axis=1)
        keep = m > 0
        ids, mat, m = ids[keep], mat[keep], m[keep]
        codes = np.trunc(mat.astype(np.float64)
                         / m.astype(np.float64)[:, None] * 127.0) \
            .astype(np.int8)
        d = mat.shape[1]
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, d), pa.int64()),
            "dim": pa.array(np.tile(np.arange(1, d + 1), len(ids)),
                            pa.int64()),
            "code": pa.array(codes.ravel(), pa.int8()),
        })

    out = ds.map_batches(quant, batch_format="pyarrow")
    return _collect(out, pa.schema([("vec_id", pa.int64()),
                                    ("dim", pa.int64()),
                                    ("code", pa.int8())]))


# ---------------------------------------------------------------------------
# Embeddings ⋈ documents: cross-modal join + per-language centroid.
# Both sides are corpus-sized at scale -> bucket-cogroup hash join,
# then the same exact integer-microunit vector aggregate.
# ---------------------------------------------------------------------------

@_q(
    "lang_centroids",
    """
    SELECT d.lang AS lang, i AS dim,
           CAST(sum(CAST(trunc(CAST(e AS DOUBLE) * 1000000) AS BIGINT))
                AS DOUBLE) / count(*) / 1000000.0 AS c
    FROM (SELECT vec_id, unnest(embedding) AS e,
                 generate_subscripts(embedding, 1) AS i
          FROM embeddings) v
    JOIN documents d ON v.vec_id = d.doc_id
    GROUP BY d.lang, i
    """,
)
def lang_centroids(sf_dir: str):
    """Mean embedding per document language: embeddings ⋈ documents on
    id (cogroup hash join — both sides corpus-sized, one shuffle each),
    then per-batch int64 micro-unit partial sums per lang merged in a
    coarse-bucket cogroup (exact under any reduction order)."""
    from .functions.arrays import list_column_to_matrix
    from .stages.joinutil import cogroup_join
    from .stages.skew import bucket_aggregate

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])

    # embedding width probed from one row (schema carries only
    # list<float>, not the fixed dim)
    import pyarrow.parquet as _pq

    probe = next(_pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
                 .iter_batches(batch_size=1, columns=["embedding"]))
    dim = len(probe["embedding"][0])

    # Arrow's local join rejects list<float> payload columns — ship the
    # vector as one binary blob per row (zero-copy view of the child
    # buffer), decode with a single frombuffer after the join
    def pack(batch: pa.Table) -> pa.Table:
        mat = list_column_to_matrix(batch["embedding"], np.float32)
        blob = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(mat.shape[1] * 4), mat.shape[0],
            [None, pa.py_buffer(np.ascontiguousarray(mat).tobytes())])
        return pa.table({"vec_id": batch["vec_id"], "emb": blob})

    joined = cogroup_join(
        emb.map_batches(pack, batch_format="pyarrow"), docs,
        left_on="vec_id", right_on="doc_id",
        num_buckets=16,
        left_schema=pa.schema([("vec_id", pa.int64()),
                               ("emb", pa.binary(dim * 4))]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("lang", pa.string())]))

    def partial(batch: pa.Table) -> pa.Table:
        langs = batch["lang"]
        enc = langs.combine_chunks().dictionary_encode() \
            if isinstance(langs, pa.ChunkedArray) \
            else langs.dictionary_encode()
        inv = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        col = batch["emb"].combine_chunks() \
            if isinstance(batch["emb"], pa.ChunkedArray) else batch["emb"]
        width = col.type.byte_width
        mat = np.frombuffer(
            col.buffers()[-1], np.float32,
            count=len(col) * (width // 4),
            offset=col.offset * width,
        ).reshape(len(col), width // 4).astype(np.float64)
        ints = np.trunc(mat * 1e6).astype(np.int64)
        sums = np.zeros((len(enc.dictionary), mat.shape[1]), np.int64)
        np.add.at(sums, inv, ints)
        counts = np.bincount(inv, minlength=len(enc.dictionary)) \
            .astype(np.int64)
        d = mat.shape[1]
        return pa.table({
            "lang": enc.dictionary.take(
                pa.array(np.repeat(np.arange(len(enc.dictionary)), d),
                         pa.int64())),
            "dim": pa.array(np.tile(np.arange(1, d + 1),
                                    len(enc.dictionary)), pa.int64()),
            "s": pa.array(sums.ravel(), pa.int64()),
            "n": pa.array(np.repeat(counts, d), pa.int64()),
        })

    part = joined.map_batches(partial, batch_format="pyarrow")
    out = bucket_aggregate(part, ["lang", "dim"],
                           [("sum", "s", "s"), ("sum", "n", "n")],
                           num_buckets=8)

    def fin(batch: pa.Table) -> pa.Table:
        s = batch["s"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"lang": batch["lang"], "dim": batch["dim"],
                         "c": pa.array(s / n / 1e6, pa.float64())})

    out = out.map_batches(fin, batch_format="pyarrow")
    return _collect(out, pa.schema([("lang", pa.string()),
                                    ("dim", pa.int64()),
                                    ("c", pa.float64())]))


# ---------------------------------------------------------------------------
# Events ⋉ orders: Bloom-prefiltered semi-join (broadcast bits instead
# of shuffling the corpus-sized side; exact verify restores set parity)
# ---------------------------------------------------------------------------

@_q(
    "events_of_big_spenders",
    """
    SELECT event_type, count(*) AS n_events,
           count(DISTINCT user_id) AS n_users
    FROM events
    WHERE user_id IN (SELECT o_custkey FROM orders
                      WHERE o_totalprice > 480000)
    GROUP BY event_type
    """,
)
def events_of_big_spenders(sf_dir: str):
    """Semi-join events to customers holding a >480k order
    (stages/bloom.py): per-block Bloom partials OR-merged, broadcast
    once; batches drop non-members at k bit probes/row, exact-verified
    against the broadcast key set. The corpus side never shuffles on
    the join key — only the post-filter aggregate exchanges rows."""
    from .stages.bloom import semi_join_bloom
    from .stages.skew import bucket_aggregate

    events = _read(sf_dir, "events", ["event_type", "user_id"])
    spenders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .filter(expr="o_totalprice > 480000")
    kept = semi_join_bloom(events, spenders, on="user_id",
                           small_on="o_custkey", n_expected=4096)
    # distinct-user count: dedup (event_type, user_id) first — both
    # steps ride the same coarse bucket cogroup
    pairs = bucket_aggregate(kept, ["event_type", "user_id"],
                             [("count", None, "n")])
    out = bucket_aggregate(pairs, ["event_type"],
                           [("sum", "n", "n_events"),
                            ("count", None, "n_users")])
    return _collect(out.select_columns(["event_type", "n_events",
                                        "n_users"]),
                    pa.schema([("event_type", pa.string()),
                               ("n_events", pa.int64()),
                               ("n_users", pa.int64())]))


# ---------------------------------------------------------------------------
# Events: broadcast interval join (non-equi range join; bands OVERLAP so
# a row can match several — join semantics, not binning)
# ---------------------------------------------------------------------------

_VALUE_BANDS = [("low", 0.0, 60.0), ("mid", 30.0, 120.0),
                ("high", 90.0, 1e18)]


@_q(
    "events_value_bands",
    """
    SELECT b.band AS band, count(*) AS n,
           CAST(sum(CAST(trunc(e.value * 100) AS BIGINT)) AS BIGINT)
             / 100.0 AS total
    FROM events e
    JOIN (VALUES ('low', 0.0, 60.0), ('mid', 30.0, 120.0),
                 ('high', 90.0, 1e18)) AS b(band, lo, hi)
      ON e.value >= b.lo AND e.value < b.hi
    GROUP BY b.band
    """,
)
def events_value_bands(sf_dir: str):
    """Range join events.value against overlapping [lo, hi) bands
    (stages/rangejoin.py): elementary-segment index broadcast once,
    one searchsorted per batch, then a 3-key count/sum aggregate with
    exact integer cents."""
    from .stages.rangejoin import interval_join
    from .stages.skew import bucket_aggregate

    bands = pa.table({
        "band": pa.array([b[0] for b in _VALUE_BANDS], pa.string()),
        "lo": pa.array([b[1] for b in _VALUE_BANDS], pa.float64()),
        "hi": pa.array([b[2] for b in _VALUE_BANDS], pa.float64()),
    })
    ds = _read(sf_dir, "events", ["value"])

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table({"band": batch["band"],
                         "v": _to_cents(batch["value"])})

    joined = interval_join(ds, bands, on="value") \
        .map_batches(cents, batch_format="pyarrow")
    out = bucket_aggregate(joined, ["band"],
                           [("count", None, "n"), ("sum", "v", "cents")])

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "band": batch["band"],
            "n": batch["n"],
            "total": pc.divide(pc.cast(batch["cents"], pa.float64()),
                               pa.scalar(100.0)),
        })

    out = out.map_batches(fin, batch_format="pyarrow")
    return _collect(out, pa.schema([("band", pa.string()),
                                    ("n", pa.int64()),
                                    ("total", pa.float64())]))


# ---------------------------------------------------------------------------
# Events: trailing time-range rolling aggregate (custom windowed-aggregate
# operator, oracle = SQL RANGE window frame)
# ---------------------------------------------------------------------------

@_q(
    "events_rolling_1h",
    """
    SELECT event_id,
           count(*) OVER w AS win_n,
           CAST(sum(CAST(trunc(value * 100) AS BIGINT)) OVER w AS BIGINT)
             / 100.0 AS win_total
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
    """,
)
def events_rolling_1h(sf_dir: str):
    """Per-event trailing 1-hour window over the same user's events
    (stages/window.py rolling_window): user-bucketed cogroups, ONE
    searchsorted pair per bucket via disjoint per-segment time domains,
    cumsum differencing for the sums — exact integer cents, RANGE-frame
    tie semantics (peers included)."""
    from .stages.window import rolling_window

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = rolling_window(ds, window_s=3600.0, num_buckets=32)
    return _collect(out, pa.schema([("event_id", pa.int64()),
                                    ("win_n", pa.int64()),
                                    ("win_total", pa.float64())]))


# ---------------------------------------------------------------------------
# Events ⋈ customer with skew-aware routing: MG sketch finds hot users,
# their join goes map-side broadcast; cold keys take the cogroup path.
# Same inner-join output either way -> plain SQL oracle.
# ---------------------------------------------------------------------------

@_q(
    "events_nation_join_skew",
    """
    SELECT c.c_nationkey AS nation, count(*) AS n,
           CAST(sum(CAST(trunc(e.value * 100) AS BIGINT)) AS BIGINT)
             / 100.0 AS total
    FROM events e JOIN customer c ON e.user_id = c.c_custkey
    GROUP BY c.c_nationkey
    """,
)
def events_nation_join_skew(sf_dir: str):
    """events ⋈ customer on user key via stages/skewjoin.py: the MG
    sketch measures event-per-user counts up front; users above the
    hot threshold join map-side against broadcast customer rows, the
    rest through the bucket cogroup — a hot user's rows never
    serialize into one reduce task. Threshold is set low here so BOTH
    paths execute at test scale."""
    from .stages.skew import bucket_aggregate
    from .stages.skewjoin import skew_aware_join

    events = _read(sf_dir, "events", ["user_id", "value"]) \
        .map_batches(lambda b: pa.table({"user_id": b["user_id"],
                                         "v": _to_cents(b["value"])}),
                     batch_format="pyarrow")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = skew_aware_join(
        events, cust, left_on="user_id", right_on="c_custkey",
        left_schema=pa.schema([("user_id", pa.int64()),
                               ("v", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("c_nationkey", pa.int32())]),
        hot_min_est=60, num_buckets=16)
    out = bucket_aggregate(
        joined.select_columns(["c_nationkey", "v"]), ["c_nationkey"],
        [("count", None, "n"), ("sum", "v", "cents")], num_buckets=4)

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "nation": batch["c_nationkey"],
            "n": batch["n"],
            "total": pc.divide(pc.cast(batch["cents"], pa.float64()),
                               pa.scalar(100.0)),
        })

    return _collect(out.map_batches(fin, batch_format="pyarrow"),
                    pa.schema([("nation", pa.int32()),
                               ("n", pa.int64()),
                               ("total", pa.float64())]))


# ---------------------------------------------------------------------------
# Sessions ⋈ campaign windows: interval-OVERLAP join composed on top of
# sessionization (a session matches every window it intersects)
# ---------------------------------------------------------------------------

_CAMPAIGNS = [("week1", "2024-01-01 00:00:00", "2024-01-08 00:00:00"),
              ("mid", "2024-01-10 00:00:00", "2024-01-20 00:00:00"),
              ("late", "2024-01-15 00:00:00", "2024-01-31 00:00:00")]


_CAMPAIGN_VALUES = ", ".join(
    f"('{n}', '{lo}', '{hi}')" for n, lo, hi in _CAMPAIGNS)


@_q(
    "sessions_in_campaigns",
    """
    WITH marked AS (
      SELECT user_id, ts,
             CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                       > INTERVAL 4 HOUR THEN 1 ELSE 0 END AS new_s
      FROM events
    ),
    numbered AS (
      SELECT user_id, ts,
             CAST(sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                                   ROWS UNBOUNDED PRECEDING) AS BIGINT) AS sess
      FROM marked
    ),
    sess AS (
      SELECT user_id, sess,
             strftime(min(ts), '%Y-%m-%d %H:%M:%S') AS s_start,
             strftime(max(ts), '%Y-%m-%d %H:%M:%S') AS s_end
      FROM numbered GROUP BY user_id, sess
    )
    SELECT c.campaign, count(*) AS n_sessions
    FROM sess s
    JOIN (VALUES {campaign_values})
         c(campaign, lo, hi)
      ON s.s_start < c.hi AND s.s_end >= c.lo
    GROUP BY c.campaign
    """.format(campaign_values=_CAMPAIGN_VALUES),
)
def sessions_in_campaigns(sf_dir: str):
    """Sessions per campaign window: sessionize (gap windows), then a
    broadcast interval-OVERLAP join ([start, end] ∩ [lo, hi) ≠ ∅ —
    overlapping windows multiply) and a 3-key count. Second-truncated
    ISO strings compare chronologically, so both sides use identical
    string comparisons."""
    from .stages.rangejoin import overlap_join
    from .stages.skew import bucket_aggregate
    from .stages.window import sessionize

    camp = pa.table({
        "campaign": pa.array([c[0] for c in _CAMPAIGNS], pa.string()),
        "lo": pa.array([c[1] for c in _CAMPAIGNS], pa.string()),
        "hi": pa.array([c[2] for c in _CAMPAIGNS], pa.string()),
    })
    sess = sessionize(_read(sf_dir, "events", ["user_id", "ts", "value"]),
                      gap_s=4 * 3600.0, num_buckets=32)
    joined = overlap_join(
        sess.select_columns(["session_start", "session_end"]), camp,
        start_col="session_start", end_col="session_end")
    out = bucket_aggregate(joined.select_columns(["campaign"]),
                           ["campaign"], [("count", None, "n_sessions")],
                           num_buckets=2)
    return _collect(out.select_columns(["campaign", "n_sessions"]),
                    pa.schema([("campaign", pa.string()),
                               ("n_sessions", pa.int64())]))


# ---------------------------------------------------------------------------
# Events: ROWS-frame window family (running total, trailing 5-row sum,
# lag delta) — one cogroup pass, oracle = three SQL window functions
# ---------------------------------------------------------------------------

@_q(
    "events_row_windows",
    """
    SELECT event_id,
           CAST(sum(CAST(trunc(value * 100) AS BIGINT))
                OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS UNBOUNDED PRECEDING) AS BIGINT) / 100.0
             AS run_total,
           CAST(sum(CAST(trunc(value * 100) AS BIGINT))
                OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
                AS BIGINT) / 100.0 AS winr_total,
           epoch_us(ts) - lag(epoch_us(ts))
             OVER (PARTITION BY user_id ORDER BY ts, event_id)
             AS prev_gap_us
    FROM events
    """,
)
def events_row_windows(sf_dir: str):
    """Running total + trailing 5-row sum + lag gap in ONE bucket
    cogroup (stages/window.row_windows): lexsorted (user, ts,
    event_id) segments, prefix-sum differencing, shifted deltas —
    exact integer cents, deterministic tie order."""
    from .stages.window import row_windows

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = row_windows(ds, rows_preceding=4, num_buckets=32)
    return _collect(out, pa.schema([("event_id", pa.int64()),
                                    ("run_total", pa.float64()),
                                    ("winr_total", pa.float64()),
                                    ("prev_gap_us", pa.int64())]))


# ---------------------------------------------------------------------------
# Events: as-of join (latest prior purchase per event) — custom temporal
# join operator, oracle = DuckDB native ASOF JOIN
# ---------------------------------------------------------------------------

@_q(
    "events_asof_purchase",
    """
    SELECT e.event_id, e.user_id,
           strftime(e.ts, '%Y-%m-%d %H:%M:%S') AS ts,
           strftime(p.ts, '%Y-%m-%d %H:%M:%S') AS last_purchase_ts,
           CAST(trunc(p.value * 100) AS BIGINT) / 100.0 AS last_purchase_value
    FROM (SELECT * FROM events WHERE event_type <> 'purchase') e
    ASOF JOIN (SELECT * FROM events WHERE event_type = 'purchase') p
      ON e.user_id = p.user_id AND e.ts >= p.ts
    """,
)
def events_asof_purchase(sf_dir: str):
    """For every non-purchase event, the user's latest purchase at or
    before it (stages/asof.py: bucketed cogroup + vectorized running
    last-right merge; inner semantics — events before any purchase
    drop)."""
    from .stages.asof import asof_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type", "value"])

    def split(want_purchase: bool):
        def fn(batch: pa.Table) -> pa.Table:
            m = pc.equal(batch["event_type"], "purchase")
            t = batch.filter(m if want_purchase else pc.invert(m))
            return t.drop_columns(["event_type"])

        return fn

    left = ev.map_batches(split(False), batch_format="pyarrow") \
             .drop_columns(["value"])
    right = ev.map_batches(split(True), batch_format="pyarrow") \
              .drop_columns(["event_id"])
    out = asof_join(
        left, right, key="user_id", ts="ts",
        right_cols=["ts", "value"], num_buckets=32, prefix="p_",
        # explicit schemas: both sides are lazy derived pipelines, and
        # Dataset.schema() on those would re-execute the events scan
        left_schema=pa.schema([("event_id", pa.int64()),
                               ("user_id", pa.int64()),
                               ("ts", pa.timestamp("us"))]),
        right_schema=pa.schema([("user_id", pa.int64()),
                                ("ts", pa.timestamp("us")),
                                ("value", pa.float64())]))

    def fin(batch: pa.Table) -> pa.Table:
        def s(col):
            # Arrow %S includes fractional seconds on sub-second
            # types; render then slice to seconds precision
            return pc.utf8_slice_codeunits(
                pc.strftime(col, format="%Y-%m-%d %H:%M:%S"), 0, 19)

        return pa.table({
            "event_id": batch["event_id"],
            "user_id": batch["user_id"],
            "ts": s(batch["ts"]),
            "last_purchase_ts": s(batch["p_ts"]),
            "last_purchase_value": pc.divide(
                pc.cast(pc.trunc(pc.multiply(batch["p_value"],
                                             pa.scalar(100.0))), pa.int64())
                .cast(pa.float64()), pa.scalar(100.0)),
        })

    return out.map_batches(fin, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Supplier x nation: cogroup-join operator under a SQL oracle (J1-style
# dimension join via the engine's bucket-cogroup hash join)
# ---------------------------------------------------------------------------

@_q(
    "supplier_nation_join",
    """
    SELECT s.s_suppkey, s.s_name, n.n_name,
           CAST(trunc(s.s_acctbal * 100) AS BIGINT) / 100.0 AS acctbal
    FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
    """,
)
def supplier_nation_join(sf_dir: str):
    """Dimension join through stages/joinutil.cogroup_join — the
    engine's robust hash join (Ray's native Dataset.join crashes on
    empty partitions; see joinutil docstring)."""
    from .stages.joinutil import cogroup_join

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name",
                                     "s_nationkey", "s_acctbal"])
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name"])
    joined = cogroup_join(sup, nat, left_on="s_nationkey",
                          right_on="n_nationkey", num_buckets=8)

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "s_suppkey": batch["s_suppkey"],
            "s_name": batch["s_name"],
            "n_name": batch["n_name"],
            "acctbal": pc.divide(
                pc.cast(_to_cents(batch["s_acctbal"]), pa.float64()),
                pa.scalar(100.0)),
        })

    return joined.map_batches(fin, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Documents: DSIR-style importance selection (Xie et al. 2023, "Data
# Selection for Language Models via Importance Resampling") — score
# every document by how much more likely its tokens are under a
# TARGET-domain unigram LM than under the raw-corpus LM, in exact
# integer bit arithmetic.
# ---------------------------------------------------------------------------

@_q(
    "doc_dsir_selection",
    r"""
    WITH tok AS (
      SELECT doc_id, lang,
             unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t
      FROM documents
    ),
    cnt AS (
      SELECT t, count(*) AS c_raw,
             count(*) FILTER (WHERE lang = 'en') AS c_tgt
      FROM tok GROUP BY t
    ),
    tot AS (
      SELECT sum(c_raw) AS n_raw, sum(c_tgt) AS n_tgt, count(*) AS v
      FROM cnt
    )
    SELECT doc_id, count(*) AS n_tokens,
           CAST(sum(
             length(bin(((SELECT n_raw + v FROM tot)) // (c_raw + 1)))
             - length(bin(((SELECT n_tgt + v FROM tot)) // (c_tgt + 1)))
           ) AS BIGINT) AS dsir_bits,
           CAST(sum(
             length(bin(((SELECT n_raw + v FROM tot)) // (c_raw + 1)))
             - length(bin(((SELECT n_tgt + v FROM tot)) // (c_tgt + 1)))
           ) AS BIGINT) >= 0 AS selected
    FROM tok JOIN cnt USING (t)
    GROUP BY doc_id
    """,
)
def _dsir_ds(sf_dir: str):
    """DSIR-style data selection: importance weight of each document
    under a target-domain LM (here: the lang='en' slice) vs the raw
    corpus LM, both Laplace-smoothed unigram models over the shared
    vocabulary. Per-token weight is the INTEGER surprisal difference
    bit_length((N_raw+V)//(c_raw+1)) - bit_length((N_tgt+V)//(c_tgt+1))
    (functions/hashing.bit_length_u64 — exact shift arithmetic, so
    Ray and DuckDB agree bit-for-bit; same discipline as
    doc_unigram_surprisal). selected = dsir_bits >= 0, i.e. the doc
    reads more target-like than corpus-average.

    Scale shape: ONE tf pass carrying a pre-masked tgt_tf column (so
    raw and target counts come out of a single vocab-bucket
    aggregate — no second pass, no full-outer vocab join), scalar
    totals folded on the driver from the pinned tf blocks (no
    exchange), one term-bucket cogroup join, one per-doc bucket
    aggregate. Two exchanges + one join total, independent of corpus
    size."""
    import polars as pl

    from .functions.hashing import bit_length_u64
    from .stages.joinutil import cogroup_join
    from .stages.skew import bucket_aggregate

    tf_schema = pa.schema([("doc_id", pa.int64()), ("term", pa.string()),
                           ("tf", pa.int64()), ("tgt_tf", pa.int64())])

    def tf_batch(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = (df.with_columns(
            pl.col("text").str.to_lowercase()
              .str.extract_all(r"[a-z0-9]+").alias("term"))
            .drop("text").explode("term")
            .filter(pl.col("term").is_not_null())
            .group_by(["doc_id", "term"])
            .agg(pl.len().alias("tf"),
                 (pl.col("lang") == "en").sum().alias("tgt_tf")))
        return out.to_arrow().cast(tf_schema)

    nb = _adaptive_buckets(sf_dir, "documents")
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    # materialized: consumed by the count aggregate AND the join left
    tf_ds = ds.map_batches(tf_batch, batch_format="pyarrow").materialize()
    cnt_ds = bucket_aggregate(
        tf_ds.select_columns(["term", "tf", "tgt_tf"]), ["term"],
        [("sum", "tf", "c_raw"), ("sum", "tgt_tf", "c_tgt")],
        num_buckets=nb).materialize()

    # scalars (N_raw, N_tgt, V): map-side partials over the pinned
    # vocab blocks, folded on the driver — no extra exchange
    n_raw = n_tgt = vocab = 0
    for b in cnt_ds.map_batches(
            lambda b: pa.table({
                "r": [pc.sum(b["c_raw"]).as_py() or 0],
                "t": [pc.sum(b["c_tgt"]).as_py() or 0],
                "v": [b.num_rows]}),
            batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        n_raw += int(pc.sum(b["r"]).as_py() or 0)
        n_tgt += int(pc.sum(b["t"]).as_py() or 0)
        vocab += int(pc.sum(b["v"]).as_py() or 0)

    joined = cogroup_join(
        tf_ds, cnt_ds, left_on="term", right_on="term",
        join_type="inner", num_buckets=nb, left_schema=tf_schema,
        right_schema=pa.schema([("term", pa.string()),
                                ("c_raw", pa.int64()),
                                ("c_tgt", pa.int64())]))

    def score(batch: pa.Table, _raw=n_raw + vocab,
              _tgt=n_tgt + vocab) -> pa.Table:
        c_raw = batch["c_raw"].to_numpy(zero_copy_only=False)
        c_tgt = batch["c_tgt"].to_numpy(zero_copy_only=False)
        tf = batch["tf"].to_numpy(zero_copy_only=False)
        bits_raw = bit_length_u64(
            (np.uint64(_raw) // (c_raw + 1).astype(np.uint64)))
        bits_tgt = bit_length_u64(
            (np.uint64(_tgt) // (c_tgt + 1).astype(np.uint64)))
        return pa.table({"doc_id": batch["doc_id"],
                         "n_tokens": tf,
                         "w_bits": tf * (bits_raw - bits_tgt)})

    out = bucket_aggregate(
        joined.map_batches(score, batch_format="pyarrow"), ["doc_id"],
        [("sum", "n_tokens", "n_tokens"), ("sum", "w_bits", "dsir_bits")],
        num_buckets=nb)

    def fin(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "selected", pc.greater_equal(batch["dsir_bits"],
                                         pa.scalar(0, pa.int64())))

    return out.map_batches(fin, batch_format="pyarrow")


_DSIR_SCHEMA = pa.schema([("doc_id", pa.int64()),
                          ("n_tokens", pa.int64()),
                          ("dsir_bits", pa.int64()),
                          ("selected", pa.bool_())])


def doc_dsir_selection(sf_dir: str):
    """Collected wrapper of _dsir_ds (the registered gate entry —
    _collect keeps the schema stable even on empty results)."""
    return _collect(_dsir_ds(sf_dir), _DSIR_SCHEMA)


QUERIES["doc_dsir_selection"] = doc_dsir_selection


# ---------------------------------------------------------------------------
# Events: winsorized robust aggregate — clip to per-key [p01, p99]
# before summing (the tail-taming companion of the MAD gate)
# ---------------------------------------------------------------------------

@_q(
    "events_value_winsorized",
    """
    WITH q AS (
      SELECT event_type,
             quantile_disc(value, 0.01) AS p01,
             quantile_disc(value, 0.99) AS p99
      FROM events GROUP BY event_type
    )
    SELECT e.event_type, count(*) AS n,
           CAST(sum(CAST(trunc(least(greatest(e.value, q.p01), q.p99)
                               * 100) AS BIGINT)) AS BIGINT)
             AS winsorized_cents,
           CAST(sum(CASE WHEN e.value < q.p01 OR e.value > q.p99
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_clipped
    FROM events e JOIN q USING (event_type)
    GROUP BY e.event_type
    """,
)
def events_value_winsorized(sf_dir: str):
    """Winsorized per-key totals: values clip to the key's exact
    [p01, p99] (quantile_disc element picks — the SAME doubles on both
    engines) before truncating to integer cents and summing, plus the
    clipped-row count. The robust-total companion of the MAD outlier
    gate: a fat-finger value moves the total by at most the p99 bound.
    Shape: one per_key_quantiles pass, the dimension-sized bound map
    broadcast into a stateless clip map, one bucket aggregate —
    integer sums keep any reduction order oracle-exact."""
    from .stages.quantile import per_key_quantiles
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "events", ["event_type", "value"])
    bounds = {r["event_type"]: (r["p01"], r["p99"])
              for b in per_key_quantiles(ds, "event_type", "value",
                                         {"p01": 0.01, "p99": 0.99})
              .iter_batches(batch_format="pyarrow")
              for r in b.to_pylist()}

    keys = pa.array(sorted(bounds), pa.string())
    lo_arr = np.array([bounds[k][0] for k in sorted(bounds)], np.float64)
    hi_arr = np.array([bounds[k][1] for k in sorted(bounds)], np.float64)

    def clip(batch: pa.Table, _k=keys, _lo=lo_arr, _hi=hi_arr) -> pa.Table:
        # vectorized bound lookup: index_in + take (a per-row dict
        # lookup over the to_pylist'ed key column measured 12.8 s for
        # this 100k-row pipeline; this form runs in ~1s)
        idx = pc.index_in(batch["event_type"], value_set=_k)             .to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch["value"].to_numpy(zero_copy_only=False)
        lo = _lo[idx]
        hi = _hi[idx]
        w = np.minimum(np.maximum(v, lo), hi)
        return pa.table({
            "event_type": batch["event_type"],
            "n": pa.array(np.ones(len(v), np.int64)),
            "winsorized_cents": pa.array(
                np.trunc(w * 100.0).astype(np.int64)),
            "n_clipped": pa.array(((v < lo) | (v > hi))
                                  .astype(np.int64)),
        })

    out = bucket_aggregate(
        ds.map_batches(clip, batch_format="pyarrow"), ["event_type"],
        [("sum", "n", "n"),
         ("sum", "winsorized_cents", "winsorized_cents"),
         ("sum", "n_clipped", "n_clipped")], num_buckets=4)
    return _collect(out, pa.schema([("event_type", pa.string()),
                                    ("n", pa.int64()),
                                    ("winsorized_cents", pa.int64()),
                                    ("n_clipped", pa.int64())]))


# ---------------------------------------------------------------------------
# Events: event-time tumbling windows with a WATERMARK and late-data
# accounting — the streaming semantics the reference has none of
# (SURVEY §2.9), made deterministic by defining arrival order as the
# event_id sequence
# ---------------------------------------------------------------------------

@_q(
    "events_watermark_windows",
    """
    WITH arr AS (
      SELECT ts,
             max(ts) OVER (ORDER BY (event_id // 8) * 8
                                    + ((event_id % 8) * 3 + 1) % 8
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND CURRENT ROW) AS wm_ts
      FROM events
    )
    SELECT CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS window_id,
           CAST(count(*) FILTER (WHERE epoch_us(wm_ts) - epoch_us(ts)
                                       <= 600000000) AS BIGINT)
             AS n_ontime,
           CAST(count(*) FILTER (WHERE epoch_us(wm_ts) - epoch_us(ts)
                                       > 600000000) AS BIGINT)
             AS n_late
    FROM arr GROUP BY window_id
    """,
)
def events_watermark_windows(sf_dir: str):
    """Event-time tumbling 1-hour windows under a watermark with 10
    minutes of allowed lateness — the classic streaming-semantics
    triple (event time vs arrival order, watermark as the running max
    of seen event times, late-data policy), deterministic because
    arrival order is a fixed BOUNDED-DISORDER permutation of the
    event_id sequence (a within-8-row-block bijection: the synthetic
    events arrive exactly in time order, which would never produce a
    late row; real streams have bounded skew, which this simulates
    without touching the data). A row is late when the
    watermark at its arrival has advanced more than the lateness bound
    past its own event time; per window the query reports on-time and
    late counts (a streaming runner would emit the on-time aggregate
    at watermark passage and route late rows to a side output).

    Shape: the watermark is an INCLUSIVE running max in arrival order
    = stages/scan.keyed_prefix_max (two-phase distributed scan: per-
    bucket maxima fold as num_buckets scalars on the driver, one pass
    adds bucket bases to local cummaxes — every row moves once), then
    one stateless window/late tag map and one tiny window aggregate."""
    from .stages.scan import keyed_prefix_max
    from .stages.skew import bucket_aggregate

    n = _meta_rows(sf_dir, "events")
    hour_us, late_us = 3_600_000_000, 600_000_000
    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def to_us(batch: pa.Table) -> pa.Table:
        e = batch["event_id"].to_numpy(zero_copy_only=False)
        arrival = (e // 8) * 8 + ((e % 8) * 3 + 1) % 8
        return pa.table({"arrival": pa.array(arrival, pa.int64()),
                         "ts_us": pc.cast(batch["ts"], pa.int64())})

    wm = keyed_prefix_max(
        ds.map_batches(to_us, batch_format="pyarrow"),
        key="arrival", value="ts_us", key_range=(0, n + 7),
        num_buckets=_adaptive_buckets(sf_dir, "events",
                                      rows_per_bucket=4000),
        out_col="wm_us")

    def tag(batch: pa.Table) -> pa.Table:
        ts = batch["ts_us"].to_numpy(zero_copy_only=False)
        w = batch["wm_us"].to_numpy(zero_copy_only=False)
        late = (w - ts > late_us)
        return pa.table({
            "window_id": pa.array(ts // hour_us, pa.int64()),
            "n_ontime": pa.array((~late).astype(np.int64)),
            "n_late": pa.array(late.astype(np.int64)),
        })

    out = bucket_aggregate(
        wm.map_batches(tag, batch_format="pyarrow"), ["window_id"],
        [("sum", "n_ontime", "n_ontime"), ("sum", "n_late", "n_late")],
        num_buckets=8)
    return _collect(out, pa.schema([("window_id", pa.int64()),
                                    ("n_ontime", pa.int64()),
                                    ("n_late", pa.int64())]))


# ---------------------------------------------------------------------------
# Documents: blocklist content gate — wordlist hit counting + a
# fraction threshold (the NSFW/toxicity lexicon gate of public corpus
# pipelines; the lexicon here is a neutral stand-in list)
# ---------------------------------------------------------------------------

_BLOCKLIST = ("slow", "big", "merge", "stream")  # stand-in lexicon
_BLOCK_RE = r"\b(" + "|".join(_BLOCKLIST) + r")\b"


@_q(
    "doc_blocklist_flags",
    rf"""
    SELECT doc_id,
           len(regexp_extract_all(lower(text), '{_BLOCK_RE}'))
             AS n_hits,
           len(regexp_extract_all(lower(text), '[a-z0-9]+'))
             AS n_tokens,
           len(regexp_extract_all(lower(text), '{_BLOCK_RE}')) * 100
             >= len(regexp_extract_all(lower(text), '[a-z0-9]+')) * 5
             AS flagged
    FROM documents
    """,
)
def doc_blocklist_flags(sf_dir: str):
    """Lexicon content gate (the Dolma/RedPajama-style blocklist
    filter, with a neutral stand-in wordlist): per document, blocklist
    hit count, token count, and a flag when hits reach 5% of tokens —
    the threshold test is integer cross-multiplication (hits*100 >=
    tokens*5) so no float ratio can flap the oracle. One zero-shuffle
    map of two vectorized RE2 counts; the compiled alternation rides
    the task closure (a real lexicon of thousands of terms would load
    once per actor exactly like stages/linker.py's label trie — that
    stage IS the scale path for big lexicons)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def flags(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(batch["text"])
        hits = pc.cast(pc.count_substring_regex(low, _BLOCK_RE),
                       pa.int64())
        toks = pc.cast(pc.count_substring_regex(low, r"[a-z0-9]+"),
                       pa.int64())
        h = hits.to_numpy(zero_copy_only=False)
        t = toks.to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": batch["doc_id"],
                         "n_hits": hits, "n_tokens": toks,
                         "flagged": pa.array(h * 100 >= t * 5)})

    return ds.map_batches(flags, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Events: robust per-key outlier detection via MAD (median absolute
# deviation) — the data-cleaning gate that mean/std can't provide on
# heavy-tailed value columns
# ---------------------------------------------------------------------------

@_q(
    "events_value_mad_outliers",
    """
    WITH med AS (
      SELECT event_type, quantile_disc(value, 0.5) AS med
      FROM events GROUP BY event_type
    ), dev AS (
      SELECT e.event_type, e.value, m.med,
             abs(e.value - m.med) AS adev
      FROM events e JOIN med m USING (event_type)
    ), mad AS (
      SELECT event_type, quantile_disc(adev, 0.5) AS mad FROM dev
      GROUP BY event_type
    )
    SELECT d.event_type,
           count(*) AS n,
           CAST(sum(CASE WHEN d.adev > 3 * mad.mad THEN 1 ELSE 0 END)
                AS BIGINT) AS n_outliers,
           min(d.med) AS med, min(mad.mad) AS mad
    FROM dev d JOIN mad USING (event_type)
    GROUP BY d.event_type
    """,
)
def events_value_mad_outliers(sf_dir: str):
    """Robust outlier counting: per event_type, median and MAD (the
    median of absolute deviations — both exact quantile_disc element
    picks, so the doubles match DuckDB bit-for-bit), then count values
    with |v - med| > 3*MAD. Mean/std clips badly on heavy tails; MAD
    is the standard robust gate. Shape: two per_key_quantiles passes
    (each one bucket cogroup + lexsort), medians/MADs broadcast as
    dimension-sized dicts into one stateless scoring map, one tiny
    final aggregate — the raw value column never shuffles twice."""
    from .stages.quantile import per_key_quantiles
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "events", ["event_type", "value"])
    med = {r["event_type"]: r["med"]
           for b in per_key_quantiles(ds, "event_type", "value",
                                      {"med": 0.5})
           .iter_batches(batch_format="pyarrow")
           for r in b.to_pylist()}

    med_keys = pa.array(sorted(med), pa.string())
    med_arr = np.array([med[k] for k in sorted(med)], np.float64)

    def adev(batch: pa.Table, _k=med_keys, _m=med_arr) -> pa.Table:
        idx = pc.index_in(batch["event_type"], value_set=_k)             .to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table({"event_type": batch["event_type"],
                         "adev": pa.array(np.abs(v - _m[idx]),
                                          pa.float64())})

    dev = ds.map_batches(adev, batch_format="pyarrow").materialize()
    mad = {r["event_type"]: r["mad"]
           for b in per_key_quantiles(dev, "event_type", "adev",
                                      {"mad": 0.5})
           .iter_batches(batch_format="pyarrow")
           for r in b.to_pylist()}

    mad_keys = pa.array(sorted(mad), pa.string())
    mad_arr = np.array([mad[k] for k in sorted(mad)], np.float64)

    def score(batch: pa.Table, _k=mad_keys, _mv=mad_arr) -> pa.Table:
        idx = pc.index_in(batch["event_type"], value_set=_k)             .to_numpy(zero_copy_only=False).astype(np.int64)
        a = batch["adev"].to_numpy(zero_copy_only=False)
        thr = 3.0 * _mv[idx]
        return pa.table({
            "event_type": batch["event_type"],
            "n": pa.array(np.ones(len(a), np.int64)),
            "n_outliers": pa.array((a > thr).astype(np.int64)),
        })

    out = bucket_aggregate(
        dev.map_batches(score, batch_format="pyarrow"), ["event_type"],
        [("sum", "n", "n"), ("sum", "n_outliers", "n_outliers")],
        num_buckets=4)

    def fin(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_pylist()
        return pa.table({
            "event_type": batch["event_type"],
            "n": batch["n"], "n_outliers": batch["n_outliers"],
            "med": pa.array([med[t] for t in et], pa.float64()),
            "mad": pa.array([mad[t] for t in et], pa.float64()),
        })

    return _collect(out.map_batches(fin, batch_format="pyarrow"),
                    pa.schema([("event_type", pa.string()),
                               ("n", pa.int64()),
                               ("n_outliers", pa.int64()),
                               ("med", pa.float64()),
                               ("mad", pa.float64())]))


# ---------------------------------------------------------------------------
# Documents: Unicode-normalization dedup — byte-different texts that
# are the same string after NFC + case folding collapse to one
# canonical doc (the step BEFORE exact hashing in a crawl pipeline)
# ---------------------------------------------------------------------------

@_q(
    "doc_normalize_dedup",
    """
    WITH n AS (
      SELECT doc_id, lower(nfc_normalize(text)) AS norm FROM documents
    )
    SELECT doc_id, min(doc_id) OVER (PARTITION BY norm) AS canonical_id
    FROM n
    """,
)
def _normalize_dedup_ds(sf_dir: str):
    """Normalization-aware exact dedup: texts equal after NFC
    normalization + Unicode lowercasing (both utf8proc semantics —
    Arrow's utf8_normalize/utf8_lower and DuckDB's nfc_normalize/lower
    agree) share one canonical_id = the group's min doc_id. This is
    the cleanup pass that catches composed-vs-decomposed accents and
    case variants that byte-exact content hashing misses. Shape: one
    vectorized normalize map, one bucket aggregate keyed on the
    normalized string (the exchange routes by the string's HASH —
    bucket_aggregate's bucket_key — while in-bucket grouping keys on
    the full string: exactly the prehash-then-verify shape a 100 TB
    run needs), one cogroup join back."""
    from .stages.joinutil import cogroup_join
    from .stages.skew import bucket_aggregate

    nb = _adaptive_buckets(sf_dir, "documents")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "norm": pc.utf8_lower(pc.utf8_normalize(batch["text"],
                                                    form="NFC")),
        })

    normed = ds.map_batches(norm, batch_format="pyarrow").materialize()
    canon = bucket_aggregate(normed, ["norm"],
                             [("min", "doc_id", "canonical_id")],
                             num_buckets=nb)
    joined = cogroup_join(
        normed, canon.map_batches(
            lambda b: pa.table({"cnorm": b["norm"],
                                "canonical_id": b["canonical_id"]}),
            batch_format="pyarrow"),
        left_on="norm", right_on="cnorm", join_type="inner",
        num_buckets=nb,
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("norm", pa.string())]),
        right_schema=pa.schema([("cnorm", pa.string()),
                                ("canonical_id", pa.int64())]))
    return joined.map_batches(
        lambda b: b.select(["doc_id", "canonical_id"]),
        batch_format="pyarrow")


def doc_normalize_dedup(sf_dir: str):
    """Collected wrapper of _normalize_dedup_ds (the registered gate
    entry)."""
    return _collect(_normalize_dedup_ds(sf_dir),
                    pa.schema([("doc_id", pa.int64()),
                               ("canonical_id", pa.int64())]))


QUERIES["doc_normalize_dedup"] = doc_normalize_dedup


# ---------------------------------------------------------------------------
# Documents: deterministic training shuffle — shard assignment + a
# pseudorandom within-shard order, stable under reruns
# ---------------------------------------------------------------------------

@_q(
    "doc_shard_shuffle",
    """
    WITH h AS (
      SELECT doc_id,
             (abs(doc_id) % 1000003) * 2654435761 % 1000003 AS hv
      FROM documents
    ), r AS (
      SELECT doc_id, hv, hv % 8 AS shard,
             row_number() OVER (PARTITION BY hv % 8
                                ORDER BY hv, doc_id) AS rk
      FROM h
    )
    SELECT shard, count(*) AS n_docs,
           CAST(sum(rk * doc_id) AS BIGINT) AS order_checksum
    FROM r GROUP BY shard
    """,
)
def doc_shard_shuffle(sf_dir: str):
    """Deterministic global shuffle for training-data serving: every
    document gets a shard (hash % 8) and a pseudorandom-but-stable
    within-shard position (order by hash, doc_id) — rerunning the
    pipeline reproduces byte-identical shard files, and appends don't
    reorder existing shards' relative order (hash order is
    content-independent). The SQL-expressible multiplicative hash is
    the same one the split/sample queries use. The oracle pins the
    PERMUTATION, not just membership: order_checksum = Σ rank*doc_id
    per shard differs if any two docs swap places. Shape: one
    vectorized hash map, one task-level scatter by shard, per-shard
    lexsort + rank — no global sort."""
    from .stages.shardutil import scatter_apply_by_value

    n_shards = 8
    ds = _read(sf_dir, "documents", ["doc_id"])

    def tag(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        hv = (np.abs(d) % 1000003) * 2654435761 % 1000003
        return pa.table({"doc_id": batch["doc_id"],
                         "hv": pa.array(hv, pa.int64()),
                         "_bucket": pa.array(hv % n_shards, pa.int64())})

    out_schema = pa.schema([("shard", pa.int64()),
                            ("n_docs", pa.int64()),
                            ("order_checksum", pa.int64())])

    def shard_stats(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        hv = t["hv"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, hv))
        rk = np.arange(1, len(d) + 1, dtype=np.int64)
        return pa.table({
            "shard": pa.array([int(hv[0] % n_shards)], pa.int64()),
            "n_docs": pa.array([len(d)], pa.int64()),
            "order_checksum": pa.array([int((rk * d[order]).sum())],
                                       pa.int64()),
        })

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    out = scatter_apply_by_value(tagged.materialize(), "_bucket",
                                 n_shards, shard_stats,
                                 empty_result=out_schema.empty_table())
    return _collect(out, out_schema)


# ---------------------------------------------------------------------------
# Orders: CDC-style MERGE/upsert (table maintenance: apply a change
# set of updates + inserts to a base table in one pass)
# ---------------------------------------------------------------------------

@_q(
    "orders_upsert_merge",
    """
    WITH base AS (
      SELECT o_orderkey, o_orderstatus,
             CAST(trunc(o_totalprice * 100) AS BIGINT) AS cents
      FROM orders
    ), upd AS (
      SELECT o_orderkey, 'U' AS o_orderstatus, cents + 10000 AS cents
      FROM base WHERE o_orderkey % 3 = 0
      UNION ALL
      SELECT -o_orderkey, 'N' AS o_orderstatus, cents
      FROM base WHERE o_orderkey % 7 = 0
    )
    SELECT coalesce(u.o_orderkey, b.o_orderkey) AS o_orderkey,
           coalesce(u.o_orderstatus, b.o_orderstatus) AS o_orderstatus,
           coalesce(u.cents, b.cents) AS total_cents,
           CASE WHEN u.o_orderkey IS NOT NULL AND b.o_orderkey IS NOT NULL
                  THEN 'update'
                WHEN u.o_orderkey IS NOT NULL THEN 'insert'
                ELSE 'keep' END AS op
    FROM base b FULL OUTER JOIN upd u ON b.o_orderkey = u.o_orderkey
    """,
)
def orders_upsert_merge(sf_dir: str):
    """Delta-style MERGE INTO: a deterministic change set (every 3rd
    orderkey updated with +100.00, every 7th mirrored as a brand-new
    negative-key insert) applied to the base table through ONE
    full-outer cogroup join — matched rows take the update, unmatched
    change rows insert, unmatched base rows pass through, and every
    output row is tagged with its merge op. The change set is derived
    from the MATERIALIZED base read (two consumers of one lazy read
    would re-execute it — the shared-lineage pitfall), and prices ride
    as integer cents so the upsert arithmetic is reduction-order-proof.
    At 100 TB the change set is normally a separate (much smaller)
    table; the join shape is identical."""
    from .stages.joinutil import cogroup_join

    base_schema = pa.schema([("o_orderkey", pa.int64()),
                             ("o_orderstatus", pa.string()),
                             ("cents", pa.int64())])

    def to_base(batch: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": batch["o_orderkey"],
                         "o_orderstatus": batch["o_orderstatus"],
                         "cents": _to_cents(batch["o_totalprice"])})

    base = _read(sf_dir, "orders",
                 ["o_orderkey", "o_orderstatus", "o_totalprice"]) \
        .map_batches(to_base, batch_format="pyarrow").materialize()

    def to_changes(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        upd = batch.filter(pa.array(k % 3 == 0))
        ins = batch.filter(pa.array(k % 7 == 0))
        return pa.table({
            "u_orderkey": pa.concat_arrays([
                upd["o_orderkey"].combine_chunks(),
                pc.negate(ins["o_orderkey"]).combine_chunks()]),
            "u_status": pa.concat_arrays([
                pa.array(["U"] * upd.num_rows, pa.string()),
                pa.array(["N"] * ins.num_rows, pa.string())]),
            "u_cents": pa.concat_arrays([
                pc.add(upd["cents"],
                       pa.scalar(10000, pa.int64())).combine_chunks(),
                ins["cents"].combine_chunks()]),
        })

    changes = base.map_batches(to_changes, batch_format="pyarrow")
    merged = cogroup_join(
        base, changes, left_on="o_orderkey", right_on="u_orderkey",
        join_type="full outer", num_buckets=16,
        left_schema=base_schema,
        right_schema=pa.schema([("u_orderkey", pa.int64()),
                                ("u_status", pa.string()),
                                ("u_cents", pa.int64())]))

    def fin(batch: pa.Table) -> pa.Table:
        # cogroup_join full outer coalesces KEYS (both key columns are
        # populated wherever either side contributed), so side
        # membership is read off payload validity: each side's status
        # column is non-null in the source data
        has_u = pc.is_valid(batch["u_status"])
        has_b = pc.is_valid(batch["o_orderstatus"])
        op = pc.if_else(pc.and_(has_u, has_b), pa.scalar("update"),
                        pc.if_else(has_u, pa.scalar("insert"),
                                   pa.scalar("keep")))
        return pa.table({
            "o_orderkey": pc.coalesce(batch["u_orderkey"],
                                      batch["o_orderkey"]),
            "o_orderstatus": pc.coalesce(batch["u_status"],
                                         batch["o_orderstatus"]),
            "total_cents": pc.coalesce(batch["u_cents"], batch["cents"]),
            "op": op,
        })

    return merged.map_batches(fin, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Events: per-user event-type transition matrix (Markov-chain
# estimation over ordered event streams)
# ---------------------------------------------------------------------------

@_q(
    "events_transition_matrix",
    """
    WITH s AS (
      SELECT event_type,
             lead(event_type) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id) AS next_type
      FROM events
    )
    SELECT event_type, next_type, count(*) AS n
    FROM s WHERE next_type IS NOT NULL
    GROUP BY event_type, next_type
    """,
)
def events_transition_matrix(sf_dir: str):
    """First-order Markov transition counts over each user's
    time-ordered event stream (behavior-model / next-event features).
    Shape: ONE task-level hash scatter by user (all events of a user
    land in one bucket; no global sort), per-bucket vectorized kernel —
    lexsort by (user, ts, event_id), shift-compare for same-user
    adjacency, one pyarrow group_by for the bucket's pair counts — then
    the |types|^2-sized partials fold through a tiny final aggregate."""
    import polars as pl

    from .functions.hashing import mix64
    from .stages.shardutil import scatter_apply_by_value
    from .stages.skew import bucket_aggregate

    nb = _adaptive_buckets(sf_dir, "events", rows_per_bucket=4000)
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        b = ((mix64(u.astype(np.uint64)) >> np.uint64(32))
             .astype(np.int64) % nb)
        return batch.append_column("_bucket", pa.array(b, pa.int64()))

    pair_schema = pa.schema([("event_type", pa.string()),
                             ("next_type", pa.string()),
                             ("n", pa.int64())])

    def pairs_bucket(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        et = np.asarray(t["event_type"].to_pylist(), dtype=object)
        order = np.lexsort((eid, ts, u))
        u, et = u[order], et[order]
        same = u[1:] == u[:-1]
        cur, nxt = et[:-1][same], et[1:][same]
        out = pl.DataFrame({"event_type": cur.astype(str),
                            "next_type": nxt.astype(str)}) \
            .group_by(["event_type", "next_type"]).len(name="n")
        return out.to_arrow().cast(pair_schema)

    tagged = ds.map_batches(add_bucket, batch_format="pyarrow")
    partials = scatter_apply_by_value(
        tagged.materialize(), "_bucket", nb, pairs_bucket,
        empty_result=pair_schema.empty_table())
    out = bucket_aggregate(partials, ["event_type", "next_type"],
                           [("sum", "n", "n")], num_buckets=4)
    return _collect(out, pair_schema)


# ---------------------------------------------------------------------------
# Events: half-life-decayed totals — freshness weighting with a 1-day
# half-life, EXACT because the decay is an integer right-shift
# ---------------------------------------------------------------------------

@_q(
    "events_decayed_totals",
    """
    WITH mx AS (SELECT max(CAST(ts AS DATE)) AS m FROM events)
    SELECT event_type,
           count(*) AS n,
           CAST(sum(CAST(trunc(value * 100) AS BIGINT)
                    >> LEAST(datediff('day', CAST(ts AS DATE),
                                      (SELECT m FROM mx)), 62))
                AS BIGINT) AS decayed_cents
    FROM events GROUP BY event_type
    """,
)
def events_decayed_totals(sf_dir: str):
    """Freshness-weighted totals: each event's integer cents decay by
    a factor of 2 per day of age (age measured from the corpus's max
    event DATE) — the recency weighting of trending/decay dashboards,
    but with the decay as an integer right-shift so the sum is exact
    under any reduction order (a float 0.5^age would hash-flap).
    Shape: per-block max-date partials fold on the driver (scalars,
    no exchange), one stateless shift map, one tiny aggregate."""
    from .stages.skew import bucket_aggregate

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    day_us = 86_400_000_000

    # corpus max DATE: per-block partial maxima folded on the driver
    # (integer epoch-us end to end — datetime.timestamp() would
    # reinterpret the naive value in the box's local timezone)
    mx_us = None
    for b in ds.map_batches(
            lambda b: pa.table({"m": [pc.max(
                pc.cast(b["ts"], pa.int64())).as_py()]}),
            batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        v = pc.max(b["m"]).as_py()
        mx_us = v if mx_us is None or (v is not None and v > mx_us) \
            else mx_us
    mx_day = mx_us // day_us

    def decay(batch: pa.Table, _mx=mx_day) -> pa.Table:
        cents = _to_cents(batch["value"]).to_numpy(zero_copy_only=False)
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        age = np.minimum(_mx - ts // day_us, 62).astype(np.int64)
        return pa.table({
            "event_type": batch["event_type"],
            "n": pa.array(np.ones(len(age), np.int64)),
            "decayed_cents": pa.array(cents >> age, pa.int64()),
        })

    out = bucket_aggregate(
        ds.map_batches(decay, batch_format="pyarrow"), ["event_type"],
        [("sum", "n", "n"), ("sum", "decayed_cents", "decayed_cents")],
        num_buckets=4)
    return _collect(out, pa.schema([("event_type", pa.string()),
                                    ("n", pa.int64()),
                                    ("decayed_cents", pa.int64())]))


# ---------------------------------------------------------------------------
# Documents: budget-capped selection — take the most target-like docs
# (DSIR order) until a token budget is exhausted: global sort + a
# distributed running-sum cut
# ---------------------------------------------------------------------------

@_q(
    "doc_budget_selection",
    """
    WITH ds AS ({dsr}),
    tot AS (SELECT sum(n_tokens) AS t FROM ds),
    r AS (
      SELECT doc_id, n_tokens, dsir_bits,
             CAST(sum(n_tokens) OVER (ORDER BY dsir_bits DESC, doc_id
                                      ROWS UNBOUNDED PRECEDING)
                  AS BIGINT) AS cum_tokens
      FROM ds
    )
    SELECT doc_id, n_tokens, dsir_bits, cum_tokens
    FROM r WHERE cum_tokens <= (SELECT t // 10 FROM tot)
    """,
)
def doc_budget_selection(sf_dir: str):
    """Token-budget curation cut: rank every document by DSIR target
    affinity (dsir_bits DESC, doc_id for determinism) and keep the
    prefix whose cumulative token count fits 10% of the corpus — the
    'best N tokens' selection step of a data-constrained training run
    (and the greedy knapsack relaxation when value is additive).

    Round-5 plan (replaces the global sort + sorted-block scan; the
    parity pytest checks it against an in-test numpy cut): the score is
    an INTEGER whose distinct-value count is bounded by the score
    RANGE (bits x doc length), never the corpus, so a per-score
    token-weighted histogram (one bucket aggregate, tiny output)
    yields the exact threshold score b* on the driver; one stateless
    filter keeps only docs at or above b* (~budget-fraction of the
    corpus), and ONE score-keyed scatter emits each survivor's exact
    cum_tokens (per-score doc_id-ordered cumsum + the broadcast
    exclusive per-score base) and cuts at the budget. Exchange count:
    aggregate + filter + scatter over the survivors vs a corpus-wide
    distributed sort — and the only driver state is the histogram."""
    dsr = _dsir_ds(sf_dir).select_columns(
        ["doc_id", "n_tokens", "dsir_bits"]).materialize()
    return _budget_selection_threshold(dsr)


_BUDGET_OUT_SCHEMA = pa.schema([("doc_id", pa.int64()),
                                ("n_tokens", pa.int64()),
                                ("dsir_bits", pa.int64()),
                                ("cum_tokens", pa.int64())])


def _budget_selection_threshold(dsr, *, budget_frac: int = 10,
                                num_buckets: int = 16):
    """Histogram-threshold budget cut (see doc_budget_selection).
    ``dsr`` must be a materialized (doc_id, n_tokens, dsir_bits)
    Dataset; keeps the (dsir_bits DESC, doc_id ASC) prefix with
    cum_tokens <= total // budget_frac, emitting exact cum_tokens."""
    from .stages.shardutil import scatter_apply_by_value
    from .stages.skew import bucket_aggregate

    hist = _collect(
        bucket_aggregate(dsr.select_columns(["dsir_bits", "n_tokens"]),
                         ["dsir_bits"], [("sum", "n_tokens", "toks")],
                         num_buckets=num_buckets),
        pa.schema([("dsir_bits", pa.int64()), ("toks", pa.int64())]))
    if len(hist) == 0:
        import ray.data as rd

        return _collect(rd.from_arrow(_BUDGET_OUT_SCHEMA.empty_table()),
                        _BUDGET_OUT_SCHEMA)
    bits = hist["dsir_bits"].to_numpy()
    toks = hist["toks"].to_numpy()
    order = np.argsort(-bits)
    bits, toks = bits[order], toks[order]
    bases = np.concatenate(([0], np.cumsum(toks)[:-1]))
    budget = int(toks.sum()) // budget_frac
    # bins whose exclusive base exceeds the budget can contribute no
    # doc (every doc there has cum > base >= budget); the rest are the
    # fully-selected prefix plus the one straddling bin
    can = bases <= budget
    if not can.any():
        import ray.data as rd

        return _collect(rd.from_arrow(_BUDGET_OUT_SCHEMA.empty_table()),
                        _BUDGET_OUT_SCHEMA)
    b_star = int(bits[can][-1])
    base_map = {int(b): int(x) for b, x in zip(bits[can], bases[can])}

    def prefilter(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch["dsir_bits"],
                                pa.scalar(b_star, pa.int64()))
        t = batch.filter(keep)
        v = t["dsir_bits"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        h = v * np.uint64(0x9E3779B97F4A7C15)
        bk = ((h >> np.uint64(32)).astype(np.int64)
              % num_buckets).astype(np.int64)
        return t.append_column("_bucket", pa.array(bk, pa.int64()))

    survivors = dsr.map_batches(prefilter,
                                batch_format="pyarrow").materialize()

    def emit(tbl: pa.Table, _bm=base_map, _budget=budget) -> pa.Table:
        if tbl.num_rows == 0:
            return _BUDGET_OUT_SCHEMA.empty_table()
        b = tbl["dsir_bits"].to_numpy(zero_copy_only=False)
        d = tbl["doc_id"].to_numpy(zero_copy_only=False)
        nt = tbl["n_tokens"].to_numpy(zero_copy_only=False)
        ordr = np.lexsort((d, -b))
        b, d, nt = b[ordr], d[ordr], nt[ordr]
        # per-score cumsum: global cumsum minus each score run's start
        cum = np.cumsum(nt)
        run_start = np.r_[True, b[1:] != b[:-1]]
        run_base0 = cum[np.flatnonzero(run_start)] - \
            nt[np.flatnonzero(run_start)]
        local = cum - np.repeat(run_base0,
                                np.diff(np.r_[np.flatnonzero(run_start),
                                              len(b)]))
        glob = local + np.array([_bm[int(x)] for x in
                                 b[np.flatnonzero(run_start)]],
                                np.int64).repeat(
            np.diff(np.r_[np.flatnonzero(run_start), len(b)]))
        keep = glob <= _budget
        return pa.table({
            "doc_id": pa.array(d[keep], pa.int64()),
            "n_tokens": pa.array(nt[keep], pa.int64()),
            "dsir_bits": pa.array(b[keep], pa.int64()),
            "cum_tokens": pa.array(glob[keep], pa.int64()),
        })

    out = scatter_apply_by_value(
        survivors, "_bucket", num_buckets, emit,
        empty_result=_BUDGET_OUT_SCHEMA.empty_table())
    return _collect(out, _BUDGET_OUT_SCHEMA)


ORACLE_SQL["doc_budget_selection"] = \
    ORACLE_SQL["doc_budget_selection"].format(
        dsr=ORACLE_SQL["doc_dsir_selection"])


@_q(
    "graph_kcore",
    """
    WITH ps AS (SELECT DISTINCT l_partkey AS p, l_suppkey AS s
                FROM lineitem),
    e AS (SELECT a.s AS x, b.s AS y
          FROM ps a JOIN ps b ON a.p = b.p AND a.s < b.s
          GROUP BY 1, 2 HAVING count(*) >= 30)
    SELECT (SELECT count(*) FROM e) AS n_edges,
           CAST(3 AS BIGINT) AS k,
           true AS core_is_subset
    """,
)
def graph_kcore(sf_dir: str):
    """k-core membership (Seidman 1983) over the mw=30 strong co-part
    graph at k=3 — the deletion-Pregel shape (state only shrinks,
    messages are degree decrements from dying nodes; at sf0.1 the
    peel cascades for 5 rounds and keeps 547 of 926 suppliers).
    Oracle row: n_edges SQL-live; core_is_subset pins every core
    member to be a graph node. Driver-vs-actor parity and the
    plain-Python sequential peel are pytest-checked
    (tests/test_graph.py)."""
    from .stages.graph import kcore

    k = 3
    edges = _copart_supplier_pairs(sf_dir, min_weight=30).materialize()
    nodes, core = set(), set()
    for b in kcore(edges, k=k).iter_batches(batch_format="pyarrow"):
        for r in b.to_pylist():
            nodes.add(r["node"])
            if r["in_core"]:
                core.add(r["node"])
    return pa.table({
        "n_edges": pa.array([edges.count()], pa.int64()),
        "k": pa.array([k], pa.int64()),
        "core_is_subset": pa.array([core <= nodes], pa.bool_()),
    })


@_q(
    "graph_link_prediction",
    """
    WITH ps AS (
      SELECT DISTINCT l_partkey AS p, l_suppkey AS s FROM lineitem
    ),
    w AS (SELECT a.s AS x, b.s AS y, count(*) AS c
          FROM ps a JOIN ps b ON a.p = b.p AND a.s < b.s
          GROUP BY 1, 2),
    mw AS (SELECT 3 * max(c) // 4 AS t FROM w),
    e0 AS (SELECT x, y FROM w, mw WHERE c >= mw.t),
    eb AS (SELECT x, y FROM e0 UNION ALL SELECT y AS x, x AS y FROM e0),
    deg AS (SELECT x AS n, count(*) AS d FROM eb GROUP BY x),
    common AS (
      SELECT e1.y AS a, e2.y AS b, count(*) AS common
      FROM eb e1 JOIN eb e2 ON e1.x = e2.x AND e1.y < e2.y
      GROUP BY 1, 2
    ),
    cand AS (
      SELECT c.a, c.b, c.common FROM common c
      LEFT JOIN e0 ON e0.x = c.a AND e0.y = c.b
      WHERE e0.x IS NULL
    )
    SELECT a, b, CAST(common AS BIGINT) AS common,
           CAST(da.d AS BIGINT) AS deg_a,
           CAST(db.d AS BIGINT) AS deg_b
    FROM cand JOIN deg da ON da.n = a JOIN deg db ON db.n = b
    ORDER BY common DESC, a, b LIMIT 20
    """,
)
def graph_link_prediction(sf_dir: str):
    """Common-neighbor link prediction over the strong co-part graph:
    the top-20 NON-adjacent supplier pairs ranked by shared-neighbor
    count (endpoint degrees attached, all integer — the
    candidate-generation step for proposing NEW relations in a
    knowledge graph, e.g. skos:related edges between concepts that
    co-occur through many intermediates but are not yet linked).
    The strength threshold is DATA-DERIVED on both sides
    (3·max(pair weight)//4 — the fixed _COPART_MIN_W leaves sf0.01's
    projection complete, where no non-adjacent pair exists), computed
    from per-block maxima folded on the driver, one scalar. Engine:
    stages/graph.link_prediction_topk — per-center wedge expansion in
    one task scatter (the triangles skew discipline), pair-count
    aggregate, packed-key anti cogroup vs existing edges, two degree
    joins, local top-k + bounded driver merge. DuckDB recomputes via
    self-joins."""
    from .stages.graph import link_prediction_topk
    from .stages.skew import bucket_aggregate

    raw = _copart_supplier_pairs(sf_dir)
    weighted = bucket_aggregate(raw, ["a", "b"],
                                [("count", None, "_w")],
                                num_buckets=16,
                                bucket_key="a").materialize()
    mx = 0
    for b in weighted.map_batches(
            lambda t: pa.table({"m": pa.array(
                [int(pc.max(t["_w"]).as_py() or 0)], pa.int64())}),
            batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        mx = max(mx, int(pc.max(b["m"]).as_py() or 0))
    thr = 3 * mx // 4

    edges = weighted.map_batches(
        lambda t, _t=thr: t.filter(pc.greater_equal(
            t["_w"], pa.scalar(_t, pa.int64())))
        .drop_columns(["_w"]), batch_format="pyarrow")
    return _collect(
        link_prediction_topk(edges, k=20, num_buckets=16),
        pa.schema([("a", pa.int64()), ("b", pa.int64()),
                   ("common", pa.int64()), ("deg_a", pa.int64()),
                   ("deg_b", pa.int64())]))


@_q(
    "graph_bfs_hops",
    """
    WITH RECURSIVE ps AS (
      SELECT DISTINCT l_partkey AS p, l_suppkey AS s FROM lineitem
    ),
    e0 AS (SELECT a.s AS x, b.s AS y
           FROM ps a JOIN ps b ON a.p = b.p AND a.s < b.s
           GROUP BY 1, 2 HAVING count(*) >= 25),
    eb AS (SELECT x, y FROM e0 UNION ALL SELECT y AS x, x AS y FROM e0),
    seeds AS (SELECT DISTINCT x FROM eb ORDER BY x LIMIT 3),
    reach(node, h) AS (
      SELECT x, 0 FROM seeds
      UNION
      SELECT eb.y, r.h + 1 FROM reach r JOIN eb ON eb.x = r.node
      WHERE r.h < 4
    )
    SELECT node, CAST(min(h) AS BIGINT) AS hops
    FROM reach GROUP BY node
    """,
)
def graph_bfs_hops(sf_dir: str):
    """Bounded multi-source BFS (hop distance ≤ 4 from the 3 smallest
    supplier ids) over the strong co-part graph — the reachability /
    neighborhood-expansion shape (entity-context collection around a
    seed set). The edge list fits the driver gate, so bfs_hops runs
    its numpy frontier sweep; its parity with the distributed engine
    is pinned in tests/test_graph.py. DuckDB recomputes the same
    closure as a recursive CTE with min-hop semantics."""
    from .stages.graph import bfs_hops

    edges = _copart_supplier_pairs(
        sf_dir, min_weight=_COPART_MIN_W).materialize()
    hops = {r["node"]: r["hops"]
            for b in bfs_hops(edges).iter_batches(
                batch_format="pyarrow")
            for r in b.to_pylist()}
    items = sorted(hops.items())
    return pa.table({
        "node": pa.array([n for n, _ in items], pa.int64()),
        "hops": pa.array([h for _, h in items], pa.int64()),
    })


# ---------------------------------------------------------------------------
# Documents: containment join (asymmetric dedup — a short doc embedded
# in a longer one, which symmetric jaccard misses)
# ---------------------------------------------------------------------------

@_q(
    "doc_dedup_containment",
    r"""
    WITH words AS (
      SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
      FROM documents
    ),
    sh AS (
      SELECT doc_id,
             list_distinct([w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                            FOR i IN generate_series(1, len(w)-2)]) AS s
      FROM words WHERE len(w) >= 3
    )
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           round(CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
                 / len(a.s), 6) AS containment
    FROM sh a JOIN sh b ON a.doc_id != b.doc_id
    WHERE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) / len(a.s)
          >= 0.9
    """,
)
def doc_dedup_containment(sf_dir: str):
    """Asymmetric containment dedup: pairs where >= 90% of doc_a's
    word-3-grams also appear in doc_b — the quote/repost/subset shape
    that symmetric jaccard misses when the host doc is much longer.
    Engine path is the PREFIX-FILTERED set-similarity join
    (stages/dedup.containment_pairs — SSJoin/all-pairs, candidates
    only where one of A's floor((1-c)|A|)+1 smallest shingles
    collides, then exact verification); oracle is the brute all-pairs
    containment in DuckDB."""
    from .stages.dedup import containment_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = containment_pairs(ds, threshold=0.9,
                            num_buckets=_adaptive_buckets(
                                sf_dir, "documents"))
    return _collect(out, pa.schema([("doc_a", pa.int64()),
                                    ("doc_b", pa.int64()),
                                    ("containment", pa.float64())]))


# ---------------------------------------------------------------------------
# Cross-run NEAR-dup ingest (approximate sibling of incremental_ingest:
# round B drops documents near-duplicating ANY earlier round's docs)
# ---------------------------------------------------------------------------

def _neardup_rounds(sf_dir: str, store: str, parities) -> list[tuple]:
    """(rows, dup_of_prior rows) of each near-dup ingest round into
    ``store``: round i ingests the documents with doc_id % 2 ==
    ``parities[i]``."""
    from .stages.incremental import ingest_near_dup

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).materialize()
    out = []
    for parity in parities:
        flags = ingest_near_dup(docs.map_batches(
            lambda b, _p=parity: b.filter(pa.array(
                b["doc_id"].to_numpy(zero_copy_only=False) % 2 == _p)),
            batch_format="pyarrow"), store, threshold=0.8)
        n = dup = 0
        for b in flags.iter_batches(batch_format="pyarrow"):
            n += b.num_rows
            dup += int(pc.sum(pc.cast(b["dup_of_prior"], pa.int64()))
                       .as_py() or 0)
        out.append((n, dup))
    return out


@_q(
    "incremental_neardup",
    r"""
    WITH words AS (
      SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS w
      FROM documents
    ),
    sh AS (
      SELECT doc_id,
             list_distinct([w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                            FOR i IN generate_series(1, len(w)-2)]) AS s
      FROM words WHERE len(w) >= 3
    ),
    cross_dups AS (
      SELECT DISTINCT b.doc_id
      FROM sh a JOIN sh b
        ON a.doc_id % 2 = 0 AND b.doc_id % 2 = 1
      WHERE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
            / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
            >= 0.8
    )
    SELECT (SELECT count(*) FROM documents WHERE doc_id % 2 = 0)
             AS n_round_a,
           CAST(0 AS BIGINT) AS a_dup,
           (SELECT count(*) FROM documents WHERE doc_id % 2 = 1)
             AS n_round_b,
           (SELECT count(*) FROM cross_dups) AS b_dup
    """,
)
def incremental_neardup(sf_dir: str):
    """Cross-RUN near-dup dedup, oracle-visible as a two-round replay:
    round A ingests the even-doc_id half into a fresh store
    (stages/incremental.ingest_near_dup — LSH band index + compact
    shingle shards, algo-stamped like the exact store), round B
    ingests the odd half and must flag the odd docs whose EXACT
    word-3-gram jaccard vs some even doc reaches 0.8. PRECISION is
    exact (banding proposes, exact jaccard verification decides —
    no false flag is possible); RECALL is bounded by the banding:
    a true pair at jaccard j collides in no band with probability
    (1 - j^r)^b = (1 - j^4)^32 ≈ 4.8e-8 at j = 0.8 (identical docs
    collide deterministically — equal shingle sets give equal
    signatures), so the engine's flag set is a ⊆ of the oracle's
    with per-pair miss probability < 1e-7. The oracle row's equality
    check is therefore a deterministic regression pin for the
    driver's fixed corpus (hash functions are fixed: it cannot flap)
    — on an adversarial corpus the honest contract is engine <=
    oracle within that bound. DuckDB recomputes the cross-half
    jaccard from scratch. The crash-idempotence contract (a replay of
    round B flags every doc dup-of-prior) is
    tests/test_query_checks.py's to pin."""
    import shutil
    import tempfile

    store = tempfile.mkdtemp(prefix="graft_ndstore_", dir="/tmp")
    try:
        (a_n, a_dup), (b_n, b_dup) = _neardup_rounds(sf_dir, store, (0, 1))
        return pa.table({
            "n_round_a": pa.array([a_n], pa.int64()),
            "a_dup": pa.array([a_dup], pa.int64()),
            "n_round_b": pa.array([b_n], pa.int64()),
            "b_dup": pa.array([b_dup], pa.int64()),
        })
    finally:
        shutil.rmtree(store, ignore_errors=True)


# ---------------------------------------------------------------------------
# Capstone composition: curation v2 — the round-4 operators chained
# into one end-to-end corpus curation pipeline, oracle-checked as a
# whole (normalize-dedup winners ∧ blocklist gate ∧ model quality ∧
# DSIR target-affinity ∧ cluster-sample survivors -> per-lang stats)
# ---------------------------------------------------------------------------

def _quality_margin_sql(alias: str) -> str:
    """The quality scorer's integer margin as a SQL expression over
    ``alias``.text — shared by doc_model_quality's oracle and the
    curation-v2 composition (one weights source, two consumers)."""
    from .models import QUALITY_SCORER_PATH

    z = np.load(QUALITY_SCORER_PATH)
    w = z["w"].astype(np.int64)
    b = int(z["b"])
    stop = r"\b(the|a|of|and|to|in|is)\b"
    t = f"{alias}.text"
    return (f"({w[0]} * length({t}) "
            f"+ {w[1]} * len(regexp_extract_all(lower({t}), '[a-z0-9]+')) "
            f"+ {w[2]} * len(regexp_extract_all({t}, '[A-Za-z]')) "
            f"+ {w[3]} * len(regexp_extract_all(lower({t}), '{stop}')) "
            f"+ {b})")


@_q(
    "curation_v2_pipeline",
    f"""
    WITH nd AS ({{nd}}),
         dsr AS ({{dsr}}),
         cs AS ({{cs}})
    SELECT d.lang, count(*) AS n_docs,
           CAST(sum(dsr.n_tokens) AS BIGINT) AS n_tokens
    FROM documents d
    JOIN nd ON nd.doc_id = d.doc_id AND nd.canonical_id = d.doc_id
    JOIN dsr ON dsr.doc_id = d.doc_id
            AND dsr.dsir_bits >= -dsr.n_tokens
    JOIN cs ON cs.doc_id = d.doc_id AND cs.kept
    WHERE len(regexp_extract_all(lower(d.text), '{_BLOCK_RE}')) * 100
          < len(regexp_extract_all(lower(d.text), '[a-z0-9]+')) * 5
      AND {{margin}} >= 0
    GROUP BY d.lang
    """,
)
def curation_v2_pipeline(sf_dir: str):
    """End-to-end curation v2 — the round-4 operator wave composed
    into one pipeline and oracle-checked as a WHOLE (the composition
    is where stage-boundary bugs live; each piece is also
    independently gated):

    1. Unicode-normalization dedup winners (doc_id == canonical_id);
    2. blocklist gate (hits < 5% of tokens, integer cross-multiplied);
    3. model quality (distilled integer-margin scorer >= 0, actor
       pool);
    4. DSIR target affinity (dsir_bits >= -n_tokens: at worst one
       surprisal bit per token less target-like than corpus-average);
    5. cluster-aware downsampling survivors (ceil(sqrt(size)) per
       near-dup cluster).

    Output: per-language doc and token counts of the final corpus.
    Shape: gates 2-3 fuse into ONE stateless/actor map over the text;
    winners 1, 4, 5 arrive as per-doc Datasets from the shared
    operator helpers and intersect through THREE doc-bucket cogroup
    semi/inner joins; one final lang aggregate. Nothing corpus-sized
    ever lands on the driver."""
    from .models import QualityScorer, quality_features
    from .stages.skew import bucket_aggregate

    nb = _adaptive_buckets(sf_dir, "documents")

    # gates 2+3 in one pass (quality weights load per actor)
    class Gate23(QualityScorer):
        def __call__(self, batch):
            low = pc.utf8_lower(batch["text"])
            hits = pc.count_substring_regex(low, _BLOCK_RE) \
                .to_numpy(zero_copy_only=False)
            toks = pc.count_substring_regex(low, r"[a-z0-9]+") \
                .to_numpy(zero_copy_only=False)
            margin = quality_features(batch["text"]) @ self.w + self.b
            ok = (hits * 100 < toks * 5) & (margin >= 0)
            return pa.table({"doc_id": batch["doc_id"],
                             "lang": batch["lang"]}).filter(pa.array(ok))

    # The four component pipelines are INDEPENDENT until the 4-way
    # cogroup, so they materialize on concurrent driver threads
    # (each Dataset runs its own streaming executor; the cluster
    # shares tasks across them). Round 5: sequential materialization
    # serialized each component's barrier chain — the composition's
    # measured ~45 s width-independent floor — while none of them
    # alone can fill the box. Elastic-task gates (weights are four
    # ints, shipped in the closure) keep every CPU usable.
    from concurrent.futures import ThreadPoolExecutor

    def _base():
        return _read(sf_dir, "documents", ["doc_id", "lang", "text"]) \
            .map_batches(Gate23(), batch_size=1024,
                         batch_format="pyarrow").materialize()

    def _nd():
        return _normalize_dedup_ds(sf_dir).map_batches(
            lambda b: pa.table({"nd_doc": b["doc_id"]}).filter(
                pc.equal(b["doc_id"], b["canonical_id"])),
            batch_format="pyarrow").materialize()

    def _dsr():
        return _dsir_ds(sf_dir).map_batches(
            lambda b: pa.table({"ds_doc": b["doc_id"],
                                "n_tokens": b["n_tokens"]}).filter(
                pc.greater_equal(b["dsir_bits"],
                                 pc.negate(b["n_tokens"]))),
            batch_format="pyarrow").materialize()

    def _cs():
        return _cluster_sample_ds(sf_dir).map_batches(
            lambda b: pa.table({"cs_doc": b["doc_id"]}).filter(
                b["kept"]),
            batch_format="pyarrow").materialize()

    # base materializes FIRST on the main thread: the initial
    # execution warms Ray Data's lazily-imported machinery (fsspec
    # filesystem resolution raced when four first-executions imported
    # it concurrently); the remaining three components then overlap
    # — but only on a session wide enough to feed three executors
    # (measured at 300k docs: 16 cpus 53 s -> 41 s with overlap,
    # 4 cpus 71 s -> 113 s WITH it — concurrent executors thrash a
    # narrow box, so width < 8 stays sequential).
    base = _base()
    if _pool_width()[1] >= 8:
        with ThreadPoolExecutor(max_workers=3) as pool:
            fn, fd, fc = (pool.submit(_nd), pool.submit(_dsr),
                          pool.submit(_cs))
            nd, dsr, cs = fn.result(), fd.result(), fc.result()
    else:
        nd, dsr, cs = _nd(), _dsr(), _cs()

    # ONE 4-way doc-keyed cogroup (round 5 — was three sequential
    # binary cogroup joins, i.e. three exchange barriers for a single
    # co-partitioned intersection; the composition's fixed barrier
    # floor, not data volume, capped its two-width scaling). The
    # per-lang partials pre-aggregate inside each bucket, so the
    # final exchange moves num_buckets × n_langs rows.
    from .stages.shardutil import multiway_cogroup_scatter

    part_schema = pa.schema([("lang", pa.string()),
                             ("n_docs", pa.int64()),
                             ("n_tokens", pa.int64())])

    def meet(base_t, nd_t, ds_t, cs_t):
        if base_t is None or nd_t is None or ds_t is None \
                or cs_t is None:
            return part_schema.empty_table()
        t = base_t.filter(pc.is_in(
            base_t["doc_id"],
            value_set=nd_t["nd_doc"].combine_chunks()))
        t = t.join(ds_t.select(["ds_doc", "n_tokens"]),
                   keys=["doc_id"], right_keys=["ds_doc"],
                   join_type="inner")
        t = t.filter(pc.is_in(
            t["doc_id"], value_set=cs_t["cs_doc"].combine_chunks()))
        if t.num_rows == 0:
            return part_schema.empty_table()
        g = t.group_by(["lang"]).aggregate([("doc_id", "count"),
                                            ("n_tokens", "sum")])
        return pa.table({"lang": g["lang"],
                         "n_docs": g["doc_id_count"],
                         "n_tokens": g["n_tokens_sum"]}) \
            .cast(part_schema)

    partials = multiway_cogroup_scatter(
        [(base, "doc_id"), (nd, "nd_doc"), (dsr, "ds_doc"),
         (cs, "cs_doc")], nb, meet,
        empty_result=part_schema.empty_table())
    out = bucket_aggregate(partials, ["lang"],
                           [("sum", "n_docs", "n_docs"),
                            ("sum", "n_tokens", "n_tokens")],
                           num_buckets=4)
    return _collect(out, pa.schema([("lang", pa.string()),
                                    ("n_docs", pa.int64()),
                                    ("n_tokens", pa.int64())]))


ORACLE_SQL["curation_v2_pipeline"] = \
    ORACLE_SQL["curation_v2_pipeline"].format(
        nd=ORACLE_SQL["doc_normalize_dedup"],
        dsr=ORACLE_SQL["doc_dsir_selection"],
        cs=ORACLE_SQL["doc_cluster_sample"],
        margin=_quality_margin_sql("d"))


# ---------------------------------------------------------------------------
# Gate ordering: the external correctness gate (see __ray_entry__)
# enumerates queries() in dict order and samples only the first 50.
# Rule: the queries that no recorded gate run has sampled yet come
# first, then the queries whose oracle row changed since the last
# recorded run and would otherwise sit past the first 50; everything
# else follows in registration order. A short hand-kept list (an
# installed package cannot see the repo's run logs).
# ---------------------------------------------------------------------------

_GATE_FIRST = [
    # never sampled by a recorded gate run
    "ann_range_search", "doc_bm25_topk", "media_dedup_phash",
    "events_scd2_history", "events_attribution",
    "events_interval_coverage", "events_regression",
    "graph_link_prediction", "graph_bfs_hops",
    # oracle row changed, otherwise past the first 50
    "flagship_graph", "graph_pagerank", "graph_kcore", "ann_topk_pq",
    "doc_top_terms_cms", "events_value_quantiles_sketch",
    "events_distinct_users_hll", "doc_dedup_simhash", "embedding_pca",
    "embedding_kmeans", "embedding_semantic_dedup", "ann_topk_ivf",
    "embedding_neardup_lsh", "ann_topk_lsh", "incremental_neardup",
    "graph_checkpoint_resume",
]


def _reorder_gate() -> None:
    global QUERIES
    ordered = {n: QUERIES[n] for n in _GATE_FIRST if n in QUERIES}
    for n, fn in QUERIES.items():
        if n not in ordered:
            ordered[n] = fn
    QUERIES = ordered


_reorder_gate()
