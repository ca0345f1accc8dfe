"""Flagship pipeline: interleaved documents -> canonical knowledge graph.

The BASELINE.json north-star pipeline, end to end:

1. **mention detection + entity linking** — ``map_batches`` over
   zero-copy Arrow document batches (elastic tasks or an actor pool,
   ``link_plan``): each batch's span tokens walk a token trie of the
   broadcast prefLabel/altLabel/hiddenLabel index as array kernels,
   greedy longest match first (stages/linker.py).
2. **triple emission** — each linked mention yields a provenance triple
   ``(doc_uri, engine:mentions, concept)`` plus the vocabulary subgraph
   of the mentioned concept (skos:broader / narrower / related /
   exactMatch + notation / definition, per the north star), stamped
   with ``source_doc``. The subgraph is a broadcast table keyed by
   the mentioned concept (vocabulary is dimension-sized), joined to
   each batch's distinct concepts.
3. **canonicalization** — union-find over owl:sameAs / skos:exactMatch
   (stages/canonicalize.py), applied as a broadcast rewrite.
4. **set-semantics dedup** (min-``source_doc`` witness): one hash
   exchange, or none when step 6 writes (folded into its exchange).
5. **inverse-relation consistency** — broader⇔narrower etc.
   (reference's paired emission, skos_converter.py:1540-1546),
   applied by closing the dimension-sized vocabulary subgraph on the
   driver before emission (see _vocab_subgraph) — the general
   corpus-scale closure operator lives in stages/triples.py.
6. **adjacency-partitioned materialization** with a checkpoint manifest
   (state/manifest.py) when ``out_dir`` is given. Its exchange keys on
   ``subj``, so all copies of a triple meet in one partition task,
   which dedups them before it writes. ``graph`` is then a lazy read
   of the files the manifest records done, one block per file, which
   starts no task and puts nothing until it is consumed.

Vocabulary state: the label index, the subgraph table and the
canonical map are built on the driver and put in the object store
ONCE per vocabulary (``_vocab_state``). The module keeps the refs of
one vocabulary, keyed by the identity of the ``vocab_triples`` object,
``preferred_ns`` and the Ray session, until a call with another key
replaces them; so a driver that links successive document batches
against one vocabulary table builds and puts it once. On the workers,
``linker.built_once`` resolves each ref (and builds the linker's
label trie) once per process.
"""

from __future__ import annotations

import weakref

import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from ..config import (
    OWL_SAME_AS,
    SKOS_BROADER,
    SKOS_DEFINITION,
    SKOS_EXACT_MATCH,
    SKOS_NARROWER,
    SKOS_NOTATION,
    SKOS_RELATED,
)
from ..stages.canonicalize import (
    apply_canonicalization,
    canonical_map_ref,
    canonical_map_table,
)
from ..stages.linker import build_label_index, built_once, link_documents
from ..stages.shardutil import block_meta, blocks_dataset
from ..stages.triples import dedup_table, dedup_triples

ENGINE_NS = "http://skosconverter-ray.example.org/ns#"
PRED_MENTIONS = ENGINE_NS + "mentions"

# the vocabulary subgraph projected per mentioned concept (north star)
EMITTED_PREDS = (
    SKOS_BROADER,
    SKOS_NARROWER,
    SKOS_RELATED,
    SKOS_EXACT_MATCH,
    OWL_SAME_AS,
    SKOS_NOTATION,
    SKOS_DEFINITION,
)


# the subgraph table: the mentioned concept, then its triple
_SUBGRAPH = pa.schema([pa.field("key", pa.string()),
                       *list(schemas.TRIPLES)[:5]])


def _vocab_subgraph(vocab_triples: pa.Table) -> pa.Table:
    """The EMITTED_PREDS triples of the vocabulary, CLOSED under
    inverse/symmetric pairs, as a table of ``key`` (the concept whose
    mention emits the row) plus the triple columns (``_SUBGRAPH``).

    The closure (broader⇔narrower, hasTopConcept⇔topConceptOf,
    related/sameAs/exactMatch mirrored — the reference's paired
    emission, skos_converter.py:1540-1546) is applied HERE, on the
    driver, because every hierarchical edge in the flagship graph
    originates from this dimension-sized vocabulary: closing ~10^5
    rows once replaces an entire corpus-wide
    inverse-consistency shuffle+materialize downstream (~25% of
    flagship wall at 4 cpus). The closure commutes with URI
    canonicalization (flip of a rewrite = rewrite of the flip) and
    dedup, so the output graph is identical to running
    stages/triples.inverse_consistency after the fact — pinned by
    test_flagship.test_vocab_closure_matches_inverse_pass. A flipped
    edge is keyed by the MENTIONED concept (the original subject) so
    it is emitted whenever the original edge is; a null
    ``obj_is_literal`` counts as an IRI object and is flipped."""
    from ..config import INVERSE_PAIRS, SYMMETRIC_PREDS

    t = vocab_triples.select(_SUBGRAPH.names[1:])
    t = t.filter(pc.is_in(t["pred"], value_set=pa.array(EMITTED_PREDS)))
    inv = {**INVERSE_PAIRS, **{p: p for p in SYMMETRIC_PREDS}}
    src, dst = pa.array(list(inv)), pa.array(list(inv.values()))
    e = t.filter(pc.and_(pc.is_in(t["pred"], value_set=src),
                         pc.invert(t["obj_is_literal"].fill_null(False))))
    flips = pa.table([e["subj"], e["obj"],
                      dst.take(pc.index_in(e["pred"], value_set=src)),
                      e["subj"], e["obj_is_literal"], e["lang"]],
                     schema=_SUBGRAPH)
    return pa.concat_tables(
        [t.add_column(0, "key", t["subj"]).cast(_SUBGRAPH), flips])


class EmitTriples:
    """mentions batch -> triples batch.

    Usable both as an actor-pool class (``map_batches(EmitTriples,
    fn_constructor_args=...)``) and as a serialized task callable: the
    broadcast subgraph table rides as an ObjectRef (tiny to ship) and
    is resolved once per worker process per ref (linker.built_once) —
    never materialized into the serialized closure."""

    def __init__(self, subgraph_ref, doc_ns: str):
        self._ref = subgraph_ref
        self.doc_ns = doc_ns

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        doc_ids = batch["doc_id"].combine_chunks() \
            if isinstance(batch["doc_id"], pa.ChunkedArray) \
            else batch["doc_id"]
        uris = batch["concept_uri"]
        # mention edges: fully vectorized (this is the per-row bulk)
        mentions = pa.table(
            {
                "subj": pc.binary_join_element_wise(
                    pa.scalar(self.doc_ns), doc_ids, pa.scalar("")),
                "pred": pa.array([PRED_MENTIONS] * n, pa.string()),
                "obj": uris,
                "obj_is_literal": pa.array([False] * n, pa.bool_()),
                "lang": pa.nulls(n, pa.string()),
                "source_doc": doc_ids,
            },
            schema=schemas.TRIPLES,
        )
        # Per-batch combiner: the subgraph of a concept is emitted ONCE
        # per batch (not once per mentioning doc), attributed to the
        # batch-MIN mentioning doc. min is associative, so the global
        # dedup's min-source_doc tiebreak still lands on the overall
        # min mentioning doc — identical output, ~4-5x fewer rows into
        # the object store and the dedup shuffle. The subgraph rows of
        # the batch's DISTINCT concepts are one semi-join of the
        # subgraph table on them (index_in), each row stamped with its
        # concept's min doc.
        mins = (batch.select(["concept_uri", "doc_id"])
                .group_by("concept_uri").aggregate([("doc_id", "min")]))
        sub = built_once("emit", self._ref, lambda t: t)
        pos = pc.index_in(sub["key"],
                          value_set=mins["concept_uri"].combine_chunks())
        got = sub.filter(pc.is_valid(pos))
        subgraph = pa.table(
            [*got.columns[1:], mins["doc_id_min"].take(pos.drop_null())],
            schema=schemas.TRIPLES,
        )
        return pa.concat_tables([mentions, subgraph])


def _read_files(paths: list[str]) -> pa.Table:
    """Parquet graph files -> their triples."""
    import pyarrow.parquet as pq

    return pa.concat_tables(
        [pq.read_table(p, schema=schemas.TRIPLES, partitioning=None)
         for p in paths])


def link_plan(n_entries: int, total_cpus: int):
    """The linker's physical plan for ``link_concurrency="auto"``:
    ``None`` (elastic tasks) or a ``(min, max)`` actor-pool spec, from
    the label-index size and the session width."""
    # CPU budgeting: fixed full-width actor pools live-lock — actors
    # RESERVE their CPUs, and two full-width pools plus the downstream
    # shuffle tasks starve each other (observed: 4+4 actors on 8 CPUs
    # = zero progress). So (a) only the linker is an actor pool; the
    # triple emission runs as elastic tasks (its state is the broadcast
    # subgraph ref, cheap to re-get per task), and (b) the pool
    # AUTOSCALES between 1 and (cpus - 2): linking dominates the
    # pipeline's compute, so it deserves nearly the full width, and
    # autoscaling releases actors when the pool idles so the dedup
    # shuffle gets the CPUs back (a fixed half-width pool left ~45% of
    # the cluster idle in the 16-cpu utilization trace).
    # min = half width (autoscale-up hysteresis otherwise idles the
    # pool at 1 actor on narrow sessions), max = width - 2
    pool = (max(1, total_cpus // 2), max(2, total_cpus - 2))
    # A pool whose max claims every CPU (1-2 cpus) leaves none for the
    # downstream tasks and stalls the job (1 cpu: ~25 s vs ~5 s tasks).
    if pool[1] >= total_cpus:
        return None
    # physical-plan choice, measured at 1M docs: on WIDE sessions a
    # small index runs best as elastic tasks (full-width scheduling;
    # 16 cpus: 42s tasks vs 63s pool), on NARROW ones the actor pool
    # wins via stage overlap (4 cpus: 118s pool vs 261s fused tasks).
    # A big index always uses the pool (per-worker load amortization).
    if n_entries < 50_000 and total_cpus >= 8:
        return None
    return pool


# The broadcast state of the one vocabulary run_flagship last linked
# against: (weakref to its vocab table, (preferred_ns, session key),
# state). See _vocab_state.
_VOCAB: tuple | None = None


def _session_key() -> tuple:
    """The Ray session object refs belong to: (node id, job id). A new
    ``ray.init``, even in the same process, makes earlier refs stale."""
    import ray

    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


def _vocab_state(vocab_triples: pa.Table, preferred_ns: str | None):
    """``(n_entries, index_ref, sub_ref, canon_dict_ref, canon_map)`` of
    a vocabulary: the label index's size and broadcast ref, the
    subgraph table's ref, the canonical map's dict ref and its Dataset.

    Kept for ONE vocabulary, keyed by the identity of the
    ``vocab_triples`` object (held weakly; a ``pa.Table`` is
    immutable), ``preferred_ns`` and the session. A call with the same
    key builds and puts nothing; any other key (an equal-content new
    table included: no content is hashed) drops the held state and
    runs the builders and puts again."""
    import ray

    global _VOCAB
    key = (preferred_ns, _session_key())
    if _VOCAB is not None:
        table, held_key, state = _VOCAB
        if table() is vocab_triples and held_key == key:
            return state
    _VOCAB = None  # release the old refs before putting new ones
    label_index = build_label_index(vocab_triples)
    canon_tbl = canonical_map_table(vocab_triples, preferred_ns=preferred_ns)
    # from_arrow would start a metadata task for this driver-side table
    canon = blocks_dataset([ray.put(canon_tbl)], [block_meta(canon_tbl)])
    state = (len(label_index), ray.put(label_index),
             ray.put(_vocab_subgraph(vocab_triples)),
             canonical_map_ref(canon_tbl), canon)
    _VOCAB = (weakref.ref(vocab_triples), key, state)
    return state


def run_flagship(docs_ds, vocab_triples: pa.Table, *,
                 doc_ns: str = "http://skosconverter-ray.example.org/doc/",
                 preferred_ns: str | None = None,
                 link_concurrency="auto", batch_size: int = 1024,
                 materialize_before_dedup: bool | None = None,
                 out_dir: str | None = None, n_parts: int = 32):
    """documents Dataset + vocabulary triples -> canonical graph Dataset.

    When ``out_dir`` is set, the graph is written as
    adjacency-partitioned parquet (``part=<partition_id_array(subj)>``,
    one file per partition; see state/manifest.write_partitioned) with
    a resumable manifest, in ONE exchange: each partition task dedups
    its rows (a triple's copies share its ``subj``) before it writes
    them. ``graph`` is then a lazy Dataset over the files the manifest
    records done (one file per block; building it starts no Ray
    task and makes no driver put), so a resumed run's graph holds the
    partitions an earlier run wrote (the same ``doc_ns`` is required,
    and a manifest of another one is refused; a new corpus needs a
    fresh ``out_dir``).

    ``link_concurrency``: "auto" (default) picks the measured-best
    physical plan (elastic tasks vs autoscaling actor pool) from the
    index size and session width; any other value — ``None`` (tasks)
    or an int / ``(min, max)`` pool spec — is passed straight to the
    linker stage as an explicit override.

    The vocabulary's broadcast state (label index, subgraph table,
    canonical map; see ``_vocab_state``) is reused from the previous
    call when it got the same ``vocab_triples`` object and
    ``preferred_ns`` in the same Ray session, and rebuilt otherwise;
    the module holds that one vocabulary's refs until a call with
    another vocabulary, ``preferred_ns`` or session replaces them. The
    returned ``canon_map`` is then the same Dataset on every such call.
    """
    import ray
    import ray.data as rd

    n_entries, index_ref, sub_ref, canon_ref, canon = _vocab_state(
        vocab_triples, preferred_ns)

    total_cpus = int(ray.cluster_resources().get("CPU", 8))
    if link_concurrency == "auto":
        link_concurrency = link_plan(n_entries, total_cpus)

    mentions = link_documents(docs_ds, index_ref,
                              concurrency=link_concurrency,
                              batch_size=batch_size)
    emit = EmitTriples(sub_ref, doc_ns)
    # larger emit batches amortize the per-batch subgraph emission
    # (one copy per distinct concept per batch — see EmitTriples)
    triples = mentions.map_batches(
        emit,
        batch_format="pyarrow",
        batch_size=max(batch_size, 4096),
    )
    # Canonicalize BEFORE the dedup: the URI rewrite can merge
    # distinct triples into duplicates (e.g. exactMatch aliases sharing
    # a broader edge), so running the set-semantics dedup downstream of
    # it removes those at zero extra cost — the alternative (dedup
    # first, then rewrite) would need a SECOND full dedup to restore
    # the U4 invariant. The map was solved on the driver from
    # vocab_triples (union-find in memory, no Ray round-trips; see
    # canonical_map_table) and put once with the vocabulary's state.
    triples = apply_canonicalization(triples, canon_ref)
    # Physical-plan choice, measured at 300k docs: on WIDE sessions,
    # materializing the rewritten triples before the dedup shuffle
    # beats the fully-fused DAG (16 cpus: 8.6s split vs 12.7s fused —
    # the long fused map chain delays shuffle inputs and contends with
    # reduce tasks); on NARROW sessions fusion wins via stage overlap
    # with the half-width linker pool (4 cpus: 36s fused vs 47s split).
    # None = auto by width; small-corpus callers (e.g. the sf-dir
    # query harness) pass False to skip the extra exchange, which only
    # pays off when the rewritten triples are corpus-scale
    if materialize_before_dedup is None:
        materialize_before_dedup = total_cpus >= 8
    if materialize_before_dedup:
        triples = triples.materialize()
    # the vocab subgraph is already inverse-closed (see _vocab_subgraph)
    # and mention triples have no inverse, so post-dedup the graph IS
    # the inverse-consistency fixpoint — no corpus-wide closure pass
    if out_dir is None:
        graph = dedup_triples(triples, coalesce=True)
    else:
        from ..state.manifest import Manifest, write_partitioned

        write_partitioned(triples, out_dir, key_col="subj",
                          n_parts=n_parts, stage="graph", lineage=doc_ns,
                          kernel=dedup_table)
        mani = Manifest(out_dir, "graph")
        files = [mani.part_file(p)
                 for p in sorted(mani.done_partitions(doc_ns))]
        # row i of the range is file i, one block each, so files are
        # read in parallel; unlike from_items (a driver put per file)
        # or a parquet read of out_dir (metadata tasks) this starts and
        # puts nothing until the graph is consumed
        graph = rd.range(len(files), override_num_blocks=len(files)) \
            .map_batches(lambda b: _read_files(
                [files[i] for i in b["id"].to_pylist()]),
                batch_format="pyarrow", batch_size=1)
    return {"mentions": mentions, "graph": graph, "canon_map": canon}
