"""The benchmark's workloads.

Each workload builds its inputs from the seed (``make_inputs``), runs
one job through the package's public functions (``job``), checks a
job's outputs (``check``), and runs the same job again one public call
at a time, materializing between calls, inside benchmark spans
(``traced_job``). Sizes are set for a 1-CPU host; see README.md.

Importing this module imports the package; run.py times that import as
part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray
import ray.data as rd

from perfbench import checks
from skosconverter_ray import cli, corpus, vocab
from skosconverter_ray.config import use_hash_shuffle
from skosconverter_ray.functions.text import normalize_surface
from skosconverter_ray.pipelines import flagship
from skosconverter_ray.pipelines.skos2notion import tree_rows_pipeline
from skosconverter_ray.render import sinks
from skosconverter_ray.sources.markdown import parse_markdown_dataset
from skosconverter_ray.sources.ntriples import to_ntriples_text
from skosconverter_ray.sources.turtle import read_turtle, to_turtle_text
from skosconverter_ray.stages.canonicalize import (
    apply_canonicalization,
    canonical_map_table,
    components_min_label,
    equivalence_edges,
)
from skosconverter_ray.stages.communities import label_propagation
from skosconverter_ray.stages.concepts import pivot_concepts
from skosconverter_ray.stages.graph import pagerank
from skosconverter_ray.stages.hierarchy import build_tree_rows, display_parents
from skosconverter_ray.stages.linker import build_label_index, link_documents
from skosconverter_ray.stages.triples import dedup_triples, inverse_consistency
from skosconverter_ray.stages.validate import validate
from skosconverter_ray.state.manifest import write_partitioned

NAMESPACE = "http://example.org/vocab/"
SINKS = (("csv", sinks.to_csv_text), ("markdown", sinks.to_markdown_text),
         ("xml", sinks.to_xml_text), ("json", sinks.to_json_text))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _dir_stats(path: str) -> tuple[int, int]:
    """(data files, bytes) under ``path``, manifest excluded."""
    n = size = 0
    for d, _, files in os.walk(path):
        for f in files:
            if not f.startswith("_"):
                n += 1
                size += os.path.getsize(os.path.join(d, f))
    return n, size


def _dedup_counts(trace, before, after) -> None:
    n_in, n_out = before.count(), after.count()
    trace.count("stages.triples.dedup_triples.rows_in", n_in)
    trace.count("stages.triples.dedup_triples.rows_out", n_out)
    trace.count("stages.triples.dedup_triples.blocks_out", after.num_blocks())
    trace.count("stages.triples.dedup_triples.keep_ratio",
                n_out / max(1, n_in))


DEDUP_LAYERS = {
    "stages.triples.dedup_triples.s", "stages.triples.dedup_triples.rows_in",
    "stages.triples.dedup_triples.rows_out",
    "stages.triples.dedup_triples.blocks_out",
    "stages.triples.dedup_triples.keep_ratio",
}


class GraphEngines:
    """Probe for the Pregel shard-actor engines, forced on: PageRank and
    label propagation over the broader/related edges of a hub-heavy
    vocabulary, connected components over its exactMatch/sameAs edges.
    Neither job reaches these engines (their graphs take the driver fast
    paths), so a traced run times them here, checks each against the
    driver engine on the same edges, and takes wave latency as the
    slope of wall time between two iteration counts."""

    N_SCHEMES, N_CONCEPTS, HUB_FRACTION = 4, 3000, 0.3
    WAVE_ITERS = (5, 25)
    LAYERS = {
        "stages.graph.pagerank.s", "stages.graph.pagerank.wave_ms_b4",
        "stages.graph.pagerank.wave_ms_b8",
        "stages.communities.label_propagation.s",
        "stages.communities.label_propagation.wave_ms_b8",
        "stages.canonicalize.components_min_label.s",
    }

    def __init__(self, seed: int):
        t = vocab.generate_vocab(vocab.VocabSpec(
            n_schemes=self.N_SCHEMES, n_concepts=self.N_CONCEPTS, seed=seed,
            namespace=NAMESPACE, hub_fraction=self.HUB_FRACTION)).triples
        e = t.filter(pc.is_in(t["pred"], value_set=pa.array(
            [checks.BROADER, checks.SKOS + "related"])))
        self.edges = rd.from_arrow(pa.table(
            {"src": e["subj"], "dst": e["obj"]})).materialize()
        self.eq = equivalence_edges(rd.from_arrow(t)).materialize()

    @staticmethod
    def _by_node(ds, col: str, key: str = "node") -> dict:
        df = ds.to_pandas()
        return dict(zip(df[key], df[col]))

    def _pagerank(self, n_iter: int, shards: int, engine: str = "actors"):
        return self._by_node(pagerank(
            self.edges, n_iter=n_iter, num_buckets=shards, engine=engine,
            max_driver_edges=0), "rank")

    def _lpa(self, n_iter: int, shards: int, engine: str = "actors"):
        return self._by_node(label_propagation(
            self.edges, n_iter=n_iter, num_shards=shards, engine=engine,
            max_driver_edges=0), "label")

    def _cc(self, engine: str = "actors"):
        return self._by_node(components_min_label(
            self.eq, engine=engine, num_buckets=4), "canonical_uri",
            key="uri")

    def traced(self, trace) -> list[str]:
        """Time the three engines and their wave latency -> problems.
        pagerank.s is its longer call on 4 shards, label_propagation.s
        its longer call on 8 shards; components run on 4 shards."""
        lo, hi = self.WAVE_ITERS
        results = {}

        def wave_ms(name, fn, shards):
            walls = []
            for n in (lo, hi):
                t0 = time.perf_counter()
                results[name] = fn(n, shards)
                walls.append(time.perf_counter() - t0)
            return walls[1], 1000 * (walls[1] - walls[0]) / (hi - lo)

        pr_s, pr4 = wave_ms("pr", self._pagerank, 4)
        trace.count("stages.graph.pagerank.s", pr_s)
        trace.count("stages.graph.pagerank.wave_ms_b4", pr4)
        trace.count("stages.graph.pagerank.wave_ms_b8",
                    wave_ms("pr8", self._pagerank, 8)[1])
        lpa_s, lpa8 = wave_ms("lpa", self._lpa, 8)
        trace.count("stages.communities.label_propagation.s", lpa_s)
        trace.count("stages.communities.label_propagation.wave_ms_b8", lpa8)
        with trace.span("stages.canonicalize.components_min_label",
                        in_chain=False):
            cc = self._cc()

        bad = []
        want_pr = self._pagerank(hi, 4, "driver")
        for name in ("pr", "pr8"):
            pr = results[name]
            if set(pr) != set(want_pr):
                bad.append("pagerank: actor and driver engines rank "
                           "different node sets")
                continue
            delta = max(abs(pr[n] - want_pr[n]) for n in pr)
            if not delta < 1e-9:
                bad.append(f"pagerank: actors differ from driver by {delta}")
        if results["lpa"] != self._lpa(hi, 8, "driver"):
            bad.append("label_propagation: actor labels differ from driver")
        if cc != self._cc("driver"):
            bad.append("components_min_label: actor components differ from "
                       "driver")
        return bad


class SkosConvert:
    """The reference's to-* path on one vocabulary, then its to-skos
    path on the Markdown it wrote: Turtle -> validation -> ordered
    hierarchy -> CSV, Markdown, Confluence XML and JSON files ->
    Markdown parsed back to SKOS and written as N-Triples."""

    name = "skos_convert"
    N_SCHEMES, N_CONCEPTS = 4, 600
    LAYERS = DEDUP_LAYERS | GraphEngines.LAYERS | {
        "sources.turtle.read_turtle.s", "sources.turtle.read_turtle.rows_out",
        "stages.validate.validate.s", "stages.validate.validate.issues_out",
        "stages.triples.inverse_consistency.s",
        "stages.triples.inverse_consistency.rows_added",
        "stages.concepts.pivot_concepts.s",
        "stages.concepts.pivot_concepts.rows_out",
        "stages.hierarchy.display_parents.s",
        "stages.hierarchy.build_tree_rows.s",
        "stages.hierarchy.build_tree_rows.rows_out",
        "render.sinks.to_csv_text.s", "render.sinks.to_csv_text.bytes_out",
        "render.sinks.to_markdown_text.s",
        "render.sinks.to_markdown_text.bytes_out",
        "render.sinks.to_xml_text.s", "render.sinks.to_xml_text.bytes_out",
        "render.sinks.to_json_text.s", "render.sinks.to_json_text.bytes_out",
        "render.sinks.rss_delta_mb",
        "sources.markdown.parse_markdown_dataset.s",
        "sources.markdown.parse_markdown_dataset.rows_out",
        "sources.ntriples.to_ntriples_text.s",
        "sources.ntriples.to_ntriples_text.bytes_out",
        "cli.main.to_markdown.per_file_ms", "cli.main.to_skos.per_file_ms",
    }

    def make_inputs(self, seed: int, in_dir: str) -> None:
        v = vocab.generate_vocab(vocab.VocabSpec(
            n_schemes=self.N_SCHEMES, n_concepts=self.N_CONCEPTS, seed=seed,
            namespace=NAMESPACE))
        os.makedirs(in_dir)
        self.seed = seed
        self.in_dir = in_dir
        self.ttl = os.path.join(in_dir, "vocab.ttl")
        _write(self.ttl, to_turtle_text(rd.from_arrow(v.triples)))
        t = v.triples
        self.items = t.num_rows  # triples read per job
        self.concepts = v.concept_uris
        self.depths = checks.concept_depths(t)
        labels = t.filter(pc.and_(pc.equal(t["pred"], checks.PREF_LABEL),
                                  pc.equal(t["lang"], "en")))
        concept_set = set(self.concepts)
        self.round_trip_truth = {
            (s, checks.PREF_LABEL, o)
            for s, o in zip(labels["subj"].to_pylist(),
                            labels["obj"].to_pylist()) if s in concept_set}
        for s, p, o in zip(t["subj"].to_pylist(), t["pred"].to_pylist(),
                           t["obj"].to_pylist()):
            if p == checks.BROADER:
                self.round_trip_truth.add((s, checks.BROADER, o))
                self.round_trip_truth.add((o, checks.NARROWER, s))
        self.info = {"triples": t.num_rows, "concepts": len(self.concepts),
                     "ttl_bytes": os.path.getsize(self.ttl)}

    @staticmethod
    def _paths(out_dir: str) -> dict[str, str]:
        ext = {"csv": "csv", "markdown": "md", "xml": "xml", "json": "json",
               "nt": "nt"}
        return {f: os.path.join(out_dir, "vocab." + e) for f, e in ext.items()}

    def job(self, out_dir: str) -> dict:
        paths = self._paths(out_dir)
        triples = read_turtle([self.ttl]).materialize()
        issues = validate(triples).to_arrow_refs()
        tree = tree_rows_pipeline(triples).materialize()
        for fmt, render in SINKS:
            _write(paths[fmt], render(tree))
        docs = rd.from_items([{"doc_id": "vocab.md",
                               "text": _read(paths["markdown"])}])
        _write(paths["nt"], to_ntriples_text(
            parse_markdown_dataset(docs, NAMESPACE)))
        return {"paths": paths, "issues": issues}

    def traced_job(self, out_dir: str, trace) -> dict:
        paths = self._paths(out_dir)
        with trace.span("sources.turtle.read_turtle"):
            triples = read_turtle([self.ttl]).materialize()
        trace.count("sources.turtle.read_turtle.rows_out", triples.count())
        with trace.span("stages.validate.validate"):
            issues = validate(triples).materialize()
        trace.count("stages.validate.validate.issues_out", issues.count())
        # tree_rows_pipeline = dedup -> inverse closure -> build_tree_rows
        with trace.span("stages.triples.dedup_triples"):
            deduped = dedup_triples(triples).materialize()
        _dedup_counts(trace, triples, deduped)
        with trace.span("stages.triples.inverse_consistency"):
            closed = inverse_consistency(deduped).materialize()
        trace.count("stages.triples.inverse_consistency.rows_added",
                    closed.count() - deduped.count())
        with trace.span("stages.hierarchy.build_tree_rows"):
            tree = build_tree_rows(closed).materialize()
        trace.count("stages.hierarchy.build_tree_rows.rows_out", tree.count())
        with trace.rss_delta("render.sinks.rss_delta_mb"):
            for fmt, render in SINKS:
                name = f"render.sinks.{render.__name__}"
                with trace.span(name):
                    text = render(tree)
                trace.count(name + ".bytes_out", len(text.encode()))
                _write(paths[fmt], text)
        docs = rd.from_items([{"doc_id": "vocab.md",
                               "text": _read(paths["markdown"])}])
        with trace.span("sources.markdown.parse_markdown_dataset"):
            back = parse_markdown_dataset(docs, NAMESPACE).materialize()
        trace.count("sources.markdown.parse_markdown_dataset.rows_out",
                    back.count())
        with trace.span("sources.ntriples.to_ntriples_text"):
            nt = to_ntriples_text(back)
        trace.count("sources.ntriples.to_ntriples_text.bytes_out",
                    len(nt.encode()))
        _write(paths["nt"], nt)

        # after the job: build_tree_rows runs these two itself, so they
        # are timed alone, outside the job's chain of spans
        with trace.span("stages.concepts.pivot_concepts", in_chain=False):
            concepts = pivot_concepts(closed).materialize()
        trace.count("stages.concepts.pivot_concepts.rows_out",
                    concepts.count())
        with trace.span("stages.hierarchy.display_parents", in_chain=False):
            display_parents(closed).materialize()
        # the CLI's --batch-dir path on the one input file
        md_dir, nt_dir = (os.path.join(out_dir, d)
                          for d in ("cli_md", "cli_nt"))
        for cmd, src, dst in (("to-markdown", self.in_dir, md_dir),
                              ("to-skos", md_dir, nt_dir)):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([cmd, "--batch-dir", src, "--output-dir", dst])
            trace.count(f"cli.main.{cmd.replace('-', '_')}.per_file_ms",
                        1000 * (time.perf_counter() - t0))
        return {"paths": paths, "issues": issues.to_arrow_refs(),
                "cli_nt": os.path.join(nt_dir, "vocab.nt"),
                "extra": GraphEngines(self.seed).traced(trace)}

    def check(self, out: dict) -> list[str]:
        bad = list(out.get("extra", ()))
        errors = sum(pc.sum(pc.equal(t["severity"], "error")).as_py() or 0
                     for t in ray.get(out["issues"]) if t.num_rows)
        if errors:
            bad.append(f"validation reported {errors} errors on a clean "
                       "vocabulary")
        texts = {fmt: _read(out["paths"][fmt]) for fmt, _ in SINKS}
        bad += checks.tree_problems(texts, self.concepts, self.depths)
        keep = (checks.PREF_LABEL, checks.BROADER, checks.NARROWER)
        nts = [out["paths"]["nt"]]
        if "cli_nt" in out:
            nts.append(out["cli_nt"])
        for path in nts:
            found = {t for t in checks.ntriples(_read(path)) if t[1] in keep
                     and t[0] in self.depths}
            p, r = checks.pr(found, self.round_trip_truth)
            if p < 0.95 or r < 0.95:
                bad.append(f"{path} round trip P={p:.3f} R={r:.3f} < 0.95")
        return bad


class KgBuild:
    """The flagship: documents -> linker -> triples -> canonicalize ->
    dedup -> adjacency-partitioned parquet with a manifest."""

    name = "kg_build"
    N_SCHEMES, N_CONCEPTS, N_DOCS = 4, 2000, 1000
    DOC_NS = "http://skosconverter-ray.example.org/doc/"
    N_PARTS = 32
    LAYERS = DEDUP_LAYERS | {
        "pipelines.flagship.run_flagship.default_plan_s",
        "stages.linker.build_label_index.s",
        "stages.linker.build_label_index.entries",
        "stages.linker.link_documents.s",
        "stages.linker.link_documents.rows_out",
        "stages.linker.link_documents.precision",
        "stages.linker.link_documents.recall",
        "pipelines.flagship.EmitTriples.s",
        "pipelines.flagship.EmitTriples.rows_out",
        "stages.canonicalize.canonical_map_table.s",
        "stages.canonicalize.canonical_map_table.rows_out",
        "stages.canonicalize.apply_canonicalization.s",
        "state.manifest.write_partitioned.s",
        "state.manifest.write_partitioned.rows_written",
        "state.manifest.write_partitioned.bytes_written",
        "state.manifest.write_partitioned.files_written",
    }

    def make_inputs(self, seed: int, in_dir: str) -> None:
        v = vocab.generate_vocab(vocab.VocabSpec(
            n_schemes=self.N_SCHEMES, n_concepts=self.N_CONCEPTS, seed=seed,
            namespace=NAMESPACE))
        self.vocab_triples = v.triples
        self.docs = corpus.documents_dataset(self.N_DOCS, v,
                                             seed=seed).materialize()
        gt = corpus.ground_truth_mentions(self.N_DOCS, v, seed=seed)
        self.truth_spans = {
            (d, s, normalize_surface(t), u) for d, s, t, u in zip(
                gt["doc_id"].to_pylist(), gt["span_idx"].to_pylist(),
                gt["surface"].to_pylist(), gt["concept_uri"].to_pylist())}
        canon = checks.canonical_map(v.triples)
        self.truth_links = {
            (d, canon.get(u, u)) for d, u in zip(
                gt["doc_id"].to_pylist(), gt["concept_uri"].to_pylist())}
        self.items = self.N_DOCS  # documents per job
        self.info = {"docs": self.N_DOCS, "concepts": self.N_CONCEPTS,
                     "vocab_triples": v.triples.num_rows,
                     "true_mentions": gt.num_rows}

    def _run_flagship(self, graph_dir: str, **plan) -> None:
        flagship.run_flagship(self.docs, self.vocab_triples,
                              doc_ns=self.DOC_NS, out_dir=graph_dir,
                              n_parts=self.N_PARTS, **plan)

    def job(self, out_dir: str) -> dict:
        # Elastic linker tasks, the plan the default picks on wide
        # sessions. On narrow ones the default picks an actor pool that
        # holds the only CPU and stalls the job by 0-30 s at random; the
        # traced run times that plan instead (default_plan_s).
        graph_dir = os.path.join(out_dir, "graph")
        self._run_flagship(graph_dir, link_concurrency=None)
        return {"graph_dir": graph_dir}

    def traced_job(self, out_dir: str, trace) -> dict:
        # the calls and arguments run_flagship makes for the job's plan
        use_hash_shuffle()
        with trace.span("stages.linker.build_label_index"):
            index = build_label_index(self.vocab_triples)
            index_ref = ray.put(index)
        trace.count("stages.linker.build_label_index.entries", len(index))
        with trace.span("stages.linker.link_documents"):
            mentions = link_documents(self.docs, index_ref, concurrency=None,
                                      batch_size=1024).materialize()
        m = pa.concat_tables(ray.get(mentions.to_arrow_refs()))
        trace.count("stages.linker.link_documents.rows_out", m.num_rows)
        found = set(zip(m["doc_id"].to_pylist(),
                        [int(x) for x in m["span_idx"].to_pylist()],
                        m["surface"].to_pylist(),
                        m["concept_uri"].to_pylist()))
        p, r = checks.pr(found, self.truth_spans)
        trace.count("stages.linker.link_documents.precision", p)
        trace.count("stages.linker.link_documents.recall", r)
        with trace.span("pipelines.flagship.EmitTriples"):
            sub_ref = ray.put(flagship._vocab_subgraph(self.vocab_triples))
            triples = mentions.map_batches(
                flagship.EmitTriples(sub_ref, self.DOC_NS),
                batch_format="pyarrow", batch_size=4096).materialize()
        trace.count("pipelines.flagship.EmitTriples.rows_out",
                    triples.count())
        with trace.span("stages.canonicalize.canonical_map_table"):
            canon = canonical_map_table(self.vocab_triples)
        trace.count("stages.canonicalize.canonical_map_table.rows_out",
                    canon.num_rows)
        with trace.span("stages.canonicalize.apply_canonicalization"):
            triples = apply_canonicalization(triples, canon).materialize()
        with trace.span("stages.triples.dedup_triples"):
            graph = dedup_triples(triples, coalesce=True).materialize()
        _dedup_counts(trace, triples, graph)
        graph_dir = os.path.join(out_dir, "graph")
        with trace.span("state.manifest.write_partitioned"):
            write_partitioned(graph, graph_dir, key_col="subj",
                              n_parts=self.N_PARTS, stage="graph",
                              lineage=self.DOC_NS)
        files, size = _dir_stats(graph_dir)
        trace.count("state.manifest.write_partitioned.rows_written",
                    graph.count())
        trace.count("state.manifest.write_partitioned.files_written", files)
        trace.count("state.manifest.write_partitioned.bytes_written", size)
        extra = ([] if p >= 0.95 and r >= 0.95 else
                 [f"span-level link P={p:.3f} R={r:.3f} < 0.95"])

        # after the job: run_flagship with its default plan, whole
        default_dir = os.path.join(out_dir, "default_plan")
        t0 = time.perf_counter()
        self._run_flagship(default_dir)
        trace.count("pipelines.flagship.run_flagship.default_plan_s",
                    time.perf_counter() - t0)
        extra += self.check({"graph_dir": default_dir})
        return {"graph_dir": graph_dir, "extra": extra}

    def check(self, out: dict) -> list[str]:
        bad = list(out.get("extra", ()))
        g = pads.dataset(out["graph_dir"], format="parquet",
                         partitioning="hive").to_table(
            columns=["subj", "pred", "obj", "obj_is_literal", "lang"])
        with open(os.path.join(out["graph_dir"], "_manifest.jsonl")) as f:
            manifest = sum(json.loads(line)["row_count"] for line in f)
        if manifest != g.num_rows:
            bad.append(f"manifest counts {manifest} rows, parquet holds "
                       f"{g.num_rows}")
        rows = list(zip(*(g[c].to_pylist() for c in g.column_names)))
        bad += checks.graph_problems(rows)
        found = {(s[len(self.DOC_NS):], o) for s, p, o, _, _ in rows
                 if p == flagship.PRED_MENTIONS}
        p, r = checks.pr(found, self.truth_links)
        if p < 0.95 or r < 0.95:
            bad.append(f"graph mention links P={p:.3f} R={r:.3f} < 0.95")
        return bad


WORKLOADS = {w.name: w for w in (SkosConvert, KgBuild)}
