"""CLI — the reference's subcommand surface on the Ray engine.

Mirrors skos_converter.py's ``main`` (1970-2011) + handlers
(1704-1893): ``to-csv`` / ``to-markdown`` / ``to-json`` / ``to-xml``
take a triples file (N-Triples subset — rdflib is unavailable in this
environment, SURVEY.md §4.3) and render the Notion-shaped output;
``to-skos`` parses Notion-style Markdown back into triples with the
reference's *documented* reverse semantics (its shipped implementation
drops every concept, §0.1 D2) and the D3 fix (URIs survive
round-trips). ``--batch-dir`` processes a directory, continuing on
per-file errors (ref BatchProcessor, 467-536) — file-level parallelism
comes from Ray reading all files as one Dataset.

Flags mirror the live reference config (D4: only language prefs and
namespace/prefix are real): ``--language``, ``--fallback-languages``,
``--namespace``, ``--skip-validation`` / ``--force``.

Owns its Ray session (the driver contract in __ray_entry__.py never
inits Ray; the CLI does, guarded).
"""

from __future__ import annotations

import argparse
import glob
import os
import sys


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")


def _read_triples(path: str):
    """File-extension dispatch (ref M11, skos_converter.py:507-510,
    1773-1786): .ttl -> Turtle subset, .json/.jsonld -> JSON-LD subset,
    anything else -> N-Triples."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".ttl":
        from .sources.turtle import read_turtle

        return read_turtle([path])
    if ext in (".json", ".jsonld"):
        import ray.data as rd

        from .sources.jsonld import parse_jsonld_dataset

        with open(path) as f:
            text = f.read()
        docs = rd.from_items([{"doc_id": os.path.basename(path),
                               "text": text}])
        return parse_jsonld_dataset(docs)
    from .sources.ntriples import read_ntriples

    return read_ntriples([path])


def _cfg(args):
    from .config import EngineConfig

    kw = {}
    if args.language:
        kw["preferred_language"] = args.language
    if args.fallback_languages:
        kw["fallback_languages"] = tuple(args.fallback_languages.split(","))
    if getattr(args, "prefix", None):
        kw["prefix"] = args.prefix
    return EngineConfig(**kw)


def _validate_gate(triples_ds, args) -> bool:
    """Reference's conversion gate (1788-1798): abort on issues unless
    --skip-validation/--force."""
    if args.skip_validation:
        return True
    from .stages.validate import errors as error_rows, validate

    errors = error_rows(validate(triples_ds)).materialize()
    n_err = errors.count()
    if n_err and not args.force:
        # truncated diagnostics (O2, ref 152-155, 267-270): first 5
        # rows + "and N more" — the full table stays queryable via the
        # validate() API; the CLI shows a human-sized summary
        for r in errors.take(5):
            print(f"  {r['check']}: {r['subject']} — {r['detail']}",
                  file=sys.stderr)
        if n_err > 5:
            print(f"  ... and {n_err - 5} more", file=sys.stderr)
        print(f"validation found {n_err} error(s); use --force to "
              "convert anyway or --skip-validation to skip the check",
              file=sys.stderr)
        return False
    return True


def _convert_one(in_path: str, out_path: str, fmt: str, args) -> None:
    from .pipelines import skos2notion as p

    # one parse: the gate and the render share the materialized triples
    ds = _read_triples(in_path).materialize()
    if not _validate_gate(ds, args):
        raise SystemExit(2)
    cfg = _cfg(args)
    render = {"csv": p.to_csv, "markdown": p.to_markdown,
              "xml": p.to_xml}.get(fmt)
    if render is not None:
        text = render(ds, cfg)
    else:
        from .render.sinks import to_json_text

        text = to_json_text(p.tree_rows_pipeline(ds, cfg))
    with open(out_path, "w") as f:
        f.write(text)
    print(f"wrote {out_path}")


def _to_skos_one(in_path: str, out_path: str, args) -> None:
    import ray.data as rd

    from .sources.markdown import parse_markdown_dataset
    from .sources.ntriples import to_ntriples_text

    with open(in_path) as f:
        text = f.read()
    docs = rd.from_items([{"doc_id": os.path.basename(in_path),
                           "text": text}])
    triples = parse_markdown_dataset(docs, args.namespace)
    if out_path.endswith(".ttl"):
        # reference to-skos exports turtle (skos_converter.py:1551-1583)
        from .sources.turtle import to_turtle_text

        # --prefix binds the namespace under the user's prefix in the
        # Turtle output (ref 1287-1292: graph.bind(prefix, namespace))
        text_out = to_turtle_text(
            triples, extra_prefixes={args.prefix: args.namespace})
    elif out_path.endswith((".jsonld", ".json")):
        from .sources.jsonld import to_jsonld_text

        text_out = to_jsonld_text(triples)
    else:
        text_out = to_ntriples_text(triples)
    with open(out_path, "w") as f:
        f.write(text_out)
    print(f"wrote {out_path}")


_EXT = {"csv": ".csv", "markdown": ".md", "json": ".json", "xml": ".xml"}


def main(argv=None):
    ap = argparse.ArgumentParser(prog="skosconverter-ray")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd in ("to-csv", "to-markdown", "to-json", "to-xml", "to-skos"):
        s = sub.add_parser(cmd)
        s.add_argument("input", nargs="?", help="input file")
        s.add_argument("--output", "-o")
        s.add_argument("--batch-dir")
        s.add_argument("--output-dir", default=".")
        s.add_argument("--language", default=None)
        s.add_argument("--fallback-languages", default=None)
        s.add_argument("--namespace",
                       default="http://example.org/vocab/")
        s.add_argument("--prefix", default="ex")
        s.add_argument("--skip-validation", action="store_true")
        s.add_argument("--force", action="store_true")
    args = ap.parse_args(argv)
    _init_ray()

    fmt = args.cmd.replace("to-", "")
    if args.batch_dir:
        patterns = (["*.md"] if args.cmd == "to-skos"
                    else ["*.nt", "*.ttl", "*.json", "*.jsonld"])
        files = sorted(
            f for pat in patterns
            for f in glob.glob(os.path.join(args.batch_dir, pat)))
        os.makedirs(args.output_dir, exist_ok=True)
        failures = 0
        for fp in files:
            base = os.path.splitext(os.path.basename(fp))[0]
            out = os.path.join(
                args.output_dir,
                base + (".nt" if args.cmd == "to-skos" else _EXT[fmt]))
            try:
                if args.cmd == "to-skos":
                    _to_skos_one(fp, out, args)
                else:
                    _convert_one(fp, out, fmt, args)
            except SystemExit:
                raise
            except Exception as e:  # ref: log and continue (497-499)
                failures += 1
                print(f"error converting {fp}: {e}", file=sys.stderr)
        print(f"batch done: {len(files) - failures}/{len(files)} ok")
        return

    if not args.input:
        ap.error("input file required (or --batch-dir)")
    out = args.output or (
        os.path.splitext(args.input)[0]
        + (".nt" if args.cmd == "to-skos" else _EXT[fmt]))
    if args.cmd == "to-skos":
        _to_skos_one(args.input, out, args)
    else:
        _convert_one(args.input, out, fmt, args)


if __name__ == "__main__":
    main()
