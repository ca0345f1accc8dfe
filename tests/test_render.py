"""Golden-output conformance for the render pipeline (FIXTURES.md §4)
plus N-Triples and markdown round-trips."""

from __future__ import annotations

import pyarrow as pa
import pytest

from skosconverter_ray import schemas
from skosconverter_ray.config import (
    OWL_SAME_AS,
    RDF_TYPE,
    SKOS_ALT_LABEL,
    SKOS_BROADER,
    SKOS_CONCEPT,
    SKOS_CONCEPT_SCHEME,
    SKOS_DEFINITION,
    SKOS_HAS_TOP_CONCEPT,
    SKOS_IN_SCHEME,
    SKOS_NARROWER,
    SKOS_NOTATION,
    SKOS_PREF_LABEL,
    SKOS_RELATED,
    SKOS_TOP_CONCEPT_OF,
)

EX = "http://ex.org/"


def tiny_fixture() -> pa.Table:
    """The Animals fixture of FIXTURES.md §4, exercising: both
    top-concept directions, a broader chain, in-scheme orphan,
    scheme-less concept, full metadata on one node."""
    rows = []

    def add(s, p, o, lit=False, lang=None):
        rows.append((s, p, o, lit, lang, None))

    add(EX + "scheme", RDF_TYPE, SKOS_CONCEPT_SCHEME)
    add(EX + "scheme", SKOS_PREF_LABEL, "Animals", True, "en")
    for frag, label in [("mammal", "Mammal"), ("bird", "Bird"),
                        ("dog", "Dog"), ("puppy", "Puppy"),
                        ("stray", "Stray"), ("lost", "Lost")]:
        add(EX + frag, RDF_TYPE, SKOS_CONCEPT)
        add(EX + frag, SKOS_PREF_LABEL, label, True, "en")
    add(EX + "scheme", SKOS_HAS_TOP_CONCEPT, EX + "mammal")  # one-sided
    add(EX + "bird", SKOS_TOP_CONCEPT_OF, EX + "scheme")     # one-sided
    add(EX + "dog", SKOS_BROADER, EX + "mammal")
    add(EX + "dog", SKOS_DEFINITION, "A canine", True, "en")
    add(EX + "dog", SKOS_ALT_LABEL, "hound", True, "en")
    add(EX + "dog", SKOS_NOTATION, "D1", True)
    add(EX + "dog", OWL_SAME_AS, EX + "wikidata/Q144")
    add(EX + "dog", SKOS_RELATED, EX + "bird")
    add(EX + "puppy", SKOS_BROADER, EX + "dog")
    add(EX + "stray", SKOS_IN_SCHEME, EX + "scheme")

    return pa.table(
        {
            "subj": pa.array([r[0] for r in rows]),
            "pred": pa.array([r[1] for r in rows]),
            "obj": pa.array([r[2] for r in rows]),
            "obj_is_literal": pa.array([r[3] for r in rows]),
            "lang": pa.array([r[4] for r in rows], pa.string()),
            "source_doc": pa.array([r[5] for r in rows], pa.string()),
        },
        schema=schemas.TRIPLES,
    )


GOLDEN_CSV = """Title,Parent,Concept Scheme,Definition,Alternative Labels,Notation,URI,Level
[SCHEME] Animals,,Animals,,,,http://ex.org/scheme,0
  Bird,[SCHEME] Animals,Animals,,,,http://ex.org/bird,1
  Mammal,[SCHEME] Animals,Animals,,,,http://ex.org/mammal,1
    Dog,Mammal,Animals,A canine,hound,D1,http://ex.org/dog,2
      Puppy,Dog,Animals,,,,http://ex.org/puppy,3
  [Other Concepts in Animals],[SCHEME] Animals,Animals,Concepts in this scheme without broader relations,,,,1
    Stray,[Other Concepts in Animals],Animals,,,,http://ex.org/stray,2
[UNASSIGNED CONCEPTS],,,Concepts not associated with any concept scheme,,,,0
  Lost,[UNASSIGNED CONCEPTS],,,,,http://ex.org/lost,1
"""


@pytest.fixture(scope="module")
def fixture_ds():
    import ray.data as rd

    return rd.from_arrow(tiny_fixture())


def test_golden_csv(fixture_ds):
    from skosconverter_ray.pipelines import skos2notion

    assert skos2notion.to_csv(fixture_ds) == GOLDEN_CSV


def test_markdown_dog_block(fixture_ds):
    from skosconverter_ray.pipelines import skos2notion

    md = skos2notion.to_markdown(fixture_ds)
    assert "# [SCHEME] Animals" in md.splitlines()[0]
    block = md[md.index("### Dog"):]
    lines = block.splitlines()
    assert lines[0] == "### Dog"
    assert "_Notation:_ `D1`  " in lines
    assert "_Definition:_ A canine  " in lines
    assert "_Alternative Labels:_ hound  " in lines
    assert "_URI:_ <http://ex.org/dog>" in lines   # no soft-break (quirk 995)
    assert "_Same as:_ <http://ex.org/wikidata/Q144>  " in lines
    assert "_Related:_ <http://ex.org/bird>  " in lines
    # metadata order Notation -> Definition -> AltLabels -> URI -> SameAs -> Related
    idx = [lines.index(l) for l in (
        "_Notation:_ `D1`  ", "_Definition:_ A canine  ",
        "_Alternative Labels:_ hound  ", "_URI:_ <http://ex.org/dog>",
        "_Same as:_ <http://ex.org/wikidata/Q144>  ",
        "_Related:_ <http://ex.org/bird>  ")]
    assert idx == sorted(idx)


def test_xml_structure(fixture_ds):
    from skosconverter_ray.pipelines import skos2notion

    xml = skos2notion.to_xml(fixture_ds)
    # envelope (ref 1050-1054): declaration + expand macro wrapper
    assert xml.startswith('<?xml version="1.0" encoding="UTF-8"?>\n'
                          "<ac:confluence-content>")
    assert ('<ac:structured-macro ac:name="expand" ac:schema-version="1">'
            in xml)
    assert '<ac:parameter ac:name="title">SKOS Vocabulary</ac:parameter>' in xml
    assert xml.rstrip().endswith("</ac:confluence-content>")
    assert "<h1>[SCHEME] Animals</h1>" in xml
    assert "<h3>Dog</h3>" in xml
    assert "<p><em>Definition:</em> A canine</p>" in xml
    # Definition before Notation (XML order differs from markdown)
    assert xml.index("<em>Definition:</em> A canine") < \
        xml.index("<em>Notation:</em>")
    # URI info panel with title param and <code> body (ref 1125-1133)
    assert ('<ac:structured-macro ac:name="info" ac:schema-version="1">\n'
            '<ac:parameter ac:name="title">URI</ac:parameter>\n'
            "<ac:rich-text-body>\n"
            "<p><code>http://ex.org/dog</code></p>" in xml)


def test_deep_levels_render_fallbacks():
    """Markdown ▸/▹/◦ prefixes (ref 959-973) and the >H6 / >h6
    bold-indent fallbacks (ref 968-973, 1104-1110)."""
    import ray.data as rd

    from skosconverter_ray.render.sinks import md_heading, to_xml_text

    def _md_heading(level, title):
        return md_heading(pa.array([level]), pa.array([title]))[0].as_py()

    assert _md_heading(3, "X") == "### X"
    assert _md_heading(4, "X") == "#### ▸ X"
    assert _md_heading(5, "X") == "##### ▹ X"
    assert _md_heading(6, "X") == "###### ◦ X"
    assert _md_heading(7, "X") == "  **◦ X**"
    assert _md_heading(8, "X") == "    **◦ X**"

    deep = pa.table({
        "sort_key": pa.array(["a"]), "title": pa.array(["Deep"]),
        "parent": pa.array([""]), "scheme": pa.array([""]),
        "definition": pa.array([""]), "alt_labels": pa.array([""]),
        "notation": pa.array([""]), "same_as": pa.array([""]),
        "related": pa.array([""]), "uri": pa.array(["http://ex.org/deep"]),
        "level": pa.array([7], pa.int32()),
    })
    block = to_xml_text(rd.from_arrow(deep))
    assert "<p>&nbsp;&nbsp;&nbsp;&nbsp;&nbsp;&nbsp;&nbsp;&nbsp;" \
           "<strong>Deep</strong></p>" in block


def test_json_envelope(fixture_ds):
    from skosconverter_ray.pipelines import skos2notion

    obj = skos2notion.to_json(fixture_ds)
    voc = obj["vocabulary"]
    assert {s["title"] for s in voc["schemes"]} == {"Animals"}
    by_title = {c["title"]: c for c in voc["concepts"]}
    assert by_title["Dog"]["id"] == "http:__ex.org_dog"
    assert by_title["Dog"]["definition"] == "A canine"
    assert by_title["Dog"]["alternative_labels"] == ["hound"]
    dog_children = [c["title"] for c in by_title["Dog"]["children"]]
    assert dog_children == ["Puppy"]
    assert by_title["Puppy"]["parent_id"] == by_title["Dog"]["id"]


def test_ntriples_roundtrip(fixture_ds):
    import ray.data as rd

    from skosconverter_ray.sources import ntriples

    text = ntriples.to_ntriples_text(fixture_ds)
    lines = rd.from_items([{"text": l} for l in text.splitlines()])
    back = lines.map_batches(ntriples.parse_lines_batch,
                             batch_format="pyarrow").to_pandas()
    orig = fixture_ds.to_pandas()

    def key(df):
        return set(zip(df["subj"], df["pred"], df["obj"],
                       df["obj_is_literal"], df["lang"].fillna("")))

    assert key(back) == key(orig)


def test_markdown_roundtrip_triples(fixture_ds):
    """vocab -> markdown -> triples: hierarchy + labels + metadata
    survive (D2/D3-fixed semantics; Lorem ipsum injected for missing
    definitions per ref 1520-1522)."""
    import ray.data as rd

    from skosconverter_ray.pipelines import skos2notion
    from skosconverter_ray.sources.markdown import parse_markdown_dataset

    md = skos2notion.to_markdown(fixture_ds)
    docs = rd.from_items([{"doc_id": "f", "text": md}])
    back = parse_markdown_dataset(docs, "http://ex.org/").to_pandas()
    triples = set(zip(back["subj"], back["pred"], back["obj"]))

    # URIs preserved (D3 fix), hierarchy pairs both directions
    assert (EX + "dog", SKOS_BROADER, EX + "mammal") in triples
    assert (EX + "mammal", SKOS_NARROWER, EX + "dog") in triples
    assert (EX + "scheme", SKOS_HAS_TOP_CONCEPT, EX + "mammal") in triples
    assert (EX + "mammal", SKOS_TOP_CONCEPT_OF, EX + "scheme") in triples
    assert (EX + "dog", SKOS_PREF_LABEL, "Dog") in triples
    assert (EX + "dog", SKOS_DEFINITION, "A canine") in triples
    assert (EX + "dog", SKOS_ALT_LABEL, "hound") in triples
    assert (EX + "dog", SKOS_NOTATION, "D1") in triples
    assert (EX + "dog", OWL_SAME_AS, EX + "wikidata/Q144") in triples
    assert (EX + "dog", SKOS_RELATED, EX + "bird") in triples
    # missing definition -> Lorem ipsum placeholder
    assert (EX + "puppy", SKOS_DEFINITION, "Lorem ipsum") in triples
    # [UNASSIGNED CONCEPTS] section skipped, but Lost is under it ->
    # Lost has no scheme in the render, so it re-enters under no H1?
    # It renders AFTER the unassigned container at level 1 -> H2 under
    # the *previous* scheme does not apply: container resets nothing in
    # markdown. Documented divergence: Lost re-attaches to Animals.
    assert (EX + "lost", SKOS_PREF_LABEL, "Lost") in triples


def test_markdown_multiline_fields_roundtrip(ray_session):
    """A title, definition, alt label and notation holding LF, CR LF, a
    lone CR, a backslash or text that looks like the escapes come back
    whole from the Markdown writer through the parser (each value stays
    on its one line, LF as ``<br>`` and CR as ``&#13;``), where a
    verbatim line break kept only the first line."""
    import ray.data as rd

    from skosconverter_ray.pipelines import skos2notion
    from skosconverter_ray.sources.markdown import parse_markdown_dataset

    title = "Two\r\nline \\n <br> title"
    definition = ("two\nlines, then\r\nCRLF and\ra lone CR\\ "
                  "&#13; &lt;br> &amp;lt;br> &amp;#13;")
    alt = "alt\nlabel"
    notation = "N\\1\n"
    t = tiny_fixture()
    rows = [(EX + "dog", SKOS_PREF_LABEL, title, True, "en", None),
            (EX + "dog", SKOS_DEFINITION, definition, True, "en", None),
            (EX + "dog", SKOS_ALT_LABEL, alt, True, "en", None),
            (EX + "dog", SKOS_NOTATION, notation, True, None, None)]
    drop = {(EX + "dog", p) for p in (SKOS_PREF_LABEL, SKOS_DEFINITION,
                                      SKOS_ALT_LABEL, SKOS_NOTATION)}
    kept = [r for r in zip(*(t[c].to_pylist() for c in t.column_names))
            if (r[0], r[1]) not in drop]
    t = pa.table([pa.array(c, f.type) for c, f in
                  zip(zip(*(kept + rows)), schemas.TRIPLES)],
                 schema=schemas.TRIPLES)

    md = skos2notion.to_markdown(rd.from_arrow(t))
    back = parse_markdown_dataset(rd.from_items([{"doc_id": "f", "text": md}]),
                                  "http://ex.org/").to_pandas()
    got = {(p, o) for s, p, o in zip(back["subj"], back["pred"], back["obj"])
           if s == EX + "dog"}
    assert (SKOS_PREF_LABEL, title) in got
    assert (SKOS_DEFINITION, definition) in got
    assert (SKOS_ALT_LABEL, alt) in got
    assert (SKOS_NOTATION, notation) in got
    # the puppy's broader edge still finds the dog under its new title
    assert (EX + "puppy", SKOS_BROADER, EX + "dog") in set(
        zip(back["subj"], back["pred"], back["obj"]))


def test_markdown_handwritten_backslashes_read_as_written():
    """Text the writer did not escape reads as written: backslashes,
    ``\\n``-like sequences and ampersands in a hand-written definition,
    alt label and title are kept, and a ``<br>`` reads as the line
    break it renders as."""
    from skosconverter_ray.sources.markdown import parse_markdown_doc

    doc = ("# Scheme\n\n## C:\\new\\reports\n\n"
           "_Definition:_ See C:\\new\\reports and \\\\host\\r & co  \n"
           "_Alternative Labels:_ a\\nb, x<br>y  \n"
           "_URI:_ <http://ex.org/c>\n")
    got = {(p, o) for s, p, o, *_ in parse_markdown_doc(doc, "http://ex.org/")
           if s == "http://ex.org/c"}
    assert (SKOS_PREF_LABEL, "C:\\new\\reports") in got
    assert (SKOS_DEFINITION,
            "See C:\\new\\reports and \\\\host\\r & co") in got
    assert (SKOS_ALT_LABEL, "a\\nb") in got
    assert (SKOS_ALT_LABEL, "x\ny") in got


def test_markdown_line_escape_fuzz():
    """``md_unescape`` inverts ``md_escape_array`` on seeded random
    strings over the escapes' own pieces, and the escaped text holds no
    line break."""
    import random

    from skosconverter_ray.functions.text import md_escape_array, md_unescape

    rng = random.Random(1)
    alpha = ["&", "amp;", "lt;", "br>", "<", "<br>", "#13;", "\r", "\n",
             "\\", "a", ";"]
    xs = ["".join(rng.choice(alpha) for _ in range(rng.randint(0, 12)))
          for _ in range(20000)]
    for x, e in zip(xs, md_escape_array(pa.array(xs)).to_pylist()):
        assert md_unescape(e) == x and "\n" not in e and "\r" not in e


def test_invalid_uri_minted_with_warning(ray_session):
    """M7 (ref 1464-1482): a malformed _URI:_ value never enters the
    graph — the concept gets a deterministic minted URI and the
    rejected text is recorded as a provenance triple."""
    import ray.data as rd

    from skosconverter_ray.functions.text import is_valid_uri, mint_uri
    from skosconverter_ray.sources.markdown import (
        PRED_INVALID_SOURCE_URI,
        parse_markdown_dataset,
    )

    assert is_valid_uri("http://ex.org/x")
    assert is_valid_uri("urn:isbn:123")
    assert not is_valid_uri("no")
    assert not is_valid_uri("not a uri")
    assert not is_valid_uri("http://ex.org/has space")

    md = ("# Scheme\n\n"
          "## Good\n_URI:_ <http://ex.org/good>\n\n"
          "## Bad\n_URI:_ <notaurl>\n\n")
    docs = rd.from_items([{"doc_id": "m", "text": md}])
    back = parse_markdown_dataset(docs, "http://ex.org/").to_pandas()
    uris = set(back["subj"]) | set(back.loc[~back["obj_is_literal"], "obj"])
    assert "notaurl" not in uris
    minted = mint_uri("http://ex.org/", "Bad")
    assert minted in set(back["subj"])
    warn = back[back["pred"] == PRED_INVALID_SOURCE_URI]
    assert list(warn["subj"]) == [minted]
    assert list(warn["obj"]) == ["notaurl"]


def _markdown_roundtrip(rows, drop=()) -> set:
    """tiny_fixture() without the (subj, pred) pairs in ``drop`` plus
    ``rows``, written to Markdown and parsed back: its (s, p, o) set."""
    import ray.data as rd

    from skosconverter_ray.pipelines import skos2notion
    from skosconverter_ray.sources.markdown import parse_markdown_dataset

    t = tiny_fixture()
    kept = [r for r in zip(*(t[c].to_pylist() for c in t.column_names))
            if (r[0], r[1]) not in drop]
    t = pa.table([pa.array(c, f.type) for c, f in
                  zip(zip(*(kept + rows)), schemas.TRIPLES)],
                 schema=schemas.TRIPLES)
    md = skos2notion.to_markdown(rd.from_arrow(t))
    back = parse_markdown_dataset(rd.from_items([{"doc_id": "f", "text": md}]),
                                  "http://ex.org/").to_pandas()
    return set(zip(back["subj"], back["pred"], back["obj"]))


def test_markdown_empty_title_roundtrip(ray_session):
    """A concept whose prefLabel is "" is written as a bare ``### ``
    heading; the parser reads it as a heading, so its ``_URI:_`` line
    no longer replaces the previous concept's URI, and it comes back
    under its own URI with its empty label and metadata."""
    nameless = EX + "nameless"
    got = _markdown_roundtrip([
        (nameless, RDF_TYPE, SKOS_CONCEPT, False, None, None),
        (nameless, SKOS_PREF_LABEL, "", True, "en", None),
        (nameless, SKOS_ALT_LABEL, "quiet", True, "en", None),
        (nameless, SKOS_BROADER, EX + "mammal", False, None, None)])
    assert (EX + "mammal", SKOS_PREF_LABEL, "Mammal") in got
    assert (EX + "dog", SKOS_BROADER, EX + "mammal") in got
    assert (nameless, SKOS_PREF_LABEL, "") in got
    assert (nameless, SKOS_ALT_LABEL, "quiet") in got
    assert (nameless, SKOS_BROADER, EX + "mammal") in got
    assert not any(s == EX + "mammal" and o == "quiet" for s, _, o in got)


def test_markdown_empty_heading_without_uri_is_skipped():
    """An empty heading with no URI names nothing to mint a URI from:
    it and its metadata are skipped, and the concept before it keeps
    its own URI and definition."""
    from skosconverter_ray.sources.markdown import parse_markdown_doc

    doc = ("# Scheme\n\n## A\n\n_Definition:_ mine  \n_URI:_ <http://ex.org/a>\n"
           "\n###\n\n_Definition:_ stray  \n\n### B\n\n_URI:_ <http://ex.org/b>\n")
    got = {(s, p, o) for s, p, o, *_ in parse_markdown_doc(doc, EX)}
    assert ("http://ex.org/a", SKOS_DEFINITION, "mine") in got
    assert ("http://ex.org/b", SKOS_BROADER, "http://ex.org/a") in got
    assert not any(o == "stray" for _, _, o in got)
    assert "" not in {o for _, p, o in got if p == SKOS_PREF_LABEL}


def test_markdown_alt_label_with_comma_roundtrip(ray_session):
    """Alt labels holding a comma (and the comma's own escape, written
    literally) come back as the same labels, where a split on every
    ``,`` made ``"hound, loyal"`` two labels."""
    labels = ["hound, loyal", "pal", "a &#44; b,", ","]
    got = _markdown_roundtrip(
        [(EX + "dog", SKOS_ALT_LABEL, a, True, "en", None) for a in labels],
        drop={(EX + "dog", SKOS_ALT_LABEL)})
    assert {o for s, p, o in got
            if s == EX + "dog" and p == SKOS_ALT_LABEL} == set(labels)


def test_markdown_list_item_escape_fuzz():
    """With ``commas``, ``md_unescape`` inverts ``md_escape_array`` on
    seeded random strings over the escapes' own pieces, and the
    escaped text holds no comma or line break."""
    import random

    from skosconverter_ray.functions.text import md_escape_array, md_unescape

    rng = random.Random(2)
    alpha = ["&", "amp;", "lt;", "br>", "<br>", "#13;", "#44;", ",", ", ",
             "\r", "\n", "a", ";"]
    xs = ["".join(rng.choice(alpha) for _ in range(rng.randint(0, 12)))
          for _ in range(20000)]
    for x, e in zip(xs, md_escape_array(pa.array(xs), commas=True)
                    .to_pylist()):
        assert md_unescape(e) == x and not set(e) & {",", "\n", "\r"}
