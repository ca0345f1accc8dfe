"""Output checks for the benchmark's jobs.

Each parser reads one of the program's written outputs on its own,
without the package's code, so a wrong output cannot vouch for itself.
"""

from __future__ import annotations

import csv
import html
import io
import json
import re
from collections import Counter

SKOS = "http://www.w3.org/2004/02/skos/core#"
OWL_SAME_AS = "http://www.w3.org/2002/07/owl#sameAs"
BROADER, NARROWER = SKOS + "broader", SKOS + "narrower"
PREF_LABEL = SKOS + "prefLabel"
TOP_CONCEPT_OF = SKOS + "topConceptOf"
INVERSE = {BROADER: NARROWER, NARROWER: BROADER,
           SKOS + "hasTopConcept": TOP_CONCEPT_OF,
           TOP_CONCEPT_OF: SKOS + "hasTopConcept"}
SYMMETRIC = {SKOS + "related", SKOS + "exactMatch", OWL_SAME_AS}
EQUIVALENCE = (SKOS + "exactMatch", OWL_SAME_AS)


def pr(found: set, truth: set) -> tuple[float, float]:
    tp = len(found & truth)
    return tp / max(1, len(found)), tp / max(1, len(truth))


# ---------------------------------------------------------------------------
# expected values from the generator's triples
# ---------------------------------------------------------------------------

def concept_depths(triples) -> dict[str, int]:
    """Depth of each concept as the generator placed it: 1 for a top
    concept, parent's depth + 1 below it."""
    parent, top = {}, set()
    for s, p, o in zip(triples["subj"].to_pylist(),
                       triples["pred"].to_pylist(),
                       triples["obj"].to_pylist()):
        if p == BROADER:
            parent[s] = o
        elif p == TOP_CONCEPT_OF:
            top.add(s)
    depth: dict[str, int] = {}

    def d(u: str) -> int:
        chain = []
        while u not in depth and u not in top:
            chain.append(u)
            u = parent[u]
        base = depth.setdefault(u, 1)
        for k, c in enumerate(reversed(chain), 1):
            depth[c] = base + k
        return depth[chain[0]] if chain else base

    for u in list(parent) + list(top):
        d(u)
    return depth


def canonical_map(triples) -> dict[str, str]:
    """Union-find over sameAs/exactMatch; representative = min URI."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, p, o in zip(triples["subj"].to_pylist(),
                       triples["pred"].to_pylist(),
                       triples["obj"].to_pylist()):
        if p in EQUIVALENCE:
            a, b = find(s), find(o)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return {u: find(u) for u in parent}


# ---------------------------------------------------------------------------
# the four tree renderings -> [(uri, level)] in document order
# ---------------------------------------------------------------------------

def csv_rows(text: str) -> list[tuple[str, int]]:
    rows = list(csv.reader(io.StringIO(text)))
    head = rows[0]
    iu, il = head.index("URI"), head.index("Level")
    return [(r[iu], int(r[il])) for r in rows[1:] if r[iu]]


_MD_HEADING = re.compile(r"^(#{1,6}) ")
_MD_DEEP = re.compile(r"^( *)\*\*◦ ")
_MD_URI = re.compile(r"^_URI:_ <([^>]*)>")


def markdown_rows(text: str) -> list[tuple[str, int]]:
    out, level = [], None
    for line in text.splitlines():
        m = _MD_HEADING.match(line)
        if m:
            level = len(m.group(1)) - 1
            continue
        m = _MD_DEEP.match(line)
        if m:  # past H6: two spaces of indent per level below 6
            level = 5 + len(m.group(1)) // 2
            continue
        m = _MD_URI.match(line)
        if m:
            out.append((m.group(1), level))
    return out


_XML_HEADING = re.compile(r"^<h(\d)>")
_XML_DEEP = re.compile(r"^<p>((?:&nbsp;)*)<strong>")
_XML_URI = re.compile(r"^<p><code>(.*)</code></p>$")


def xml_rows(text: str) -> list[tuple[str, int]]:
    out, level, in_uri = [], None, False
    for line in text.splitlines():
        m = _XML_HEADING.match(line)
        if m:
            level = int(m.group(1)) - 1
            continue
        m = _XML_DEEP.match(line)
        if m:
            level = 5 + len(m.group(1)) // len("&nbsp;") // 4
            continue
        if line == '<ac:parameter ac:name="title">URI</ac:parameter>':
            in_uri = True
            continue
        m = _XML_URI.match(line)
        if m and in_uri:
            out.append((html.unescape(m.group(1)), level))
            in_uri = False
    return out


def json_rows(text: str) -> list[tuple[str, int]]:
    doc = json.loads(text)["vocabulary"]
    depth: dict[str, int] = {}

    def walk(nodes, d):
        for n in nodes:
            depth[n["uri"]] = d
            walk(n["children"], d + 1)

    for s in doc["schemes"]:
        walk(s["children"], 1)
    return [(c["uri"], depth.get(c["uri"], -1))
            for c in doc["concepts"] if c["uri"]]


def tree_problems(outputs: dict[str, str], concepts: list[str],
                  depths: dict[str, int]) -> list[str]:
    """Every concept once per format at its generator depth, and the
    same concept order in all four formats."""
    parsers = {"csv": csv_rows, "markdown": markdown_rows,
               "xml": xml_rows, "json": json_rows}
    want = set(concepts)
    bad, orders = [], {}
    for fmt, parse in parsers.items():
        # level-0 rows are the schemes
        rows = [(u, lv) for u, lv in parse(outputs[fmt]) if u in want
                or lv != 0]
        counts = Counter(u for u, _ in rows)
        missing = want - set(counts)
        extra = set(counts) - want
        twice = [u for u, n in counts.items() if n > 1]
        if missing or extra or twice:
            bad.append(f"{fmt}: {len(missing)} missing, {len(extra)} "
                       f"unexpected, {len(twice)} repeated concepts")
        wrong = [u for u, lv in rows if u in want and lv != depths.get(u)]
        if wrong:
            bad.append(f"{fmt}: {len(wrong)} concepts at the wrong level, "
                       f"e.g. {wrong[0]}")
        orders[fmt] = [u for u, _ in rows]
    if len({tuple(o) for o in orders.values()}) > 1:
        bad.append("the four formats disagree on concept order")
    return bad


# ---------------------------------------------------------------------------
# N-Triples and the written knowledge graph
# ---------------------------------------------------------------------------

_NT = re.compile(r'^<([^>]*)> <([^>]*)> (?:<([^>]*)>|"((?:[^"\\]|\\.)*)"'
                 r'(?:@[A-Za-z0-9-]+|\^\^<[^>]*>)?) \.$')


def _nt_unescape(s: str) -> str:
    return json.loads('"' + s + '"')


def ntriples(text: str) -> list[tuple[str, str, str]]:
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        m = _NT.match(line)
        if not m:
            raise ValueError(f"not an N-Triples line: {line[:80]}")
        s, p, iri, lit = m.groups()
        out.append((s, p, iri if iri is not None else _nt_unescape(lit)))
    return out


def graph_problems(rows: list[tuple]) -> list[str]:
    """rows = (subj, pred, obj, obj_is_literal, lang): no duplicate
    triple, and every hierarchical or symmetric edge has its
    counterpart."""
    bad = []
    counts = Counter(rows)
    dups = sum(n - 1 for n in counts.values() if n > 1)
    if dups:
        bad.append(f"graph holds {dups} duplicate triples")
    edges = {(s, p, o) for s, p, o, lit, _ in rows if not lit}
    missing = 0
    for s, p, o in edges:
        if p in INVERSE and (o, INVERSE[p], s) not in edges:
            missing += 1
        elif p in SYMMETRIC and (o, p, s) not in edges:
            missing += 1
    if missing:
        bad.append(f"graph is not inverse-closed: {missing} edges "
                   "lack their counterpart")
    return bad
