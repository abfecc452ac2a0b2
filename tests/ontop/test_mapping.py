"""Native mapping language parser tests (Listing 2 format)."""

import pytest

from repro.ontop import (
    OntopMappingError,
    parse_mapping_document,
    parse_target,
)
from repro.rdf import IRI, Literal
from repro.rdf.namespace import NamespaceManager, RDF, XSD

LISTING2 = """\
[PrefixDeclaration]
lai:\thttp://www.app-lab.eu/lai/
geo:\thttp://www.opengis.net/ont/geosparql#
time:\thttp://www.w3.org/2006/time#
xsd:\thttp://www.w3.org/2001/XMLSchema#
rdf:\thttp://www.w3.org/1999/02/22-rdf-syntax-ns#

[MappingDeclaration] @collection [[
mappingId\topendap_mapping
target\tlai:{id} rdf:type lai:Observation .
\tlai:{id} lai:lai {LAI}^^xsd:float ;
\t     time:hasTime {ts}^^xsd:dateTime .
\tlai:{id} geo:hasGeometry _:g .
\t_:g geo:asWKT {loc}^^geo:wktLiteral .
source\tSELECT id, LAI, ts, loc
\tFROM (ordered opendap url:dap://vito.test/Copernicus/LAI, 10)
\tWHERE LAI > 0
]]
"""


def test_parse_listing2_document():
    mappings, ns = parse_mapping_document(LISTING2)
    assert len(mappings) == 1
    m = mappings[0]
    assert m.mapping_id == "opendap_mapping"
    assert m.source_sql.startswith("SELECT id, LAI, ts, loc")
    assert "opendap url:dap://vito.test" in m.source_sql
    assert len(m.target) == 5


def test_target_templates_instantiate():
    mappings, __ = parse_mapping_document(LISTING2)
    row = {
        "id": "2.25_48.86_201806010000",
        "LAI": 3.5,
        "ts": "2018-06-01T00:00:00Z",
        "loc": "POINT (2.25 48.86)",
    }
    bnodes = {}
    triples = [t.instantiate(row, bnodes) for t in mappings[0].target]
    assert all(t is not None for t in triples)
    lai_ns = "http://www.app-lab.eu/lai/"
    subject = IRI(lai_ns + "2.25_48.86_201806010000")
    assert triples[0].s == subject
    assert triples[0].p == RDF.type
    assert triples[1].o == Literal("3.5", datatype=XSD.float)
    # the two _:g occurrences resolve to the same per-row bnode
    assert triples[3].o == triples[4].s


def test_bnode_fresh_per_row():
    mappings, __ = parse_mapping_document(LISTING2)
    row = {"id": "x", "LAI": 1, "ts": "t", "loc": "POINT (0 0)"}
    t1 = mappings[0].target[3].instantiate(dict(row), {})
    t2 = mappings[0].target[3].instantiate(dict(row), {})
    assert t1.o != t2.o


def test_null_column_skips_triple():
    mappings, __ = parse_mapping_document(LISTING2)
    row = {"id": "x", "LAI": None, "ts": "t", "loc": "POINT (0 0)"}
    assert mappings[0].target[1].instantiate(row, {}) is None
    assert mappings[0].target[0].instantiate(row, {}) is not None


def test_multiple_mappings():
    doc = LISTING2 + """
mappingId\tsecond
target\tlai:{id} lai:ndvi {NDVI}^^xsd:float .
source\tSELECT id, NDVI FROM ndvi_table
"""
    mappings, __ = parse_mapping_document(doc)
    assert [m.mapping_id for m in mappings] == ["opendap_mapping", "second"]


def test_parse_target_object_list():
    ns = NamespaceManager()
    triples = parse_target(
        "lai:{id} a lai:Observation , lai:Measurement .", ns
    )
    assert len(triples) == 2
    assert triples[0].p.constant == RDF.type


def test_parse_target_quoted_literal():
    ns = NamespaceManager()
    triples = parse_target('lai:{id} lai:name "fixed name"@fr .', ns)
    node = triples[0].o
    assert node.kind == "literal"
    assert node.lang == "fr"
    assert node.instantiate({"id": 1}, {}) == Literal("fixed name", lang="fr")


def test_parse_target_iriref():
    ns = NamespaceManager()
    triples = parse_target(
        "<http://ex/{id}> <http://ex/p> {v}^^xsd:int .", ns
    )
    t = triples[0].instantiate({"id": 5, "v": 9}, {})
    assert t.s == IRI("http://ex/5")


def test_bad_prefix_raises():
    with pytest.raises(OntopMappingError):
        parse_target("nosuch:{id} a nosuch:Thing .", NamespaceManager())


def test_empty_document_raises():
    with pytest.raises(OntopMappingError):
        parse_mapping_document("[PrefixDeclaration]\n")


def test_block_without_source_raises():
    with pytest.raises(OntopMappingError):
        parse_mapping_document(
            "mappingId m1\ntarget lai:{id} a lai:X .\n"
        )


def test_iri_spaces_sanitized():
    ns = NamespaceManager()
    triples = parse_target("lai:{name} a lai:Park .", ns)
    t = triples[0].instantiate({"name": "Bois de Boulogne"}, {})
    assert " " not in str(t.s)


# -- compiled templates --------------------------------------------------------

def _literal(text, datatype=None, lang=None):
    from repro.ontop.mapping import NodeTemplate

    return NodeTemplate("literal", text, datatype=datatype, lang=lang)


def test_compiled_template_two_placeholders_and_adjacent_text():
    from repro.ontop.mapping import NodeTemplate

    node = NodeTemplate("iri", "http://ex/obs/{lon}_{lat}/v")
    assert node.columns == ["lon", "lat"]
    term = node.instantiate({"lon": 2.25, "lat": 48.5}, {})
    assert term == IRI("http://ex/obs/2.25_48.5/v")
    assert _literal("pre{a}{b}post").instantiate({"a": "x", "b": 7}, {}) \
        == Literal("prex7post")


def test_compiled_template_falsy_values_instantiate():
    node = _literal("{v}", datatype=XSD.double)
    for value, lexical in ((0, "0"), (0.0, "0.0"), ("", "")):
        assert node.instantiate({"v": value}, {}) == \
            Literal(lexical, datatype=XSD.double)


def test_compiled_template_none_or_missing_column_is_none():
    node = _literal("a{v}b")
    assert node.instantiate({"v": None}, {}) is None
    assert node.instantiate({}, {}) is None
    assert node.instantiate({"other": 1}, {}) is None


def test_compiled_template_iri_spaces_and_constant_text():
    from repro.ontop.mapping import NodeTemplate

    node = NodeTemplate("iri", "http://ex/park {name}")
    assert node.instantiate({"name": "Bois de Boulogne"}, {}) == \
        IRI("http://ex/park_Bois_de_Boulogne")
    fixed = NodeTemplate("iri", "http://ex/fixed")
    assert fixed.columns == []
    assert fixed.instantiate({}, {}) == IRI("http://ex/fixed")


def test_compiled_template_lang_tagged_literal():
    node = _literal("{name}", lang="FR")
    term = node.instantiate({"name": "Bois"}, {})
    assert term == Literal("Bois", lang="fr")
    assert term.datatype is None


def test_compiled_template_datatype_is_an_iri():
    node = _literal("{v}", datatype="http://www.w3.org/2001/XMLSchema#float")
    assert type(node.datatype) is IRI
    assert node == _literal("{v}", datatype=XSD.float)


def test_instantiate_runs_no_regex(monkeypatch):
    import repro.ontop.mapping as mapping_module

    mappings, __ = parse_mapping_document(LISTING2)
    monkeypatch.setattr(mapping_module, "re", None)
    row = {"id": "x", "LAI": 1.5, "ts": "t", "loc": "POINT (0 0)"}
    triples = [t.instantiate(row, {}) for t in mappings[0].target]
    assert all(t is not None for t in triples)
