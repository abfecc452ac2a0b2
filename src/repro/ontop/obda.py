"""Ontop-spatial: geospatial ontology-based data access.

The engine exposes *virtual semantic graphs* over relational (and, via
MadIS virtual tables, non-relational) sources:

- mappings (native language or R2RML) describe how rows become triples;
- nothing is materialized up front: at query time the engine *unfolds*
  the query's triple patterns against the mapping targets, executes the
  SQL of only the relevant mappings, instantiates just those assertions
  and evaluates the rest of the query in memory;
- spatial filters against constant geometries are **pushed into SQL**:
  an ``geof:sfWithin(?w, <const>)`` becomes an ``ST_WITHIN`` predicate,
  and when the source is a plain table with a registered spatial index
  the push-down adds an R*Tree bounding-box pre-filter — the "DBMS
  optimizations ... taken into account" of Section 5.

``materialize()`` gives the full triple dump (what the paper calls the
materialized workflow), so benchmarks can compare both modes.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..geometry import Geometry, wkt_dumps
from ..madis import MadisConnection
from ..rdf import Graph
from ..rdf.namespace import NamespaceManager
from ..rdf.terms import BNode, IRI, Literal, Term
from ..sparql.ast import (
    BGP,
    Bind,
    Filter,
    GroupGraphPattern,
    OptionalPattern,
    MinusPattern,
    SelectQuery,
    ServicePattern,
    SubSelect,
    TriplePattern,
    UnionPattern,
    Var,
)
from ..sparql.evaluator import Context, eval_query, explain_query
from ..sparql.expr import eval_expr, expr_has_exists, expr_variables
from ..sparql.functions import SparqlValueError, effective_boolean_value
from ..sparql.operators import extract_spatial_filters
from ..sparql.parser import parse_query
from ..sparql.plan import PlanNode
from ..sparql.results import SPARQLResult
from .mapping import (
    NodeTemplate,
    OntopMapping,
    OntopMappingError,
    TemplateTriple,
    parse_mapping_document,
)

_SQL_RELATIONS = {
    "intersects": "ST_INTERSECTS",
    "contains": "ST_CONTAINS",
    "within": "ST_WITHIN",
    "touches": "ST_TOUCHES",
    "crosses": "ST_CROSSES",
    "overlaps": "ST_OVERLAPS",
    "equals": "ST_EQUALS",
}


class OntopSpatial:
    """An OBDA endpoint over a MadIS connection."""

    def __init__(self, conn: MadisConnection,
                 mappings: Sequence[OntopMapping],
                 namespaces: Optional[NamespaceManager] = None,
                 ontology: Optional[Graph] = None,
                 admission=None,
                 tracer=None):
        self.conn = conn
        self.mappings = list(mappings)
        self.namespaces = namespaces or NamespaceManager()
        self.ontology = ontology
        #: Optional AdmissionController guarding ``query()``.
        self.admission = admission
        #: Optional Tracer; query() also accepts a per-call override.
        self.tracer = tracer
        self._spatial_indexes: Dict[Tuple[str, str], str] = {}
        self.last_sql: List[str] = []  # introspection for tests/benchmarks

    @classmethod
    def from_document(cls, conn: MadisConnection, text: str,
                      ontology: Optional[Graph] = None) -> "OntopSpatial":
        mappings, ns = parse_mapping_document(text)
        return cls(conn, mappings, namespaces=ns, ontology=ontology)

    # -- spatial index administration --------------------------------------
    def register_spatial_index(self, table: str, geom_column: str) -> str:
        """Build an R*Tree over a table's WKT column for bbox pushdown."""
        index = f"idx_{table}_{geom_column}"
        self.conn.executescript(
            f"""
            DROP TABLE IF EXISTS {index};
            CREATE VIRTUAL TABLE {index}
                USING rtree(id, minx, maxx, miny, maxy);
            """
        )
        rows = self.conn.execute(
            f'SELECT rowid, "{geom_column}" FROM "{table}"'
        )
        from ..geometry import wkt_loads

        for row in rows:
            wkt = row[geom_column]
            if wkt is None:
                continue
            minx, miny, maxx, maxy = wkt_loads(wkt).bounds
            self.conn.execute(
                f"INSERT INTO {index} VALUES (?, ?, ?, ?, ?)",
                (row["rowid"], minx, maxx, miny, maxy),
            )
        self._spatial_indexes[(table.lower(), geom_column.lower())] = index
        return index

    # -- unfolding -----------------------------------------------------------
    def unfold(self, pattern: TriplePattern) -> List[OntopMapping]:
        """Mappings whose target can produce triples matching *pattern*."""
        return [
            m for m in self.mappings
            if any(_template_matches(t, pattern) for t in m.target)
        ]

    def relevant_mappings(self, group: GroupGraphPattern
                          ) -> List[OntopMapping]:
        patterns = list(_collect_patterns(group))
        if not patterns:
            return list(self.mappings)
        seen: Dict[str, OntopMapping] = {}
        for pattern in patterns:
            for m in self.unfold(pattern):
                seen[m.mapping_id] = m
        return list(seen.values())

    # -- evaluation ---------------------------------------------------------------
    def query(self, sparql_text: str, budget=None,
              tracer=None) -> SPARQLResult:
        """Answer a (Geo)SPARQL query against the virtual graphs.

        Simple single-mapping SELECTs are *unfolded directly to SQL*
        (the genuine Ontop execution model: the database computes the
        result rows, no triples are instantiated); everything else
        falls back to on-demand instantiation + the SPARQL evaluator.

        ``budget`` (a :class:`~repro.governance.QueryBudget`) governs
        the whole virtual evaluation: the MadIS layer row-budgets its
        virtual-table scans, triple instantiation charges the scan
        budget, and the final evaluation is cooperatively cancellable.
        When the engine has an admission controller, the query first
        takes an execution slot (and may be shed with ``Overloaded``).

        ``tracer`` (falling back to the engine's own) records the whole
        evaluation under one ``ontop.query`` span — direct-SQL
        unfolding, mapping instantiation, and the SPARQL evaluation all
        nest beneath it, and ``result.trace`` holds the span.
        """
        tracer = tracer if tracer is not None else self.tracer
        if self.admission is not None:
            return self.admission.run(
                lambda: self._governed_query(sparql_text, budget, tracer),
                budget=budget,
            )
        return self._governed_query(sparql_text, budget, tracer)

    def _governed_query(self, sparql_text: str, budget,
                        tracer=None) -> SPARQLResult:
        if tracer is None:
            return self._run_query(sparql_text, budget, None)
        with tracer.span("ontop.query") as root:
            result = self._run_query(sparql_text, budget, tracer)
        result.trace = root
        return result

    def _run_query(self, sparql_text: str, budget,
                   tracer) -> SPARQLResult:
        ast = parse_query(sparql_text, namespaces=self.namespaces)
        where = getattr(ast, "where", None)
        direct = self._try_direct_sql(ast, budget=budget, tracer=tracer)
        if direct is not None:
            return direct
        mappings = (
            self.relevant_mappings(where) if where is not None
            else list(self.mappings)
        )
        restrictions = _spatial_restrictions(where)
        if tracer is None:
            graph = self._instantiate(mappings, where, restrictions,
                                      budget=budget)
        else:
            with tracer.span("ontop.instantiate",
                             mappings=len(mappings)):
                graph = self._instantiate(mappings, where, restrictions,
                                          budget=budget)
        graph.namespaces = self.namespaces
        result = eval_query(ast, Context(graph, budget=budget,
                                         tracer=tracer))
        if budget is not None:
            result.budget_stats = budget.snapshot()
        return result

    def materialize(self, graph: Optional[Graph] = None) -> Graph:
        """Full triple dump of every mapping (the materialized workflow)."""
        graph = graph if graph is not None else Graph()
        graph.namespaces = self.namespaces
        self.last_sql = []
        for mapping in self.mappings:
            self._run_mapping(mapping, mapping.source_sql, graph)
        if self.ontology is not None:
            graph.update(self.ontology)
        return graph

    # -- internals ------------------------------------------------------------
    def _instantiate(self, mappings: Sequence[OntopMapping],
                     where: Optional[GroupGraphPattern],
                     restrictions, budget=None) -> Graph:
        graph = Graph()
        self.last_sql = []
        for mapping in mappings:
            sql = mapping.source_sql
            pushed = self._push_spatial_filter(mapping, where, restrictions)
            if pushed is not None:
                sql = pushed[0]
            self._run_mapping(mapping, sql, graph, budget=budget)
        if self.ontology is not None:
            graph.update(self.ontology)
        return graph

    def _run_mapping(self, mapping: OntopMapping, sql: str,
                     graph: Graph, budget=None) -> None:
        self.last_sql.append(sql)
        rows = self.conn.execute(sql, budget=budget)
        for row in rows:
            row_dict = {key: row[key] for key in row.keys()}
            bnodes: Dict[str, BNode] = {}
            for template in mapping.target:
                triple = template.instantiate(row_dict, bnodes)
                if triple is not None:
                    graph.add(triple)
                    if budget is not None:
                        budget.charge_triples()

    def _push_spatial_filter(self, mapping: OntopMapping,
                             where: Optional[GroupGraphPattern],
                             restrictions
                             ) -> Optional[Tuple[str, str]]:
        """Rewrite the mapping SQL with a pushed-down spatial predicate.

        Applies when a FILTER constrains a variable that, per the query's
        BGP and this mapping's target, is produced from a single source
        column holding WKT. Returns ``(sql, pushed_var_name)``.
        """
        if not restrictions or where is None:
            return None
        for var_name, restriction in restrictions.items():
            column = self._geometry_column_for(mapping, where, var_name)
            if column is None:
                continue
            sql_fn = _SQL_RELATIONS.get(restriction.relation)
            if sql_fn is None:
                continue
            const_wkt = wkt_dumps(restriction.geometry)
            sql = self._wrap_sql(
                mapping.source_sql, column, sql_fn, const_wkt,
                restriction.geometry,
            )
            return sql, var_name
        return None

    def _geometry_column_for(self, mapping: OntopMapping,
                             where: GroupGraphPattern,
                             var_name: str) -> Optional[str]:
        """The source column feeding geometry variable ?var_name, if any."""
        for pattern in _collect_patterns(where):
            if not (isinstance(pattern.o, Var) and pattern.o.name == var_name):
                continue
            for template in mapping.target:
                if not _template_matches(template, pattern):
                    continue
                node = template.o
                if node.kind == "literal" and node.datatype is not None \
                        and str(node.datatype).endswith("wktLiteral"):
                    columns = node.columns
                    if len(columns) == 1 and node.text == f"{{{columns[0]}}}":
                        return columns[0]
        return None

    def _other_mappings_provably_disjoint(self, anchor: OntopMapping,
                                          patterns) -> bool:
        """No non-anchor combination of mappings can answer the BGP.

        Real Ontop prunes the unfolding with IRI-template disjointness:
        an assignment of one mapping per pattern is infeasible when some
        shared variable would have to take values from two disjoint
        template languages. We enumerate every assignment that is not
        anchor-everywhere (pattern counts are tiny) and require each to
        be infeasible; otherwise fall back to the generic path.
        """
        import itertools

        per_pattern = []
        for p in patterns:
            matching = [
                m for m in self.mappings
                if any(_template_matches(t, p) for t in m.target)
            ]
            per_pattern.append(matching)
        if any(len(m) > 8 for m in per_pattern) or len(patterns) > 6:
            return False  # keep enumeration bounded

        for assignment in itertools.product(*per_pattern):
            if all(m is anchor for m in assignment):
                continue
            if self._assignment_feasible(assignment, patterns):
                return False
        return True

    @staticmethod
    def _assignment_feasible(assignment, patterns) -> bool:
        """Could this mapping-per-pattern assignment produce join rows?"""
        bindings: Dict[str, List[NodeTemplate]] = {}
        for m, p in zip(assignment, patterns):
            templates = [t for t in m.target if _template_matches(t, p)]
            for pos in ("s", "p", "o"):
                term = getattr(p, pos)
                if isinstance(term, Var):
                    # any matching template could bind it; feasible if at
                    # least one is compatible — collect all options
                    bindings.setdefault(term.name, []).append(
                        [getattr(t, pos) for t in templates]
                    )
        for var_name, option_lists in bindings.items():
            if len(option_lists) < 2:
                continue
            # feasible for this var if some cross-product choice is
            # pairwise compatible; check greedily over pairs of lists
            feasible = False
            first = option_lists[0]
            for candidate in first:
                if all(
                    any(not _templates_disjoint(candidate, other)
                        for other in options)
                    for options in option_lists[1:]
                ):
                    feasible = True
                    break
            if not feasible:
                return False
        return True

    # -- direct SQL unfolding (the real Ontop execution model) ---------------
    def _direct_sql_plan(self, ast) -> Optional[Dict[str, object]]:
        """Detect direct-SQL eligibility; the unfolding recipe or ``None``.

        Applies when the WHERE is one BGP (plus filters we can push or
        evaluate per-row) and exactly one mapping produces every
        pattern. Shared by execution (``_try_direct_sql``) and
        ``explain``.
        """
        if not isinstance(ast, SelectQuery):
            return None
        if not ast.projections:
            return None

        bgps = [e for e in ast.where.elements if isinstance(e, BGP)]
        filters = [e for e in ast.where.elements if isinstance(e, Filter)]
        binds = [e for e in ast.where.elements if isinstance(e, Bind)]
        if len(bgps) != 1 or len(bgps[0].patterns) == 0:
            return None
        if len(bgps) + len(filters) + len(binds) != \
                len(ast.where.elements):
            return None
        if any(expr_has_exists(e.expr) for e in filters + binds):
            return None  # EXISTS needs the full virtual graph
        patterns = bgps[0].patterns

        # exactly one mapping must match *every* pattern (the anchor)
        anchors = [
            m for m in self.mappings
            if all(
                any(_template_matches(t, p) for t in m.target)
                for p in patterns
            )
        ]
        if len(anchors) != 1:
            return None
        mapping = anchors[0]
        if not self._other_mappings_provably_disjoint(mapping, patterns):
            return None

        # unify every pattern variable with exactly one node template
        var_templates: Dict[str, NodeTemplate] = {}
        for pattern in patterns:
            matches = [
                t for t in mapping.target if _template_matches(t, pattern)
            ]
            if len(matches) != 1:
                return None
            template = matches[0]
            for position, node in (("s", template.s), ("p", template.p),
                                   ("o", template.o)):
                term = getattr(pattern, position)
                if isinstance(term, Var):
                    existing = var_templates.get(term.name)
                    if existing is not None and existing != node:
                        return None  # same var from two shapes → join
                    if node.kind == "bnode":
                        return None  # bnode identity needs row scoping
                    var_templates[term.name] = node

        sql = mapping.source_sql
        restrictions = _spatial_restrictions(ast.where)
        pushed = self._push_spatial_filter(
            mapping, ast.where, restrictions
        )
        pushed_var = None
        residual_filters = filters
        if pushed is not None:
            # the SQL answers exactly the one FILTER it was built from
            sql, pushed_var = pushed
            pushed_filter = restrictions[pushed_var].filter
            residual_filters = [f for f in filters if f is not pushed_filter]
        return {
            "mapping": mapping,
            "sql": sql,
            "pushed_var": pushed_var,
            "var_templates": var_templates,
            "binds": binds,
            "residual_filters": residual_filters,
            # the solution modifiers, run by the engine over the rows
            "tail": dataclasses.replace(ast, where=GroupGraphPattern()),
        }

    def _try_direct_sql(self, ast, budget=None,
                        tracer=None) -> Optional[SPARQLResult]:
        """Answer a simple SELECT straight from the mapping's SQL rows."""
        recipe = self._direct_sql_plan(ast)
        if recipe is None:
            return None
        if tracer is None:
            return self._run_direct_sql(recipe, budget)
        with tracer.span("ontop.direct_sql",
                         mapping=recipe["mapping"].mapping_id):
            return self._run_direct_sql(recipe, budget)

    def _run_direct_sql(self, recipe, budget) -> SPARQLResult:
        sql = recipe["sql"]
        var_templates = recipe["var_templates"]
        binds = recipe["binds"]
        residual_filters = recipe["residual_filters"]

        # Filter first: without a BIND, build only the terms the residual
        # filters read, and the rest only for rows that pass. A row is
        # still dropped when any template yields NULL, so the row set is
        # the one the all-terms-first order gives.
        if binds:
            early, late = list(var_templates.items()), []
        else:
            read = set().union(
                *(expr_variables(f.expr) for f in residual_filters))
            early = [(name, node) for name, node in var_templates.items()
                     if name in read]
            late = [(name, node) for name, node in var_templates.items()
                    if name not in read]
        reorder = bool(early) and bool(late)
        ctx = Context(Graph(), budget=budget)

        def passes(bindings) -> bool:
            for f in residual_filters:
                try:
                    if not effective_boolean_value(
                        eval_expr(f.expr, bindings, ctx)
                    ):
                        return False
                except SparqlValueError:
                    return False
            return True

        self.last_sql = [sql]
        rows = self.conn.execute(sql, budget=budget)
        binding_rows = []
        for row in rows:
            if budget is not None:
                budget.check_deadline()
            row_dict = {key: row[key] for key in row.keys()}
            bindings = {}
            if not _instantiate_vars(early, row_dict, bindings):
                continue
            for b in binds:
                try:
                    bindings[b.var.name] = eval_expr(b.expr, bindings, ctx)
                except SparqlValueError:
                    pass  # BIND error leaves the variable unbound
            if not passes(bindings):
                continue
            if late:
                if not _instantiate_vars(late, row_dict, bindings):
                    continue
                if reorder:
                    bindings = {name: bindings[name]
                                for name in var_templates}
            binding_rows.append(bindings)

        # GROUP BY, ORDER BY, projection, DISTINCT and OFFSET/LIMIT are
        # the engine's: the rows seed the query's empty-WHERE tail, which
        # also charges the result-row budget.
        result = eval_query(recipe["tail"], ctx, seed_rows=binding_rows)
        plan = self._direct_sql_node(recipe)
        plan.children.append(result.plan)
        plan.actual_rows = len(result.rows)
        result.plan = plan
        if budget is not None:
            result.budget_stats = budget.snapshot()
        return result

    @staticmethod
    def _direct_sql_node(recipe):
        """Plan node describing one direct-SQL unfolding (without the
        engine plan of its solution modifiers)."""
        mapping = recipe["mapping"]
        node = PlanNode("OntopDirectSQL", mapping.mapping_id)
        sql_detail = " ".join(str(recipe["sql"]).split())
        sql_node = PlanNode("SQL", sql_detail)
        if recipe["pushed_var"] is not None:
            sql_node.children.append(
                PlanNode("SpatialPushdown", f"?{recipe['pushed_var']}")
            )
        node.children.append(sql_node)
        if recipe["residual_filters"]:
            node.children.append(
                PlanNode("ResidualFilter",
                         f"{len(recipe['residual_filters'])} filters")
            )
        return node

    def explain(self, sparql_text: str):
        """Plan a query without touching the database.

        Returns the plan root. Direct-SQL-eligible queries show the
        unfolded SQL (with any spatial pushdown); everything else shows
        the unfolding (which mappings would be instantiated) and the
        SPARQL plan that would run over the virtual graph — estimates
        there are structural only, since the virtual graph is not
        materialized for EXPLAIN.
        """
        ast = parse_query(sparql_text, namespaces=self.namespaces)
        recipe = self._direct_sql_plan(ast)
        if recipe is not None:
            root = self._direct_sql_node(recipe)
            root.children.append(
                explain_query(recipe["tail"], Context(Graph())))
            return root
        where = getattr(ast, "where", None)
        mappings = (
            self.relevant_mappings(where) if where is not None
            else list(self.mappings)
        )
        restrictions = _spatial_restrictions(where)
        root = PlanNode("OntopVirtual", f"{len(mappings)} mappings")
        for mapping in mappings:
            pushed = self._push_spatial_filter(mapping, where, restrictions)
            detail = mapping.mapping_id
            if pushed is not None:
                detail += f" [spatial pushdown ?{pushed[1]}]"
            root.children.append(PlanNode("Instantiate", detail))
        placeholder = Graph()
        placeholder.namespaces = self.namespaces
        root.children.append(explain_query(ast, Context(placeholder)))
        return root

    def _wrap_sql(self, base_sql: str, column: str, sql_fn: str,
                  const_wkt: str, geometry: Geometry) -> str:
        """Add the spatial predicate, using an R*Tree bbox when possible."""
        escaped = const_wkt.replace("'", "''")
        m = re.match(
            r"^\s*SELECT\s+(?P<cols>.+?)\s+FROM\s+(?P<table>[A-Za-z_]\w*)"
            r"(?:\s+WHERE\s+(?P<where>.+))?\s*$",
            base_sql, re.IGNORECASE | re.DOTALL,
        )
        if m:
            table = m.group("table")
            index = self._spatial_indexes.get((table.lower(), column.lower()))
            if index is not None:
                minx, miny, maxx, maxy = geometry.bounds
                bbox = (
                    f'"{table}".rowid IN (SELECT id FROM {index} '
                    f"WHERE minx <= {maxx} AND maxx >= {minx} "
                    f"AND miny <= {maxy} AND maxy >= {miny})"
                )
                exact = f"{sql_fn}(\"{column}\", '{escaped}')"
                existing = m.group("where")
                clauses = [bbox, exact] + ([existing] if existing else [])
                return (
                    f'SELECT {m.group("cols")} FROM "{table}" WHERE '
                    + " AND ".join(clauses)
                )
        return (
            f"SELECT * FROM ({base_sql}) "
            f"WHERE {sql_fn}(\"{column}\", '{escaped}')"
        )


def _instantiate_vars(pairs, row: Dict[str, object],
                      bindings: Dict[str, Term]) -> bool:
    """Bind each ``(var, template)`` of *pairs* for one source row.

    False as soon as a template yields NULL (the row has no solution).
    Direct-SQL templates are never blank nodes, so no label map is kept.
    """
    for name, node in pairs:
        term = node.instantiate(row, {})
        if term is None:
            return False
        bindings[name] = term
    return True


def _templates_disjoint(a: NodeTemplate, b: NodeTemplate) -> bool:
    """True when two node templates can never produce the same term."""
    if a == b:
        return False
    if a.kind != b.kind:
        # iri vs literal vs bnode spaces never overlap
        return not (a.kind == "constant" or b.kind == "constant") or \
            _constant_disjoint(a, b)
    if a.kind == "constant":
        return a.constant != b.constant
    if a.kind == "iri":
        prefix_a = a.text.split("{", 1)[0]
        prefix_b = b.text.split("{", 1)[0]
        return not (
            prefix_a.startswith(prefix_b) or prefix_b.startswith(prefix_a)
        )
    if a.kind == "literal":
        if a.datatype != b.datatype or a.lang != b.lang:
            return True
        return False  # same shape: cannot prove disjoint
    return False  # bnodes: assume overlap


def _constant_disjoint(a: NodeTemplate, b: NodeTemplate) -> bool:
    const, other = (a, b) if a.kind == "constant" else (b, a)
    value = const.constant
    if other.kind == "iri":
        if not isinstance(value, IRI):
            return True
        prefix = other.text.split("{", 1)[0]
        return not str(value).startswith(prefix)
    if other.kind == "literal":
        if not isinstance(value, Literal):
            return True
        return value.datatype != other.datatype or value.lang != other.lang
    return True


def _spatial_restrictions(where: Optional[GroupGraphPattern]):
    """Constant-geometry spatial FILTERs of *where*, by variable."""
    if where is None:
        return {}
    return extract_spatial_filters(where.elements)[0]


def _collect_patterns(group: GroupGraphPattern):
    for element in group.elements:
        if isinstance(element, BGP):
            yield from element.patterns
        elif isinstance(element, OptionalPattern):
            yield from _collect_patterns(element.group)
        elif isinstance(element, MinusPattern):
            yield from _collect_patterns(element.group)
        elif isinstance(element, UnionPattern):
            for alt in element.alternatives:
                yield from _collect_patterns(alt)
        elif isinstance(element, ServicePattern):
            yield from _collect_patterns(element.group)
        elif isinstance(element, SubSelect):
            yield from _collect_patterns(element.query.where)


def _template_matches(template: TemplateTriple,
                      pattern: TriplePattern) -> bool:
    return (
        _node_matches(template.s, pattern.s)
        and _node_matches(template.p, pattern.p)
        and _node_matches(template.o, pattern.o)
    )


def _node_matches(node: NodeTemplate, pattern_term) -> bool:
    if isinstance(pattern_term, Var):
        return True
    if node.kind == "bnode":
        return isinstance(pattern_term, BNode)
    if node.kind == "constant":
        return node.constant == pattern_term
    if node.kind == "iri":
        if not isinstance(pattern_term, IRI):
            return False
        if not node.columns:
            return str(pattern_term) == node.text
        return re.fullmatch(
            re.sub(r"\\{\w+\\}", ".+", re.escape(node.text)),
            str(pattern_term),
        ) is not None
    # literal template
    if not isinstance(pattern_term, Literal):
        return False
    if node.datatype is not None and pattern_term.datatype != node.datatype:
        return False
    if node.lang is not None and pattern_term.lang != node.lang:
        return False
    if not node.columns:
        return node.text == pattern_term.lexical
    return True
