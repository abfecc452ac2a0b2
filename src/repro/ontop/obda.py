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

import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..geometry import Geometry, wkt_dumps
from ..madis import MadisConnection
from ..rdf import Graph
from ..rdf.namespace import NamespaceManager
from ..rdf.terms import BNode, IRI, Literal, Term, Triple
from ..sparql.ast import (
    BGP,
    GroupGraphPattern,
    OptionalPattern,
    MinusPattern,
    ServicePattern,
    SubSelect,
    TriplePattern,
    UnionPattern,
    Var,
)
from ..sparql.evaluator import (
    Context,
    _extract_spatial_restrictions,
    eval_query,
)
from ..sparql.parser import parse_query
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
        restrictions = (
            _extract_spatial_restrictions(where.elements, None)
            if where is not None else {}
        )
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
        from ..sparql.ast import Bind as BindEl
        from ..sparql.ast import Filter as FilterEl
        from ..sparql.ast import SelectQuery
        from ..sparql.evaluator import _projection_has_aggregate

        if not isinstance(ast, SelectQuery):
            return None
        if not ast.projections:
            return None
        needs_grouping = bool(ast.group_by) or \
            _projection_has_aggregate(ast)

        bgps = [e for e in ast.where.elements if isinstance(e, BGP)]
        filters = [e for e in ast.where.elements
                   if isinstance(e, FilterEl)]
        binds = [e for e in ast.where.elements if isinstance(e, BindEl)]
        if len(bgps) != 1 or len(bgps[0].patterns) == 0:
            return None
        if len(bgps) + len(filters) + len(binds) != \
                len(ast.where.elements):
            return None
        if any(_contains_exists(f.expr) for f in filters):
            return None  # EXISTS needs the full virtual graph
        if any(_contains_exists(b.expr) for b in binds):
            return None
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
        restrictions = _extract_spatial_restrictions(
            ast.where.elements, None
        )
        pushed = self._push_spatial_filter(
            mapping, ast.where, restrictions
        )
        pushed_var = None
        if pushed is not None:
            sql, pushed_var = pushed
        residual_filters = [
            f for f in filters
            if not _is_pushed_spatial(f, pushed_var)
        ]
        return {
            "mapping": mapping,
            "sql": sql,
            "pushed_var": pushed_var,
            "var_templates": var_templates,
            "binds": binds,
            "residual_filters": residual_filters,
            "needs_grouping": needs_grouping,
        }

    def _try_direct_sql(self, ast, budget=None,
                        tracer=None) -> Optional[SPARQLResult]:
        """Answer a simple SELECT straight from the mapping's SQL rows."""
        recipe = self._direct_sql_plan(ast)
        if recipe is None:
            return None
        if tracer is None:
            return self._run_direct_sql(ast, recipe, budget)
        with tracer.span("ontop.direct_sql",
                         mapping=recipe["mapping"].mapping_id):
            return self._run_direct_sql(ast, recipe, budget)

    def _run_direct_sql(self, ast, recipe, budget) -> SPARQLResult:
        from ..sparql.evaluator import eval_expr
        from ..sparql.functions import SparqlValueError, \
            effective_boolean_value
        from ..sparql.operators import _order_key
        from ..sparql.plan import expr_variables

        sql = recipe["sql"]
        var_templates = recipe["var_templates"]
        binds = recipe["binds"]
        residual_filters = recipe["residual_filters"]
        needs_grouping = recipe["needs_grouping"]

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

        if needs_grouping:
            from ..sparql.evaluator import _group_and_aggregate

            out_rows = _group_and_aggregate(ast, binding_rows, ctx)
            binding_rows = out_rows
        for cond in reversed(ast.order_by):
            binding_rows.sort(
                key=lambda row, cond=cond: _order_key(cond, row, ctx),
                reverse=cond.descending,
            )
        if needs_grouping:
            out_rows = binding_rows
        else:
            out_rows = []
            for bindings in binding_rows:
                projected = {}
                for proj in ast.projections:
                    if proj.expr is None:
                        value = bindings.get(proj.var.name)
                        if value is not None:
                            projected[proj.var.name] = value
                    else:
                        try:
                            projected[proj.var.name] = eval_expr(
                                proj.expr, bindings, ctx
                            )
                        except SparqlValueError:
                            pass
                out_rows.append(projected)

        if ast.distinct:
            seen = set()
            unique = []
            for row in out_rows:
                key = tuple(
                    (v, row[v].n3() if hasattr(row[v], "n3")
                     else str(row[v]))
                    for v in sorted(row)
                )
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            out_rows = unique
        if ast.offset:
            out_rows = out_rows[ast.offset:]
        if ast.limit is not None:
            out_rows = out_rows[: ast.limit]
        if budget is not None:
            budget.charge_rows(len(out_rows))
        plan = self._direct_sql_node(recipe)
        plan.actual_rows = len(out_rows)
        return SPARQLResult(
            "SELECT",
            variables=[p.var.name for p in ast.projections],
            rows=out_rows,
            budget_stats=budget.snapshot() if budget is not None else None,
            plan=plan,
        )

    @staticmethod
    def _direct_sql_node(recipe):
        """Plan node describing one direct-SQL unfolding."""
        from ..sparql.plan import PlanNode

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
        from ..sparql.evaluator import Context as EvalContext
        from ..sparql.evaluator import explain_query
        from ..sparql.plan import PlanNode

        ast = parse_query(sparql_text, namespaces=self.namespaces)
        recipe = self._direct_sql_plan(ast) \
            if hasattr(ast, "projections") else None
        if recipe is not None:
            return self._direct_sql_node(recipe)
        where = getattr(ast, "where", None)
        mappings = (
            self.relevant_mappings(where) if where is not None
            else list(self.mappings)
        )
        restrictions = (
            _extract_spatial_restrictions(where.elements, None)
            if where is not None else {}
        )
        root = PlanNode("OntopVirtual", f"{len(mappings)} mappings")
        for mapping in mappings:
            pushed = self._push_spatial_filter(mapping, where, restrictions)
            detail = mapping.mapping_id
            if pushed is not None:
                detail += f" [spatial pushdown ?{pushed[1]}]"
            root.children.append(PlanNode("Instantiate", detail))
        placeholder = Graph()
        placeholder.namespaces = self.namespaces
        root.children.append(explain_query(ast, EvalContext(placeholder)))
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
    from ..rdf.terms import Literal as RdfLiteral

    value = const.constant
    if other.kind == "iri":
        if not isinstance(value, IRI):
            return True
        prefix = other.text.split("{", 1)[0]
        return not str(value).startswith(prefix)
    if other.kind == "literal":
        if not isinstance(value, RdfLiteral):
            return True
        return value.datatype != other.datatype or value.lang != other.lang
    return True


def _contains_exists(expr) -> bool:
    from ..sparql.ast import (
        BinaryExpr, ExistsExpr, FunctionCall, InExpr, UnaryExpr,
    )

    if isinstance(expr, ExistsExpr):
        return True
    if isinstance(expr, BinaryExpr):
        return _contains_exists(expr.left) or _contains_exists(expr.right)
    if isinstance(expr, UnaryExpr):
        return _contains_exists(expr.operand)
    if isinstance(expr, FunctionCall):
        return any(_contains_exists(a) for a in expr.args)
    if isinstance(expr, InExpr):
        return _contains_exists(expr.value) or any(
            _contains_exists(o) for o in expr.options
        )
    return False


def _is_pushed_spatial(filter_element, pushed_var: Optional[str]) -> bool:
    """True when this FILTER is the one the SQL pushdown applied."""
    from ..sparql.ast import FunctionCall, TermExpr, VarExpr
    from ..sparql.functions import SPATIAL_RELATIONS

    if pushed_var is None:
        return False
    expr = filter_element.expr
    if not isinstance(expr, FunctionCall):
        return False
    if expr.name not in SPATIAL_RELATIONS or len(expr.args) != 2:
        return False
    a, b = expr.args
    var = a if isinstance(a, VarExpr) else b if isinstance(b, VarExpr) \
        else None
    const = a if isinstance(a, TermExpr) else b \
        if isinstance(b, TermExpr) else None
    return (
        var is not None and const is not None
        and var.var.name == pushed_var
    )


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
