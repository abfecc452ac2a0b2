"""Scalar expressions, aggregation and expression analysis.

The one home of per-row expression semantics, shared by the operators
(FILTER, BIND, ORDER BY, projection, GROUP BY), the planner (which
variables a FILTER reads, whether it holds an EXISTS) and Ontop's
direct-SQL unfolding:

- :func:`eval_expr` evaluates an expression against one solution and
  raises :class:`~repro.sparql.functions.SparqlValueError` for a
  per-row error; ``(NOT) EXISTS`` runs its group through
  ``ctx.eval_group`` (see :class:`~repro.sparql.evaluator.Context`),
  so this module never imports the planner;
- :func:`group_and_aggregate` implements GROUP BY, the aggregates and
  HAVING;
- :func:`order_key` is the one ORDER BY sort key;
- :func:`expr_variables` / :func:`expr_has_exists` and the group
  binding-variable helpers are the static analysis the planner needs.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set

from ..rdf.terms import Literal, Term, literal_cmp_key
from . import functions as fns
from .ast import (
    Aggregate,
    BGP,
    BinaryExpr,
    Bind,
    ExistsExpr,
    Expr,
    FunctionCall,
    GroupGraphPattern,
    InExpr,
    InlineValues,
    MinusPattern,
    OptionalPattern,
    OrderCondition,
    SelectQuery,
    ServicePattern,
    SubSelect,
    TermExpr,
    UnaryExpr,
    UnionPattern,
    VarExpr,
)
from .functions import SparqlValueError, effective_boolean_value
from .results import Solution


class EvaluationError(RuntimeError):
    """Raised for unevaluable query constructs (not per-row errors)."""


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

def eval_expr(expr: Expr, solution: Solution, ctx):
    """Evaluate an expression to an RDF term; raises SparqlValueError."""
    if isinstance(expr, TermExpr):
        return expr.term
    if isinstance(expr, VarExpr):
        value = solution.get(expr.var.name)
        if value is None:
            raise SparqlValueError(f"unbound variable ?{expr.var.name}")
        return value
    if isinstance(expr, UnaryExpr):
        if expr.op == "!":
            return Literal(
                not effective_boolean_value(
                    eval_expr(expr.operand, solution, ctx)
                )
            )
        value = fns.numeric_value(eval_expr(expr.operand, solution, ctx))
        return Literal(-value)
    if isinstance(expr, BinaryExpr):
        return _eval_binary(expr, solution, ctx)
    if isinstance(expr, FunctionCall):
        return _eval_function(expr, solution, ctx)
    if isinstance(expr, InExpr):
        value = eval_expr(expr.value, solution, ctx)
        found = False
        for option in expr.options:
            try:
                if _terms_equal(value, eval_expr(option, solution, ctx)):
                    found = True
                    break
            except SparqlValueError:
                continue
        return Literal(found != expr.negated)
    if isinstance(expr, ExistsExpr):
        rows = ctx.eval_group(expr.group, [dict(solution)])
        exists = bool(rows)
        return Literal(exists != expr.negated)
    if isinstance(expr, Aggregate):
        raise SparqlValueError("aggregate outside aggregation context")
    raise EvaluationError(f"cannot evaluate {type(expr).__name__}")


def _eval_binary(expr: BinaryExpr, solution: Solution, ctx):
    op = expr.op
    if op == "||":
        left_err = None
        try:
            if effective_boolean_value(eval_expr(expr.left, solution, ctx)):
                return Literal(True)
        except SparqlValueError as exc:
            left_err = exc
        right = effective_boolean_value(eval_expr(expr.right, solution, ctx))
        if right:
            return Literal(True)
        if left_err is not None:
            raise left_err
        return Literal(False)
    if op == "&&":
        left_err = None
        try:
            if not effective_boolean_value(
                eval_expr(expr.left, solution, ctx)
            ):
                return Literal(False)
        except SparqlValueError as exc:
            left_err = exc
        right = effective_boolean_value(eval_expr(expr.right, solution, ctx))
        if not right:
            return Literal(False)
        if left_err is not None:
            raise left_err
        return Literal(True)

    left = eval_expr(expr.left, solution, ctx)
    right = eval_expr(expr.right, solution, ctx)
    if op in ("+", "-", "*", "/"):
        a, b = fns.numeric_value(left), fns.numeric_value(right)
        if op == "+":
            value = a + b
        elif op == "-":
            value = a - b
        elif op == "*":
            value = a * b
        else:
            if b == 0:
                raise SparqlValueError("division by zero")
            value = a / b
        if isinstance(a, int) and isinstance(b, int) and op != "/":
            return Literal(int(value))
        return Literal(float(value))
    if op == "=":
        return Literal(_terms_equal(left, right))
    if op == "!=":
        return Literal(not _terms_equal(left, right))
    return Literal(_order_compare(op, left, right))


def _terms_equal(a, b) -> bool:
    if isinstance(a, Literal) and isinstance(b, Literal):
        if a == b:
            return True
        if a.is_numeric and b.is_numeric:
            return a.value == b.value
        try:
            av, bv = a.value, b.value
        except ValueError:
            return False
        if type(av) is type(bv) and not isinstance(av, str):
            return av == bv
        return False
    return a == b and type(a) is type(b)


def _order_compare(op: str, a, b) -> bool:
    if not (isinstance(a, Literal) and isinstance(b, Literal)):
        raise SparqlValueError(f"cannot order {a!r} and {b!r}")
    ka, kb = literal_cmp_key(a), literal_cmp_key(b)
    if ka[0] != kb[0]:
        raise SparqlValueError(f"type mismatch comparing {a!r} and {b!r}")
    if op == "<":
        return ka[1] < kb[1]
    if op == ">":
        return ka[1] > kb[1]
    if op == "<=":
        return ka[1] <= kb[1]
    if op == ">=":
        return ka[1] >= kb[1]
    raise EvaluationError(f"unknown comparison {op}")


def _eval_function(call: FunctionCall, solution: Solution, ctx):
    name = call.name
    if name == "BOUND":
        arg = call.args[0]
        if not isinstance(arg, VarExpr):
            raise SparqlValueError("BOUND requires a variable")
        return Literal(solution.get(arg.var.name) is not None)
    if name == "IF":
        cond = effective_boolean_value(
            eval_expr(call.args[0], solution, ctx)
        )
        return eval_expr(call.args[1] if cond else call.args[2],
                         solution, ctx)
    if name == "COALESCE":
        for arg in call.args:
            try:
                return eval_expr(arg, solution, ctx)
            except SparqlValueError:
                continue
        raise SparqlValueError("COALESCE: no bound argument")
    args = [eval_expr(a, solution, ctx) for a in call.args]
    fn = fns.BUILTIN_FUNCTIONS.get(name)
    if fn is None:
        fn = fns.EXTENSION_FUNCTIONS.get(name)
    if fn is None:
        raise EvaluationError(f"unknown function {name!r}")
    return fn(*args)


def order_key(cond: OrderCondition, row: Solution, ctx):
    """The ORDER BY sort key of *row* under *cond*: errors first, then
    literals in :func:`~repro.rdf.terms.literal_cmp_key` order, then
    other terms by their text."""
    try:
        term = eval_expr(cond.expr, row, ctx)
    except SparqlValueError:
        return ((-1, 0.0), "")
    if isinstance(term, Literal):
        return (literal_cmp_key(term), "")
    return ((4, 0.0), str(term))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def projection_has_aggregate(query: SelectQuery) -> bool:
    return any(
        _expr_contains_aggregate(p.expr)
        for p in query.projections
        if p.expr is not None
    )


def _expr_contains_aggregate(expr: Optional[Expr]) -> bool:
    if expr is None:
        return False
    if isinstance(expr, Aggregate):
        return True
    if isinstance(expr, BinaryExpr):
        return _expr_contains_aggregate(expr.left) or _expr_contains_aggregate(
            expr.right
        )
    if isinstance(expr, UnaryExpr):
        return _expr_contains_aggregate(expr.operand)
    if isinstance(expr, FunctionCall):
        return any(_expr_contains_aggregate(a) for a in expr.args)
    return False


def _eval_aggregate(agg: Aggregate, rows: List[Solution], ctx):
    values = []
    if agg.expr is None:  # COUNT(*)
        if agg.name != "COUNT":
            raise SparqlValueError(f"{agg.name}(*) is not valid")
        return Literal(len(rows))
    for row in rows:
        try:
            values.append(eval_expr(agg.expr, row, ctx))
        except SparqlValueError:
            continue
    if agg.distinct:
        seen, unique = set(), []
        for v in values:
            key = (type(v).__name__, v.n3() if hasattr(v, "n3") else str(v))
            if key not in seen:
                seen.add(key)
                unique.append(v)
        values = unique
    name = agg.name
    if name == "COUNT":
        return Literal(len(values))
    if not values:
        if name in ("SUM",):
            return Literal(0)
        raise SparqlValueError(f"{name} over empty group")
    if name == "SUM":
        total = sum(fns.numeric_value(v) for v in values)
        return Literal(total if isinstance(total, float) else int(total))
    if name == "AVG":
        return Literal(
            sum(fns.numeric_value(v) for v in values) / len(values)
        )
    if name in ("MIN", "MAX"):
        literals = [v for v in values if isinstance(v, Literal)]
        if not literals:
            raise SparqlValueError(f"{name} over a group without literals")
        pick = min if name == "MIN" else max
        return pick(literals, key=literal_cmp_key)
    if name == "SAMPLE":
        return values[0]
    if name == "GROUP_CONCAT":
        return Literal(agg.separator.join(fns.string_value(v) for v in values))
    raise EvaluationError(f"unknown aggregate {name}")


def _substitute_aggregates(expr: Expr, agg_values: Dict[int, Term]) -> Expr:
    """Replace Aggregate nodes by their computed constant values."""
    if isinstance(expr, Aggregate):
        return TermExpr(agg_values[id(expr)])
    if isinstance(expr, BinaryExpr):
        return BinaryExpr(
            expr.op,
            _substitute_aggregates(expr.left, agg_values),
            _substitute_aggregates(expr.right, agg_values),
        )
    if isinstance(expr, UnaryExpr):
        return UnaryExpr(
            expr.op, _substitute_aggregates(expr.operand, agg_values)
        )
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name,
            tuple(_substitute_aggregates(a, agg_values) for a in expr.args),
        )
    return expr


def _collect_aggregates(expr: Optional[Expr]) -> List[Aggregate]:
    if expr is None:
        return []
    if isinstance(expr, Aggregate):
        return [expr]
    if isinstance(expr, BinaryExpr):
        return _collect_aggregates(expr.left) + _collect_aggregates(expr.right)
    if isinstance(expr, UnaryExpr):
        return _collect_aggregates(expr.operand)
    if isinstance(expr, FunctionCall):
        return list(
            itertools.chain.from_iterable(
                _collect_aggregates(a) for a in expr.args
            )
        )
    return []


def group_and_aggregate(query: SelectQuery, rows: List[Solution],
                        ctx) -> List[Solution]:
    """GROUP BY, aggregate projection and HAVING over *rows*."""
    groups: Dict[tuple, List[Solution]] = {}
    if query.group_by:
        for row in rows:
            key_parts = []
            for expr in query.group_by:
                try:
                    term = eval_expr(expr, row, ctx)
                    key_parts.append(term.n3() if hasattr(term, "n3")
                                     else str(term))
                except SparqlValueError:
                    key_parts.append(None)
            groups.setdefault(tuple(key_parts), []).append(row)
    else:
        groups[()] = rows

    out_rows: List[Solution] = []
    for member_rows in groups.values():
        representative = member_rows[0] if member_rows else {}
        agg_values: Dict[int, Term] = {}
        all_aggs: List[Aggregate] = []
        for proj in query.projections:
            all_aggs.extend(_collect_aggregates(proj.expr))
        for having in query.having:
            all_aggs.extend(_collect_aggregates(having))
        ok = True
        for agg in all_aggs:
            try:
                agg_values[id(agg)] = _eval_aggregate(agg, member_rows, ctx)
            except SparqlValueError:
                agg_values[id(agg)] = None
        row_out: Solution = {}
        for proj in query.projections:
            if proj.expr is None:
                if proj.var.name in representative:
                    row_out[proj.var.name] = representative[proj.var.name]
                continue
            expr = _substitute_aggregates(proj.expr, agg_values)
            try:
                if any(
                    agg_values.get(id(a)) is None
                    for a in _collect_aggregates(proj.expr)
                ):
                    raise SparqlValueError("aggregate error")
                row_out[proj.var.name] = eval_expr(expr, representative, ctx)
            except SparqlValueError:
                pass
        for having in query.having:
            expr = _substitute_aggregates(having, agg_values)
            try:
                if not effective_boolean_value(
                    eval_expr(expr, representative, ctx)
                ):
                    ok = False
                    break
            except SparqlValueError:
                ok = False
                break
        if ok:
            out_rows.append(row_out)
    return out_rows


# ---------------------------------------------------------------------------
# Expression / pattern analysis
# ---------------------------------------------------------------------------

def expr_variables(expr: Optional[Expr]) -> Set[str]:
    """Variable names mentioned anywhere in an expression."""
    out: Set[str] = set()
    if expr is None:
        return out
    if isinstance(expr, VarExpr):
        out.add(expr.var.name)
    elif isinstance(expr, UnaryExpr):
        out |= expr_variables(expr.operand)
    elif isinstance(expr, BinaryExpr):
        out |= expr_variables(expr.left) | expr_variables(expr.right)
    elif isinstance(expr, FunctionCall):
        for a in expr.args:
            out |= expr_variables(a)
    elif isinstance(expr, InExpr):
        out |= expr_variables(expr.value)
        for a in expr.options:
            out |= expr_variables(a)
    elif isinstance(expr, ExistsExpr):
        out |= group_binding_vars(expr.group)
    elif isinstance(expr, Aggregate):
        out |= expr_variables(expr.expr)
    return out


def expr_has_exists(expr: Optional[Expr]) -> bool:
    """Whether the expression holds a (NOT) EXISTS anywhere."""
    if expr is None:
        return False
    if isinstance(expr, ExistsExpr):
        return True
    if isinstance(expr, UnaryExpr):
        return expr_has_exists(expr.operand)
    if isinstance(expr, BinaryExpr):
        return expr_has_exists(expr.left) or expr_has_exists(expr.right)
    if isinstance(expr, FunctionCall):
        return any(expr_has_exists(a) for a in expr.args)
    if isinstance(expr, InExpr):
        return expr_has_exists(expr.value) or any(
            expr_has_exists(a) for a in expr.options
        )
    return False


def element_binding_vars(element) -> Set[str]:
    """Variables a group element may (re)bind in passing rows."""
    if isinstance(element, BGP):
        return {v.name for p in element.patterns for v in p.variables()}
    if isinstance(element, (OptionalPattern, MinusPattern)):
        # MINUS never extends rows, but be conservative for OPTIONAL
        if isinstance(element, MinusPattern):
            return set()
        return group_binding_vars(element.group)
    if isinstance(element, UnionPattern):
        out: Set[str] = set()
        for alt in element.alternatives:
            out |= group_binding_vars(alt)
        return out
    if isinstance(element, Bind):
        return {element.var.name}
    if isinstance(element, InlineValues):
        return {v.name for v in element.variables}
    if isinstance(element, SubSelect):
        sub = element.query
        if sub.projections:
            return {p.var.name for p in sub.projections}
        return group_binding_vars(sub.where)
    if isinstance(element, ServicePattern):
        return group_binding_vars(element.group)
    return set()


def group_binding_vars(group: GroupGraphPattern) -> Set[str]:
    out: Set[str] = set()
    for element in group.elements:
        out |= element_binding_vars(element)
    return out
