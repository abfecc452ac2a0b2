"""GeoSPARQL federation engine.

Section 5 of the paper lists federated GeoSPARQL as an open problem
("there is currently no query engine that can answer GeoSPARQL queries
over such a federation ... the only system that comes close is
SemaGrow"). This module implements the two classic federation styles:

- **explicit**: ``SERVICE <endpoint> { ... }`` patterns, dispatched to a
  registered endpoint;
- **transparent**: queries without SERVICE run over a virtual union of
  all registered endpoints, with predicate-based source selection so a
  triple pattern only visits endpoints that can answer it.

Endpoints wrap local graphs (optionally Strabon stores) and can carry a
simulated network latency so federation overhead is measurable.

Every dispatch to an endpoint goes through the engine's
:class:`~repro.resilience.RetryPolicy` (and per-endpoint circuit
breaker, when configured). ``query(..., partial_results=True)`` turns
endpoint failures into entries of the result's ``failures`` report
instead of exceptions, so one dead member cannot take down the whole
federation.

With a parallel :class:`~repro.parallel.WorkerPool`, endpoint work
fans out: the source-selection harvest, each pattern's per-endpoint
scans, and every SERVICE group in the query are dispatched
concurrently. Results merge in endpoint/pattern order and failures are
applied lowest-index first, so the answer (rows *and* the failures
report) is byte-identical to the serial engine's. Dispatches to the
*same* endpoint are serialized on a per-endpoint lock — circuit
breaker state and retry counters are per endpoint, and one connection
per member is also what a real federation client would hold.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Set

from ..governance import (
    AdmissionController,
    BudgetExceeded,
    DeadlineExceeded,
    GovernanceStats,
    QueryBudget,
)
from ..parallel import TaskOutcome, WorkerDeath, WorkerPool
from ..rdf.graph import Graph
from ..rdf.namespace import NamespaceManager
from ..rdf.terms import Term, Triple
from ..resilience import CircuitBreaker, EndpointPool, ResilienceStats, \
    RetryPolicy, no_retry
from .ast import (
    GroupGraphPattern,
    MinusPattern,
    OptionalPattern,
    ServicePattern,
    SubSelect,
    UnionPattern,
    Var,
)
from .evaluator import Context, eval_group, eval_query, explain_query
from .parser import parse_query
from .results import Solution, SPARQLResult
from .stats import federation_signature


def _absorbable(exc: BaseException) -> bool:
    """May partial mode absorb this failure as a degraded source?

    Network-ish failures (connection errors, injected outages, open
    circuits) degrade: that is the whole point of partial mode. Two
    families must propagate instead:

    - :class:`~repro.parallel.WorkerDeath` — a failure of *our*
      execution substrate, not of the remote source; masking it would
      hide lost work (the service maps it to ``worker_died``);
    - budget exhaustion other than the deadline — fetch/row/scan
      limits and explicit cancellation are the query's own resource
      verdict, not a source outage, so they surface as their typed
      codes. The *deadline* stays absorbable: degrading to the sources
      already answered is exactly what ``partial_results`` + deadline
      promises.
    """
    if isinstance(exc, WorkerDeath):
        return False
    if isinstance(exc, BudgetExceeded) \
            and not isinstance(exc, DeadlineExceeded):
        return False
    return True


def _collect_services(group: GroupGraphPattern) -> List[ServicePattern]:
    """Every SERVICE pattern in *group*, in syntactic (AST walk) order.

    Walk order is what makes eager dispatch deterministic: the prefetch
    task list — and therefore which failure wins under the
    lowest-index rule — depends only on the query text.
    """
    found: List[ServicePattern] = []
    for element in group.elements:
        if isinstance(element, ServicePattern):
            found.append(element)
            found.extend(_collect_services(element.group))
        elif isinstance(element, (OptionalPattern, MinusPattern)):
            found.extend(_collect_services(element.group))
        elif isinstance(element, UnionPattern):
            for alternative in element.alternatives:
                found.extend(_collect_services(alternative))
        elif isinstance(element, SubSelect):
            found.extend(_collect_services(element.query.where))
    return found


class SparqlEndpoint:
    """A queryable SPARQL endpoint over a local graph.

    ``latency_s`` simulates one network round trip per request, letting
    benchmarks measure federation overhead realistically.
    ``request_count`` counts *logical* requests — a retried attempt
    that failed before reaching the endpoint is not double-counted.
    """

    def __init__(self, graph: Graph, name: str = "endpoint",
                 latency_s: float = 0.0):
        self.graph = graph
        self.name = name
        self.latency_s = latency_s
        self.request_count = 0

    def _charge(self) -> None:
        self.request_count += 1
        if self.latency_s > 0:
            time.sleep(self.latency_s)

    def query(self, text: str) -> SPARQLResult:
        """Answer a full SPARQL query (one simulated round trip)."""
        self._charge()
        return self.graph.query(text)

    def select_group(self, group: GroupGraphPattern,
                     seeds: Optional[List[Solution]] = None
                     ) -> List[Solution]:
        """Evaluate a group graph pattern (used for SERVICE dispatch)."""
        self._charge()
        ctx = Context(self.graph)
        return eval_group(group, seeds if seeds is not None else [{}], ctx)

    def triples(self, pattern) -> Iterator[Triple]:
        """Pattern-level access for the transparent union (not charged)."""
        return self.graph.triples(pattern)

    def predicates(self) -> Set[Term]:
        """The predicate vocabulary of this endpoint (source selection)."""
        return set(self.graph.predicates())

    def __repr__(self) -> str:
        return f"<SparqlEndpoint {self.name} ({len(self.graph)} triples)>"


class _FederatedView:
    """A virtual graph that unions registered endpoints.

    Implements the minimal graph protocol the evaluator needs
    (``triples`` and ``namespaces``) plus predicate-based source
    selection: a pattern with a bound predicate only visits endpoints
    whose vocabulary contains it.

    Endpoint access goes through *dispatch* (retry/breaker). In
    partial mode an endpoint that fails — at vocabulary harvest or at
    pattern matching — is marked down for the rest of the query and
    recorded in *failures* instead of raising.
    """

    def __init__(self, endpoints: Dict[str, SparqlEndpoint],
                 dispatch: Callable, partial: bool = False,
                 failures: Optional[Dict[str, str]] = None,
                 budget: Optional[QueryBudget] = None,
                 pool: Optional[WorkerPool] = None,
                 tracer=None, stats_store=None):
        self.endpoints = dict(endpoints)
        self._dispatch = dispatch
        self.partial = partial
        self.failures = failures if failures is not None else {}
        self.budget = budget
        self.pool = pool
        self._tracer = tracer
        #: Optional StatsStore: per-endpoint scan row-counts feed back
        #: into it (keyed by ``fed(...)`` signatures) and
        #: :meth:`feedback_estimate` serves them to the planner.
        self.stats_store = stats_store
        self.namespaces = NamespaceManager()
        self._down: Set[str] = set()
        self._predicate_index: Dict[Term, List[str]] = {}
        self._harvest()

    def _harvest(self) -> None:
        """Collect each endpoint's predicate vocabulary (concurrently
        when the pool overlaps); failures are applied in registration
        order either way, so the surviving member set is identical."""
        items = list(self.endpoints.items())

        def one(item, tracer=None):
            iri, __ = item
            self._check_time(iri)
            return self._dispatch(iri, lambda ep: ep.predicates(),
                                  tracer=tracer)

        for (iri, __), outcome in zip(
                items, self._fan_out(one, items, "federation.harvest")):
            if outcome.error is not None:
                self._mark_down(iri, outcome.error)
                continue
            for predicate in outcome.value:
                self._predicate_index.setdefault(predicate, []).append(iri)

    def _fan_out(self, fn, items, label):
        """Outcomes of ``fn(item, tracer=...)`` per item, in item order.

        With a parallel pool the items overlap (each task records into
        a private adopted tracer); otherwise this is a plain loop with
        the query tracer, preserving the classic serial span shapes.
        """
        if (self.pool is not None and self.pool.parallel
                and len(items) > 1):
            return self.pool.run_tasks(fn, items, tracer=self._tracer,
                                       label=label,
                                       task_label="federation.endpoint",
                                       pass_tracer=True)
        outcomes = []
        for i, item in enumerate(items):
            try:
                outcomes.append(
                    TaskOutcome(i, value=fn(item, tracer=self._tracer)))
            except Exception as exc:
                outcomes.append(TaskOutcome(i, error=exc))
        return outcomes

    def _check_time(self, iri: str) -> None:
        """Raise when the query budget has no time left for a dispatch
        (the per-endpoint shed of :meth:`_shed_if_out_of_time`, shaped
        as an exception so it works inside pool tasks)."""
        if self.budget is not None and self.budget.deadline_expired:
            raise DeadlineExceeded(
                "query deadline exhausted before dispatch",
                self.budget.snapshot(),
            )

    def _mark_down(self, iri: str, exc: BaseException) -> None:
        if not self.partial or not _absorbable(exc):
            raise exc
        self._down.add(iri)
        self.failures[iri] = f"{type(exc).__name__}: {exc}"

    def _select_sources(self, predicate: Optional[Term]) -> List[str]:
        if predicate is not None:
            return self._predicate_index.get(predicate, [])
        return list(self.endpoints)

    def _record_scan(self, iri: str, pattern, rows: int) -> None:
        """Feed one endpoint scan's row count back into the store."""
        if self.stats_store is None:
            return
        s, p, o = pattern
        self.stats_store.record(
            federation_signature(iri, s, p, o), float(rows))

    def feedback_estimate(self, pattern, bound) -> Optional[float]:
        """Planner hook: recorded rows for this pattern, summed over
        the sources selection would visit (``None`` when no endpoint
        has feedback for the shape yet).

        This is what turns harvest row-counts into source-selection
        estimates: once a federated query has run, the planner costs
        each pattern by what the member endpoints actually returned
        instead of the flat virtual-union default.
        """
        if self.stats_store is None:
            return None
        s, p, o = pattern.s, pattern.p, pattern.o
        if isinstance(p, Var) and p.name in bound:
            # A join-bound predicate has no stable per-endpoint
            # signature (the concrete IRI varies per row).
            return None
        s_arg = None if isinstance(s, Var) and s.name not in bound else s
        o_arg = None if isinstance(o, Var) and o.name not in bound else o
        predicate = None if isinstance(p, Var) else p
        total, seen = 0.0, False
        for iri in self._select_sources(predicate):
            if iri in self._down:
                continue
            mean = self.stats_store.estimate(
                federation_signature(iri, s_arg, predicate, o_arg))
            if mean is not None:
                total += mean
                seen = True
        return total if seen else None

    def triples(self, pattern) -> Iterator[Triple]:
        s, p, o = pattern
        sources = [
            iri for iri in self._select_sources(p) if iri not in self._down
        ]
        if self.pool is not None and self.pool.parallel and len(sources) > 1:
            # Fan the pattern out across its candidate members; merge
            # in source-selection order so the triple stream is
            # byte-identical to the serial scan below.
            def one(iri, tracer=None):
                self._check_time(iri)
                return self._dispatch(
                    iri, lambda ep: list(ep.triples(pattern)),
                    tracer=tracer,
                )

            for iri, outcome in zip(
                    sources,
                    self._fan_out(one, sources, "federation.scan")):
                if outcome.error is not None:
                    self._mark_down(iri, outcome.error)
                    continue
                # Recorded at merge time, in source-selection order, so
                # EWMA folding is identical however the scans overlap.
                self._record_scan(iri, pattern, len(outcome.value))
                yield from outcome.value
            return
        for iri in sources:
            if iri in self._down:
                continue
            try:
                self._check_time(iri)
                matched = self._dispatch(
                    iri, lambda ep: list(ep.triples(pattern))
                )
            except Exception as exc:
                self._mark_down(iri, exc)
                continue
            self._record_scan(iri, pattern, len(matched))
            yield from matched

    def predicates(self):
        return iter(self._predicate_index)

    def __len__(self) -> int:
        return sum(len(ep.graph) for ep in self.endpoints.values())


#: Shared fallback pool: inline execution, no threads, no state.
_SERIAL_POOL = WorkerPool(workers=1)


class FederationEngine:
    """Answers (Geo)SPARQL queries over a federation of endpoints."""

    def __init__(self, retry_policy: Optional[RetryPolicy] = None,
                 breaker_factory: Optional[
                     Callable[[], CircuitBreaker]] = None,
                 admission: Optional[AdmissionController] = None,
                 tracer=None,
                 pool: Optional[WorkerPool] = None,
                 eager_service: Optional[bool] = None,
                 stats_store=None,
                 replan_ratio: Optional[float] = None):
        self._endpoints: Dict[str, SparqlEndpoint] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._locks: Dict[str, threading.Lock] = {}
        #: Sources backed by a replica set instead of one endpoint;
        #: their dispatches go through the pool (failover + hedging)
        #: rather than the single-endpoint retry/breaker path.
        self._pools: Dict[str, EndpointPool] = {}
        self._breaker_factory = breaker_factory
        self.retry_policy = retry_policy or no_retry()
        #: Execution substrate for endpoint fan-out. The default serial
        #: pool reproduces the classic engine exactly; a parallel pool
        #: overlaps endpoint latency without changing any output.
        self.pool = pool if pool is not None else _SERIAL_POOL
        #: Dispatch every SERVICE group up front (concurrently, through
        #: the pool) instead of on first pull. Defaults to on exactly
        #: when the pool can overlap; forcing it ``True`` on a serial
        #: engine makes its dispatch sequence byte-compatible with a
        #: parallel engine's — what the equivalence suite pins down.
        self.eager_service = (self.pool.parallel if eager_service is None
                              else eager_service)
        #: One stats tree for the engine; every dispatch records into
        #: the per-endpoint labeled child, so ``stats.attempts`` is the
        #: engine total while ``stats.labeled(endpoint=iri)`` carries
        #: the per-endpoint breakdown (no double counting even when
        #: the retry policy instance is shared across engines).
        self.stats = ResilienceStats()
        #: Optional bounded-concurrency guard for ``query()``; when
        #: configured, excess queries are shed with ``Overloaded``.
        self.admission = admission
        self.governance = (admission.stats if admission is not None
                           else GovernanceStats())
        #: Default tracer for ``query()`` (per-call ``tracer=`` wins).
        self.tracer = tracer
        #: Optional :class:`~repro.sparql.StatsStore` (named apart from
        #: ``stats``, the engine's ResilienceStats): per-endpoint scan
        #: row counts feed it, and the planner's source-selection
        #: estimates consult it on the next query.
        self.stats_store = stats_store
        #: Divergence ratio arming mid-query re-planning (None = off).
        self.replan_ratio = replan_ratio

    def register(self, iri: str, endpoint: SparqlEndpoint) -> None:
        iri = str(iri)
        self._endpoints[iri] = endpoint
        self._locks[iri] = threading.Lock()
        if self._breaker_factory is not None:
            self._breakers[iri] = self._breaker_factory()

    def register_replicas(self, iri: str,
                          replicas: List[SparqlEndpoint],
                          **pool_kwargs) -> EndpointPool:
        """Register one federation source served by a replica set.

        The source still answers at a single IRI — source selection,
        failure reporting and result merging are unchanged — but every
        dispatch goes through an :class:`~repro.resilience.EndpointPool`
        (round-robin + outlier ejection + half-open probes + hedging)
        instead of the single-endpoint retry path. The first replica
        stands in for the source wherever a representative graph is
        needed (``__len__``, ``explain``); a replica set serves one
        logical dataset, so any member is representative.

        ``pool_kwargs`` are forwarded to :class:`EndpointPool`; the
        clock defaults to the engine's retry-policy clock so virtual
        time governs ejection windows and hedge delays too.
        """
        iri = str(iri)
        if not replicas:
            raise ValueError("register_replicas needs >= 1 replica")
        pool_kwargs.setdefault("clock", self.retry_policy.clock)
        pool_kwargs.setdefault("stats", self.stats.labeled(endpoint=iri))
        pool = EndpointPool(
            iri, [(ep.name, ep) for ep in replicas], **pool_kwargs)
        self._pools[iri] = pool
        self._endpoints[iri] = replicas[0]
        self._locks[iri] = threading.Lock()
        return pool

    def endpoint(self, iri: str) -> SparqlEndpoint:
        return self._endpoints[str(iri)]

    def endpoint_pool(self, iri: str) -> Optional[EndpointPool]:
        """The replica pool behind one source (None when unpooled)."""
        return self._pools.get(str(iri))

    def sources(self) -> List[str]:
        """Registered source IRIs in registration order."""
        return list(self._endpoints)

    @property
    def source_count(self) -> int:
        """Registered federation sources (pooled sets count once)."""
        return len(self._endpoints)

    def breaker(self, iri: str) -> Optional[CircuitBreaker]:
        """The circuit breaker guarding one endpoint (if configured)."""
        return self._breakers.get(str(iri))

    @property
    def endpoints(self) -> List[SparqlEndpoint]:
        return list(self._endpoints.values())

    def _dispatch(self, iri: str, call: Callable,
                  budget: Optional[QueryBudget] = None,
                  tracer=None):
        """One source call; *call* receives the endpoint to hit.

        Unpooled sources run ``call(endpoint)`` under the retry policy
        and the source's breaker; pooled sources let the
        :class:`EndpointPool` pick the replica (failover, ejection,
        hedging). Either way the call is charged as a remote fetch,
        bounded by the query's *remaining* deadline, funded by the
        budget's retry budget when one is attached, and recorded on the
        per-endpoint labeled child of the engine stats. With a tracer
        the call is a ``federation.dispatch`` span.
        """
        budget_s = None
        if budget is not None:
            budget.charge_fetch()
            budget_s = budget.remaining_s()
            if budget_s is not None and budget_s <= 0:
                # Soft-deadline budgets don't raise in charge_fetch;
                # never start a network call with no time left.
                raise DeadlineExceeded(
                    "query deadline exhausted before dispatch",
                    budget.snapshot(),
                )
        stats = self.stats.labeled(endpoint=iri)
        # Concurrent tasks may target the same endpoint; its breaker
        # state and retry counters are guarded by a per-endpoint lock
        # (one in-flight request per member, like a real HTTP client's
        # per-host connection slot). Distinct endpoints overlap freely.
        lock = self._locks.get(iri)
        with (lock if lock is not None else threading.Lock()):
            pool = self._pools.get(iri)
            if pool is not None:
                return self._dispatch_pooled(pool, call, stats,
                                             budget, tracer)
            endpoint = self._endpoints[iri]
            retry_budget = getattr(budget, "retry_budget", None)
            if tracer is None:
                return self.retry_policy.run(
                    lambda: call(endpoint), stats=stats,
                    breaker=self._breakers.get(iri),
                    budget_s=budget_s, retry_budget=retry_budget)
            with tracer.span("federation.dispatch", endpoint=iri):
                return self.retry_policy.run(
                    lambda: call(endpoint), stats=stats,
                    breaker=self._breakers.get(iri),
                    budget_s=budget_s, tracer=tracer,
                    retry_budget=retry_budget)

    def _dispatch_pooled(self, pool: EndpointPool, call: Callable,
                         stats: ResilienceStats,
                         budget: Optional[QueryBudget], tracer):
        """One replica-set call: the pool owns retry semantics
        (failover across replicas + one hedge), so the retry policy is
        not stacked on top — that would multiply attempts."""
        stats.attempts += 1

        def attempt(endpoint, attempt_budget):
            # Charges go to the parent budget at the call sites; the
            # pool's child budget is the attempt's cancel token.
            return call(endpoint)

        try:
            if tracer is None:
                value = pool.call(attempt, budget=budget)
            else:
                with tracer.span("federation.dispatch",
                                 endpoint=pool.name, pooled=True):
                    value = pool.call(attempt, budget=budget,
                                      tracer=tracer)
        except Exception:
            stats.failures += 1
            raise
        stats.successes += 1
        outcome = pool.last_outcome
        if outcome is not None and outcome.failovers:
            stats.retries += outcome.failovers
        return value

    def _resolve_service(self, endpoint_iri: str,
                         group: GroupGraphPattern,
                         partial: bool = False,
                         failures: Optional[Dict[str, str]] = None,
                         budget: Optional[QueryBudget] = None,
                         tracer=None) -> List[Solution]:
        endpoint = self._endpoints.get(endpoint_iri)
        if endpoint is None:
            # Unknown endpoints are a query error, not a network
            # failure: raised even in partial mode.
            raise KeyError(f"unregistered SERVICE endpoint <{endpoint_iri}>")
        try:
            return self._dispatch(
                endpoint_iri, lambda ep: ep.select_group(group),
                budget=budget, tracer=tracer,
            )
        except Exception as exc:
            if not partial or not _absorbable(exc):
                raise
            assert failures is not None
            failures[endpoint_iri] = f"{type(exc).__name__}: {exc}"
            return []

    def query(self, text: str,
              partial_results: bool = False,
              budget: Optional[QueryBudget] = None,
              tracer=None) -> SPARQLResult:
        """Evaluate a query over the federation.

        SERVICE patterns go to their named endpoint; everything else is
        matched against the virtual union with source selection. With
        ``partial_results=True``, an endpoint failure (after retries /
        breaker) removes that endpoint from the query instead of
        raising; the result's ``failures`` maps the failing endpoint
        IRI to the error. SERVICE against an *unregistered* IRI always
        raises.

        ``budget`` governs the whole federated evaluation: each
        endpoint call is charged as a remote fetch and retried only
        within the query's remaining deadline. Combined with
        ``partial_results=True`` the deadline degrades instead of
        cancelling — endpoints the deadline cut off are recorded in
        ``failures`` while bindings already fetched are returned (the
        budget's deadline is switched to *soft* for the local join
        work). When the engine has an :class:`AdmissionController`,
        the query first takes an execution slot and may be shed with
        ``Overloaded``.

        ``tracer`` (or the engine's default tracer) makes the whole
        evaluation one ``federation.query`` trace tree: endpoint
        harvest and dispatches, retry attempts, and the plan-mirrored
        operator spans all nest under it (``result.trace``).
        """
        if tracer is None:
            tracer = self.tracer
        if self.admission is not None:
            return self.admission.run(
                lambda: self._governed_query(text, partial_results, budget,
                                             tracer),
                budget=budget,
            )
        try:
            result = self._governed_query(text, partial_results, budget,
                                          tracer)
        except BudgetExceeded as exc:
            self.governance.record_outcome(exc, budget)
            raise
        self.governance.record_outcome(None, budget)
        return result

    def _governed_query(self, text: str, partial_results: bool,
                        budget: Optional[QueryBudget],
                        tracer=None) -> SPARQLResult:
        if tracer is None:
            return self._run_query(text, partial_results, budget, None)
        with tracer.span("federation.query") as root:
            result = self._run_query(text, partial_results, budget, tracer)
        result.trace = root
        return result

    def _run_query(self, text: str, partial_results: bool,
                   budget: Optional[QueryBudget],
                   tracer) -> SPARQLResult:
        failures: Dict[str, str] = {}
        if budget is not None and partial_results:
            # Degraded mode: once the deadline passes, remote dispatch
            # is shed per endpoint (recorded in `failures`) but local
            # evaluation of already-fetched data runs to completion.
            budget.hard_deadline = False

        def dispatch(iri: str, fn: Callable, tracer=tracer):
            return self._dispatch(iri, fn, budget=budget, tracer=tracer)

        view = _FederatedView(self._endpoints, dispatch=dispatch,
                              partial=partial_results, failures=failures,
                              budget=budget, pool=self.pool,
                              tracer=tracer, stats_store=self.stats_store)
        ast = parse_query(text, namespaces=view.namespaces)
        prefetched = (
            self._prefetch_services(ast, budget, tracer)
            if self.eager_service else {}
        )

        def resolver(endpoint_iri: str,
                     group: GroupGraphPattern) -> List[Solution]:
            outcome = prefetched.get(id(group))
            if outcome is not None:
                if outcome.error is None:
                    return outcome.value
                exc = outcome.error
                if isinstance(exc, KeyError) or not partial_results \
                        or not _absorbable(exc):
                    raise exc
                failures[endpoint_iri] = f"{type(exc).__name__}: {exc}"
                return []
            return self._resolve_service(endpoint_iri, group,
                                         partial=partial_results,
                                         failures=failures,
                                         budget=budget,
                                         tracer=tracer)

        ctx = Context(view, service_resolver=resolver, budget=budget,
                      tracer=tracer, stats=self.stats_store,
                      replan_ratio=self.replan_ratio)
        result = eval_query(ast, ctx)
        result.failures = dict(failures)
        if budget is not None:
            result.budget_stats = budget.snapshot()
        return result

    def _prefetch_services(self, ast, budget: Optional[QueryBudget],
                           tracer) -> Dict[int, object]:
        """Dispatch every SERVICE group in *ast* up front, through the
        pool, keyed by the group's identity.

        Outcomes (values *or* errors) are replayed when the evaluator
        consults the service resolver, so error surfacing keeps its
        lazy-dispatch semantics: a SERVICE the evaluation never reaches
        contributes neither rows nor failure entries, whatever the
        worker count.
        """
        where = getattr(ast, "where", None)
        if where is None:
            return {}
        services = _collect_services(where)
        if not services:
            return {}

        def one(pattern: ServicePattern, tracer=None):
            iri = str(pattern.endpoint)
            if iri not in self._endpoints:
                raise KeyError(f"unregistered SERVICE endpoint <{iri}>")
            return self._dispatch(
                iri, lambda ep: ep.select_group(pattern.group),
                budget=budget, tracer=tracer,
            )

        outcomes = self.pool.run_tasks(
            one, services, tracer=tracer, label="federation.services",
            task_label="federation.service", pass_tracer=True,
        )
        return {
            id(pattern.group): outcome
            for pattern, outcome in zip(services, outcomes)
        }

    def explain(self, text: str):
        """Plan a federated query without matching any pattern.

        Returns the plan root (render with ``.render()``). Source
        selection still harvests each endpoint's predicate vocabulary
        (that is part of planning), but no triple pattern is dispatched
        and SERVICE groups are shown as unexecuted exchange operators.
        Endpoint failures during the harvest are tolerated, as in
        ``partial_results`` mode.
        """
        failures: Dict[str, str] = {}

        def dispatch(iri: str, fn: Callable, tracer=None):
            return self._dispatch(iri, fn, tracer=tracer)

        view = _FederatedView(self._endpoints, dispatch=dispatch,
                              partial=True, failures=failures,
                              pool=self.pool, stats_store=self.stats_store)
        ast = parse_query(text, namespaces=view.namespaces)
        return explain_query(ast, Context(view, stats=self.stats_store))

    def request_counts(self) -> Dict[str, int]:
        """Requests each source served (for benchmark reporting).

        A pooled source reports the sum over its replicas — what the
        logical source absorbed, whichever replica answered.
        """
        counts = {}
        for iri, ep in self._endpoints.items():
            pool = self._pools.get(iri)
            if pool is None:
                counts[iri] = ep.request_count
            else:
                counts[iri] = sum(
                    pool.replica(name).endpoint.request_count
                    for name in pool.replica_names())
        return counts

    def pool_reports(self) -> Dict[str, Dict[str, object]]:
        """Health/hedging report per pooled source (ejections, probes,
        hedge wins, per-replica error rates)."""
        return {iri: pool.report()
                for iri, pool in self._pools.items()}

    def bind_metrics(self, registry, component: str = "federation"):
        """Expose this engine's resilience + governance counters (with
        their per-endpoint breakdown) through a
        :class:`~repro.observability.MetricsRegistry`; returns the
        registry for chaining."""
        from ..observability.bridge import (
            register_endpoint_pool,
            register_governance,
            register_resilience,
        )

        register_resilience(registry, self.stats, component=component)
        register_governance(registry, self.governance, component=component)
        for pool in self._pools.values():
            register_endpoint_pool(registry, pool, component=component)
        return registry
