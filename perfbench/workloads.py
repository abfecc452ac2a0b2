"""The three seeded workloads the benchmark drives.

Each workload builds its serving state from a seed, lists its request
program, and answers one request either plainly (end-to-end runs) or
with timers around the calls into each layer (traced runs). A request
returns ``(digest, rows)``: the SHA-1 of the answer exactly as a client
would receive it, and the number of result rows.

- ``paris-materialized``: the Section-4 case study, GeoTriples ->
  Strabon, queried by round robin over six queries;
- ``paris-virtual``: the same LAI product behind Ontop-spatial -> MadIS
  -> OPeNDAP with no cache window, queried by round robin over the four
  queries both workflows answer;
- ``service-mix``: ``ServiceAPI.handle`` with v2 envelopes over the
  multi-tenant station service, a seeded template + ad-hoc mix.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from datetime import date
from unittest import mock

from repro.core.casestudy import (GreennessCaseStudy, LISTING1, LISTING3,
                                  PREFIXES)
from repro.core.ontologies import all_ontologies
from repro.geotriples import MappingProcessor
from repro.ontop import make_opendap_endpoint
from repro.opendap import LatencyModel
from repro.service import ServiceAPI
from repro.service import workload as service_workload
from repro.sparql import Context, clear_geometry_cache, eval_query, \
    parse_query
from repro.sparql.plan import plan_query
from repro.strabon import StrabonStore

#: Two months of the 10-daily LAI product.
N_DEKADS = 6
START = date(2018, 5, 1)

#: The four LAI queries both workflows answer (all take Ontop's
#: direct-SQL path on the virtual side).
SHARED_QUERIES = {
    "listing3": LISTING3,
    "lai_above": PREFIXES + """
SELECT ?s ?wkt ?lai ?t WHERE {
  ?s lai:lai ?lai .
  ?s time:hasTime ?t .
  ?s geo:hasGeometry ?g .
  ?g geo:asWKT ?wkt
  FILTER(?lai > 2.0)
}
""",
    "lai_mean": PREFIXES + """
SELECT ?wkt (AVG(?lai) AS ?mean) WHERE {
  ?s lai:lai ?lai .
  ?s geo:hasGeometry ?g .
  ?g geo:asWKT ?wkt
} GROUP BY ?wkt
""",
    "lai_window": PREFIXES + """
SELECT ?s ?wkt ?lai WHERE {
  ?s lai:lai ?lai .
  ?s geo:hasGeometry ?g .
  ?g geo:asWKT ?wkt
  FILTER(geof:sfIntersects(?wkt, "POLYGON((2.25 48.83, 2.35 48.83, 2.35 48.88, 2.25 48.88, 2.25 48.83))"^^geo:wktLiteral))
}
""",
}

_CORINE_MEAN = PREFIXES + """
SELECT (AVG(?lai) AS ?mean) WHERE {{
  ?area clc:hasCode "{code}" ;
        geo:hasGeometry ?ga .
  ?ga geo:asWKT ?wa .
  ?obs lai:lai ?lai ; geo:hasGeometry ?gb .
  ?gb geo:asWKT ?wb .
  FILTER(geof:sfIntersects(?wa, ?wb))
}}
"""

#: The materialized mix: name -> the query texts one request runs.
#: ``green_vs_industrial`` is the pair of CORINE spatial joins behind
#: ``GreennessCaseStudy.park_vs_industrial_lai`` (green-urban 141 vs
#: industrial 121).
MATERIALIZED_MIX = [
    ("listing1", (LISTING1,)),
    ("green_vs_industrial", (_CORINE_MEAN.format(code="141"),
                             _CORINE_MEAN.format(code="121"))),
] + [(name, (text,)) for name, text in SHARED_QUERIES.items()]

VIRTUAL_MIX = [(name, (text,)) for name, text in SHARED_QUERIES.items()]


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _add(acc, key, value):
    acc[key] = acc.get(key, 0.0) + value


def plan_ops(result, acc):
    """Per-operator self time and row counts from a traced SPARQL plan."""
    for span in result.trace.walk():
        op = span.attributes.get("op")
        if op is not None:
            _add(acc, "op." + op, span.self_time_s)
    stack = [result.plan]
    while stack:
        node = stack.pop()
        rows = node.actual_rows or 0
        _add(acc, "intermediate_rows", rows)
        if node.label == "SpatialIndexScan":
            _add(acc, "rtree_candidates", rows)
        elif node.label == "Filter" and node.detail.startswith("spatial"):
            _add(acc, "spatial_matches", rows)
        stack.extend(node.children)


def lai_dataset_sha256(study: GreennessCaseStudy) -> str:
    """Digest of every generated LAI raster (values and cloud mask)."""
    digest = hashlib.sha256()
    for day, dataset in sorted(study.archive.latest("LAI").items()):
        digest.update(day.isoformat().encode())
        for name in sorted(dataset.variables):
            digest.update(name.encode())
            digest.update(dataset.variables[name].data.tobytes())
    return digest.hexdigest()


class Workload:
    """Interface of one workload; see the module docstring."""

    name = ""
    #: The tail percentile reported as ``tail_ms``: the highest of
    #: p90/p95/p99 with at least ten samples beyond it in one run.
    tail_percentile = 90
    #: Requests per window: a speed probe runs after every window, and
    #: the per-layer run alternates untraced and traced windows.
    window = 1
    #: Requests of the profiled pass that counts calls (fixed work).
    profile_requests = 1

    def build(self, seed, tracer=None, virtual_clock=False):
        raise NotImplementedError

    def requests(self, seed):
        """The request program: a list of ``(name, payload)``."""
        raise NotImplementedError

    def key(self, request):
        """Requests with equal keys must get equal answers."""
        return request[0]

    def run(self, state, request):
        raise NotImplementedError

    def run_traced(self, state, request, acc):
        raise NotImplementedError

    def counters(self, state):
        """Work counters the program itself exposes."""
        return {}


# ---------------------------------------------------------------------------
# paris-materialized
# ---------------------------------------------------------------------------

class ParisState:
    def __init__(self, study, phases, tracer, store=None, engine=None,
                 operator=None):
        self.study = study
        #: set-up phase -> seconds (the per-layer set-up metrics)
        self.phases = phases
        self.tracer = tracer
        self.store = store
        self.engine = engine
        self.operator = operator

    def dataset_sha256(self):
        return lai_dataset_sha256(self.study)


def _study(seed, phases):
    t0 = time.perf_counter()
    study = GreennessCaseStudy(start=START, n_dekads=N_DEKADS, seed=seed,
                               latency=LatencyModel(sleep=False))
    phases["vito.generate_s"] = time.perf_counter() - t0
    return study


class ParisMaterialized(Workload):
    name = "paris-materialized"
    tail_percentile = 90
    window = 6  # one round of the mix
    profile_requests = 6

    def build(self, seed, tracer=None, virtual_clock=False):
        clear_geometry_cache()
        phases = {}
        study = _study(seed, phases)
        t0 = time.perf_counter()
        store = StrabonStore("greenness-of-paris")
        MappingProcessor(study.vector_triples_maps()
                         + [study.lai_triples_map()]).run(store)
        t1 = time.perf_counter()
        store.update(all_ontologies())
        t2 = time.perf_counter()
        phases["geotriples.load_s"] = t1 - t0
        phases["strabon.ontology_load_s"] = t2 - t1
        return ParisState(study, phases, tracer, store=store)

    def requests(self, seed):
        return list(MATERIALIZED_MIX)

    def run(self, state, request):
        texts = request[1]
        out, rows = [], 0
        for text in texts:
            result = state.store.query(text)
            out.append(result.to_json())
            rows += len(result.rows)
        return _sha1("\n".join(out)), rows

    def run_traced(self, state, request, acc):
        store, out, rows = state.store, [], 0
        for text in request[1]:
            t0 = time.perf_counter()
            ast = parse_query(text, namespaces=store.namespaces)
            t1 = time.perf_counter()
            ctx = Context(store, tracer=state.tracer)
            sub = plan_query(ast, ctx)
            t2 = time.perf_counter()
            result = eval_query(ast, ctx, sub=sub)
            t3 = time.perf_counter()
            out.append(result.to_json())
            t4 = time.perf_counter()
            _add(acc, "sparql.parse", t1 - t0)
            _add(acc, "sparql.plan", t2 - t1)
            _add(acc, "sparql.exec", t3 - t2)
            _add(acc, "sparql.serialize", t4 - t3)
            _add(acc, "accounted", t4 - t0)
            _add(acc, "result_rows", len(result.rows))
            plan_ops(result, acc)
            rows += len(result.rows)
        state.tracer.roots.clear()
        state.tracer.spans.clear()
        return _sha1("\n".join(out)), rows


# ---------------------------------------------------------------------------
# paris-virtual
# ---------------------------------------------------------------------------

class ParisVirtual(Workload):
    name = "paris-virtual"
    tail_percentile = 95
    window = 4  # one round of the mix
    profile_requests = 4

    def build(self, seed, tracer=None, virtual_clock=False):
        clear_geometry_cache()
        phases = {}
        study = _study(seed, phases)
        engine, operator, __ = make_opendap_endpoint(
            study.registry, study.lai_url, variable="LAI",
            window_minutes=0, tracer=tracer)
        return ParisState(study, phases, tracer, engine=engine,
                          operator=operator)

    def requests(self, seed):
        return list(VIRTUAL_MIX)

    def run(self, state, request):
        result = state.engine.query(request[1][0])
        return _sha1(result.to_json()), len(result.rows)

    def run_traced(self, state, request, acc):
        text = request[1][0]
        # Ontop parses inside its own span; parse the text once more
        # beside it so the parser's cost is visible (not in "accounted").
        t0 = time.perf_counter()
        parse_query(text, namespaces=state.engine.namespaces)
        parse_s = time.perf_counter() - t0
        _add(acc, "sparql.parse", parse_s)
        _add(acc, "aside", parse_s)
        result = state.engine.query(text)
        t1 = time.perf_counter()
        body = result.to_json()
        t2 = time.perf_counter()
        _add(acc, "sparql.serialize", t2 - t1)
        _add(acc, "accounted", (t2 - t1) + result.trace.duration_s)
        _add(acc, "result_rows", len(result.rows))
        for span in result.trace.walk():
            name = span.name
            if name.startswith("ontop."):
                _add(acc, "ontop.direct_sql", span.self_time_s)
            elif name == "madis.execute":
                _add(acc, "madis.execute", span.self_time_s)
            elif name in ("madis.materialize", "madis.opendap"):
                # the opendap virtual-table operator is MadIS's
                # materialization of the fetched grid into rows
                _add(acc, "madis.materialize", span.self_time_s)
                _add(acc, "madis.vt_rows",
                     span.counters.get("rows_flattened", 0))
            elif name.startswith("dap."):
                _add(acc, "opendap.fetch", span.self_time_s)
        state.tracer.roots.clear()
        state.tracer.spans.clear()
        return _sha1(body), len(result.rows)

    def counters(self, state):
        op = state.operator
        return {"vt_server_calls": op.server_calls,
                "vt_cache_hits": op.cache_hits,
                "vt_cache_misses": op.cache_misses}


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------

EX = service_workload.EX
#: Share of requests that are ad-hoc query texts (plan-cache misses).
ADHOC_SHARE = 0.3
#: Distinct ad-hoc thresholds: far more than the 64-entry plan cache.
ADHOC_THRESHOLDS = 1000
#: Length of the seeded request program (the loop cycles over it).
PROGRAM_LENGTH = 2000
ADHOC_TEXT = (
    "PREFIX ex: <http://example.org/copernicus/>\n"
    "SELECT (COUNT(?s) AS ?n) WHERE {{ ?s ex:region ex:region{region:02d} . "
    "?s ex:ndvi ?v FILTER(?v > {threshold}) }}")


class RealClock:
    """The real monotonic clock behind the VirtualClock interface."""

    def __call__(self):
        return time.monotonic()

    @property
    def now(self):
        return time.monotonic()

    def advance_to(self, t):
        pass


class ServiceState:
    def __init__(self, workload, tracer, virtual_clock):
        self.workload = workload
        self.api = ServiceAPI(workload.service)
        self.tracer = tracer
        self.virtual_clock = virtual_clock
        self.work = {"budget_scans": 0, "budget_rows": 0}
        self.phases = {}

    def dataset_sha256(self):
        lines = sorted(f"{t.s.n3()} {t.p.n3()} {t.o.n3()} ."
                       for t in self.workload.graph)
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class ServiceMix(Workload):
    name = "service-mix"
    tail_percentile = 99
    window = 100
    profile_requests = 200

    def build(self, seed, tracer=None, virtual_clock=False):
        spec = service_workload.WorkloadSpec(seed=seed)
        if virtual_clock:
            workload = service_workload.Workload(spec, tracer=tracer)
        else:
            # Workload builds the service, SLO engine, query log and
            # flight recorder on one clock; give them the real one.
            with mock.patch.object(service_workload, "VirtualClock",
                                   RealClock):
                workload = service_workload.Workload(spec, tracer=tracer)
        return ServiceState(workload, tracer, virtual_clock)

    def requests(self, seed):
        spec = service_workload.WorkloadSpec(seed=seed)
        rng = random.Random(seed)
        tenants = service_workload.default_tenants()
        names = [t.name for t in tenants]
        tenant_weights = [t.weight for t in tenants]
        templates = service_workload.DEFAULT_TEMPLATES
        region_weights = [1.0 / rank ** spec.zipf_s
                          for rank in range(1, spec.regions + 1)]
        program = []
        for __ in range(PROGRAM_LENGTH):
            tenant = rng.choices(names, weights=tenant_weights)[0]
            if rng.random() < ADHOC_SHARE:
                text = ADHOC_TEXT.format(
                    region=rng.randrange(spec.regions),
                    threshold=rng.randrange(ADHOC_THRESHOLDS)
                    / ADHOC_THRESHOLDS)
                program.append(("adhoc", {"v": 2, "op": "query",
                                          "tenant": tenant, "query": text}))
                continue
            name, __, param, __ = rng.choices(
                templates, weights=[t[1] for t in templates])[0]
            request = {"v": 2, "op": "query", "tenant": tenant,
                       "template": name}
            if param == "region":
                region = rng.choices(range(spec.regions),
                                     weights=region_weights)[0]
                request["params"] = {"region": {
                    "type": "uri", "value": f"{EX}region{region:02d}"}}
            if name == "station_listing":
                request["page_size"] = spec.page_size
            program.append((name, request))
        return program

    def key(self, request):
        envelope = request[1]
        return json.dumps({k: v for k, v in envelope.items()
                           if k != "tenant"}, sort_keys=True)

    def _exchange(self, state, request, on_envelope=None):
        """One client request: the query and every page after it."""
        envelope = request[1]
        tenant = envelope["tenant"]
        body, rows = [], 0
        while True:
            if state.virtual_clock:
                clock = state.workload.clock
                clock.advance_to(clock.now + 0.001)
            t0 = time.perf_counter()
            response = state.api.handle(envelope)
            t1 = time.perf_counter()
            text = json.dumps(response)
            t2 = time.perf_counter()
            if on_envelope is not None:
                on_envelope(t1 - t0, t2 - t1)
            if not response["ok"]:
                raise RuntimeError(f"request failed: {text}")
            data = response["data"]
            budget = data.get("budget")
            if budget is not None:
                state.work["budget_scans"] += budget["triples_scanned"]
                state.work["budget_rows"] += budget["rows"]
            body.append(json.dumps([data["vars"], data["rows"]]))
            rows += len(data["rows"])
            token = data.get("next_page_token")
            if token is None:
                break
            envelope = {"v": 2, "op": "page", "tenant": tenant,
                        "page_token": token}
        return _sha1("\n".join(body)), rows

    def run(self, state, request):
        return self._exchange(state, request)

    def run_traced(self, state, request, acc):
        tracer = state.tracer
        service = state.workload.service
        cache = service.plan_cache

        def on_envelope(handle_s, dumps_s):
            inner = 0.0
            for root in tracer.roots:
                if root.name == "service.plan":
                    _add(acc, "service.plan", root.duration_s)
                elif root.name == "service.execute":
                    _add(acc, "service.execute", root.duration_s)
                    for child in root.children:
                        if child.attributes.get("op") is not None:
                            _add(acc, "sparql.exec", child.duration_s)
                else:
                    continue
                inner += root.duration_s
                for span in root.walk():
                    op = span.attributes.get("op")
                    if op is not None:
                        _add(acc, "op." + op, span.self_time_s)
            tracer.roots.clear()
            tracer.spans.clear()
            _add(acc, "service.envelope", handle_s - inner + dumps_s)
            _add(acc, "accounted", handle_s + dumps_s)

        envelope = request[1]
        text = envelope.get("query") or service.template_text(
            envelope["template"])
        hits, misses = cache.hits, cache.misses
        charges = state.work["budget_scans"] + state.work["budget_rows"]
        digest, rows = self._exchange(state, request, on_envelope)
        _add(acc, "budget_charges", state.work["budget_scans"]
             + state.work["budget_rows"] - charges)
        if cache.misses > misses:
            # The service parses and plans inside one span; time the
            # parser alone on the same text (outside "accounted").
            t0 = time.perf_counter()
            parse_query(text, namespaces=state.workload.graph.namespaces)
            parse_s = time.perf_counter() - t0
            _add(acc, "sparql.parse", parse_s)
            _add(acc, "aside", parse_s)
        prepared = cache.peek(text)
        if prepared is not None and prepared.sub is not None:
            stack = [prepared.sub.root]
            while stack:
                node = stack.pop()
                _add(acc, "intermediate_rows", node.actual_rows or 0)
                stack.extend(node.children)
        _add(acc, "result_rows", rows)
        _add(acc, "plan_cache_hits", cache.hits - hits)
        _add(acc, "plan_cache_lookups",
             cache.hits - hits + cache.misses - misses)
        return digest, rows

    def counters(self, state):
        cache = state.workload.service.plan_cache
        return dict(state.work, plan_cache_hits=cache.hits,
                    plan_cache_misses=cache.misses)


WORKLOADS = {w.name: w for w in (ParisMaterialized(), ParisVirtual(),
                                 ServiceMix())}
