"""Determinism lint: no ambient clocks or unseeded randomness in src.

Every timing in the library goes through an injected ``clock``
callable (defaulting to ``time.monotonic``) and every random draw
through a seeded ``random.Random`` / ``numpy`` generator — that is
what makes fault injection, retry jitter, the equivalence suite, and
the benchmarks reproducible. This lint greps the source tree for the
ambient alternatives so a new call site fails CI instead of silently
introducing nondeterminism.
"""

import ast
import pathlib
import re

import pytest

pytestmark = pytest.mark.tier1

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src"
BENCHMARKS = REPO / "benchmarks"

#: Module paths (relative to src/, posix form) allowed to touch
#: ambient time or randomness. Currently none — add an entry only
#: with a comment justifying why injection is impossible there.
ALLOWED = set()

FORBIDDEN = [
    (re.compile(r"\btime\.time\(\)"), "ambient wall clock time.time()"),
    # Calls only: `clock=time.perf_counter` default *references* stay
    # legal — they are the injection points the lint protects.
    (re.compile(r"\bperf_counter\(\)"),
     "ambient perf_counter() call (inject a clock)"),
    (re.compile(r"\brandom\.random\(\)"), "unseeded random.random()"),
    (re.compile(r"\brandom\.(randint|randrange|choice|choices|shuffle|"
                r"uniform|sample)\("),
     "module-level random.* draw (use a seeded random.Random)"),
    (re.compile(r"\bdatetime\.now\(\)|\bdatetime\.utcnow\(\)"),
     "ambient datetime.now()/utcnow()"),
    (re.compile(r"\bnp\.random\.(random|rand|randint|randn|choice|"
                r"shuffle|uniform)\("),
     "legacy global numpy RNG (use np.random.default_rng(seed))"),
]


def scan(root, forbidden, allowed=(), prefix=""):
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel in allowed:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            for pattern, why in forbidden:
                if pattern.search(code):
                    offenders.append(
                        f"{prefix}{rel}:{lineno}: {why}: {line.strip()}")
    return offenders


def test_src_has_no_ambient_time_or_randomness():
    offenders = scan(SRC, FORBIDDEN, allowed=ALLOWED, prefix="src/")
    assert not offenders, (
        "nondeterministic call sites (inject a clock / seed an RNG):\n"
        + "\n".join(offenders)
    )


def salted_hash_calls(root, prefix=""):
    """Calls of the builtin ``hash()`` outside ``__hash__`` methods.

    Python salts str/bytes hashes per process (``PYTHONHASHSEED``), so
    a hash that seeds an RNG, routes a shard or names a file differs
    from run to run. Inside ``__hash__`` it only feeds in-process dicts
    and sets, which is what it is for.
    """
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, in_dunder_hash):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_dunder_hash = node.name == "__hash__"
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash" and not in_dunder_hash):
                offenders.append(f"{prefix}{rel}:{node.lineno}: "
                                 "builtin hash() is salted per process")
            for child in ast.iter_child_nodes(node):
                visit(child, in_dunder_hash)

        visit(tree, False)
    return offenders


def test_src_has_no_salted_hash_outside_dunder_hash():
    offenders = (salted_hash_calls(SRC, prefix="src/")
                 + salted_hash_calls(BENCHMARKS, prefix="benchmarks/"))
    assert not offenders, (
        "use a stable digest (zlib.crc32, hashlib) instead:\n"
        + "\n".join(offenders)
    )


def test_salted_hash_lint_flags_a_seeding_call(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class K:\n"
        "    def __hash__(self):\n"
        "        return hash(self.key)\n"
        "def rng(name):\n"
        "    return Random(hash(name))\n")
    assert salted_hash_calls(tmp_path) == [
        "mod.py:5: builtin hash() is salted per process"]


#: The chaos layer gets a stricter bar than the rest of src: a chaos
#: run's whole value is byte-identical replays, so *any* ``time.`` or
#: ``random.`` usage is suspect, not just the ambient calls above.
#: ``plan.py`` alone may construct seeded ``random.Random`` instances —
#: it is the single randomness root every other chaos module draws
#: from (via ``ChaosPlan.rng``).
CHAOS_FORBIDDEN = [
    (re.compile(r"\btime\.\w+"),
     "chaos modules must use the harness VirtualClock, never time.*"),
    (re.compile(r"\brandom\.\w+"),
     "chaos randomness flows from ChaosPlan.rng (plan.py) only"),
]


def test_chaos_layer_has_no_clock_or_random_at_all():
    chaos = SRC / "repro" / "chaos"
    offenders = []
    for line in scan(chaos, CHAOS_FORBIDDEN, prefix="src/repro/chaos/"):
        # plan.py is the sanctioned randomness root: seeded
        # random.Random construction is legal there, nothing else is.
        if line.startswith("src/repro/chaos/plan.py") and \
                "random.Random" in line:
            continue
        offenders.append(line)
    assert not offenders, (
        "chaos layer must be replayable — route time through the "
        "VirtualClock and randomness through ChaosPlan.rng:\n"
        + "\n".join(offenders)
    )


#: The feedback store gets the same total ban as the chaos layer: a
#: StatsStore snapshot must replay byte-identically (frozen runs pin
#: plans), so the module may hold no clock and draw no randomness at
#: all — means come from operator counters, timings from the tracer.
STATS_FORBIDDEN = [
    (re.compile(r"\btime\.\w+"),
     "stats feedback must be clock-free (timings arrive via profiles)"),
    (re.compile(r"\brandom\.\w+"),
     "stats feedback must be deterministic (no randomness at all)"),
]


def test_stats_store_has_no_clock_or_random_at_all():
    stats_py = SRC / "repro" / "sparql" / "stats.py"
    offenders = []
    for lineno, line in enumerate(stats_py.read_text().splitlines(), 1):
        code = line.split("#", 1)[0]
        for pattern, why in STATS_FORBIDDEN:
            if pattern.search(code):
                offenders.append(
                    f"src/repro/sparql/stats.py:{lineno}: {why}: "
                    f"{line.strip()}")
    assert not offenders, (
        "the feedback store must replay deterministically:\n"
        + "\n".join(offenders)
    )


#: The SLO engine, query log and flight recorder get the chaos-layer
#: total ban: their whole contract is byte-stable reports and
#: same-seed-identical incident bundles, so time arrives only through
#: injected clocks / explicit ``at_s`` and sampling only through the
#: seeded crc32 hash — no ``time.*`` or ``random.*`` at all.
OBSERVABILITY_TOTAL_BAN = ("slo.py", "qlog.py", "recorder.py")

OBS_FORBIDDEN = [
    (re.compile(r"\btime\.\w+"),
     "observability modules take an injected clock or explicit at_s"),
    (re.compile(r"\brandom\.\w+"),
     "sampling decisions must be seeded-hash based, never random.*"),
]


def test_slo_qlog_recorder_have_no_clock_or_random_at_all():
    base = SRC / "repro" / "observability"
    offenders = []
    for name in OBSERVABILITY_TOTAL_BAN:
        path = base / name
        assert path.exists(), f"expected module {path} missing"
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            for pattern, why in OBS_FORBIDDEN:
                if pattern.search(code):
                    offenders.append(
                        f"src/repro/observability/{name}:{lineno}: "
                        f"{why}: {line.strip()}")
    assert not offenders, (
        "SLO/qlog/recorder must replay deterministically:\n"
        + "\n".join(offenders)
    )


#: The spill join gets the chaos-layer total ban: spill files must
#: hash identically across runs, so it may hold no clock and draw no
#: randomness at all (partitioning is a crc32 of the join key).
DATA_PLANE_TOTAL_BAN = ("repro/sparql/spill.py",)

DATA_PLANE_FORBIDDEN = [
    (re.compile(r"\btime\.\w+"),
     "the spill join is clock-free (timings live in the tracer)"),
    (re.compile(r"\brandom\.\w+"),
     "spill partitioning uses a stable hash, never random.*"),
]


def test_spill_join_has_no_clock_or_random_at_all():
    offenders = []
    for rel in DATA_PLANE_TOTAL_BAN:
        path = SRC / rel
        assert path.exists(), f"expected module {path} missing"
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            for pattern, why in DATA_PLANE_FORBIDDEN:
                if pattern.search(code):
                    offenders.append(
                        f"src/{rel}:{lineno}: {why}: {line.strip()}")
    assert not offenders, (
        "spill joins must replay byte-identically:\n"
        + "\n".join(offenders)
    )


#: Scan manifest: every module under src/repro must appear in exactly
#: one tier. STANDARD_TIER gets the ambient-call scan (FORBIDDEN
#: above); TOTAL_TIER gets a total ``time.*``/``random.*`` ban through
#: one of the dedicated tests in this file. A module on disk that is
#: in neither set fails the manifest test below — new modules must be
#: classified here, deliberately, instead of silently inheriting the
#: weaker tier.
TOTAL_TIER = (
    {
        # chaos layer (test_chaos_layer_has_no_clock_or_random_at_all)
        "repro/chaos/__init__.py", "repro/chaos/harness.py",
        "repro/chaos/invariants.py", "repro/chaos/plan.py",
        # feedback store (test_stats_store_has_no_clock_or_random_at_all)
        "repro/sparql/stats.py",
    }
    # SLO/qlog/recorder (test_slo_qlog_recorder_...)
    | {f"repro/observability/{name}" for name in OBSERVABILITY_TOTAL_BAN}
    # spill join (test_spill_join_has_no_clock_or_random_at_all)
    | set(DATA_PLANE_TOTAL_BAN)
)

STANDARD_TIER = {
    "repro/__init__.py", "repro/catalog/__init__.py",
    "repro/catalog/acdd.py", "repro/catalog/cms.py",
    "repro/catalog/drs.py", "repro/catalog/translate.py",
    "repro/cloud/__init__.py", "repro/cloud/kubernetes.py",
    "repro/cloud/platform.py", "repro/cloud/sandbox.py",
    "repro/core/__init__.py", "repro/core/applab.py",
    "repro/core/casestudy.py", "repro/core/cli.py",
    "repro/core/ontologies.py", "repro/data/__init__.py",
    "repro/data/generators.py", "repro/data/paris.py", "repro/errors.py",
    "repro/geographica/__init__.py", "repro/geographica/harness.py",
    "repro/geographica/queries.py", "repro/geographica/workload.py",
    "repro/geometry/__init__.py", "repro/geometry/base.py",
    "repro/geometry/crs.py", "repro/geometry/geojson.py",
    "repro/geometry/index.py", "repro/geometry/ops.py",
    "repro/geometry/wkt.py", "repro/geotriples/__init__.py",
    "repro/geotriples/generator.py", "repro/geotriples/processor.py",
    "repro/geotriples/rml.py", "repro/governance/__init__.py",
    "repro/governance/admission.py", "repro/governance/budget.py",
    "repro/governance/stats.py", "repro/interlink/__init__.py",
    "repro/interlink/jedai.py", "repro/interlink/silk.py",
    "repro/madis/__init__.py", "repro/madis/engine.py",
    "repro/madis/opendap_vt.py", "repro/madis/udfs.py",
    "repro/observability/__init__.py", "repro/observability/bridge.py",
    "repro/observability/labeled.py", "repro/observability/metrics.py",
    "repro/observability/trace.py", "repro/ontop/__init__.py",
    "repro/ontop/mapping.py", "repro/ontop/obda.py",
    "repro/ontop/opendap_adapter.py", "repro/ontop/r2rml_adapter.py",
    "repro/ontop/raster.py", "repro/opendap/__init__.py",
    "repro/opendap/client.py", "repro/opendap/constraints.py",
    "repro/opendap/das.py", "repro/opendap/dds.py",
    "repro/opendap/dods.py", "repro/opendap/model.py",
    "repro/opendap/ncml.py", "repro/opendap/server.py",
    "repro/opendap/subset.py", "repro/parallel/__init__.py",
    "repro/parallel/partition.py", "repro/parallel/pool.py",
    "repro/rdf/__init__.py", "repro/rdf/crawler.py",
    "repro/rdf/dictionary.py", "repro/rdf/graph.py",
    "repro/rdf/namespace.py", "repro/rdf/ntriples.py",
    "repro/rdf/rdfxml.py", "repro/rdf/reasoner.py", "repro/rdf/terms.py",
    "repro/rdf/turtle.py", "repro/resilience/__init__.py",
    "repro/resilience/breaker.py", "repro/resilience/endpoint_pool.py",
    "repro/resilience/faults.py", "repro/resilience/policy.py",
    "repro/resilience/retry_budget.py", "repro/resilience/stats.py",
    "repro/schemaorg/__init__.py", "repro/schemaorg/annotate.py",
    "repro/schemaorg/search.py", "repro/sdl/__init__.py",
    "repro/sdl/analytics.py", "repro/sdl/auth.py", "repro/sdl/library.py",
    "repro/sdl/mapsapi.py", "repro/service/__init__.py",
    "repro/service/api.py", "repro/service/errors.py",
    "repro/service/plancache.py", "repro/service/scheduler.py",
    "repro/service/service.py", "repro/service/tenancy.py",
    "repro/service/workload.py", "repro/sextant/__init__.py",
    "repro/sextant/core.py", "repro/sextant/formats.py",
    "repro/sextant/map_ontology.py", "repro/sextant/svg.py",
    "repro/sparql/__init__.py", "repro/sparql/ast.py",
    "repro/sparql/evaluator.py", "repro/sparql/expr.py",
    "repro/sparql/federation.py",
    "repro/sparql/functions.py", "repro/sparql/operators.py",
    "repro/sparql/parser.py", "repro/sparql/plan.py",
    "repro/sparql/prepared.py", "repro/sparql/results.py",
    "repro/sparql/tokenizer.py", "repro/sparql/update.py",
    "repro/strabon/__init__.py", "repro/strabon/store.py",
    "repro/vito/__init__.py", "repro/vito/archive.py", "repro/vito/mep.py",
    "repro/vito/products.py",
}


def test_every_src_module_is_in_the_scan_manifest():
    on_disk = {p.relative_to(SRC).as_posix()
               for p in (SRC / "repro").rglob("*.py")}
    manifest = STANDARD_TIER | TOTAL_TIER
    overlap = STANDARD_TIER & TOTAL_TIER
    assert not overlap, (
        "modules listed in both lint tiers: " + ", ".join(sorted(overlap)))
    missing = on_disk - manifest
    assert not missing, (
        "src/repro modules missing from the determinism-lint scan "
        "manifest — add each to STANDARD_TIER or TOTAL_TIER in "
        "tests/core/test_determinism_lint.py:\n  "
        + "\n  ".join(sorted(missing))
    )
    stale = manifest - on_disk
    assert not stale, (
        "scan manifest names modules that no longer exist:\n  "
        + "\n  ".join(sorted(stale))
    )


def test_benchmarks_have_no_ambient_time_or_randomness():
    """Benchmarks measure with perf_counter() — that is their
    instrument, so the perf_counter rule is lifted there — but their
    *workloads* must stay reproducible: no wall clocks, no unseeded
    randomness."""
    forbidden = [(pattern, why) for pattern, why in FORBIDDEN
                 if "perf_counter" not in pattern.pattern]
    offenders = scan(BENCHMARKS, forbidden, prefix="benchmarks/")
    assert not offenders, (
        "nondeterministic benchmark workloads (seed the RNG, inject "
        "a clock):\n" + "\n".join(offenders)
    )
