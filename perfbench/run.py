"""Real-CPU benchmark of the Copernicus App Lab reproduction.

Runs one seeded workload on the real clock and prints, as its last
stdout line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. The line before it is a ``{"report": ...}`` object with
the run's context: dataset digest, per-query row counts, the tail
percentile and its sample count, work counters, the speed probe.

    python3 perfbench/run.py --workload paris-materialized --seed 7 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics (tracing off);
``--trace 1`` measures the per-layer breakdown (see README.md).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Builds per end-to-end run; ``setup_s`` is their median.
SETUP_REPS = 7
#: The speed probe's time on the reference runner, in ms. Reported
#: times and rates are scaled to it (see ``Calibration``).
CALIB_REF_MS = 10.0

#: Every ``repro`` subpackage; the profiled pass reports calls and
#: self time for each (zero where a workload never enters it).
PACKAGES = ("catalog", "chaos", "cloud", "core", "data", "geographica",
            "geometry", "geotriples", "governance", "interlink", "madis",
            "observability", "ontop", "opendap", "parallel", "rdf",
            "resilience", "schemaorg", "sdl", "service", "sextant",
            "sparql", "strabon", "vito")

#: Plan operator labels with their own ``sparql.op.<label>_ms``;
#: any other operator is summed into ``sparql.op.other_ms``. (Index
#: scans run inside their join's pull, so the join carries their time.)
OPERATORS = ("Select", "Project", "Distinct", "Filter", "OrderBy", "TopK",
             "Aggregate", "Slice", "IndexNestedLoopJoin", "Seed")

#: name -> (unit, better) of every per-layer metric, in report order.
LAYER_METRICS = {
    "sparql.parse_ms": ("ms", "lower"),
    "sparql.plan_ms": ("ms", "lower"),
    "sparql.exec_ms": ("ms", "lower"),
    "sparql.intermediate_per_result": ("ratio", "lower"),
    "sparql.serialize_ms": ("ms", "lower"),
    "service.envelope_ms": ("ms", "lower"),
    "service.execute_ms": ("ms", "lower"),
    "service.plan_cache_hit_rate": ("ratio", "higher"),
    "rdf.decode_calls": ("count", "lower"),
    "rdf.index_probe_calls": ("count", "lower"),
    "geometry.self_ms": ("ms", "lower"),
    "strabon.candidates_per_match": ("ratio", "lower"),
    "governance.charges_per_req": ("count", "lower"),
    "ontop.direct_sql_ms": ("ms", "lower"),
    "madis.execute_ms": ("ms", "lower"),
    "madis.materialize_ms": ("ms", "lower"),
    "opendap.fetch_ms": ("ms", "lower"),
    "madis.vt_rows_per_query": ("count", "lower"),
    "opendap.server_calls_per_query": ("count", "lower"),
    "opendap.vt_cache_hit_rate": ("ratio", "higher"),
    "observability.self_ms": ("ms", "lower"),
    "geotriples.load_s": ("s", "lower"),
    "strabon.ontology_load_s": ("s", "lower"),
    "vito.generate_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}
LAYER_METRICS.update({f"sparql.op.{op}_ms": ("ms", "lower")
                      for op in OPERATORS + ("other",)})
LAYER_METRICS.update({f"calls.{pkg}": ("count", "lower")
                      for pkg in PACKAGES})
LAYER_METRICS.update({f"self_ms.{pkg}": ("ms", "lower")
                      for pkg in PACKAGES})

END_TO_END = {"setup_s": "s", "qps": "1/s", "p50_ms": "ms",
              "tail_ms": "ms", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# context recorded beside every run
# ---------------------------------------------------------------------------

class Calibration:
    """Speed probes interleaved with the measured work.

    The probe is a fixed pure-Python loop. On a shared runner the host's
    speed drifts by tens of percent within seconds, and the probe drifts
    with it; multiplying a measured time by ``CALIB_REF_MS / probe``,
    with the probe taken right after it, cancels most of that drift and
    gives the time on a runner whose probe takes ``CALIB_REF_MS``.
    """

    def __init__(self):
        self.samples_ms = []

    def probe(self) -> float:
        """Run the probe once; returns the scale for the work just done."""
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(40_000):
            acc = (acc + i * i) % 1_000_003
            table[i & 1023] = acc
        self.samples_ms.append((time.perf_counter() - t0) * 1e3)
        return CALIB_REF_MS / self.samples_ms[-1]

    @property
    def mean_ms(self) -> float:
        return sum(self.samples_ms) / len(self.samples_ms)

    @property
    def scale(self) -> float:
        """One scale for a whole stretch of work (per-layer sums)."""
        return CALIB_REF_MS / self.mean_ms


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rank(n, pct):
    """1-based nearest rank of the *pct* percentile of *n* samples."""
    return max(1, -(-pct * n // 100))


# ---------------------------------------------------------------------------
# shared steps
# ---------------------------------------------------------------------------

def warm_up(workload, state, program):
    """Answer every distinct request once; the answers are the
    reference each timed answer must equal."""
    reference, rows = {}, {}
    for request in program:
        key = workload.key(request)
        if key in reference:
            continue
        digest, n = workload.run(state, request)
        reference[key] = digest
        rows[request[0]] = rows.get(request[0], 0) + n
    return reference, rows


class Tally:
    """Attempts, failures and the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, workload, reference, request, call):
        """Run one request through *call*; False when it failed."""
        self.attempted += 1
        try:
            digest, __ = call(request)
        except Exception as exc:  # a failed request is counted, not fatal
            reason = f"{request[0]}: {exc!r}"
        else:
            if digest == reference[workload.key(request)]:
                return True
            reason = f"{request[0]}: answer differs from its warm-up"
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)
        return False


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)
# ---------------------------------------------------------------------------

def end_to_end(workload, seed, seconds):
    calib = Calibration()
    setups, raw_setups, state = [], [], None
    for __ in range(SETUP_REPS):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.build(seed)
        raw_setups.append(time.perf_counter() - t0)
        setups.append(raw_setups[-1] * calib.probe())
    program = workload.requests(seed)
    reference, rows = warm_up(workload, state, program)
    tally = Tally()
    latencies, raw_latencies = [], []
    window = workload.window
    busy = raw_busy = 0.0
    i = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        batch = []
        for __ in range(window):
            request = program[i % len(program)]
            i += 1
            t0 = time.perf_counter()
            ok = tally.check(workload, reference, request,
                             lambda r: workload.run(state, r))
            elapsed = time.perf_counter() - t0
            # a failed request misses every latency limit
            batch.append(elapsed if ok else float(seconds))
        scale = calib.probe()
        raw_busy += sum(batch)
        busy += sum(batch) * scale
        raw_latencies += batch
        latencies += [t * scale for t in batch]
    completed = tally.attempted - tally.failed
    pct = workload.tail_percentile
    tail_rank = rank(len(latencies), pct)

    def summary(setup_samples, times, busy_s):
        times = sorted(times)
        return {"setup_s": statistics.median(setup_samples),
                "qps": completed / busy_s,
                "p50_ms": statistics.median(times) * 1e3,
                "tail_ms": times[tail_rank - 1] * 1e3}

    metrics = summary(setups, latencies, busy)
    metrics["peak_rss_mb"] = peak_rss_mb()
    report = {
        "dataset_sha256": state.dataset_sha256(),
        "rows_per_query": rows,
        "tail": {"percentile": pct, "samples": len(latencies),
                 "beyond": len(latencies) - tail_rank},
        "raw": summary(raw_setups, raw_latencies, raw_busy),
        "calib_ms": calib.mean_ms,
    }
    return tally, metrics, report


# ---------------------------------------------------------------------------
# per-layer run (tracing on)
# ---------------------------------------------------------------------------

def _package_of(filename):
    parts = pathlib.PurePath(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            name = parts[i + 1]
            return name[:-3] if name.endswith(".py") else name
    return None


def profiled_pass(workload, seed):
    """Deterministic work counters: Python calls per package (the
    method ``benchmarks/bench_slo_overhead.py`` uses) plus the counters
    the program exposes, over a fixed number of requests after warm-up.
    """
    state = workload.build(seed, virtual_clock=True)
    program = workload.requests(seed)
    reference, __ = warm_up(workload, state, program)
    before = workload.counters(state)
    n = workload.profile_requests
    result_rows = 0
    profile = cProfile.Profile()
    tally = Tally()
    for request in program[:n]:
        def call(r):
            nonlocal result_rows
            profile.enable()
            try:
                digest, rows = workload.run(state, r)
            finally:
                profile.disable()
            result_rows += rows
            return digest, rows
        tally.check(workload, reference, request, call)
    calls = {pkg: 0 for pkg in PACKAGES}
    self_s = {pkg: 0.0 for pkg in PACKAGES}
    decode = probes = 0
    total_s = 0.0
    for stat in profile.getstats():
        total_s += stat.inlinetime
        code = stat.code
        if isinstance(code, str):
            continue
        pkg = _package_of(code.co_filename)
        if pkg in calls:
            calls[pkg] += stat.callcount
            self_s[pkg] += stat.inlinetime
        if code.co_filename.endswith(os.path.join("rdf", "dictionary.py")) \
                and code.co_name == "decode":
            decode += stat.callcount
        if code.co_filename.endswith(os.path.join("rdf", "graph.py")) \
                and code.co_name in ("triples_ids", "_encode_pattern"):
            probes += stat.callcount
    after = workload.counters(state)
    counters = {f"calls.{pkg}": calls[pkg] for pkg in PACKAGES}
    counters.update({k: after[k] - before[k] for k in after})
    counters.update(rdf_decode_calls=decode, rdf_index_probe_calls=probes,
                    result_rows=result_rows, requests=n)
    shares = {pkg: self_s[pkg] / total_s if total_s else 0.0
              for pkg in PACKAGES}
    return tally, counters, self_s, shares, state.dataset_sha256()


def per_layer(workload, seed, seconds):
    from repro.observability import Tracer

    plain = workload.build(seed)
    traced = workload.build(seed, tracer=Tracer())
    program = workload.requests(seed)
    reference, rows = warm_up(workload, plain, program)
    traced_reference, __ = warm_up(workload, traced, program)
    traced.tracer.roots.clear()  # drop the warm-up's spans
    traced.tracer.spans.clear()
    tally = Tally()
    if traced_reference != reference:
        tally.attempted += 1
        tally.failed += 1
        tally.errors.append("traced answers differ from untraced answers")
    window = workload.window
    acc = {}
    calib = Calibration()
    before = workload.counters(traced)
    plain_s = traced_s = 0.0
    done = i = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        batch = [program[(i + k) % len(program)] for k in range(window)]
        i += window
        t0 = time.perf_counter()
        for request in batch:
            tally.check(workload, reference, request,
                        lambda r: workload.run(plain, r))
        t1 = time.perf_counter()
        for request in batch:
            tally.check(workload, reference, request,
                        lambda r: workload.run_traced(traced, r, acc))
        t2 = time.perf_counter()
        plain_s += t1 - t0
        traced_s += t2 - t1
        done += window
        calib.probe()
    after = workload.counters(traced)
    # side measurements (a second parse of the text) are not traced work
    traced_s -= acc.get("aside", 0.0)

    profile_tally, counters, self_s, shares, sha = profiled_pass(
        workload, seed)
    tally.attempted += profile_tally.attempted
    tally.failed += profile_tally.failed
    tally.errors += profile_tally.errors

    def per_req_ms(key):
        return acc.get(key, 0.0) * 1e3 / done

    plain_ms = plain_s * 1e3 / done
    result_rows = acc.get("result_rows", 0.0)
    lookups = acc.get("plan_cache_lookups", 0.0)
    vt_lookups = (after.get("vt_cache_hits", 0) - before.get("vt_cache_hits", 0)
                  + after.get("vt_cache_misses", 0)
                  - before.get("vt_cache_misses", 0))
    matches = acc.get("spatial_matches", 0.0)
    n_profiled = counters["requests"]
    metrics = {
        "sparql.parse_ms": per_req_ms("sparql.parse"),
        "sparql.plan_ms": (per_req_ms("sparql.plan")
                           + max(0.0, per_req_ms("service.plan")
                                 - per_req_ms("sparql.parse"))),
        "sparql.exec_ms": per_req_ms("sparql.exec"),
        "sparql.intermediate_per_result":
            acc.get("intermediate_rows", 0.0) / result_rows
            if result_rows else 0.0,
        "sparql.serialize_ms": per_req_ms("sparql.serialize"),
        "service.envelope_ms": per_req_ms("service.envelope"),
        "service.execute_ms": per_req_ms("service.execute"),
        "service.plan_cache_hit_rate":
            acc.get("plan_cache_hits", 0.0) / lookups if lookups else 0.0,
        "rdf.decode_calls": counters["rdf_decode_calls"] / n_profiled,
        "rdf.index_probe_calls":
            counters["rdf_index_probe_calls"] / n_profiled,
        "geometry.self_ms": shares["geometry"] * plain_ms,
        "strabon.candidates_per_match":
            acc.get("rtree_candidates", 0.0) / matches if matches else 0.0,
        "governance.charges_per_req": acc.get("budget_charges", 0.0) / done,
        "ontop.direct_sql_ms": per_req_ms("ontop.direct_sql"),
        "madis.execute_ms": per_req_ms("madis.execute"),
        "madis.materialize_ms": per_req_ms("madis.materialize"),
        "opendap.fetch_ms": per_req_ms("opendap.fetch"),
        "madis.vt_rows_per_query": acc.get("madis.vt_rows", 0.0) / done,
        "opendap.server_calls_per_query":
            (after.get("vt_server_calls", 0)
             - before.get("vt_server_calls", 0)) / done,
        "opendap.vt_cache_hit_rate":
            (after.get("vt_cache_hits", 0) - before.get("vt_cache_hits", 0))
            / vt_lookups if vt_lookups else 0.0,
        "observability.self_ms": shares["observability"] * plain_ms,
        "geotriples.load_s": traced.phases.get("geotriples.load_s", 0.0),
        "strabon.ontology_load_s":
            traced.phases.get("strabon.ontology_load_s", 0.0),
        "vito.generate_s": traced.phases.get("vito.generate_s", 0.0),
        "trace.overhead": traced_s / plain_s,
        "trace.coverage": acc.get("accounted", 0.0) / traced_s,
    }
    other = 0.0
    for key, value in acc.items():
        if key.startswith("op."):
            label = key[3:]
            if label in OPERATORS:
                metrics[f"sparql.op.{label}_ms"] = value * 1e3 / done
            else:
                other += value
    for op in OPERATORS:
        metrics.setdefault(f"sparql.op.{op}_ms", 0.0)
    metrics["sparql.op.other_ms"] = other * 1e3 / done
    for pkg in PACKAGES:
        metrics[f"calls.{pkg}"] = counters[f"calls.{pkg}"] / n_profiled
        metrics[f"self_ms.{pkg}"] = self_s[pkg] * 1e3 / n_profiled
    # times in the reference runner's units, as the end-to-end metrics
    for name in metrics:
        if LAYER_METRICS[name][0] in ("ms", "s"):
            metrics[name] *= calib.scale
    report = {
        "dataset_sha256": plain.dataset_sha256(),
        "profiled_dataset_sha256": sha,
        "rows_per_query": rows,
        "traced_requests": done,
        "untraced_ms_per_request": plain_ms,
        "calib_ms": calib.mean_ms,
        "counters": counters,
        "operators": sorted(k[3:] for k in acc if k.startswith("op.")),
    }
    return tally, metrics, report


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is missing under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        tally, metrics, report = per_layer(workload, args.seed, args.seconds)
        units = {name: LAYER_METRICS[name][0] for name in LAYER_METRICS}
    else:
        tally, metrics, report = end_to_end(workload, args.seed,
                                            args.seconds)
        units = END_TO_END
    report.update(workload=workload.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  calib_ref_ms=CALIB_REF_MS, nproc=os.cpu_count(),
                  python=platform.python_version(), errors=tally.errors)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
