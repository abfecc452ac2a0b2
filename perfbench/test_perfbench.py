"""Tests of the benchmark itself (not part of the tier-1 gate).

    python -m pytest perfbench -q
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 11
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    return {name: _run(name, 1) for name in WORKLOADS}


def test_spec_lists_what_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == run.LAYER_METRICS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_run_is_correct(workload):
    report, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["errors"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(report["dataset_sha256"]) == 64
    assert all(n > 0 for n in report["rows_per_query"].values())


def test_traced_runs_are_correct(traced):
    for report, result in traced.values():
        assert result["correct"] and result["failed"] == 0, report["errors"]
        assert set(result["metrics"]) == set(run.LAYER_METRICS)


def _layers(traced, workload):
    return {k: v["value"] for k, v in traced[workload][1]["metrics"].items()}


def _near_zero(traced, workload, names):
    """Each named layer costs under 0.1% of the workload's request."""
    layers = _layers(traced, workload)
    request_ms = traced[workload][0]["untraced_ms_per_request"]
    for name in names:
        assert layers[name] < 1e-3 * request_ms, (workload, name)


def test_heavy_layers_read_nonzero_and_idle_layers_zero(traced):
    mat = _layers(traced, "paris-materialized")
    virt = _layers(traced, "paris-virtual")
    svc = _layers(traced, "service-mix")
    for name in ("sparql.parse_ms", "sparql.plan_ms", "sparql.exec_ms",
                 "sparql.serialize_ms", "rdf.decode_calls",
                 "rdf.index_probe_calls", "geometry.self_ms",
                 "strabon.candidates_per_match", "geotriples.load_s",
                 "strabon.ontology_load_s", "vito.generate_s"):
        assert mat[name] > 0, name
    for name in ("ontop.direct_sql_ms", "madis.execute_ms",
                 "madis.materialize_ms", "opendap.fetch_ms",
                 "madis.vt_rows_per_query",
                 "opendap.server_calls_per_query", "vito.generate_s"):
        assert virt[name] > 0, name
    for name in ("sparql.parse_ms", "sparql.plan_ms", "sparql.exec_ms",
                 "service.envelope_ms", "service.execute_ms",
                 "service.plan_cache_hit_rate", "governance.charges_per_req",
                 "observability.self_ms", "sparql.op.TopK_ms"):
        assert svc[name] > 0, name
    # packages a workload never enters read exactly zero
    for layers in (mat, svc):
        for name in ("ontop.direct_sql_ms", "madis.execute_ms",
                     "madis.materialize_ms", "opendap.fetch_ms",
                     "madis.vt_rows_per_query",
                     "opendap.server_calls_per_query", "calls.opendap",
                     "calls.madis", "calls.ontop"):
            assert layers[name] == 0, name
    for name in ("sparql.plan_ms", "sparql.exec_ms",
                 "sparql.intermediate_per_result", "service.execute_ms",
                 "service.plan_cache_hit_rate", "rdf.decode_calls",
                 "rdf.index_probe_calls", "governance.charges_per_req",
                 "calls.service", "calls.strabon", "calls.governance"):
        assert virt[name] == 0, name
    for name in ("service.execute_ms", "service.envelope_ms",
                 "governance.charges_per_req", "calls.service",
                 "calls.observability", "calls.governance"):
        assert mat[name] == 0, name
    assert svc["strabon.candidates_per_match"] == svc["calls.geometry"] == 0
    # layers a workload barely touches read ~0
    _near_zero(traced, "paris-virtual", ["observability.self_ms",
                                         "self_ms.observability"])
    # w=0: every virtual query fetches, the VT cache never hits
    assert virt["opendap.vt_cache_hit_rate"] == 0


def test_trace_accounts_for_the_traced_wall(traced):
    for name in WORKLOADS:
        layers = _layers(traced, name)
        assert layers["trace.overhead"] > 0.8, name
        assert 0.9 <= layers["trace.coverage"] <= 1.0, name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_work_counters_repeat_for_the_same_seed_and_data(workload):
    wl = WORKLOADS[workload]
    first = run.profiled_pass(wl, SEED)
    second = run.profiled_pass(wl, SEED)
    assert first[4] == second[4]  # same dataset_sha256
    assert first[0].failed == second[0].failed == 0
    assert first[1] == second[1]
    assert first[1]["result_rows"] > 0


def test_virtual_and_materialized_answers_agree():
    outcome = check.agreement(SEED)
    assert outcome["same_data"]
    for name, query in outcome["queries"].items():
        assert query["agree"], (name, query)
        assert query["materialized_rows"] == query["virtual_rows"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
