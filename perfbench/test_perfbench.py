"""The benchmark's own tests.  They run the program, so they take minutes:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _bound(metric):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return next(m["bound"] for m in doc["end_to_end"] if m["name"] == metric)


def _traced(workload, seed):
    ops = workloads.build(workload, seed)
    planned = run._write_specs(workload, seed, ops)
    tally = run.Tally(workload, ops, run.load_recorded(workload, seed))
    layers, _ = run.traced_run(workload, seed, planned, tally)
    assert tally.failed == 0, tally.problems
    return layers


def _is_count(name):
    return name.endswith(".calls") or name in (
        "fields.gf_ops", "connection.bad_primes", "surface.bfs.elements",
        "poly.gcd.nontrivial_ratio", "trace.unwrapped_count")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = _traced(workload, 0), _traced(workload, 0)
    counts = {k: v for k, v in first.items() if _is_count(k)}
    assert counts == {k: second[k] for k in counts}
    assert first["trace.unwrapped_count"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_holdout_keeps_operation_count(workload):
    base = workloads.build(workload, 0)
    holdout = workloads.build(workload, workloads.HOLDOUT_SEED)
    assert [(o["tool"], o["args"][0]) for o in base] == \
        [(o["tool"], o["args"][0]) for o in holdout]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_holdout_cost_within_bound(workload):
    medians = {}
    for seed in (0, workloads.HOLDOUT_SEED):
        ops = workloads.build(workload, seed)
        planned = run._write_specs(workload, seed, ops)
        tally = run.Tally(workload, ops, run.load_recorded(workload, seed))
        samples = run.timed_run(1, planned, tally)
        assert tally.failed == 0, tally.problems
        medians[seed] = sorted(samples["ref_wall_s"])[len(samples["ref_wall_s"]) // 2]
    ratio = medians[workloads.HOLDOUT_SEED] / medians[0]
    assert abs(ratio - 1) <= _bound("ref_wall_s"), medians


def test_inputs_depend_only_on_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 3) == workloads.build(workload, 3)
        assert workloads.build(workload, 3) != workloads.build(workload, 4)


def _ok_results():
    """A correct report for the first operation of each workload, seed 0."""
    got = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, 0)
        planned = run._write_specs(workload, 0, ops[:1])
        child = run._child({"mode": "plain", "ops": planned},
                           time.monotonic() + run.RUN_LIMIT_S)
        got[workload] = (ops[0], child["ops"][0])
    return got


def test_checks_reject_wrong_answers():
    got = _ok_results()
    for workload, (op, rep) in got.items():
        assert workloads.check(workload, op, rep["code"], rep["results"], None) is None

    op, rep = got["scan"]
    bad = json.loads(json.dumps(rep["results"]))
    bad["summary"]["vanishing"] += 1
    assert workloads.check("scan", op, 0, bad, None)
    bad = json.loads(json.dumps(rep["results"]))
    bad["primes"][0]["good"] = True
    assert workloads.check("scan", op, 0, bad, None)

    op, rep = got["analyze"]
    bad = json.loads(json.dumps(rep["results"]))
    bad["verification"]["confirms_prediction"] = False
    assert workloads.check("analyze", op, 0, bad, None)

    op, rep = got["certify"]
    bad = json.loads(json.dumps(rep["results"]))
    bad["element_count"] -= 1
    assert workloads.check("certify", op, 0, bad, None)
    assert workloads.check("certify", op, 3, rep["results"], None)


def test_conjugation_lift_is_checked_exactly():
    ops = [o for o in workloads.build("deform", 0)
           if o["args"][0] == "conjugate" and o["expect"]["conjugate"]]
    planned = run._write_specs("deform", 0, ops[:1])
    child = run._child({"mode": "plain", "ops": planned},
                       time.monotonic() + run.RUN_LIMIT_S)
    rep = child["ops"][0]
    assert workloads.check("deform", ops[0], rep["code"], rep["results"], None) is None
    bad = json.loads(json.dumps(rep["results"]))
    bad["M"][0][0][0] = "12345/1" if bad["M"][0][0][0] != "12345/1" else "0/1"
    assert workloads.check("deform", ops[0], 0, bad, None)


def test_fails_without_the_program():
    """In a directory holding only the benchmark, exit non-zero, no result."""
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_names_are_listed_not_fatal():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import tracer

    t = tracer.Tracer()
    t.install([("poly.gone", "Polynomial.no_such_method"),
               ("poly.gone2", "no_such_function"),
               ("poly.private", "poly._zp_mul")])
    assert t.unwrapped == ["Polynomial.no_such_method", "no_such_function",
                           "poly._zp_mul"]
