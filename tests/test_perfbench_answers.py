"""The benchmark's scan, analyze and deform answers, checked in the fast
suite.

perfbench/workloads.py builds seeded specs with planted answers and checks
every report against them and against the answers recorded in
perfbench/expected.json.  The benchmark runs those checks only when it is
run; here the same operations go through pcurv_main and deform_main
in-process, so a p-curvature change that gets a table or a verdict wrong,
or a linear-algebra change that returns a wrong lift or gauge, fails this
suite too.  The perfbench modules are only imported and read.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from pcurvkit import connection, specdoc
from pcurvkit.cli import deform_main, pcurv_main
from pcurvkit.valuation import verify_prediction

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    """perfbench/workloads.py, which imports its sibling exact.py."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


workloads = load_workloads()
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


MAINS = {"pcurv": pcurv_main, "deform": deform_main}


@pytest.mark.parametrize("workload", ["scan", "analyze", "deform"])
@pytest.mark.parametrize("seed", [0, workloads.HOLDOUT_SEED])
def test_reports_pass_the_benchmark_checks(workload, seed, tmp_path, capsys):
    ops = workloads.build(workload, seed)
    recorded = EXPECTED[workload][str(seed)]
    assert len(recorded) == len(ops)
    for i, (op, answer) in enumerate(zip(ops, recorded)):
        spec = tmp_path / f"{i:02d}.json"
        spec.write_text(json.dumps(op["spec"]), encoding="utf-8")
        main = MAINS[op["tool"]]
        code = main([str(spec) if a == "{spec}" else a for a in op["args"]])
        results = json.loads(capsys.readouterr().out)["results"]
        assert workloads.check(workload, op, code, results, answer) is None, (i, results)


@pytest.mark.parametrize("seed", [0, 3, workloads.HOLDOUT_SEED])
def test_analyze_decides_every_prime_by_point_values(seed, monkeypatch):
    """Each analyze spec of the seed is decided without the p-curvature
    kernel: by a nonzero specialised value, or after a zero one (the p = 13
    spec of seeds 0 and 7, three specs of seed 3) by values with q kept
    symbolic.  A count, not a timing."""
    kernel = []
    real = connection._kernel_report

    def spy(field, form, p):
        kernel.append(p)
        return real(field, form, p)

    monkeypatch.setattr(connection, "_kernel_report", spy)
    zero_witnesses = 0
    for op in workloads.build("analyze", seed):
        c, p = specdoc.companion_from_spec(op["spec"])
        zero_witnesses += connection.p_curvature_at(c.matrix(), p)[1].is_zero()
        assert verify_prediction(c, p) or not op["expect"]["predicted"]
    assert kernel == []
    assert zero_witnesses == (3 if seed == 3 else 1)
