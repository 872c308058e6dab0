"""End-to-end command line behavior: exit statuses, report schema,
determinism of everything except the timing field, and the declared
console scripts."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pcurvkit
from pcurvkit.cli import deform_main, pcurv_main, rep_main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# Directory holding the pcurvkit package this suite imported.
PACKAGE_ROOT = str(Path(pcurvkit.__file__).resolve().parents[1])


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, main, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


SCAN_DOC = {
    "base": "QQ",
    "variable": "x",
    "derivation": "x*d/dx",
    "matrix": [["3"]],
}

ANALYZE_DOC = {
    "kind": "companion",
    "p": 5,
    "last_column": ["1/q", "0"],
}

QUATERNION_DOC = {
    "field": {"min_poly": ["1", "0", "1"], "name": "i"},
    "surface": {"genus": 1, "punctures": 1},
    "generators": {
        "a1": [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "-1"]]],
        "b1": [[["0", "0"], ["1", "0"]], [["-1", "0"], ["0", "0"]]],
    },
}

PARABOLIC_DOC = {
    "field": "QQ",
    "surface": {"genus": 1, "punctures": 1},
    "generators": {
        "a1": [[1, 1], [0, 1]],
        "b1": [[1, 0], [0, 1]],
    },
}

NORMALIZE_OK_DOC = {
    "base": "QQ",
    "variable": "x",
    "derivation": "d/dx",
    "layers": [[["0"]], [["x"]]],
}

NORMALIZE_OBSTRUCTED_DOC = {
    "base": "QQ",
    "variable": "x",
    "derivation": "d/dx",
    "layers": [[["0"]], [["1/x"]]],
}

CONJUGATE_OK_DOC = {
    "field": "QQ",
    "m": 1,
    "sigma": [[[1, 2], [0, 1]], [[1, 0], [3, 1]]],
    "tau": [
        [[[1, 2], [0, 1]], [[0, 4], [0, 0]]],
        [[[1, 0], [3, 1]], [[0, 0], [-6, 0]]],
    ],
}

CONJUGATE_FAIL_DOC = {
    "field": "QQ",
    "m": 1,
    "sigma": [[[1, 0], [0, 1]]],
    "tau": [[[[1, 0], [0, 1]], [[0, 1], [0, 0]]]],
}


def test_scan_report(tmp_path, capsys):
    spec = write_spec(tmp_path, "scan.json", SCAN_DOC)
    code, report = run(capsys, pcurv_main, ["scan", spec, "--primes", "2..13"])
    assert code == 0
    assert report["schema_version"] == 1
    assert report["tool"] == "pcurvkit"
    assert report["command"][:2] == ["pcurv", "scan"]
    rows = report["results"]["primes"]
    assert [r["prime"] for r in rows] == [2, 3, 5, 7, 11, 13]
    assert all(r["good"] and r["vanishes"] for r in rows)
    assert report["results"]["summary"] == {
        "vanishing": 6, "nonvanishing": 0, "bad": 0}


def test_scan_reports_bad_primes(tmp_path, capsys):
    doc = dict(SCAN_DOC, matrix=[["1/2"]], derivation="d/dx")
    spec = write_spec(tmp_path, "scan2.json", doc)
    code, report = run(capsys, pcurv_main, ["scan", spec, "--primes", "2..3"])
    assert code == 0
    rows = {r["prime"]: r for r in report["results"]["primes"]}
    assert not rows[2]["good"]
    assert rows[3]["good"]


def test_scan_jobs_agree(tmp_path, capsys):
    spec = write_spec(tmp_path, "scan.json", SCAN_DOC)
    _, seq = run(capsys, pcurv_main, ["scan", spec, "--primes", "2..11"])
    _, par = run(capsys, pcurv_main,
                 ["scan", spec, "--primes", "2..11", "--jobs", "2"])
    assert seq["results"]["primes"] == par["results"]["primes"]


def test_analyze_report(tmp_path, capsys):
    spec = write_spec(tmp_path, "analyze.json", ANALYZE_DOC)
    code, report = run(capsys, pcurv_main, ["analyze", spec])
    assert code == 0
    res = report["results"]
    assert res["prime"] == 5
    assert res["valuations"] == ["-1/1", "inf"]
    assert res["polygon"]["vertices"] == [[0, "-1/1"], [2, "0/1"]]
    assert res["polygon"]["min_slope"] == "-1/2"
    assert res["prediction"]["predicted"] is True
    assert res["verification"]["psi_nonzero"] is True
    assert res["verification"]["confirms_prediction"] is True


def test_analyze_rejects_small_prime(tmp_path, capsys):
    doc = dict(ANALYZE_DOC, p=2)
    spec = write_spec(tmp_path, "analyze2.json", doc)
    code = pcurv_main(["analyze", spec])
    err = capsys.readouterr().err
    assert code == 65
    assert "p > rank" in err


def test_analyze_checks_the_prediction_once(tmp_path, capsys, monkeypatch):
    """One obstacle check, and so one Frobenius twist over GF(p)(q)(x), per
    analyze run; an obstacle still exits 65 with its own message."""
    from pcurvkit import valuation

    calls = []
    real = valuation.prediction_obstacle
    monkeypatch.setattr(valuation, "prediction_obstacle",
                        lambda c, p: calls.append(p) or real(c, p))
    spec = write_spec(tmp_path, "analyze.json", ANALYZE_DOC)
    code, report = run(capsys, pcurv_main, ["analyze", spec])
    assert code == 0 and report["results"]["verification"]["psi_nonzero"] is True
    assert calls == [5]
    calls.clear()
    spec = write_spec(tmp_path, "analyze2.json", dict(ANALYZE_DOC, p=2))
    assert pcurv_main(["analyze", spec]) == 65
    assert calls == [2]
    assert "prediction requires p > rank" in capsys.readouterr().err


@pytest.mark.parametrize("main, argv, doc, message", [
    (pcurv_main, ["analyze"], dict(ANALYZE_DOC, p=2),
     "prediction requires p > rank, got p=2, rank=2"),
    (pcurv_main, ["analyze"], dict(ANALYZE_DOC, derivation={"multiplier": "x/q"}),
     "derivation is not nu-integral: its multiplier has a q-pole"),
    (pcurv_main, ["analyze"], dict(ANALYZE_DOC, derivation={"multiplier": "q*x"}),
     "derivation does not satisfy D^p = D over the prime field"),
    (pcurv_main, ["scan", "--primes", "2..7"], dict(SCAN_DOC, base={"p": 5}),
     "the base has characteristic 5, so --primes may hold no other prime, got 2"),
    (pcurv_main, ["scan", "--primes", "5..11"], dict(SCAN_DOC, base={"p": 5}),
     "the base has characteristic 5, so --primes may hold no other prime, got 7"),
    (deform_main, ["conjugate"],
     dict(CONJUGATE_OK_DOC, sigma=[[[1, 2], [0, 1]], [[1]]],
          tau=[CONJUGATE_OK_DOC["tau"][0], [[[1]], [[0]]]]),
     "sigma matrices have unequal sizes"),
    (deform_main, ["conjugate"], dict(CONJUGATE_FAIL_DOC, m=2),
     "tau needs exactly 3 layers (q^0..q^2)"),
    (deform_main, ["conjugate"],
     dict(CONJUGATE_FAIL_DOC, tau=[[[[1, 1], [0, 1]], [[0, 1], [0, 0]]]]),
     "tau does not agree with sigma mod q^m"),
    (deform_main, ["conjugate"],
     dict(CONJUGATE_FAIL_DOC, m=2, tau=[[[[1, 0], [0, 1]], [[0, 1], [0, 0]],
                                         [[0, 1], [0, 0]]]]),
     "tau does not agree with sigma mod q^m"),
    (pcurv_main, ["scan", "--primes", "2..7"], dict(SCAN_DOC, matrix=[["2²"]]),
     "bad expression '2²': unexpected character '²' (line 1, column 2)"),
    (pcurv_main, ["scan", "--primes", "2..7"], dict(SCAN_DOC, matrix=[["1/(x-x)"]]),
     "bad expression '1/(x-x)': division by zero (line 1, column 2)"),
    (pcurv_main, ["scan", "--primes", "2..7"],
     dict(SCAN_DOC, matrix=[["(" * 200 + "x" + ")" * 200]]),
     f"bad expression '…{'(' * 40}…': "
     "nesting deeper than 100 levels (line 1, column 101)"),
    (pcurv_main, ["scan", "--primes", "2..7"], dict(SCAN_DOC, matrix=[["-" * 1000 + "x"]]),
     f"bad expression '…{'-' * 40}…': "
     "nesting deeper than 100 levels (line 1, column 101)"),
    (pcurv_main, ["scan", "--primes", "2..7"], dict(SCAN_DOC, matrix=[["x^999999999"]]),
     "bad expression 'x^999999999': exponent 999999999 exceeds 1000 (line 1, column 3)"),
])
def test_precondition_specs_exit_65(tmp_path, capsys, main, argv, doc, message):
    spec = write_spec(tmp_path, "spec.json", doc)
    assert main(argv[:1] + [spec] + argv[1:]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_scan_at_the_base_characteristic(tmp_path, capsys):
    spec = write_spec(tmp_path, "scan5.json", dict(SCAN_DOC, base={"p": 5}))
    code, report = run(capsys, pcurv_main, ["scan", spec, "--primes", "4..6"])
    assert code == 0
    assert [row["prime"] for row in report["results"]["primes"]] == [5]


@pytest.mark.parametrize("main, argv, name, doc", [
    (pcurv_main, ["scan", "--primes", "2..5"], "scan_primes", SCAN_DOC),
    (deform_main, ["conjugate"], "step_conjugate", CONJUGATE_OK_DOC),
])
def test_internal_value_error_is_not_a_spec_error(tmp_path, capsys, monkeypatch,
                                                  main, argv, name, doc):
    """A ValueError from inside the computation is a bug, not a bad spec: it
    propagates instead of exiting 65."""
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(f"pcurvkit.cli.{name}", broken)
    spec = write_spec(tmp_path, "spec.json", doc)
    with pytest.raises(ValueError, match="internal failure"):
        main(argv[:1] + [spec] + argv[1:])


def test_certify_finite(tmp_path, capsys):
    spec = write_spec(tmp_path, "rep.json", QUATERNION_DOC)
    code, report = run(capsys, rep_main, ["certify", spec])
    assert code == 0
    res = report["results"]
    assert res["verdict"] == {"kind": "finite", "order": 8}
    assert res["element_count"] == 8
    assert res["evidence"]["nonarch_passed"] is True
    assert res["evidence"]["arch_passed"] is True


def test_certify_projective_flag(tmp_path, capsys):
    spec = write_spec(tmp_path, "rep.json", QUATERNION_DOC)
    code, report = run(capsys, rep_main, ["certify", spec, "--projective"])
    assert code == 0
    assert report["results"]["verdict"] == {"kind": "finite", "order": 4}
    assert report["results"]["projective"] is True


def levelt_doc(min_poly, s, minus_p):
    """Levelt's generators of a Gauss monodromy over Q(zeta_N) in GL2: c1 is
    [[0, -p], [1, s]], the companion of X^2 - sX + p, and c2 that of X^2 - 1."""
    return {
        "field": {"min_poly": min_poly, "name": "z"},
        "surface": {"genus": 0, "punctures": 3},
        "target": "GL2",
        "generators": {"c1": [["0", minus_p], ["1", s]],
                       "c2": [["0", "1"], ["1", "0"]]},
    }


# (a, b, c) = (1/4, -1/12, 1/2) over Q(zeta_12): X^2 - zX + z^2
LEVELT_TETRAHEDRAL = levelt_doc(["1", "0", "-1", "0", "1"], ["0", "1", "0", "0"],
                                ["0", "0", "-1", "0"])
# (5/24, -1/24, 1/2) over Q(zeta_24): s = e(5/24) + e(-1/24) = z^3 + z^5 - z^7
# and p = e(1/6) = z^4
LEVELT_OCTAHEDRAL = levelt_doc(["1", "0", "0", "0", "-1", "0", "0", "0", "1"],
                               ["0", "0", "0", "1", "0", "1", "0", "-1"],
                               ["0", "0", "0", "0", "-1", "0", "0", "0"])


@pytest.mark.parametrize("doc, order", [(LEVELT_TETRAHEDRAL, 12), (LEVELT_OCTAHEDRAL, 24)],
                         ids=["tetrahedral", "octahedral"])
def test_certify_projective_gl2_levelt_images(tmp_path, capsys, doc, order):
    """The tetrahedral and octahedral Gauss monodromies close to A4 and S4 in
    PGL2, every scalar over the field identified."""
    spec = write_spec(tmp_path, "rep.json", doc)
    code, report = run(capsys, rep_main, ["certify", spec, "--projective"])
    assert code == 0
    assert report["results"]["verdict"] == {"kind": "finite", "order": order}
    assert report["results"]["target"] == "GL2"


@pytest.mark.parametrize("doc, order", [(LEVELT_TETRAHEDRAL, 48), (LEVELT_OCTAHEDRAL, 144)],
                         ids=["tetrahedral", "octahedral"])
def test_certify_gl2_levelt_images(tmp_path, capsys, doc, order):
    """Without --projective the same monodromies close in GL2 itself."""
    spec = write_spec(tmp_path, "rep.json", doc)
    code, report = run(capsys, rep_main, ["certify", spec])
    assert code == 0
    assert report["results"]["verdict"] == {"kind": "finite", "order": order}
    assert report["results"]["element_count"] == order
    assert report["results"]["target"] == "GL2"


def test_certify_gl2_levelt_obstructed_exit_2(tmp_path, capsys):
    """(a, b, c) = (1/5, 2/5, 1/2) over Q(zeta_10), where z^5 = -1: s = z^2 + z^4
    = z^3 + z - 1 and p = z^6 = -z.  The monodromy is infinite, and c1^2 c2
    has an eigenvalue that is no root of unity."""
    doc = levelt_doc(["1", "-1", "1", "-1", "1"], ["-1", "1", "0", "1"], ["0", "1", "0", "0"])
    spec = write_spec(tmp_path, "rep.json", doc)
    code, report = run(capsys, rep_main, ["certify", spec])
    assert code == 2
    verdict = report["results"]["verdict"]
    assert verdict["kind"] == "obstructed"
    assert verdict["reason"] == "eigenvalue not a root of unity"
    assert verdict["witness"] == "c1*c1*c2"


def test_certify_obstructed_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "rep.json", PARABOLIC_DOC)
    code, report = run(capsys, rep_main, ["certify", spec])
    assert code == 2
    verdict = report["results"]["verdict"]
    assert verdict["kind"] == "obstructed"
    assert verdict["reason"] == "parabolic noncentral"
    assert verdict["witness"] == "a1"


def test_certify_caps_exit_3(tmp_path, capsys):
    spec = write_spec(tmp_path, "rep.json", QUATERNION_DOC)
    code, report = run(capsys, rep_main,
                       ["certify", spec, "--max-elements", "3"])
    assert code == 3
    assert report["results"]["verdict"]["kind"] == "inconclusive"
    assert report["results"]["caps"]["max_elements"] == 3


def test_normalize_ok(tmp_path, capsys):
    spec = write_spec(tmp_path, "fam.json", NORMALIZE_OK_DOC)
    code, report = run(capsys, deform_main, ["normalize", spec])
    assert code == 0
    res = report["results"]
    assert res["normalized"] is True
    assert res["ansatz_degree"] == 8  # built-in default
    assert len(res["gauges"]) == 1
    assert res["gauges"][0]["layer"] == 1


def test_normalize_obstructed_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "fam.json", NORMALIZE_OBSTRUCTED_DOC)
    code, report = run(capsys, deform_main,
                       ["normalize", spec, "--ansatz-degree", "5"])
    assert code == 2
    res = report["results"]
    assert res["normalized"] is False
    assert res["obstructed_at"] == 1
    assert res["obstruction"] == [["(1)/(x)"]]
    assert res["ansatz_degree"] == 5


def test_conjugate_ok(tmp_path, capsys):
    spec = write_spec(tmp_path, "conj.json", CONJUGATE_OK_DOC)
    code, report = run(capsys, deform_main, ["conjugate", spec])
    assert code == 0
    res = report["results"]
    assert res["conjugate"] is True
    assert res["m"] == 1 and res["generators"] == 2
    assert res["M"] is not None


def test_conjugate_fail_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "conj.json", CONJUGATE_FAIL_DOC)
    code, report = run(capsys, deform_main, ["conjugate", spec])
    assert code == 2
    assert report["results"]["conjugate"] is False
    assert report["results"]["M"] is None


def test_usage_errors_exit_64(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        pcurv_main([])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        pcurv_main(["scan", "x.json", "--primes", "oops"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        rep_main(["certify"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        deform_main(["frobnicate", "x.json"])
    assert exc.value.code == 64


@pytest.mark.parametrize("main, command, flag, doc", [
    (pcurv_main, "analyze", ["--precision-cap", "24"], ANALYZE_DOC),
    (rep_main, "certify", ["--jobs", "1"], QUATERNION_DOC),
    (rep_main, "certify", ["--precision-cap", "30"], QUATERNION_DOC),
])
def test_removed_flags_exit_64(tmp_path, capsys, main, command, flag, doc):
    """analyze --precision-cap and certify --jobs were accepted and ignored;
    certify --precision-cap only set the tolerance of interval enclosures no
    report carried.  They are gone, so passing them is a usage error."""
    spec = write_spec(tmp_path, "spec.json", doc)
    with pytest.raises(SystemExit) as exc:
        main([command, spec] + flag)
    assert exc.value.code == 64
    assert "unrecognized arguments" in capsys.readouterr().err


def test_certify_precision_exceeded_propagates(tmp_path, capsys, monkeypatch):
    """certify decides exactly, so a PrecisionExceeded from inside it is a
    bug: it propagates instead of becoming an inconclusive verdict."""
    from pcurvkit.intervals import PrecisionExceeded

    def exhausted(*args, **kwargs):
        raise PrecisionExceeded("refinement exhausted")

    monkeypatch.setattr("pcurvkit.cli.certify_finiteness", exhausted)
    spec = write_spec(tmp_path, "rep.json", QUATERNION_DOC)
    with pytest.raises(PrecisionExceeded, match="refinement exhausted"):
        rep_main(["certify", spec])
    assert capsys.readouterr().out == ""


def test_spec_errors_exit_65(tmp_path, capsys):
    assert pcurv_main(["scan", str(tmp_path / "missing.json")]) == 65
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert rep_main(["certify", str(bad)]) == 65
    wrong = write_spec(tmp_path, "wrong.json", {"base": "QQ"})
    assert pcurv_main(["scan", wrong]) == 65
    capsys.readouterr()  # drain stderr


def test_reports_deterministic_modulo_timing(tmp_path, capsys):
    spec = write_spec(tmp_path, "rep.json", QUATERNION_DOC)
    _, first = run(capsys, rep_main, ["certify", spec, "--seed", "7"])
    _, second = run(capsys, rep_main, ["certify", spec, "--seed", "7"])
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_report_is_valid_sorted_json(tmp_path, capsys):
    spec = write_spec(tmp_path, "scan.json", SCAN_DOC)
    pcurv_main(["scan", spec, "--primes", "2..5"])
    text = capsys.readouterr().out
    orders = []
    json.loads(text, object_pairs_hook=lambda pairs: orders.append(
        [k for k, _ in pairs]) or dict(pairs))
    for keys in orders:
        assert keys == sorted(keys)


DECLARED_SCRIPTS = {
    "pcurv": "pcurvkit.cli:pcurv_main",
    "rep": "pcurvkit.cli:rep_main",
    "deform": "pcurvkit.cli:deform_main",
}

# One documented invocation per script that exits 0: (subcommand, spec, flags).
SCRIPT_RUNS = {
    "pcurv": ("scan", SCAN_DOC, ["--primes", "2..5"]),
    "rep": ("certify", QUATERNION_DOC, []),
    "deform": ("normalize", NORMALIZE_OK_DOC, []),
}


def run_entry_point(target, args):
    """Run ``module:function`` the way an installed console-script launcher
    does: a fresh interpreter calling ``sys.exit(main())``, with the
    arguments taken from its command line."""
    module, _, func = target.partition(":")
    launcher = (f"import sys; from {module} import {func}; "
                f"sys.exit({func}())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", launcher, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_console_scripts_installed(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == DECLARED_SCRIPTS
    for name, target in scripts.items():
        bare = run_entry_point(target, [])
        assert bare.returncode == 64, (name, bare.stderr)
        assert bare.stdout == ""

        command, doc, flags = SCRIPT_RUNS[name]
        spec = write_spec(tmp_path, f"{name}.json", doc)
        proc = run_entry_point(target, [command, spec, *flags])
        assert proc.returncode == 0, (name, proc.stderr)
        report = json.loads(proc.stdout)
        assert report["tool"] == "pcurvkit"
        assert report["command"][:2] == [name, command]


STARTUP_PROBE = """
import json, sys
import pcurvkit.cli
loaded = sorted(m for m in json.loads(sys.argv[2]) if m in sys.modules)
before = set(sys.modules)
code = pcurvkit.cli.pcurv_main(["scan", sys.argv[1], "--primes", "2..7"])
print(json.dumps([loaded, code, sorted(set(sys.modules) - before)]))
"""


def test_start_up_loads_no_pool_and_a_scan_imports_nothing(tmp_path):
    """Importing the CLI leaves out the process pool and dataclasses, and a
    default scan then imports no module: what every command needs loads at
    start-up, and what only --jobs N needs loads with the parallel scan."""
    spec = write_spec(tmp_path, "scan.json", SCAN_DOC)
    absent = ["concurrent.futures", "multiprocessing", "dataclasses", "inspect"]
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, spec, json.dumps(absent)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, code, imported = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == []
    assert code == 0
    assert imported == []


def installed_distribution():
    try:
        return importlib.metadata.distribution("pcurvkit")
    except importlib.metadata.PackageNotFoundError:
        return None


@pytest.mark.skipif(installed_distribution() is None,
                    reason="the pcurvkit distribution is not installed "
                           "(importlib.metadata.PackageNotFoundError)")
def test_console_scripts_on_path():
    entry_points = {ep.name: ep.value
                    for ep in installed_distribution().entry_points
                    if ep.group == "console_scripts"}
    assert entry_points == DECLARED_SCRIPTS
    for name in DECLARED_SCRIPTS:
        assert shutil.which(name), f"{name} not on PATH"


@pytest.mark.parametrize("main, command, flag, doc", [
    (rep_main, "certify", ["--max-elements", "0"], QUATERNION_DOC),
    (rep_main, "certify", ["--max-order", "0"], QUATERNION_DOC),
    (deform_main, "normalize", ["--ansatz-degree", "-1"], NORMALIZE_OK_DOC),
    (pcurv_main, "scan", ["--jobs", "0"], SCAN_DOC),
])
def test_out_of_range_flags_exit_64(tmp_path, capsys, main, command, flag, doc):
    """An integer flag below its bound is a usage error, caught before the
    spec is read, and the message names the flag."""
    spec = write_spec(tmp_path, "spec.json", doc)
    with pytest.raises(SystemExit) as exc:
        main([command, spec] + flag)
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag[0]}: must be at least" in captured.err


@pytest.mark.parametrize("main, command, doc", [
    (pcurv_main, "scan", SCAN_DOC),
    (pcurv_main, "analyze", ANALYZE_DOC),
    (rep_main, "certify", QUATERNION_DOC),
    (deform_main, "normalize", NORMALIZE_OK_DOC),
    (deform_main, "conjugate", CONJUGATE_OK_DOC),
])
def test_report_kind_and_seed(tmp_path, capsys, main, command, doc):
    spec = write_spec(tmp_path, "spec.json", doc)
    _, report = run(capsys, main, [command, spec, "--seed", "11"])
    assert report["results"]["kind"] == command
    assert report["results"]["seed"] == 11


def test_boolean_ansatz_degree_exits_65(tmp_path, capsys):
    """"ansatz_degree": true is no degree; read as 1 it would make this
    normalizable family look obstructed."""
    spec = write_spec(tmp_path, "fam.json",
                      dict(NORMALIZE_OK_DOC, ansatz_degree=True))
    assert deform_main(["normalize", spec]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ansatz_degree must be a nonnegative integer\n"
