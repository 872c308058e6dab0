"""Command line front ends: pcurv, rep, deform.

Each command reads a JSON spec, runs the exact computation, and prints a
JSON report to standard output.  Exit statuses: 0 success (or a Finite
verdict), 2 obstruction found, 3 inconclusive under the configured caps,
64 usage error, 65 unreadable or invalid spec.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import specdoc
from .connection import scan_primes
from .deformation import normalize_family, step_conjugate
from .fields import primes_in
from .surface import Finite, Obstructed, certify_finiteness
from .valuation import newton_polygon, predict_nonvanishing, verify_prediction

EXIT_OK = 0
EXIT_OBSTRUCTED = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_SPEC = 65

DEFAULT_ANSATZ_DEGREE = 8


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the usage exit status pinned to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _primes_range(text: str):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from None
    if a > b:
        raise argparse.ArgumentTypeError(f"empty prime range {text!r}")
    return a, b


def _emit(report: dict):
    print(specdoc.dump_report(report))


def _fail_spec(exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_SPEC


# ---------------------------------------------------------------------------
# pcurv


def pcurv_main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="pcurv",
        description="p-curvature computations for connections on affine curves")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="vanishing table over a prime range")
    scan.add_argument("spec", help="path to a JSON connection spec")
    scan.add_argument("--primes", type=_primes_range, default=(2, 50),
                      metavar="A..B", help="inclusive prime range (default 2..50)")
    scan.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="parallel workers for the per-prime computations")
    scan.add_argument("--seed", type=int, default=0, metavar="S",
                      help="echoed into the report for reproducibility")

    analyze = sub.add_parser(
        "analyze", help="Newton polygon and nonvanishing prediction for a "
                        "companion connection over GF(p)(q)(x)")
    analyze.add_argument("spec", help="path to a JSON companion spec")
    analyze.add_argument("--seed", type=int, default=0, metavar="S")

    args = parser.parse_args(argv)
    started = time.monotonic()
    echo = ["pcurv"] + list(argv if argv is not None else sys.argv[1:])
    try:
        doc = specdoc.load_spec(args.spec)
        if args.command == "scan":
            results = _run_scan(doc, args)
        else:
            results = _run_analyze(doc, args)
    except specdoc.SpecError as exc:
        return _fail_spec(exc)
    _emit(specdoc.make_report(echo, results, started))
    return EXIT_OK


def _run_scan(doc: dict, args) -> dict:
    A = specdoc.connection_from_spec(doc)
    p_min, p_max = args.primes
    char = A.field.characteristic()
    other = [p for p in primes_in(p_min, p_max) if p != char]
    if char and other:
        raise specdoc.SpecError(
            f"the base has characteristic {char}, so --primes may hold no "
            f"other prime, got {other[0]}")
    reports = scan_primes(A, p_min, p_max, jobs=max(1, args.jobs))
    table = []
    vanishing = nonvanishing = bad = 0
    for rep in reports:
        table.append({
            "prime": rep.prime,
            "good": rep.good_prime,
            "vanishes": rep.vanishes,
        })
        if not rep.good_prime:
            bad += 1
        elif rep.vanishes:
            vanishing += 1
        else:
            nonvanishing += 1
    return {
        "kind": "scan",
        "seed": args.seed,
        "rank": A.rank,
        "primes": table,
        "summary": {
            "vanishing": vanishing,
            "nonvanishing": nonvanishing,
            "bad": bad,
        },
    }


def _run_analyze(doc: dict, args) -> dict:
    c, p = specdoc.companion_from_spec(doc)
    polygon = newton_polygon(c)
    prediction = predict_nonvanishing(c, p)
    psi_nonzero = verify_prediction(c, p)
    slope = polygon.min_slope
    return {
        "kind": "analyze",
        "seed": args.seed,
        "prime": p,
        "rank": c.rank,
        "valuations": [specdoc.valuation_str(v)
                       for v in prediction.profile.valuations],
        "polygon": {
            "vertices": [[int(m), specdoc.frac_str(v)]
                         for m, v in polygon.vertices],
            "min_slope": None if slope is None else specdoc.frac_str(slope),
        },
        "prediction": {
            "predicted": prediction.predicted,
            "reason": prediction.reason,
        },
        "verification": {
            "psi_nonzero": psi_nonzero,
            "confirms_prediction": (not prediction.predicted) or psi_nonzero,
        },
    }


# ---------------------------------------------------------------------------
# rep


def rep_main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="rep",
        description="finiteness certification for rank-2 surface-group "
                    "representations")
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="certify or obstruct finiteness")
    certify.add_argument("spec", help="path to a JSON representation spec")
    certify.add_argument("--max-elements", type=int, default=None, metavar="N",
                         help="closure size cap (overrides the spec)")
    certify.add_argument("--max-order", type=int, default=None, metavar="N",
                         help="element order cap (overrides the spec)")
    certify.add_argument("--seed", type=int, default=0, metavar="S")
    certify.add_argument("--projective", action="store_true",
                         help="certify the image in PSL2/PGL2 instead")

    args = parser.parse_args(argv)
    started = time.monotonic()
    echo = ["rep"] + list(argv if argv is not None else sys.argv[1:])
    try:
        doc = specdoc.load_spec(args.spec)
        rho, caps, projective = specdoc.representation_from_spec(doc)
    except specdoc.SpecError as exc:
        return _fail_spec(exc)
    max_elements = args.max_elements if args.max_elements is not None \
        else caps["max_elements"]
    max_order = args.max_order if args.max_order is not None \
        else caps["max_order"]
    if max_elements < 1 or max_order < 1:
        return _fail_spec("caps must be positive")
    projective = projective or args.projective
    cert = certify_finiteness(
        rho, max_elements=max_elements, max_order=max_order,
        projective=projective)

    verdict = cert.verdict
    if isinstance(verdict, Finite):
        verdict_doc = {"kind": "finite", "order": verdict.order}
        status = EXIT_OK
    elif isinstance(verdict, Obstructed):
        verdict_doc = {
            "kind": "obstructed",
            "witness": verdict.witness,
            "reason": verdict.reason,
        }
        status = EXIT_OBSTRUCTED
    else:
        verdict_doc = {"kind": "inconclusive", "reason": verdict.reason}
        status = EXIT_INCONCLUSIVE
    results = {
        "kind": "certify",
        "seed": args.seed,
        "target": rho.target,
        "projective": projective,
        "caps": {"max_elements": max_elements, "max_order": max_order},
        "verdict": verdict_doc,
        "element_count": cert.element_count,
        "max_order_seen": cert.max_order_seen,
        "evidence": {
            "nonarch_passed": cert.nonarch_passed,
            "arch_passed": cert.arch_passed,
            "det_orders": cert.det_orders,
        },
    }
    _emit(specdoc.make_report(echo, results, started))
    return status


# ---------------------------------------------------------------------------
# deform


def deform_main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="deform",
        description="normalize truncated connection families and solve "
                    "step conjugations")
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("normalize",
                          help="gauge away q-layers or report an obstruction")
    norm.add_argument("spec", help="path to a JSON family spec")
    norm.add_argument("--ansatz-degree", type=int, default=None, metavar="D",
                      help="polynomial degree bound for gauge entries "
                           f"(default: spec value or {DEFAULT_ANSATZ_DEGREE})")
    norm.add_argument("--seed", type=int, default=0, metavar="S")

    conj = sub.add_parser("conjugate",
                          help="solve a one-layer conjugation between "
                               "generator tuples")
    conj.add_argument("spec", help="path to a JSON conjugation spec")
    conj.add_argument("--seed", type=int, default=0, metavar="S")

    args = parser.parse_args(argv)
    started = time.monotonic()
    echo = ["deform"] + list(argv if argv is not None else sys.argv[1:])
    try:
        doc = specdoc.load_spec(args.spec)
        if args.command == "normalize":
            results, status = _run_normalize(doc, args)
        else:
            results, status = _run_conjugate(doc, args)
    except specdoc.SpecError as exc:
        return _fail_spec(exc)
    _emit(specdoc.make_report(echo, results, started))
    return status


def _run_normalize(doc: dict, args):
    fam, spec_ansatz = specdoc.family_from_spec(doc)
    if args.ansatz_degree is not None:
        degree = args.ansatz_degree
    elif spec_ansatz is not None:
        degree = spec_ansatz
    else:
        degree = DEFAULT_ANSATZ_DEGREE
    if degree < 0:
        raise specdoc.SpecError("ansatz degree must be nonnegative")
    res = normalize_family(fam, degree)
    results = {
        "kind": "normalize",
        "seed": args.seed,
        "order": fam.order,
        "rank": fam.rank,
        "ansatz_degree": degree,
        "normalized": res.normalized,
        "gauges": [
            {"layer": k, "Y": specdoc.ratfunc_matrix_strs(Y)}
            for k, Y in res.gauges
        ],
        "obstructed_at": res.obstructed_at,
        "obstruction": None if res.obstruction is None
        else specdoc.ratfunc_matrix_strs(res.obstruction),
    }
    return results, EXIT_OK if res.normalized else EXIT_OBSTRUCTED


def _run_conjugate(doc: dict, args):
    sigma, tau, m = specdoc.conjugation_from_spec(doc)
    M = step_conjugate(sigma, tau, m)
    results = {
        "kind": "conjugate",
        "seed": args.seed,
        "m": m,
        "generators": len(sigma),
        "conjugate": M is not None,
        "M": None if M is None else specdoc.nf_matrix_coords(M),
    }
    return results, EXIT_OK if M is not None else EXIT_OBSTRUCTED


if __name__ == "__main__":
    sys.exit(pcurv_main())
