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
from typing import Callable, NamedTuple

from . import specdoc
from .connection import scan_primes
from .deformation import normalize_family, step_conjugate
from .fields import primes_in
from .surface import Finite, Obstructed, certify_finiteness
from .valuation import (
    PredictionNotApplicable,
    newton_polygon,
    predict_nonvanishing,
    verify_prediction,
)

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


def _at_least(lo: int):
    """argparse type: an integer no smaller than lo."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return parse


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


class _Command(NamedTuple):
    """One subcommand: help text, what its spec describes, the function
    mapping (spec document, parsed args) to (results, exit status), and its
    flags beyond spec and --seed as (flag, add_argument keywords) pairs."""
    help: str
    spec: str
    run: Callable
    flags: tuple = ()


def _parser(prog: str, description: str, commands: dict) -> _ArgumentParser:
    """The front end of one tool: a subparser per command, each with its
    spec, its own flags and --seed, and the command's run function as the
    default of ``run``."""
    parser = _ArgumentParser(prog=prog, description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in commands.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("spec", help=f"path to a JSON {command.spec} spec")
        for flag, options in command.flags:
            p.add_argument(flag, **options)
        p.add_argument("--seed", type=_at_least(0), default=0, metavar="S",
                       help="echoed into the report for reproducibility")
        p.set_defaults(run=command.run)
    return parser


def _main(parser: _ArgumentParser, argv) -> int:
    """Parse argv, run the chosen subcommand on its spec, print the report.

    The report's results carry the subcommand name as "kind" and the echoed
    --seed.  A SpecError anywhere in the run is exit 65; everything else a
    run raises propagates.
    """
    args = parser.parse_args(argv)
    started = time.monotonic()
    echo = [parser.prog] + list(argv if argv is not None else sys.argv[1:])
    try:
        results, status = args.run(specdoc.load_spec(args.spec), args)
    except specdoc.SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    results.update(kind=args.command, seed=args.seed)
    print(specdoc.dump_report(specdoc.make_report(echo, results, started)))
    return status


# ---------------------------------------------------------------------------
# pcurv


def pcurv_main(argv=None) -> int:
    return _main(_PCURV, argv)


def _run_scan(doc: dict, args):
    A = specdoc.connection_from_spec(doc)
    p_min, p_max = args.primes
    char = A.field.characteristic()
    other = [p for p in primes_in(p_min, p_max) if p != char]
    if char and other:
        raise specdoc.SpecError(
            f"the base has characteristic {char}, so --primes may hold no "
            f"other prime, got {other[0]}")
    reports = scan_primes(A, p_min, p_max, jobs=args.jobs)
    bad = sum(not rep.good_prime for rep in reports)
    vanishing = sum(rep.good_prime and rep.vanishes for rep in reports)
    return {
        "rank": A.rank,
        "primes": [{"prime": rep.prime, "good": rep.good_prime,
                    "vanishes": rep.vanishes} for rep in reports],
        "summary": {
            "vanishing": vanishing,
            "nonvanishing": len(reports) - vanishing - bad,
            "bad": bad,
        },
    }, EXIT_OK


def _run_analyze(doc: dict, args):
    c, p = specdoc.companion_from_spec(doc)
    try:
        prediction = predict_nonvanishing(c, p)
    except PredictionNotApplicable as exc:
        raise specdoc.SpecError(str(exc)) from exc
    polygon = newton_polygon(c)
    psi_nonzero = verify_prediction(c, p)
    slope = polygon.min_slope
    return {
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
    }, EXIT_OK


# ---------------------------------------------------------------------------
# rep


def rep_main(argv=None) -> int:
    return _main(_REP, argv)


def _run_certify(doc: dict, args):
    rho, caps, projective = specdoc.representation_from_spec(doc)
    max_elements = args.max_elements or caps["max_elements"]
    max_order = args.max_order or caps["max_order"]
    projective = projective or args.projective
    cert = certify_finiteness(
        rho, max_elements=max_elements, max_order=max_order,
        projective=projective)

    verdict = cert.verdict
    if isinstance(verdict, Finite):
        verdict_doc, status = {"kind": "finite", "order": verdict.order}, EXIT_OK
    elif isinstance(verdict, Obstructed):
        verdict_doc, status = {"kind": "obstructed", "witness": verdict.witness,
                               "reason": verdict.reason}, EXIT_OBSTRUCTED
    else:
        verdict_doc, status = {"kind": "inconclusive",
                               "reason": verdict.reason}, EXIT_INCONCLUSIVE
    return {
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
    }, status


# ---------------------------------------------------------------------------
# deform


def deform_main(argv=None) -> int:
    return _main(_DEFORM, argv)


def _run_normalize(doc: dict, args):
    fam, spec_ansatz = specdoc.family_from_spec(doc)
    if args.ansatz_degree is not None:
        degree = args.ansatz_degree
    elif spec_ansatz is not None:
        degree = spec_ansatz
    else:
        degree = DEFAULT_ANSATZ_DEGREE
    res = normalize_family(fam, degree)
    return {
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
    }, EXIT_OK if res.normalized else EXIT_OBSTRUCTED


def _run_conjugate(doc: dict, args):
    sigma, tau, m = specdoc.conjugation_from_spec(doc)
    M = step_conjugate(sigma, tau, m)
    return {
        "m": m,
        "generators": len(sigma),
        "conjugate": M is not None,
        "M": None if M is None else specdoc.nf_matrix_coords(M),
    }, EXIT_OK if M is not None else EXIT_OBSTRUCTED


# ---------------------------------------------------------------------------
# The three front ends, built once at import.  Building a parser is the
# first use of argparse's gettext, which imports locale; doing it here keeps
# that cost out of every command.

_PCURV = _parser("pcurv", "p-curvature computations for connections on affine "
                          "curves", {
    "scan": _Command("vanishing table over a prime range", "connection", _run_scan, (
        ("--primes", dict(type=_primes_range, default=(2, 50), metavar="A..B",
                          help="inclusive prime range (default 2..50)")),
        ("--jobs", dict(type=_at_least(1), default=1, metavar="N",
                        help="parallel workers for the per-prime computations, at "
                             "most one per prime and per CPU")),
    )),
    "analyze": _Command("Newton polygon and nonvanishing prediction for a "
                        "companion connection over GF(p)(q)(x)", "companion",
                        _run_analyze),
})

_REP = _parser("rep", "finiteness certification for rank-2 surface-group "
                      "representations", {
    "certify": _Command("certify or obstruct finiteness", "representation",
                        _run_certify, (
        ("--max-elements", dict(type=_at_least(1), metavar="N",
                                help="closure size cap (overrides the spec)")),
        ("--max-order", dict(type=_at_least(1), metavar="N",
                             help="element order cap (overrides the spec)")),
        ("--projective", dict(action="store_true",
                              help="certify the image in PSL2/PGL2 instead")),
    )),
})

_DEFORM = _parser("deform", "normalize truncated connection families and solve "
                            "step conjugations", {
    "normalize": _Command("gauge away q-layers or report an obstruction", "family",
                          _run_normalize, (
        ("--ansatz-degree", dict(
            type=_at_least(0), metavar="D",
            help="polynomial degree bound for gauge entries "
                 f"(default: spec value or {DEFAULT_ANSATZ_DEGREE})")),
    )),
    "conjugate": _Command("solve a one-layer conjugation between generator tuples",
                          "conjugation", _run_conjugate),
})


if __name__ == "__main__":
    sys.exit(pcurv_main())
