"""Command line interface.

    tornheim eval  --a A --b B --k K1 K2 K3 [--basis ...] [--format ...]
    tornheim g2    --k K1 K2 K3 K4 K5 K6 [--show-reduction]
    tornheim table --weight W --pairs A,B [A,B ...] [--format text|json]

Exit codes: 0 verified/ok, 1 internal error or closed stdout, 2 usage
error, 3 verification failure.  TORNHEIM_PREC sets the default digits.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__, pfd
from .constants import to_dirichlet_basis, to_json_dict, to_latex, to_text
from .g2 import G2Request, VerificationError, evaluate_g2
from .numeric import DEFAULT_PRECISION, Precision, verify
from .parity import EvalRequest, closed_form


# sha256(RULES_DOC + "\n" + RELATIONS_DOC)[:16], recomputed by a test.
RULESET_HASH = "0e0e00c3aa654294"


def _add_numeric_flags(p: argparse.ArgumentParser,
                       formats=("text", "json", "latex")):
    p.add_argument("--prec", type=int, help="working decimal digits (default "
                   f"{DEFAULT_PRECISION.digits} or $TORNHEIM_PREC)")
    p.add_argument("--tol", type=float, default=DEFAULT_PRECISION.tolerance,
                   help="relative verification tolerance (default %(default)s)")
    p.add_argument("--format", choices=formats, default="text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tornheim",
        description="Exact closed forms for Tornheim-type double series and "
                    "G2 lattice zeta values at odd weight, with numeric "
                    "verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="closed form of zeta_{a,b}(k1,k2,k3)")
    p_eval.add_argument("--a", type=int, required=True)
    p_eval.add_argument("--b", type=int, required=True)
    p_eval.add_argument("--k", type=int, nargs=3, required=True,
                        metavar=("K1", "K2", "K3"))
    p_eval.add_argument("--basis", choices=("clausen", "dirichlet"),
                        default="clausen")
    p_eval.add_argument("--verify", action="store_true",
                        help="check the result against the numeric series")
    _add_numeric_flags(p_eval)
    p_eval.set_defaults(run=cmd_eval)

    p_g2 = sub.add_parser("g2", help="closed form of zeta(k1..k6; G2)")
    p_g2.add_argument("--k", type=int, nargs=6, required=True,
                      metavar=("K1", "K2", "K3", "K4", "K5", "K6"))
    p_g2.add_argument("--show-reduction", action="store_true",
                      help="include the double-series reduction")
    _add_numeric_flags(p_g2)
    p_g2.set_defaults(run=cmd_g2)

    def pair(spec: str) -> tuple[int, int]:  # "A,B"; ValueError: usage error
        a, b = map(int, spec.split(","))
        return a, b
    p_tab = sub.add_parser(
        "table", help="all compositions of a weight, verified, one per line")
    p_tab.add_argument("--weight", type=int, required=True)
    p_tab.add_argument("--pairs", type=pair, nargs="+", required=True,
                       metavar="A,B",
                       help="series parameters, e.g. --pairs 1,1 1,3 2,5")
    _add_numeric_flags(p_tab, formats=("text", "json"))
    p_tab.set_defaults(run=cmd_table)
    return parser


def _precision(parser, args) -> Precision:
    digits = args.prec
    if digits is None:
        env = os.environ.get("TORNHEIM_PREC", str(DEFAULT_PRECISION.digits))
        try:
            digits = int(env)
        except ValueError:
            parser.error(f"TORNHEIM_PREC must be an integer, got {env!r}")
    return _usage_checked(parser, Precision, digits, args.tol)


def _usage_checked(parser, make, *params):
    """make(*params), its ValueError reported as a usage error."""
    try:
        return make(*params)
    except ValueError as exc:
        parser.error(str(exc))


def _emit(command: str, fields: dict):
    print(json.dumps({"command": command, "version": __version__,
                      "ruleset_hash": RULESET_HASH, **fields}, sort_keys=True))


def _evaluate(parser, req, prec: Precision, check=True, basis="clausen",
              trace=False):
    """(result, check records by name) of one request: a G2Request's
    G2ClosedForm, always checked, or an EvalRequest's closed form in
    `basis`, checked if `check`."""
    if isinstance(req, G2Request):
        try:
            result = evaluate_g2(req, prec, collect_trace=trace)
        except VerificationError as exc:  # still emit the failed record
            print(f"verification failed: {exc}", file=sys.stderr)
            result = exc.result
        return result, result.checks
    value = closed_form(req)
    if basis == "dirichlet":
        value = _usage_checked(parser, to_dirichlet_basis, value, req.weight)
    checks = verify({"closed form": value}, req.factors, prec) if check else {}
    return value, checks


def _fields(req: EvalRequest, value=None, checks=None) -> dict:
    """An eval record's request, result, text and check, which each table
    row shares; the request alone without a `value` (a row that errored)."""
    request = {"request": {"a": req.a, "b": req.b, "k": list(req[2:])}}
    return request if value is None else {
        **request, "result": to_json_dict(value), "text": to_text(value),
        "check": checks["closed form"].as_json_dict() if checks else None}


def _verdict(checks: dict, show: bool) -> int:
    """Exit code of a request's checks, 3 if one failed; if `show`, prints
    the verdict of all and the residual of the last (the basis shown last)."""
    code = 0 if all(c.passed for c in checks.values()) else 3
    if show and checks:
        *_, last = checks.values()
        print(f"# {'FAILED' if code else 'verified'}: relative residual "
              f"{last.rel_residual} at {last.digits} digits")
    return code


def cmd_eval(parser, args) -> int:
    req = _usage_checked(parser, EvalRequest, args.a, args.b, *args.k)
    prec = _precision(parser, args)
    value, checks = _evaluate(parser, req, prec, args.verify, args.basis)
    if args.format == "latex":
        print(to_latex(value))
    elif args.format == "text":
        print(to_text(value))
    else:
        _emit("eval", {**_fields(req, value, checks), "basis": args.basis,
                       "latex": to_latex(value)})
    return _verdict(checks, show=args.format == "text")


def cmd_g2(parser, args) -> int:
    if args.show_reduction and args.format == "latex":
        parser.error("--show-reduction has no LaTeX output; use text or json")
    req = _usage_checked(parser, G2Request, tuple(args.k))
    prec = _precision(parser, args)
    result, checks = _evaluate(parser, req, prec, trace=args.show_reduction)
    if args.format == "latex":
        print(to_latex(result.clausen))
        print(to_latex(result.dirichlet))
    elif args.format == "text":
        print("clausen  :", to_text(result.clausen))
        print("dirichlet:", to_text(result.dirichlet))
        if args.show_reduction:
            print("reduction:")
            for c, a, b, e1, e2, e3 in result.reduction_list():
                print(f"  {c} zeta_{{{a},{b}}}({e1},{e2},{e3})")
    else:
        record = result.to_json_dict()
        if args.show_reduction:
            record["trace"] = pfd.trace_to_json(result.trace)
        _emit("g2", record)
    return _verdict(checks, show=args.format == "text")


def cmd_table(parser, args) -> int:
    w = args.weight
    reqs = [_usage_checked(parser, EvalRequest, a, b, k1, k2, w - k1 - k2)
            for a, b in args.pairs
            for k1 in range(1, w - 1) for k2 in range(1, w - k1)]
    if not reqs:
        parser.error("weight must be >= 3")
    prec = _precision(parser, args)
    worst = errors = 0
    for req in reqs:
        try:
            value, checks = _evaluate(parser, req, prec)
            code = _verdict(checks, show=False)
            record = {**_fields(req, value, checks), "passed": code == 0}
            worst = max(worst, code)
        except Exception as exc:  # keep streaming; report per record
            record = {**_fields(req), "error": str(exc), "passed": False}
            errors += 1
        if args.format == "text":
            print("ok " if record["passed"] else "FAIL", f"a={req.a} b={req.b}"
                  f" k={req[2:]}:", record.get("text", record.get("error")))
        else:
            _emit("table", record)
    return 1 if errors else worst


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(parser, args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except (ValueError, RuntimeError) as exc:  # incl. PrecisionError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout, as `| head -1` does
        if sys.stdout is sys.__stdout__:  # the exit flush goes to /dev/null
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
