"""Command-line front end.

Subcommands:
    scc        build a standard cycle structure and optionally emit it as JSON
    verify     run braid / morphism checks on a tensor file
    ops-check  run the operator identity suite for given parameters
    classify   report the classification row of a tensor file
    family     build classified families (currently: nonroot)
    fixtures   emit the built-in n = 3 fixtures

Exit codes: 0 all requested checks pass, 1 a check failed, 2 usage or parse
errors.  Rationals are written "a/b" (or "a"); JSON documents carry
"schema": 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from .errors import QcycleError, ParseError, RootOfUnityLambda, ValidationError
from .series import parse_rational
from .standard import StandardCycleParams, build_standard_cycle
from .tensor import QCycleStructure, is_coalgebra_morphism
from .solution import (
    build_solution,
    check_braid_full,
    check_braid_on_map,
    check_braid_reduced,
    is_bijective,
    is_coalgebra_endomorphism,
    is_involution,
)
from .operators import build_context, identity_suite
from .families import NonRootFamilyInput, build_nonroot_family, classify, fixtures_n3

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# Options whose value may be a negative rational such as -1/2, which argparse
# would otherwise read as an unknown option.
RATIONAL_OPTIONS = ("--params", "--lambdas", "--mu")

# Largest truncation order n + pad that `ops-check` accepts.  The suite's cost
# grows about as the fourth power of the order, and nothing bounds --pad.  At
# the cap, `--n 12 --v0 1 --pad 12` (ten one-digit parameters) took 2.0 s of
# CPU and 27 MB peak, `--n 24 --v0 23 --pad 0` 0.11 s (2-core Xeon, CPython 3.11).
MAX_OPS_ORDER = 24

# Largest n that the subcommands running a braid scan accept: `scc`,
# `family`, `classify` and `verify` (a declared "n" for the last two).  The
# bound is one, so every structure `scc` or `family` emits can be verified
# with --full --solution, whose cost grows about as n^6 and with the size of
# the coefficients: on a v0 = 1 standard cycle at n = 24 it took 9.0 s of CPU
# with parameters of at most one digit, and 602 s (167 MB peak) with
# parameters of six-digit numerator and denominator (2-core Xeon, CPython 3.11).
MAX_VERIFY_N = 24

SOLUTION_CHECKS = ("solution_braid", "solution_coalgebra_endo", "solution_bijective",
                   "solution_involutive")


def _parse_rational_list(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    return [parse_rational(part.strip()) for part in text.split(",")]


def _attach_negative_values(argv: list) -> list:
    """Rewrite `--mu -1/2` as `--mu=-1/2` for the rational options."""
    out = []
    for arg in argv:
        if out and out[-1] in RATIONAL_OPTIONS and re.match(r"-\d", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _read_tensor_file(path: str):
    """The JSON document in path; a file nested too deep for the decoder
    (`RecursionError`) is a parse error like any other malformed file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read tensor file {path}: {exc}") from exc


def _bound_n(n) -> None:
    """Reject an n above MAX_VERIFY_N before any work is done."""
    if type(n) is int and n > MAX_VERIFY_N:
        raise ValidationError(f"n = {n} is above the limit {MAX_VERIFY_N} for a braid scan")


def _load_structure(path: str) -> QCycleStructure:
    """The structure in a tensor file, its declared "n" bounded first."""
    payload = _read_tensor_file(path)
    _bound_n(payload.get("n") if isinstance(payload, dict) else None)
    return QCycleStructure.from_payload(payload)


def _emit_json(path: str, payload: dict) -> None:
    try:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _cmd_scc(args) -> int:
    _bound_n(args.n)
    params = StandardCycleParams.from_tail(
        args.n, args.v0, _parse_rational_list(args.params)
    )
    bundle = build_standard_cycle(params)
    structure = QCycleStructure.involutive(bundle.tensor)
    report = check_braid_reduced(structure)
    print(f"standard cycle: n={args.n} v0={args.v0} params={args.params!r}")
    print(f"braid (reduced): {'pass' if report else 'FAIL'}")
    if args.emit_json:
        payload = structure.to_payload()
        payload.update(
            {
                "v0": params.degree,
                "params": {str(v): str(c) for v, c in params.coeffs},
                "f": bundle.row.to_payload(),
                "g": bundle.column.to_payload(),
                "G": bundle.table.to_payload(),
            }
        )
        _emit_json(args.emit_json, payload)
        print(f"wrote {args.emit_json}")
    return EXIT_OK if report else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    structure = _load_structure(args.tensor)
    results = {}
    for name, tensor in (("p", structure.p), ("d", structure.d)):
        results[f"morphism_{name}"] = bool(is_coalgebra_morphism(tensor))
    # The braid scans and the solution map presuppose coalgebra morphisms;
    # without them every later check is recorded as failed without running.
    morphisms = results["morphism_p"] and results["morphism_d"]
    # The full scan's m = 1 slice is the reduced scan, so a passing full scan
    # is a passing reduced report; only a failing one leaves it to be made.
    full = check_braid_full(structure) if morphisms and args.full else None
    reduced = (full or check_braid_reduced(structure)) if morphisms else None
    results["braid_reduced"] = bool(reduced)
    if args.full:
        results["braid_full"] = bool(full)
    if args.solution:
        results.update(dict.fromkeys(SOLUTION_CHECKS, False))
    if args.solution and morphisms:
        try:
            smap = build_solution(structure)
            results["solution_braid"] = check_braid_on_map(smap)
            results["solution_coalgebra_endo"] = is_coalgebra_endomorphism(smap)
            results["solution_bijective"] = is_bijective(smap)
            results["solution_involutive"] = is_involution(smap)
        except QcycleError as exc:
            print(f"solution construction failed: {exc}")
    ok = all(v for k, v in results.items() if k != "solution_involutive")
    if not morphisms:
        print("not coalgebra morphisms: braid and solution checks not run")
    for key, value in results.items():
        if key == "solution_involutive":
            print(f"{key}: {value}")
        else:
            print(f"{key}: {'pass' if value else 'FAIL'}")
    if reduced is not None and not reduced:
        for v in reduced.violations[:5]:
            print(f"  violation family={v[0]} (i,j,k)=({v[1]},{v[2]},{v[3]}) lhs={v[5]} rhs={v[6]}")
    if args.report_json:
        _emit_json(args.report_json, {"schema": 1, "results": results})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_ops_check(args) -> int:
    if args.n + args.pad > MAX_OPS_ORDER:
        raise ValidationError(
            f"truncation order n + pad = {args.n + args.pad} is above the limit {MAX_OPS_ORDER}"
        )
    params = StandardCycleParams.from_tail(
        args.n, args.v0, _parse_rational_list(args.params)
    )
    ctx = build_context(build_standard_cycle(params, args.n + args.pad))
    report = identity_suite(ctx)
    for line in report.lines():
        print(line)
    print(f"identity suite: {'all pass' if report.ok else 'FAILURES PRESENT'}")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_classify(args) -> int:
    structure = _load_structure(args.tensor)
    verdict = classify(structure)
    print(f"row: {verdict.row.value}")
    print(f"status: {verdict.status}")
    print(f"notes: {verdict.notes}")
    return EXIT_OK


def _cmd_family(args) -> int:
    _bound_n(args.n)
    lambdas = _parse_rational_list(args.lambdas)
    inp = NonRootFamilyInput(args.n, lambdas, parse_rational(args.mu))
    structure = build_nonroot_family(inp)
    report = check_braid_reduced(structure)
    print(f"nonroot family: n={args.n} lambda_1={lambdas[0]} mu={inp.mu}")
    print(f"braid (reduced): {'pass' if report else 'FAIL'}")
    print(f"involutive: {structure.is_involutive()}")
    if args.emit_json:
        _emit_json(args.emit_json, structure.to_payload())
        print(f"wrote {args.emit_json}")
    return EXIT_OK if report else EXIT_CHECK_FAILED


def _cmd_fixtures(args) -> int:
    if args.n != 3:
        raise ValidationError("fixtures are defined for n = 3 only")
    out_dir = Path(args.emit)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot write {out_dir}: {exc}") from exc
    for index, fixture in enumerate(fixtures_n3()):
        path = out_dir / f"{fixture.name}_{index}.json"
        payload = fixture.structure.to_payload()
        payload["parameters"] = {k: str(v) for k, v in fixture.parameters.items()}
        _emit_json(str(path), payload)
        print(f"wrote {path}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and reused: parsing
    does not change it, and each call gets a fresh namespace.

    The `_cmd_*` handlers and the caps in the help texts (MAX_VERIFY_N,
    MAX_OPS_ORDER) are bound at that first build; code that replaces one of
    them afterwards must call `_build_parser.cache_clear()` to see it.
    """
    parser = argparse.ArgumentParser(
        prog="qcycle",
        description="exact construction and verification of q-cycle coalgebra structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scc", help="build a standard cycle structure")
    p.add_argument("--n", type=int, required=True, help=f"dimension (n <= {MAX_VERIFY_N})")
    p.add_argument("--v0", type=int, required=True)
    p.add_argument("--params", default="", help='comma list "p_{v0+1},...,p_{n-1}" (p_{v0} is 1)')
    p.add_argument("--emit-json", dest="emit_json")
    p.set_defaults(handler=_cmd_scc)

    p = sub.add_parser("verify", help="verify a tensor file")
    p.add_argument("--tensor", required=True, help=f"structure file (n <= {MAX_VERIFY_N})")
    p.add_argument("--full", action="store_true", help="also run the all-levels braid check")
    p.add_argument("--solution", action="store_true", help="build the solution map and check it")
    p.add_argument("--report-json", dest="report_json")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("ops-check", help="run the operator identity suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v0", type=int, required=True)
    p.add_argument("--params", default="")
    p.add_argument("--pad", type=int, default=2,
                   help=f"extra truncation beyond n (default 2; n + pad <= {MAX_OPS_ORDER})")
    p.add_argument("--seed", type=int, default=20240,
                   help="accepted and unused: the suite draws no random input")
    p.set_defaults(handler=_cmd_ops_check)

    p = sub.add_parser("classify", help="classification row of a tensor file")
    p.add_argument("--tensor", required=True, help=f"structure file (n <= {MAX_VERIFY_N})")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("family", help="build a classified family")
    p.add_argument("kind", choices=["nonroot"])
    p.add_argument("--n", type=int, required=True, help=f"dimension (n <= {MAX_VERIFY_N})")
    p.add_argument("--lambdas", required=True, help='comma list "lambda_1,...,lambda_{n-1}"')
    p.add_argument("--mu", required=True)
    p.add_argument("--emit-json", dest="emit_json")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("fixtures", help="emit the built-in n = 3 fixtures")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--emit", required=True, help="output directory")
    p.set_defaults(handler=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        return args.handler(args)
    # a root-of-unity lambda_1 is an invalid `family` input, as mu = 0 is
    except (ParseError, ValidationError, RootOfUnityLambda) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QcycleError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
