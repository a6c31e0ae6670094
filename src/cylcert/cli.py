"""Command-line surface: certify, verify, minimize, and bound evaluation.

Human-readable progress goes to stdout; every outcome (success or
failure) additionally emits one line of structured JSON on stderr so a
harness can consume results without parsing prose.  Certificate files
are written atomically and are byte-identical across reruns on the
same problem file.

Exit codes: 0 success, 10 validation, 11 indefinite side condition,
12 nonpositive target, 13 search/budget exhausted, 14 cap exceeded,
15 verification failure, 20 I/O or schema trouble.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction
from typing import Any, Iterator

from .certificate import (
    _BOUND_FORMULAS,
    BoundInputs,
    certificate_from_obj,
    certificate_to_obj,
    theorem_bound,
    verify_certificate,
)
from .errors import CapExceededError, CylcertError
from .problem import BOX, CylinderProblem, problem_from_obj, problem_to_obj, rescale_to_simplex
from .serialize import (
    DIGIT_CAP,
    atomic_write_text,
    canonical_dumps,
    digits_over_cap,
    frac_from_str,
    frac_to_str,
    load_json,
    sha256_of_obj,
)

EXIT_EXACT = 0
EXIT_VALIDATION = 10
EXIT_INDEFINITE = 11
EXIT_NONPOSITIVE = 12
EXIT_EXHAUSTED = 13
EXIT_CAP = 14
EXIT_VERIFY = 15
EXIT_IO = 20


def _emit(obj: dict[str, Any]) -> None:
    """One structured line on the side channel."""
    print(json.dumps(obj, sort_keys=True, default=str), file=sys.stderr)


def _fail(exc: CylcertError) -> int:
    print(f"error[{exc.code}]: {exc}")
    _emit({"error": exc.code, "message": str(exc), "payload": exc.payload})
    return exc.exit_code


def _load_problem(path: str) -> CylinderProblem:
    return problem_from_obj(load_json(path))


def _fraction_arg(text: str) -> Fraction:
    try:
        return frac_from_str(text)
    except (CylcertError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _constraints_key(problem: CylinderProblem) -> str:
    """Cache key for facet witnesses: the solving-frame constraint list."""
    solving = problem
    if problem.frame == BOX:
        solving, _ = rescale_to_simplex(problem)
    obj = problem_to_obj(solving)
    return sha256_of_obj({"g": obj["g"], "n": obj["n"], "variant": obj["variant"]})


def cmd_certify(args: argparse.Namespace) -> int:
    try:
        problem = _load_problem(args.input)
    except CylcertError as exc:
        return _fail(exc)
    # The search and numpy load here, once there is a problem to search on.
    from .pipeline import certify_problem
    from .putinar_base import base_cache_from_obj, base_cache_to_obj

    cache_path = args.output + ".basecache.json"
    key = _constraints_key(problem)
    try:
        precomputed = base_cache_from_obj(load_json(cache_path), key, problem.shape)
    except CylcertError:
        precomputed = None

    try:
        result = certify_problem(problem, precomputed_base=precomputed)
    except CylcertError as exc:
        return _fail(exc)

    cert = result.certificate
    text = canonical_dumps(certificate_to_obj(cert))
    if digits_over_cap(text):
        # verify would refuse to read it
        return _fail(CapExceededError(
            f"a certificate rational would have more than {DIGIT_CAP} digits",
            cap=DIGIT_CAP,
        ))
    atomic_write_text(args.output, text)
    if result.base_cache:
        atomic_write_text(
            cache_path, canonical_dumps(base_cache_to_obj(key, result.base_cache))
        )
    if args.diagnostics:
        atomic_write_text(args.diagnostics, canonical_dumps(result.diagnostics))

    meta = cert.meta
    print(
        f"lambda {frac_to_str(meta.lam)}  k {meta.k}  N {meta.polya_exponent}  "
        f"ell {meta.ell}  c9 {meta.c9}"
    )
    print(f"certified floor: {frac_to_str(meta.fstar_lb)}")
    print(f"wrote {args.output}")
    _emit(
        {
            "problem_hash": cert.problem_hash,
            "output": args.output,
            "lambda": frac_to_str(meta.lam),
            "k": meta.k,
            "N": meta.polya_exponent,
            "ell": meta.ell,
            "c9": meta.c9,
            "fstar_lb": frac_to_str(meta.fstar_lb),
        }
    )
    return EXIT_EXACT


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        problem = _load_problem(args.problem)
        cert = certificate_from_obj(load_json(args.certificate), problem.shape)
    except CylcertError as exc:
        return _fail(exc)
    try:
        report = verify_certificate(problem, cert)
    except CylcertError as exc:
        return _fail(exc)
    print("certificate verifies: f = sigma_0 + sum sigma_i g_i holds exactly")
    _emit(report.to_obj())
    return EXIT_EXACT


def cmd_minimize(args: argparse.Namespace) -> int:
    from .certified import certified_cylinder_min
    from .pipeline import solving_frame

    try:
        problem = _load_problem(args.input)
        solving, _record, fallback, _report = solving_frame(problem)
        found = certified_cylinder_min(solving, fallback_x=fallback)
    except CylcertError as exc:
        return _fail(exc)
    print(f"certified lower bound: {frac_to_str(found.lower_bound)}")
    print(f"  ~ {float(found.lower_bound):.6g} at grid depth {found.grid_depth}")
    _emit(found.to_obj())
    return EXIT_EXACT


def cmd_bound(args: argparse.Namespace) -> int:
    try:
        inputs = BoundInputs(
            c=args.c,
            d=args.d,
            m=args.m,
            r=args.r,
            n=args.n,
            f_norm=args.fnorm,
            fstar=args.fstar,
        )
        value = theorem_bound(args.theorem, inputs)
    except CylcertError as exc:
        return _fail(exc)
    print(f"degree bound ({args.theorem}): {frac_to_str(value)}")
    try:
        approx = f"{float(value):.6g}"
    except OverflowError:
        # Tower-style formulas overflow IEEE doubles long before the exact
        # rational becomes unwieldy; report the order of magnitude instead.
        log10 = (value.numerator.bit_length() - value.denominator.bit_length()) * 0.30103
        approx = f"10^{log10:.0f}"
    print(f"  ~ {approx}")
    _emit({"theorem": args.theorem, "bound": frac_to_str(value)})
    return EXIT_EXACT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylcert",
        description=(
            "Exact positivity certificates for polynomials on cylinders "
            "(a compact set times unbounded variables)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="produce a certificate for a problem file")
    cert.add_argument("--input", required=True, help="problem JSON file")
    cert.add_argument("--output", required=True, help="certificate JSON file to write")
    cert.add_argument("--diagnostics", help="write full stage evidence JSON here")
    cert.set_defaults(func=cmd_certify)

    ver = sub.add_parser("verify", help="check a certificate against a problem file")
    ver.add_argument("--problem", required=True, help="problem JSON file")
    ver.add_argument("--certificate", required=True, help="certificate JSON file")
    ver.set_defaults(func=cmd_verify)

    mini = sub.add_parser("minimize", help="certified lower bound for f")
    mini.add_argument("--input", required=True, help="problem JSON file")
    mini.set_defaults(func=cmd_minimize)

    bnd = sub.add_parser("bound", help="evaluate a sigma-degree bound formula")
    bnd.add_argument(
        "--theorem",
        required=True,
        choices=_BOUND_FORMULAS,
        help="which bound formula",
    )
    bnd.add_argument("--c", type=_fraction_arg, default=Fraction(1))
    bnd.add_argument("--d", type=int, required=True)
    bnd.add_argument("--m", type=int, default=2)
    bnd.add_argument("--r", type=int, default=1)
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--fnorm", type=_fraction_arg, required=True)
    bnd.add_argument("--fstar", type=_fraction_arg, required=True)
    bnd.set_defaults(func=cmd_bound)
    return parser


@contextlib.contextmanager
def _any_digit_count() -> Iterator[None]:
    """Lift CPython's int-to-str digit limit (3.10.7 and later) for the block.

    Bounds, certificate coefficients and verification residuals are exact
    rationals whose digit counts can exceed it; files are still read under
    ``serialize.DIGIT_CAP``, and the caller gets its own limit back.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    # argparse exits 2 on usage errors; every failure of this tool exits
    # with a code of 10 or more, so remap those to the validation code.
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_EXACT if not exc.code else EXIT_VALIDATION
    try:
        with _any_digit_count():
            return args.func(args)
    except OSError as exc:
        print(f"error[IO]: {exc}")
        _emit({"error": "IO", "message": str(exc)})
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
