"""Batch command-line interface.

One command per invocation; deterministic machine-readable output (JSON
by default, ``--format text`` for key: value lines).  Exit codes: 0
success, 1 usage (including a file of the wrong kind for the command),
2 parse error, 3 domain precondition violated or work budget exceeded,
4 internal consistency failure; codes 2-4 are carried by the error
classes of ``bgsplit.errors``.  ``verify`` exits 0 whether or not the
factorization is valid; its verdict is the result payload.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence, Tuple

from . import bundles, fuchsian, monodromy
from .errors import BGSplitError, ParseError
from .io import (
    ParsedFile,
    parse_laurent,
    parse_matrix_file,
    parse_point,
    render_json,
    render_text,
    result_document,
)
from .laurent import LaurentPoly
from .lmatrix import LaurentMatrix

EXIT_OK = 0
EXIT_USAGE = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load(path: str, *kinds: str) -> Tuple[ParsedFile, str]:
    text = _read_file(path)
    parsed = parse_matrix_file(text)
    if parsed.kind not in kinds:
        raise UsageError(
            f"{path}: kind {parsed.kind!r} not usable here (expected {' or '.join(kinds)})"
        )
    return parsed, text


def _load_bundle(path: str):
    parsed, text = _load(path, "laurent_matrix")
    return bundles.bundle(parsed.obj), text


# -- command handlers ----------------------------------------------------


def _cmd_split(args) -> dict:
    e, text = _load_bundle(args.file)
    st, profile = bundles.splitting_type_and_profile(e)
    lo, hi = e.transition.exponent_range()
    certificate = {
        "determinant": LaurentPoly({e.det_exponent: e.det_coeff}),
        "section_counts": {str(k): profile[k] for k in range(-hi - 2, -lo + 2)},
    }
    return result_document(
        "split", {"file": text}, {"indices": list(st.indices)}, certificate
    )


def _cmd_factor(args) -> dict:
    e, text = _load_bundle(args.file)
    f = bundles.birkhoff_factor(e)
    certificate = {"b": f.b, "c": f.c, "diagonal": list(f.exponents.indices)}
    return result_document(
        "factor", {"file": text}, {"exponents": list(f.exponents.indices)}, certificate
    )


def _parse_factorization_json(text: str) -> bundles.Factorization:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"factorization document is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("factorization document nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("factorization document must be a JSON object")
    cert = doc.get("certificate", doc)
    if not isinstance(cert, dict):
        raise ParseError("factorization certificate must be a JSON object")
    for key in ("b", "c", "diagonal"):
        if key not in cert:
            raise ParseError(f"factorization document lacks {key!r}")

    def matrix_of(key) -> LaurentMatrix:
        rows = cert[key]
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and all(isinstance(cell, str) for cell in row)
                for row in rows)):
            raise ParseError(f"factorization {key!r} must be a list of lists of strings")
        return LaurentMatrix([[parse_laurent(cell) for cell in row] for row in rows])

    b, c = matrix_of("b"), matrix_of("c")
    diagonal = cert["diagonal"]
    # bool is a subclass of int, and JSON true/false are not exponents
    if not (isinstance(diagonal, list) and all(type(d) is int for d in diagonal)):
        raise ParseError("factorization 'diagonal' must be a list of integers")
    return bundles.Factorization(
        b=b, c=c, exponents=bundles.SplittingType(tuple(diagonal))
    )


def _cmd_verify(args) -> dict:
    parsed, text = _load(args.file, "laurent_matrix")
    factor_text = _read_file(args.factorization)
    factorization = _parse_factorization_json(factor_text)
    report = bundles.verify_factorization(parsed.obj, factorization)
    return result_document(
        "verify",
        {"file": text, "factorization": factor_text},
        {"valid": report.valid, "failed_clause": report.failed_clause, "detail": report.detail},
    )


def _cmd_h0(args) -> dict:
    e, text = _load_bundle(args.file)
    space = bundles.h0_dim(e, args.twist)
    basis = [
        {"s0": [str(p) for p in s0], "s1": [str(p) for p in s1]}
        for s0, s1 in space.basis
    ]
    return result_document(
        "h0", {"file": text},
        {"twist": space.twist, "dimension": space.dimension},
        {"basis": basis},
    )


def _cmd_h1(args) -> dict:
    e, text = _load_bundle(args.file)
    return result_document(
        "h1", {"file": text},
        {"twist": args.twist, "dimension": bundles.h1_dim(e, args.twist)},
    )


def _cmd_rr(args) -> dict:
    e, text = _load_bundle(args.file)
    rep = bundles.riemann_roch_check(e, args.twist)
    return result_document(
        "rr", {"file": text},
        {
            "twist": args.twist,
            "h0": rep.h0,
            "h1": rep.h1,
            "degree": rep.degree,
            "rank": rep.rank,
            "lhs": rep.h0 - rep.h1,
            "rhs": rep.degree + rep.rank,
            "holds": rep.holds,
        },
    )


def _cmd_iso(args) -> dict:
    e1, text1 = _load_bundle(args.file_a)
    e2, text2 = _load_bundle(args.file_b)
    s1 = bundles.splitting_type(e1)
    s2 = bundles.splitting_type(e2) if e1.rank == e2.rank else None
    isomorphic = e1.rank == e2.rank and s1 == s2
    return result_document(
        "iso", {"file_a": text1, "file_b": text2},
        {
            "isomorphic": isomorphic,
            "splitting_a": list(s1.indices),
            "splitting_b": list(s2.indices) if s2 is not None else None,
        },
    )


def _cmd_fuchs_system(args) -> dict:
    parsed, text = _load(args.file, "fuchsian_system")
    system: fuchsian.FuchsianSystem = parsed.obj
    holds, total = fuchsian.fuchs_relation_system(system)
    per_point = []
    for p in list(system.points) + [fuchsian.INF]:
        data = fuchsian.exponents_system(system, p)
        per_point.append(
            {
                "point": data.point,
                "trace": data.trace,
                "charpoly": data.charpoly,
                "rational_eigenvalues": [
                    {"value": r, "multiplicity": m} for r, m in data.rational_roots
                ],
                "splits_over_q": data.splits_over_q,
            }
        )
    return result_document(
        "fuchs-system", {"file": text},
        {"holds": holds, "trace_sum": total},
        {"exponent_data": per_point},
    )


def _cmd_fuchs_ode(args) -> dict:
    parsed, text = _load(args.file, "scalar_ode")
    report = fuchsian.fuchs_relation_scalar(parsed.obj)
    return result_document(
        "fuchs-ode", {"file": text},
        {
            "holds": report.holds,
            "lhs": report.lhs,
            "rhs": report.rhs,
            "num_singularities": report.num_singularities,
            "infinity_singular": report.infinity_singular,
        },
    )


def _cmd_indicial(args) -> dict:
    parsed, text = _load(args.file, "scalar_ode")
    point = parse_point(args.point)
    data = fuchsian.indicial_polynomial(parsed.obj, point)
    from .linalg import rational_roots

    roots = rational_roots(data.polynomial)
    return result_document(
        "indicial", {"file": text},
        {
            "point": data.point,
            "polynomial": data.polynomial,
            "exponent_sum": data.exponent_sum,
            "rational_roots": [
                {"value": r, "multiplicity": m} for r, m in roots
            ],
        },
    )


def _cmd_frobenius(args) -> dict:
    if args.order < 0:
        raise UsageError("truncation order must be nonnegative")
    parsed, text = _load(args.file, "rat_matrix_list")
    matrices = parsed.obj
    local = fuchsian.LocalSystemData.from_data(matrices[0], matrices[1:])
    series = fuchsian.frobenius_series(local, args.order)
    residual = fuchsian.ode_residual(local, series)
    return result_document(
        "frobenius", {"file": text},
        {"order": args.order, "residual_order": residual},
        {
            "r": [list(row) for row in series.r],
            "s": [[list(row) for row in sk] for sk in series.s],
        },
    )


def _cmd_gauge(args) -> dict:
    parsed_a, text_a = _load(args.file_a, "laurent_matrix")
    parsed_p, text_p = _load(args.file_p, "laurent_matrix")
    result = fuchsian.gauge_transform(parsed_a.obj.entries, parsed_p.obj.entries)
    return result_document(
        "gauge", {"file_a": text_a, "file_p": text_p},
        {"matrix": [[str(v) for v in row] for row in result]},
    )


def _cmd_bolibrukh(args) -> dict:
    parsed, text = _load(args.file, "monodromy_rep")
    report = monodromy.bolibrukh_criterion(parsed.obj)
    witness = report.invariant_subspace_witness
    return result_document(
        "bolibrukh", {"file": text},
        {
            "size": report.size,
            "product_is_identity": report.product_is_identity,
            "reducible": report.reducible,
            "all_single_block": report.all_single_block,
            "eigenvalues": list(report.eigenvalues) if report.eigenvalues else None,
            "eigenvalue_product": report.eigenvalue_product,
            "applies": report.applies,
            "reason": report.reason,
            "invariant_subspace_witness": list(witness) if witness is not None else None,
        },
    )


# -- argument wiring -------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parse_args keeps no state in it."""
    parser = _Parser(prog="bgsplit", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", metavar="FILE", help="write output to FILE")
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    p = add("split", _cmd_split, "splitting type of a transition matrix")
    p.add_argument("file")
    p = add("factor", _cmd_factor, "explicit diagonal factorization B A C")
    p.add_argument("file")
    p = add("verify", _cmd_verify, "check a factorization document against a matrix")
    p.add_argument("file")
    p.add_argument("factorization")
    for name, handler in (("h0", _cmd_h0), ("h1", _cmd_h1), ("rr", _cmd_rr)):
        p = add(name, handler, f"{name} on a twist of the bundle")
        p.add_argument("file")
        p.add_argument("-k", "--twist", type=int, default=0)
    p = add("iso", _cmd_iso, "isomorphism test for two bundles")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p = add("fuchs-system", _cmd_fuchs_system, "trace/exponent sums of a residue system")
    p.add_argument("file")
    p = add("fuchs-ode", _cmd_fuchs_ode, "global exponent-sum identity of a scalar equation")
    p.add_argument("file")
    p = add("indicial", _cmd_indicial, "indicial polynomial at a point")
    p.add_argument("file")
    p.add_argument("-p", "--point", required=True, help="rational point or 'oo'")
    p = add("frobenius", _cmd_frobenius, "truncated series fundamental matrix at 0")
    p.add_argument("file")
    p.add_argument("-N", "--order", type=int, default=8)
    p = add("gauge", _cmd_gauge, "apply a gauge matrix to a system matrix")
    p.add_argument("file_a")
    p.add_argument("file_p")
    p = add("bolibrukh", _cmd_bolibrukh, "non-realizability criterion for a representation")
    p.add_argument("file")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "handler", None):
            raise UsageError("a command is required (try --help)")
        doc = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BGSplitError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    rendered = render_json(doc) if args.format == "json" else render_text(doc)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"usage error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
