"""Command-line interface: one command table, one document per run.

``_COMMANDS`` holds each command's handler, help line and arguments.  A
handler reads its files through ``_Inputs`` and returns ``(result,
certificate)``; ``main`` builds the one result document from the command
name and the texts read.  ``--help`` shows ``main``'s docstring.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Dict, Optional, Sequence

from . import bundles, fuchsian, linalg, monodromy
from .errors import BGSplitError, ParseError, _DomainError
from .io import (
    DomainObject,
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


class _Inputs:
    """The files one command reads, by argument name; ``texts`` keeps
    each text read, for the document's input digests."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.texts: Dict[str, str] = {}

    def read(self, name: str) -> str:
        path = getattr(self.args, name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from exc
        self.texts[name] = text
        return text

    def load(self, name: str, kind: str) -> DomainObject:
        parsed = parse_matrix_file(self.read(name))
        if parsed.kind != kind:
            raise UsageError(f"{getattr(self.args, name)}: kind {parsed.kind!r} "
                             f"not usable here (expected {kind})")
        return parsed.obj

    def bundle(self, name: str) -> bundles.BundleOnP1:
        return bundles.bundle(self.load(name, "laurent_matrix"))


# -- command handlers: each returns (result, certificate or None) ----------


def _roots(pairs):
    return [{"value": r, "multiplicity": m} for r, m in pairs]


def _cmd_split(args, inputs: _Inputs):
    e = inputs.bundle("file")
    st, profile = bundles.splitting_type_and_profile(e)
    certificate = {
        "determinant": LaurentPoly({e.det_exponent: e.det_coeff}),
        "section_counts": profile,
    }
    return {"indices": st.indices}, certificate


def _cmd_factor(args, inputs: _Inputs):
    f = bundles.birkhoff_factor(inputs.bundle("file"))
    certificate = {"b": f.b, "c": f.c, "diagonal": f.exponents.indices}
    return {"exponents": f.exponents.indices}, certificate


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

    def cell_of(key, i, j, cell) -> LaurentPoly:
        # A cell is a JSON string with no line of its own: name the entry.
        try:
            return parse_laurent(cell)
        except (ParseError, _DomainError) as exc:
            raise type(exc)(f"factorization {key!r} entry ({i}, {j}): {exc.message}",
                            column=exc.column) from None

    def matrix_of(key) -> LaurentMatrix:
        rows = cert[key]
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and all(isinstance(cell, str) for cell in row)
                for row in rows)):
            raise ParseError(f"factorization {key!r} must be a list of lists of strings")
        return LaurentMatrix([[cell_of(key, i, j, cell) for j, cell in enumerate(row, 1)]
                              for i, row in enumerate(rows, 1)])

    b, c = matrix_of("b"), matrix_of("c")
    diagonal = cert["diagonal"]
    # bool is a subclass of int, and JSON true/false are not exponents
    if not (isinstance(diagonal, list) and all(type(d) is int for d in diagonal)):
        raise ParseError("factorization 'diagonal' must be a list of integers")
    return bundles.Factorization(b=b, c=c, exponents=bundles.SplittingType(tuple(diagonal)),
                                 claimed=tuple(diagonal))


def _cmd_verify(args, inputs: _Inputs):
    a = inputs.load("file", "laurent_matrix")
    factorization = _parse_factorization_json(inputs.read("factorization"))
    report = bundles.verify_factorization(a, factorization)
    return {"valid": report.valid, "failed_clause": report.failed_clause,
            "detail": report.detail}, None


def _cmd_h0(args, inputs: _Inputs):
    space = bundles.h0_dim(inputs.bundle("file"), args.twist)
    basis = [{"s0": s0, "s1": s1} for s0, s1 in space.basis]
    return {"twist": space.twist, "dimension": space.dimension}, {"basis": basis}


def _cmd_h1(args, inputs: _Inputs):
    return {"twist": args.twist,
            "dimension": bundles.h1_dim(inputs.bundle("file"), args.twist)}, None


def _cmd_rr(args, inputs: _Inputs):
    rep = bundles.riemann_roch_check(inputs.bundle("file"), args.twist)
    return {
        "twist": args.twist,
        "h0": rep.h0,
        "h1": rep.h1,
        "degree": rep.degree,
        "rank": rep.rank,
        "lhs": rep.h0 - rep.h1,
        "rhs": rep.degree + rep.rank,
        "holds": rep.holds,
    }, None


def _cmd_iso(args, inputs: _Inputs):
    e1, e2 = inputs.bundle("file_a"), inputs.bundle("file_b")
    s1 = bundles.splitting_type(e1)
    s2 = bundles.splitting_type(e2) if e1.rank == e2.rank else None
    return {
        "isomorphic": e1.rank == e2.rank and s1 == s2,
        "splitting_a": list(s1.indices),
        "splitting_b": list(s2.indices) if s2 is not None else None,
    }, None


def _cmd_fuchs_system(args, inputs: _Inputs):
    system: fuchsian.FuchsianSystem = inputs.load("file", "fuchsian_system")
    holds, total = fuchsian.fuchs_relation_system(system)
    per_point = []
    for p in list(system.points) + [fuchsian.INF]:
        data = fuchsian.exponents_system(system, p)
        per_point.append({
            "point": data.point,
            "trace": data.trace,
            "charpoly": data.charpoly,
            "rational_eigenvalues": _roots(data.rational_roots),
            "splits_over_q": data.splits_over_q,
        })
    return {"holds": holds, "trace_sum": total}, {"exponent_data": per_point}


def _cmd_fuchs_ode(args, inputs: _Inputs):
    report = fuchsian.fuchs_relation_scalar(inputs.load("file", "scalar_ode"))
    return {
        "holds": report.holds,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "num_singularities": report.num_singularities,
        "infinity_singular": report.infinity_singular,
    }, None


def _cmd_indicial(args, inputs: _Inputs):
    ode = inputs.load("file", "scalar_ode")
    data = fuchsian.indicial_polynomial(ode, parse_point(args.point))
    return {
        "point": data.point,
        "polynomial": data.polynomial,
        "exponent_sum": data.exponent_sum,
        "rational_roots": _roots(linalg.rational_roots(data.polynomial)),
    }, None


def _cmd_frobenius(args, inputs: _Inputs):
    if args.order < 0:
        raise UsageError("truncation order must be nonnegative")
    matrices = inputs.load("file", "rat_matrix_list")
    local = fuchsian.local_system(matrices[0], matrices[1:])
    series = fuchsian.frobenius_series(local, args.order)
    residual = fuchsian.ode_residual(local, series)
    return {"order": args.order, "residual_order": residual}, {"r": series.r, "s": series.s}


def _cmd_gauge(args, inputs: _Inputs):
    a = inputs.load("file_a", "laurent_matrix")
    p = inputs.load("file_p", "laurent_matrix")
    return {"matrix": fuchsian.gauge_transform(a.entries, p.entries)}, None


def _cmd_bolibrukh(args, inputs: _Inputs):
    report = monodromy.bolibrukh_criterion(inputs.load("file", "monodromy_rep"))
    return {
        "size": report.size,
        "product_is_identity": report.product_is_identity,
        "reducible": report.reducible,
        "all_single_block": report.all_single_block,
        "eigenvalues": list(report.eigenvalues) if report.eigenvalues else None,
        "eigenvalue_product": report.eigenvalue_product,
        "applies": report.applies,
        "reason": report.reason,
        "invariant_subspace_witness": report.invariant_subspace_witness,
    }, None


# -- command table and argument wiring -------------------------------------


def _arg(*flags, **keywords):
    return flags, keywords


# name -> (handler, help line, arguments); the parser lists the commands in
# this order, each with --out and --format before its own arguments
_COMMANDS = {
    "split": (_cmd_split, "splitting type of a transition matrix", [_arg("file")]),
    "factor": (_cmd_factor, "explicit diagonal factorization B A C", [_arg("file")]),
    "verify": (_cmd_verify, "check a factorization document against a matrix",
               [_arg("file"), _arg("factorization")]),
    "h0": (_cmd_h0, "h0 on a twist of the bundle",
           [_arg("file"), _arg("-k", "--twist", type=int, default=0)]),
    "h1": (_cmd_h1, "h1 on a twist of the bundle",
           [_arg("file"), _arg("-k", "--twist", type=int, default=0)]),
    "rr": (_cmd_rr, "rr on a twist of the bundle",
           [_arg("file"), _arg("-k", "--twist", type=int, default=0)]),
    "iso": (_cmd_iso, "isomorphism test for two bundles", [_arg("file_a"), _arg("file_b")]),
    "fuchs-system": (_cmd_fuchs_system, "trace/exponent sums of a residue system",
                     [_arg("file")]),
    "fuchs-ode": (_cmd_fuchs_ode, "global exponent-sum identity of a scalar equation",
                  [_arg("file")]),
    "indicial": (_cmd_indicial, "indicial polynomial at a point",
                 [_arg("file"),
                  _arg("-p", "--point", required=True, help="rational point or 'oo'")]),
    "frobenius": (_cmd_frobenius, "truncated series fundamental matrix at 0",
                  [_arg("file"), _arg("-N", "--order", type=int, default=8)]),
    "gauge": (_cmd_gauge, "apply a gauge matrix to a system matrix",
              [_arg("file_a"), _arg("file_p")]),
    "bolibrukh": (_cmd_bolibrukh, "non-realizability criterion for a representation",
                  [_arg("file")]),
}


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process from the command table:
    parse_args keeps no state in it."""
    parser = _Parser(prog="bgsplit", description=main.__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (handler, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", metavar="FILE", help="write output to FILE")
        p.add_argument("--format", choices=("json", "text"), default="json")
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Batch command-line interface.

    One command per invocation; deterministic machine-readable output (JSON
    by default, ``--format text`` for key: value lines).  Exit codes: 0
    success, 1 usage (including a file of the wrong kind for the command),
    2 parse error, 3 domain precondition violated or work budget exceeded,
    4 internal consistency failure; codes 2-4 are carried by the error
    classes of ``bgsplit.errors``.  ``verify`` exits 0 whether or not the
    factorization is valid; its verdict is the result payload.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "handler", None):
            raise UsageError("a command is required (try --help)")
        inputs = _Inputs(args)
        result, certificate = args.handler(args, inputs)
        doc = result_document(args.command, inputs.texts, result, certificate)
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
