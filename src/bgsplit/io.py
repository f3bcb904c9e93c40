"""Input files, expression parsing, and deterministic result documents.

Input files are line oriented: a header line of comma-separated
``key = value`` pairs (``kind`` and ``n`` always; ``count``, ``points``
and ``format_version`` per kind), then payload rows with comma-separated
entries.  ``#`` starts a comment; blank lines are ignored.  Entries are
arithmetic expressions in the variable x (z is accepted as a synonym)
with integer or fraction coefficients and ``^`` powers, e.g.
``x^-1 + 3/2*x^2``.  Emission is canonical, so emit(parse(emit(obj)))
is byte-identical to emit(obj).

Result documents are JSON objects carrying the command echo, a digest of
the input bytes, the result payload and a certificate payload; fractions
are serialized as strings so no consumer ever rounds.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import DimensionMismatch, ParseError
from .fuchsian import FuchsianSystem, ScalarODE
from .laurent import LaurentPoly
from .lmatrix import LaurentMatrix
from .monodromy import MonodromyRep
from .ratfunc import INF, Infinity, RatFunc

FORMAT_VERSION = 1

KINDS = ("laurent_matrix", "rat_matrix_list", "fuchsian_system", "scalar_ode", "monodromy_rep")


# -- expression parsing --------------------------------------------------

# An entry evaluates in the Laurent ring Q[x, x^-1]; it is lifted to Q(x)
# only on division by a non-monomial (or when combined with a value
# already lifted).  Both representations are canonical, so the result is
# the same as evaluating everything in Q(x).
Value = Union[LaurentPoly, RatFunc]


class _Tokenizer:
    def __init__(self, text: str, line: int, col_offset: int):
        self.text = text
        self.line = line
        self.col_offset = col_offset
        self.pos = 0

    def error(self, message: str, pos: Optional[int] = None) -> ParseError:
        at = self.pos if pos is None else pos
        return ParseError(message, line=self.line, column=self.col_offset + at + 1)

    def peek(self) -> Optional[str]:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_int(self) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("integer expected")
        return int(self.text[start:self.pos])


def _as_ratfunc(value: Value) -> RatFunc:
    return value if isinstance(value, RatFunc) else RatFunc.from_laurent(value)


def _divide(num: Value, den: Value) -> Value:
    """num/den, staying in Q[x, x^-1] when den is a nonzero monomial."""
    mono = den.as_monomial() if isinstance(den, LaurentPoly) else None
    if mono is not None and isinstance(num, LaurentPoly):
        c, t = mono
        return num.scale(1 / c).shift(-t)
    return _as_ratfunc(num) / _as_ratfunc(den)


def _power(base: Value, exp: int) -> Value:
    """base^exp: a monomial takes any integer exponent, another Laurent
    polynomial any exponent >= 0; the rest is computed in Q(x)."""
    if isinstance(base, LaurentPoly):
        mono = base.as_monomial()
        if mono is not None:
            c, t = mono
            return LaurentPoly.x_power(t * exp, c**exp)
        if exp >= 0:
            return base**exp
    value = _as_ratfunc(base)
    if exp < 0:
        value, exp = RatFunc.one() / value, -exp
    return RatFunc(value.num**exp, value.den**exp)


def _parse_expression(tok: _Tokenizer) -> Value:
    value = _parse_term(tok)
    while True:
        c = tok.peek()
        if c == "+":
            tok.pos += 1
            value = value + _parse_term(tok)
        elif c == "-":
            tok.pos += 1
            value = value - _parse_term(tok)
        else:
            return value


def _parse_term(tok: _Tokenizer) -> Value:
    value = _parse_factor(tok)
    while True:
        c = tok.peek()
        if c == "*":
            tok.pos += 1
            value = value * _parse_factor(tok)
        elif c == "/":
            tok.pos += 1
            value = _divide(value, _parse_factor(tok))
        else:
            return value


def _parse_factor(tok: _Tokenizer) -> Value:
    c = tok.peek()
    if c == "-":
        tok.pos += 1
        return -_parse_factor(tok)
    if c == "+":
        tok.pos += 1
        return _parse_factor(tok)
    return _parse_power(tok)


def _parse_power(tok: _Tokenizer) -> Value:
    base = _parse_atom(tok)
    if tok.peek() == "^":
        tok.pos += 1
        sign = 1
        if tok.peek() == "-":
            tok.pos += 1
            sign = -1
        return _power(base, sign * tok.take_int())
    return base


def _parse_atom(tok: _Tokenizer) -> Value:
    c = tok.peek()
    if c is None:
        raise tok.error("unexpected end of expression")
    if c == "(":
        tok.pos += 1
        value = _parse_expression(tok)
        if tok.peek() != ")":
            raise tok.error("')' expected")
        tok.pos += 1
        return value
    if c in ("x", "z"):
        tok.pos += 1
        return LaurentPoly.x_power(1)
    if c.isdigit():
        return LaurentPoly.constant(tok.take_int())
    raise tok.error(f"unexpected character {c!r}")


def _evaluate(text: str, line: int, col_offset: int) -> Value:
    tok = _Tokenizer(text, line, col_offset)
    try:
        value = _parse_expression(tok)
    except RecursionError:
        raise ParseError(
            "expression nested too deeply", line=line, column=col_offset + 1
        ) from None
    if tok.peek() is not None:
        raise tok.error("trailing input after expression")
    return value


def _as_laurent(value: Value) -> Optional[LaurentPoly]:
    return value.as_laurent() if isinstance(value, RatFunc) else value


def parse_ratfunc(text: str, line: int = 1, col_offset: int = 0) -> RatFunc:
    return _as_ratfunc(_evaluate(text, line, col_offset))


def parse_laurent(text: str, line: int = 1, col_offset: int = 0) -> LaurentPoly:
    value = _as_laurent(_evaluate(text, line, col_offset))
    if value is None:
        raise ParseError(
            "entry is a rational function, not a Laurent polynomial",
            line=line, column=col_offset + 1,
        )
    return value


def parse_fraction(text: str, line: int = 1, col_offset: int = 0) -> Fraction:
    value = _as_laurent(_evaluate(text, line, col_offset))
    if value is None or value != value.coeff(0):
        raise ParseError("constant rational expected", line=line, column=col_offset + 1)
    return value.coeff(0)


def parse_point(text: str) -> Union[Fraction, Infinity]:
    stripped = text.strip().lower()
    if stripped in ("oo", "inf", "infinity"):
        return INF
    return parse_fraction(text)


# -- file parsing --------------------------------------------------------


DomainObject = Union[LaurentMatrix, List, FuchsianSystem, ScalarODE, MonodromyRep]


class ParsedFile:
    def __init__(self, kind: str, obj: DomainObject, header: Dict[str, str]):
        self.kind = kind
        self.obj = obj
        self.header = header


def _logical_lines(text: str) -> List[Tuple[int, str]]:
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            lines.append((i, body))
    return lines


def _parse_header(line_no: int, line: str) -> Dict[str, str]:
    header: Dict[str, str] = {}
    for chunk in line.split(","):
        if "=" not in chunk:
            raise ParseError("header items must be 'key = value'", line=line_no)
        key, value = chunk.split("=", 1)
        header[key.strip()] = value.strip()
    if "kind" not in header:
        raise ParseError("header must declare a kind", line=line_no)
    if header["kind"] not in KINDS:
        raise ParseError(f"unknown kind {header['kind']!r}", line=line_no)
    if "n" not in header:
        raise ParseError("header must declare n", line=line_no)
    return header


def _split_entries(line: str) -> List[Tuple[int, str]]:
    """Comma-separated cells with their column offsets."""
    cells = []
    offset = 0
    for cell in line.split(","):
        cells.append((offset, cell))
        offset += len(cell) + 1
    return cells


def _parse_rat_rows(
    rows: List[Tuple[int, str]], n: int, count: int
) -> List[List[List[Fraction]]]:
    if len(rows) != count * n:
        raise ParseError(
            f"expected {count * n} matrix rows, found {len(rows)}",
            line=rows[-1][0] if rows else None,
        )
    matrices = []
    it = iter(rows)
    for _ in range(count):
        mat = []
        for _ in range(n):
            line_no, line = next(it)
            cells = _split_entries(line)
            if len(cells) != n:
                raise DimensionMismatch(
                    f"line {line_no}: expected {n} entries, found {len(cells)}"
                )
            mat.append([parse_fraction(cell, line_no, off) for off, cell in cells])
        matrices.append(mat)
    return matrices


def _int_header(header: Dict[str, str], key: str, line_no: int, default=None) -> int:
    raw = header.get(key, default)
    if raw is None:
        raise ParseError(f"header must declare {key}", line=line_no)
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{key} must be an integer", line=line_no)


def parse_matrix_file(text: str) -> ParsedFile:
    """Parse one input document into exactly one domain object."""
    lines = _logical_lines(text)
    if not lines:
        raise ParseError("empty document", line=1)
    header = _parse_header(*lines[0])
    kind = header["kind"]
    header_line = lines[0][0]
    n = _int_header(header, "n", header_line)
    if n < 1:
        raise ParseError("n must be at least 1", line=header_line)
    body = lines[1:]

    if kind == "laurent_matrix":
        if len(body) != n:
            raise ParseError(f"expected {n} rows, found {len(body)}", line=header_line)
        rows = []
        for line_no, line in body:
            cells = _split_entries(line)
            if len(cells) != n:
                raise DimensionMismatch(
                    f"line {line_no}: expected {n} entries, found {len(cells)}"
                )
            rows.append([parse_laurent(cell, line_no, off) for off, cell in cells])
        return ParsedFile(kind, LaurentMatrix(rows), header)

    if kind == "rat_matrix_list":
        count = _int_header(header, "count", header_line, default="1")
        matrices = _parse_rat_rows(body, n, count)
        return ParsedFile(kind, matrices, header)

    if kind == "fuchsian_system":
        if "points" not in header:
            raise ParseError("fuchsian_system header needs points", line=header_line)
        points = [parse_fraction(p) for p in header["points"].split()]
        matrices = _parse_rat_rows(body, n, len(points))
        return ParsedFile(kind, FuchsianSystem.from_data(points, matrices), header)

    if kind == "scalar_ode":
        if len(body) != n:
            raise ParseError(
                f"expected {n} coefficient lines, found {len(body)}", line=header_line
            )
        coeffs = [parse_ratfunc(line, line_no) for line_no, line in body]
        return ParsedFile(kind, ScalarODE.from_coeffs(coeffs), header)

    if kind == "monodromy_rep":
        count = _int_header(header, "count", header_line, default="1")
        matrices = _parse_rat_rows(body, n, count)
        return ParsedFile(kind, MonodromyRep.from_matrices(matrices), header)

    raise ParseError(f"unhandled kind {kind!r}")  # unreachable


# -- emission ------------------------------------------------------------


def _header_line(pairs: Sequence[Tuple[str, str]]) -> str:
    return ", ".join(f"{k} = {v}" for k, v in pairs)


def emit_laurent_matrix(m: LaurentMatrix) -> str:
    lines = [_header_line([("kind", "laurent_matrix"), ("n", str(m.n)),
                           ("format_version", str(FORMAT_VERSION))])]
    for i in range(m.n):
        lines.append(", ".join(str(m[i, j]) for j in range(m.n)))
    return "\n".join(lines) + "\n"


def emit_rat_matrix_list(matrices: Sequence[Sequence[Sequence[Fraction]]]) -> str:
    n = len(matrices[0])
    lines = [_header_line([("kind", "rat_matrix_list"), ("n", str(n)),
                           ("count", str(len(matrices))),
                           ("format_version", str(FORMAT_VERSION))])]
    for mat in matrices:
        for row in mat:
            lines.append(", ".join(str(Fraction(v)) for v in row))
    return "\n".join(lines) + "\n"


def emit_fuchsian_system(system: FuchsianSystem) -> str:
    lines = [_header_line([("kind", "fuchsian_system"), ("n", str(system.size)),
                           ("points", " ".join(str(p) for p in system.points)),
                           ("format_version", str(FORMAT_VERSION))])]
    for mat in system.residues:
        for row in mat:
            lines.append(", ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_scalar_ode(ode: ScalarODE) -> str:
    lines = [_header_line([("kind", "scalar_ode"), ("n", str(ode.order)),
                           ("format_version", str(FORMAT_VERSION))])]
    for c in ode.coeffs:
        lines.append(str(c))
    return "\n".join(lines) + "\n"


def emit_monodromy_rep(rep: MonodromyRep) -> str:
    lines = [_header_line([("kind", "monodromy_rep"), ("n", str(rep.size)),
                           ("count", str(len(rep.matrices))),
                           ("format_version", str(FORMAT_VERSION))])]
    for mat in rep.matrices:
        for row in mat:
            lines.append(", ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def emit(parsed: ParsedFile) -> str:
    if parsed.kind == "laurent_matrix":
        return emit_laurent_matrix(parsed.obj)
    if parsed.kind == "rat_matrix_list":
        return emit_rat_matrix_list(parsed.obj)
    if parsed.kind == "fuchsian_system":
        return emit_fuchsian_system(parsed.obj)
    if parsed.kind == "scalar_ode":
        return emit_scalar_ode(parsed.obj)
    if parsed.kind == "monodromy_rep":
        return emit_monodromy_rep(parsed.obj)
    raise ValueError(f"unknown kind {parsed.kind!r}")


# -- result documents -----------------------------------------------------


def jsonable(value):
    """Recursively convert library values to JSON-safe structures.

    Fractions become strings "p/q" (or "p"); Laurent polynomials and
    rational functions use their canonical text form; booleans, ints and
    None pass through.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (LaurentPoly, RatFunc)):
        return str(value)
    if isinstance(value, Infinity):
        return "oo"
    if isinstance(value, LaurentMatrix):
        return [[str(value[i, j]) for j in range(value.n)] for i in range(value.n)]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def input_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_document(command: str, inputs: Dict[str, str], result, certificate=None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "inputs": {name: input_digest(text) for name, text in inputs.items()},
        "result": jsonable(result),
    }
    if certificate is not None:
        doc["certificate"] = jsonable(certificate)
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_text(doc: dict, prefix: str = "") -> str:
    """Human-readable deterministic key: value rendering."""
    out: List[str] = []

    def walk(value, path: str):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(value[k], f"{path}.{k}" if path else str(k))
        elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
            for i, v in enumerate(value):
                walk(v, f"{path}[{i}]")
        elif isinstance(value, list):
            out.append(f"{path}: [" + ", ".join(str(v) for v in value) + "]")
        else:
            out.append(f"{path}: {value}")

    walk(doc, prefix)
    return "\n".join(out) + "\n"
