"""Input files, expression parsing, and deterministic result documents.

Input files are line oriented: a header line of comma-separated
``key = value`` pairs (``kind`` and ``n`` always; ``count``, ``points``
and ``format_version`` per kind, and no other key), then payload rows
with comma-separated entries.  ``#`` starts a comment; blank lines are
ignored.  A header key appears once.  Integer header values (``n``,
``count``, ``format_version``) are numerals of the entry grammar,
optionally negated, and at least 1; ``format_version`` is 1.  Entries are
arithmetic expressions in the variable x (z is accepted as a synonym)
with integer or fraction coefficients and ``^`` powers, e.g.
``x^-1 + 3/2*x^2``.

Each input kind is one entry of ``_KINDS``: the reader of its payload
rows and its emit layout (n, the header items after n, the payload
rows).  ``parse_matrix_file`` and ``emit`` each dispatch once through
that table.  Emission is canonical, so ``emit(parse_matrix_file(text))``
is a fixed point: emitting the re-parsed document gives the same bytes.

A cell that is a sum of monomial terms, ``NUM [/ NUM] [* x [^ [-] NUM]]``
or ``x [^ [-] NUM]`` with z for x and a sign before every term but the
first, is read by one compiled term regex in front of the grammar
(``_scan_terms``), with whitespace wherever the tokenizer allows it: its
terms add into one term map.  Any other text, a zero denominator and a
numeral past MAX_NUMERAL_DIGITS go to the grammar, which reads the text
with its own values and errors.  A term with both a constant and a power
of x stays the ring product the grammar makes of it, ``c * x^e`` through
``LaurentPoly.__mul__`` (an x^e factor only shifts the constant), so both
routes make the same ring products and the traced count of them
(``laurent.mul_calls`` in ``perfbench``) does not depend on the route.

The grammar reads an entry in one pass: one compiled regex splits it into
ASCII digit runs and single non-space characters, and a sum adds its
Laurent terms into one term map, so parsing is linear in the number of
terms.  Numerals are ASCII digits only, at most MAX_NUMERAL_DIGITS of
them; ``^`` refuses, with WorkBudgetExceeded and before computing, a
power whose size bound exceeds POWER_TERM_BUDGET terms or
POWER_BIT_BUDGET coefficient bits, and a product, a quotient or a sum of
rational functions is refused when two polynomials it would multiply are
past the same size.  Atoms, monomial powers and the sums are built with
the trusted constructor ``laurent._trusted``, whose contract (int
exponents, nonzero Fraction coefficients, a map nobody mutates
afterwards) the parser guarantees by construction.  Two atom rules read
the common shapes of a term inside the cells the scanner does not take,
the rational-function entries of ``scalar_ode`` files above all: a term
that starts ``[-] NUM [/ NUM]`` takes that as one Fraction constant
unless the denominator is zero, a numeral is too long or ``^`` follows
(those fall through to the general rules at the same token), and
``x^[-]NUM`` is one monomial.  A constant cell that is a numeral,
optionally negated, or a quotient of two with a nonzero denominator
(``-12/8``) skips the grammar: ``parse_fraction`` reads it straight into
a Fraction, the value the grammar gives.

Result documents are JSON objects carrying the command echo, a digest of
the input bytes, the result payload and a certificate payload; fractions
are serialized as strings so no consumer ever rounds.  The digest is
SHA-256 from CPython's built-in hash module (``_sha2`` on 3.12+,
``_sha256`` before), as ``random`` takes it: ``hashlib`` would load
OpenSSL's libcrypto, about 3.6 MB of resident memory for one hash of a
few kilobytes.  ``hashlib`` is the fallback on a build without either;
the digest bytes are the same.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from .errors import DimensionMismatch, ParseError, WorkBudgetExceeded, _DomainError, decimal
from .fuchsian import FuchsianSystem, ScalarODE, fuchsian_system, scalar_ode
from .laurent import X, LaurentPoly, _trusted
from .lmatrix import LaurentMatrix
from .monodromy import MonodromyRep, monodromy_rep
from .ratfunc import INF, Infinity, RatFunc

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

FORMAT_VERSION = 1
_HEADER_KEYS = ("kind", "n", "count", "points", "format_version")


# -- expression parsing --------------------------------------------------

# An entry evaluates in the Laurent ring Q[x, x^-1]; it is lifted to Q(x)
# only on division by a non-monomial (or when combined with a value
# already lifted).  Both representations are canonical, so the result is
# the same as evaluating everything in Q(x).
Value = Union[LaurentPoly, RatFunc]

# Longest numeral (run of ASCII digits) an entry may hold, and longest
# exponent of its value: CPython's default limit for int() on a decimal
# string, and for str() on an int.
MAX_NUMERAL_DIGITS = 4300
_EXPONENT_LIMIT = 10**MAX_NUMERAL_DIGITS

# Work budget of ``^``: a power whose result could have more terms than
# POWER_TERM_BUDGET, or a coefficient of more than POWER_BIT_BUDGET bits
# (numerator and denominator together), is refused before it is computed.
POWER_TERM_BUDGET = 512
POWER_BIT_BUDGET = 4096

# One token per ASCII digit run or non-space character; whitespace
# separates tokens and is dropped.
_TOKEN = re.compile(r"[0-9]+|\S")
_DIGITS = "0123456789"
_ONE = Fraction(1)
_HEADER_INT = re.compile(f"-?[0-9]{{1,{MAX_NUMERAL_DIGITS}}}")
# A numeral, optionally negated, or a quotient of two, spaced as the
# tokenizer allows; ``parse_fraction`` reads it without the grammar.
_NUMERAL = f"([0-9]{{1,{MAX_NUMERAL_DIGITS}}})"
_RATIONAL_CELL = re.compile(rf"\s*(-?)\s*{_NUMERAL}\s*(?:/\s*{_NUMERAL}\s*)?")
# One term of a monomial sum with the whitespace around it: a sign, which
# only the first term may omit, then ``NUM [/ NUM] [* x [^ [-] NUM]]`` or
# ``x [^ [-] NUM]``, z for x, with a nonzero denominator.  Groups: the
# whole term, its sign, numerator, denominator, the x after a constant and
# its exponent's sign and digits, then a lone x's exponent sign and digits.
_EXPONENT = rf"(?:\s*\^\s*(-?)\s*{_NUMERAL})?"
_SUM_TERM = re.compile(
    rf"((?:^|(?=\s*[+-]))\s*([+-]?)\s*(?:{_NUMERAL}(?:\s*/\s*(?=[0-9]*[1-9]){_NUMERAL})?"
    rf"(?:\s*\*\s*([xz]){_EXPONENT})?|[xz]{_EXPONENT})\s*)"
)


class _Tokenizer:
    """The tokens of one entry, read left to right, then a None sentinel."""

    __slots__ = ("text", "line", "col_offset", "toks", "pos")

    def __init__(self, text: str, line: int, col_offset: int):
        self.text = text
        self.line = line
        self.col_offset = col_offset
        self.toks: List[Optional[str]] = _TOKEN.findall(text)
        self.toks.append(None)
        self.pos = 0

    def error(self, message: str) -> ParseError:
        """A ParseError at the current token, or at the end of the text."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        at = starts[self.pos] if self.pos < len(starts) else len(self.text)
        return ParseError(message, line=self.line, column=self.col_offset + at + 1)

    def take_int(self) -> int:
        tok = self.toks[self.pos]
        if tok is None or tok[0] not in _DIGITS:
            raise self.error("integer expected")
        if len(tok) > MAX_NUMERAL_DIGITS:
            raise self.error(f"numeral longer than {MAX_NUMERAL_DIGITS} digits")
        self.pos += 1
        return int(tok)


def _divide(num: Value, den: Value) -> Value:
    """num/den, staying in Q[x, x^-1] when den is a nonzero monomial."""
    mono = den.as_monomial() if isinstance(den, LaurentPoly) else None
    if mono is not None and isinstance(num, LaurentPoly):
        c, t = mono
        return num.scale(1 / c).shift(-t)
    _check_product(_sizes(num), _sizes(den)[::-1])  # num's numerator by den's denominator
    return RatFunc._lift(num) / den


def _sizes(value: Value) -> Tuple[int, int]:
    """Term counts of a value's numerator and denominator."""
    if isinstance(value, RatFunc):
        return len(value.num), len(value.den)
    return len(value), 1


def _check_product(left: Tuple[int, int], right: Tuple[int, int]) -> None:
    """Refuse, before it is computed, a product or quotient that multiplies
    polynomials of left[i] by right[i] terms with left[i] * right[i] above
    POWER_TERM_BUDGET^2, the size of the largest product ``^`` admits."""
    (a, b), (c, d) = left, right
    if max(a * c, b * d) > POWER_TERM_BUDGET**2:
        p, q = (a, c) if a * c > b * d else (b, d)
        raise WorkBudgetExceeded(
            f"product of {decimal(p)} by {decimal(q)} terms exceeds the work budget of "
            f"{decimal(POWER_TERM_BUDGET**2)} term pairs"
        )


def _check_sum(left: Value, right: Value) -> None:
    """Refuse, before it is computed, a sum a/b + c/d whose products a*d,
    c*b or b*d exceed the budget of ``_check_product``."""
    (a, b), (c, d) = _sizes(left), _sizes(right)
    _check_product((a, b), (d, d))
    _check_product((c, c), (b, b))


def _check_power(p: LaurentPoly, exp: int) -> None:
    """Refuse p^exp, exp >= 0, when it could exceed the ``^`` budget.

    With p = P/D, P integral with coefficient sum S of absolute values,
    every coefficient of p^exp has a numerator of at most S^exp and a
    denominator of at most D^exp.  When the k exponents of p differ by
    multiples of g, the power has at most exp*(deg p - ord p)/g + 1 terms,
    and at most C(exp + k - 1, k - 1).
    """
    coeffs = p._terms
    k = len(coeffs)
    if not k:
        return
    if k > 1:
        low = min(coeffs)
        step = gcd(*(e - low for e in coeffs))
        terms = exp * ((max(coeffs) - low) // step) + 1
        if POWER_TERM_BUDGET < terms and exp < POWER_TERM_BUDGET:
            terms = min(terms, comb(exp + k - 1, k - 1))
        if terms > POWER_TERM_BUDGET:
            raise WorkBudgetExceeded(
                f"power with up to {decimal(terms)} terms exceeds the work budget of "
                f"{POWER_TERM_BUDGET} terms"
            )
    den = lcm(*(c.denominator for c in coeffs.values()))
    size = sum(abs(c.numerator) * (den // c.denominator) for c in coeffs.values())
    bits = exp * ((size - 1).bit_length() + (den - 1).bit_length())
    if bits > POWER_BIT_BUDGET:
        raise WorkBudgetExceeded(
            f"power with {decimal(bits)}-bit coefficients exceeds the work budget of "
            f"{POWER_BIT_BUDGET} bits"
        )


def _power(base: Value, exp: int) -> Value:
    """base^exp: a monomial takes any integer exponent, another Laurent
    polynomial any exponent >= 0; the rest is computed in Q(x).  The
    ``^`` budget is checked before anything is computed."""
    if isinstance(base, RatFunc):
        _check_power(base.num, abs(exp))
        _check_power(base.den, abs(exp))
        return base**exp
    mono = base.as_monomial()
    if mono is not None:
        c, t = mono
        if c != 1:
            _check_power(base, abs(exp))
            c = c**exp
        return _trusted({t * exp: c})
    _check_power(base, abs(exp))
    return base**exp if exp >= 0 else RatFunc._lift(base) ** exp


def _parse_expression(tok: _Tokenizer) -> Value:
    """A sum of terms.  Laurent terms add into one term map, and the sum
    is lifted to Q(x) only when a term is a rational function."""
    value = _parse_term(tok)
    toks = tok.toks
    sign = toks[tok.pos]
    if sign != "+" and sign != "-":
        return value
    terms: Dict[int, Fraction] = {}
    lifted: Optional[RatFunc] = None
    sign = "+"
    while True:
        if isinstance(value, RatFunc):
            if sign == "-":
                value = -value
            if lifted is not None:
                _check_sum(lifted, value)
                value = lifted + value
            lifted = value
        else:
            for e, c in value._terms.items():
                if sign == "-":
                    c = -c
                old = terms.get(e)
                terms[e] = c if old is None else old + c
        sign = toks[tok.pos]
        if sign != "+" and sign != "-":
            break
        tok.pos += 1
        value = _parse_term(tok)
    total = _trusted({e: c for e, c in terms.items() if c})
    if lifted is None:
        return total
    _check_sum(lifted, total)
    return lifted + total


def _parse_term(tok: _Tokenizer) -> Value:
    value = _parse_constant(tok)
    if value is None:
        value = _parse_factor(tok)
    toks = tok.toks
    while True:
        op = toks[tok.pos]
        if op == "*":
            tok.pos += 1
            factor = _parse_factor(tok)
            _check_product(_sizes(value), _sizes(factor))
            value = value * factor
        elif op == "/":
            tok.pos += 1
            value = _divide(value, _parse_factor(tok))
        else:
            return value


def _parse_constant(tok: _Tokenizer) -> Optional[LaurentPoly]:
    """A leading ``[-] NUM [/ NUM]`` read as one constant, the value the
    grammar gives it.  None, with the position unchanged, when the
    denominator is zero, a numeral is too long or ``^`` follows: the
    grammar then reads those tokens itself, with its own errors."""
    toks = tok.toks
    pos = tok.pos
    minus = toks[pos] == "-"
    num = toks[pos + minus]
    if num is None or num[0] not in _DIGITS or len(num) > MAX_NUMERAL_DIGITS:
        return None
    pos += minus + 1
    den = 1
    if toks[pos] == "/":
        tail = toks[pos + 1]
        if tail is None or tail[0] not in _DIGITS or len(tail) > MAX_NUMERAL_DIGITS:
            return None
        den = int(tail)
        pos += 2
    if not den or toks[pos] == "^":
        return None
    tok.pos = pos
    n = -int(num) if minus else int(num)
    return _trusted({0: Fraction(n, den)} if n else {})


def _parse_factor(tok: _Tokenizer) -> Value:
    op = tok.toks[tok.pos]
    if op == "-":
        tok.pos += 1
        return -_parse_factor(tok)
    if op == "+":
        tok.pos += 1
        return _parse_factor(tok)
    return _parse_power(tok)


def _parse_power(tok: _Tokenizer) -> Value:
    base = _parse_atom(tok)
    toks = tok.toks
    if toks[tok.pos] != "^":
        return base
    tok.pos += 1
    if toks[tok.pos] == "-":
        tok.pos += 1
        exp = -tok.take_int()
    else:
        exp = tok.take_int()
    return _trusted({exp: _ONE}) if base is X else _power(base, exp)


def _parse_atom(tok: _Tokenizer) -> Value:
    c = tok.toks[tok.pos]
    if c is None:
        raise tok.error("unexpected end of expression")
    if c == "(":
        tok.pos += 1
        value = _parse_expression(tok)
        if tok.toks[tok.pos] != ")":
            raise tok.error("')' expected")
        tok.pos += 1
        return value
    if c == "x" or c == "z":
        tok.pos += 1
        return X
    if c[0] in _DIGITS:
        n = tok.take_int()
        return _trusted({0: Fraction(n)} if n else {})
    raise tok.error(f"unexpected character {c!r}")


def _scan_terms(text: str) -> Optional[LaurentPoly]:
    """A cell that is a sum of monomial terms, read with one regex pass and
    the value the grammar gives it; None for any other text, which the
    grammar then reads with its own values and errors.  A constant times a
    power of x stays the ring product the grammar makes of it."""
    found = _SUM_TERM.findall(text)
    if not found or sum(len(term[0]) for term in found) != len(text):
        return None
    terms: Dict[int, Fraction] = {}
    for _, sign, num, den, var, sign_e, exp, lone_sign_e, lone_exp in found:
        if not num:
            term = {int(lone_sign_e + lone_exp) if lone_exp else 1: -_ONE if sign == "-" else _ONE}
        else:
            n = -int(num) if sign == "-" else int(num)
            c = Fraction(n, int(den)) if den else Fraction(n)
            if var:
                power = _trusted({int(sign_e + exp): _ONE}) if exp else X
                term = (_trusted({0: c} if n else {}) * power)._terms
            else:
                term = {0: c}
        for e, c in term.items():
            old = terms.get(e)
            terms[e] = c if old is None else old + c
    return _trusted({e: c for e, c in terms.items() if c})


def _evaluate(text: str, line: int, col_offset: int) -> Value:
    value = _scan_terms(text)
    if value is not None:
        return value
    tok = _Tokenizer(text, line, col_offset)
    try:
        value = _parse_expression(tok)
    except RecursionError:
        raise ParseError(
            "expression nested too deeply", line=line, column=col_offset + 1
        ) from None
    except _DomainError as exc:  # a zero divisor or a refused power: name the cell
        raise type(exc)(exc.message, line=line, column=col_offset + 1) from None
    if tok.toks[tok.pos] is not None:
        raise tok.error("trailing input after expression")
    for p in (value,) if isinstance(value, LaurentPoly) else (value.num, value.den):
        if any(abs(e) >= _EXPONENT_LIMIT for e in p._terms):
            raise ParseError(f"exponent longer than {MAX_NUMERAL_DIGITS} digits",
                             line=line, column=col_offset + 1)
    return value


def _as_laurent(value: Value) -> Optional[LaurentPoly]:
    return value.as_laurent() if isinstance(value, RatFunc) else value


def parse_ratfunc(text: str, line: int = 1, col_offset: int = 0) -> RatFunc:
    return RatFunc._lift(_evaluate(text, line, col_offset))


def parse_laurent(text: str, line: int = 1, col_offset: int = 0) -> LaurentPoly:
    value = _as_laurent(_evaluate(text, line, col_offset))
    if value is None:
        raise ParseError(
            "entry is a rational function, not a Laurent polynomial",
            line=line, column=col_offset + 1,
        )
    return value


def parse_fraction(text: str, line: int = 1, col_offset: int = 0) -> Fraction:
    """A constant rational entry.  Every text but a numeral cell with a
    nonzero denominator, ``1/0`` included, goes through the grammar."""
    cell = _RATIONAL_CELL.fullmatch(text)
    if cell is not None:
        minus, num, den = cell.groups()
        den = int(den) if den else 1
        if den:
            return Fraction(-int(num) if minus else int(num), den)
    value = _as_laurent(_evaluate(text, line, col_offset))
    if value is None or value != value.coeff(0):
        raise ParseError("constant rational expected", line=line, column=col_offset + 1)
    return value.coeff(0)


def _rational_point(text: str, line: Optional[int] = None) -> Fraction:
    """A rational point.  Its text is not a cell of its own line, so an
    error names the point, at ``line`` and no column."""
    try:
        return parse_fraction(text)
    except (ParseError, _DomainError) as exc:
        raise type(exc)(f"point {text.strip()!r}: {exc.message}", line=line) from None


def parse_point(text: str) -> Union[Fraction, Infinity]:
    stripped = text.strip().lower()
    if stripped in ("oo", "inf", "infinity"):
        return INF
    return _rational_point(text)


# -- input files ---------------------------------------------------------


DomainObject = Union[LaurentMatrix, List, FuchsianSystem, ScalarODE, MonodromyRep]
Header = Dict[str, str]
Rows = List[Tuple[int, str]]  # (line number, text) of nonblank lines, comments cut


class ParsedFile(NamedTuple):
    kind: str
    obj: DomainObject


def _logical_lines(text: str) -> Rows:
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            lines.append((i, body))
    return lines


def _parse_header(line_no: int, line: str) -> Header:
    header: Header = {}
    for chunk in line.split(","):
        if "=" not in chunk:
            raise ParseError("header items must be 'key = value'", line=line_no)
        key, value = chunk.split("=", 1)
        key = key.strip()
        if key not in _HEADER_KEYS:
            raise ParseError(f"unknown header key {key!r}", line=line_no)
        if key in header:
            raise ParseError(f"header repeats {key}", line=line_no)
        header[key] = value.strip()
    if "kind" not in header:
        raise ParseError("header must declare a kind", line=line_no)
    if header["kind"] not in _KINDS:
        raise ParseError(f"unknown kind {header['kind']!r}", line=line_no)
    if _int_header(header, "format_version", line_no, default="1") != FORMAT_VERSION:
        raise ParseError(f"format_version must be {FORMAT_VERSION}", line=line_no)
    return header


def _int_header(header: Header, key: str, line_no: int, default=None) -> int:
    """An integer header value, an optionally signed numeral of the entry
    grammar; every one (n, count, format_version) is at least 1."""
    raw = header.get(key, default)
    if raw is None:
        raise ParseError(f"header must declare {key}", line=line_no)
    if not _HEADER_INT.fullmatch(raw):
        raise ParseError(f"{key} must be an integer", line=line_no)
    value = int(raw)
    if value < 1:
        raise ParseError(f"{key} must be at least 1", line=line_no)
    return value


def _parse_rows(rows: Rows, n: int, parse_cell: Callable) -> List[list]:
    """The n comma-separated cells of each row, each parsed with its line
    number and column offset."""
    out = []
    for line_no, line in rows:
        cells = line.split(",")
        if len(cells) != n:
            raise DimensionMismatch(f"line {line_no}: expected {n} entries, found {len(cells)}")
        row, offset = [], 0
        for cell in cells:
            row.append(parse_cell(cell, line_no, offset))
            offset += len(cell) + 1
        out.append(row)
    return out


def _parse_rat_rows(rows: Rows, n: int, count: int) -> List[List[List[Fraction]]]:
    if len(rows) != count * n:
        raise ParseError(f"expected {count * n} matrix rows, found {len(rows)}",
                         line=rows[-1][0] if rows else None)
    cells = _parse_rows(rows, n, parse_fraction)
    return [cells[i:i + n] for i in range(0, len(cells), n)]


def _read_laurent_matrix(header: Header, line_no: int, n: int, body: Rows) -> LaurentMatrix:
    if len(body) != n:
        raise ParseError(f"expected {n} rows, found {len(body)}", line=line_no)
    return LaurentMatrix(_parse_rows(body, n, parse_laurent))


def _read_rat_matrix_list(header: Header, line_no: int, n: int, body: Rows) -> List:
    return _parse_rat_rows(body, n, _int_header(header, "count", line_no, default="1"))


def _read_fuchsian_system(header: Header, line_no: int, n: int, body: Rows) -> FuchsianSystem:
    if "points" not in header:
        raise ParseError("fuchsian_system header needs points", line=line_no)
    points = [_rational_point(p, line_no) for p in header["points"].split()]
    return fuchsian_system(points, _parse_rat_rows(body, n, len(points)))


def _read_scalar_ode(header: Header, line_no: int, n: int, body: Rows) -> ScalarODE:
    if len(body) != n:
        raise ParseError(f"expected {n} coefficient lines, found {len(body)}", line=line_no)
    return scalar_ode([parse_ratfunc(line, i) for i, line in body])


def _read_monodromy_rep(header: Header, line_no: int, n: int, body: Rows) -> MonodromyRep:
    return monodromy_rep(_read_rat_matrix_list(header, line_no, n, body))


def _matrix_rows(matrices) -> List[str]:
    return [", ".join(str(Fraction(v)) for v in row) for mat in matrices for row in mat]


class _Kind(NamedTuple):
    """One input kind: how its payload is read, and how it is laid out again."""

    # (header, header line number, n, payload rows) -> domain object
    read: Callable[[Header, int, int, Rows], DomainObject]
    # domain object -> (n, header items after n, payload rows)
    layout: Callable[[DomainObject], Tuple[int, tuple, List[str]]]


_KINDS = {
    "laurent_matrix": _Kind(_read_laurent_matrix, lambda m: (
        m.n, (), [", ".join(str(v) for v in row) for row in m.entries])),
    "rat_matrix_list": _Kind(_read_rat_matrix_list, lambda mats: (
        len(mats[0]), (("count", len(mats)),), _matrix_rows(mats))),
    "fuchsian_system": _Kind(_read_fuchsian_system, lambda s: (
        s.size, (("points", " ".join(str(p) for p in s.points)),), _matrix_rows(s.residues))),
    "scalar_ode": _Kind(_read_scalar_ode, lambda ode: (
        ode.order, (), [str(c) for c in ode.coeffs])),
    "monodromy_rep": _Kind(_read_monodromy_rep, lambda rep: (
        rep.size, (("count", len(rep.matrices)),), _matrix_rows(rep.matrices))),
}


def parse_matrix_file(text: str) -> ParsedFile:
    """Parse one input document into exactly one domain object."""
    lines = _logical_lines(text)
    if not lines:
        raise ParseError("empty document", line=1)
    line_no = lines[0][0]
    header = _parse_header(line_no, lines[0][1])
    kind = header["kind"]
    n = _int_header(header, "n", line_no)
    return ParsedFile(kind, _KINDS[kind].read(header, line_no, n, lines[1:]))


def emit(parsed: ParsedFile) -> str:
    """The canonical document of a parsed file."""
    n, extra, rows = _KINDS[parsed.kind].layout(parsed.obj)
    items = [("kind", parsed.kind), ("n", n), *extra, ("format_version", FORMAT_VERSION)]
    return "\n".join([", ".join(f"{k} = {v}" for k, v in items), *rows]) + "\n"


# -- result documents -----------------------------------------------------


def jsonable(value):
    """Recursively convert library values to JSON-safe structures.

    Fractions become strings "p/q" (or "p"); Laurent polynomials and
    rational functions use their canonical text form; booleans, ints and
    None pass through.  An integer past the digit limit of str() is
    refused with WorkBudgetExceeded.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        _text(value)
        return value
    if isinstance(value, (Fraction, LaurentPoly, RatFunc)):
        return _text(value)
    if isinstance(value, Infinity):
        return "oo"
    if isinstance(value, LaurentMatrix):
        return jsonable(value.entries)
    if isinstance(value, dict):
        return {_text(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _text(value) -> str:
    try:
        return str(value)
    except ValueError:  # an integer past the digit limit of str()
        raise WorkBudgetExceeded("result holds an integer too long to render "
                                 f"(over {MAX_NUMERAL_DIGITS} digits)") from None


def result_document(command: str, inputs: Dict[str, str], result, certificate=None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "inputs": {name: "sha256:" + sha256(text.encode("utf-8")).hexdigest()
                   for name, text in inputs.items()},
        "result": jsonable(result),
    }
    if certificate is not None:
        doc["certificate"] = jsonable(certificate)
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_text(doc: dict) -> str:
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

    walk(doc, "")
    return "\n".join(out) + "\n"
