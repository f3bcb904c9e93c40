"""Differential property test of the entry-expression evaluator.

Random expression trees are rendered to entry text and evaluated
independently with sympy (``oracles.expression_oracle``).  The parser
evaluates in the Laurent ring and lifts to rational functions only when
it must; whatever the route, its values must be the oracle's.

``parse_fraction`` reads numeral cells (``-12/8``) without the grammar;
on numeral-shaped cells and near misses it must give what the grammar
gives, value or error.  Inside the grammar, a term's leading constant
and ``x^k`` are read directly; monomial-shaped cells must agree with the
oracle, and their near misses must give the errors recorded below.  A
monomial sum is read by a term scanner in front of the grammar; every
cell must read as it does with the scanner off.
"""

import re
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bgsplit import io
from bgsplit.errors import BGSplitError, NotInvertible, ParseError
from bgsplit.io import parse_fraction, parse_laurent, parse_ratfunc

from oracles import expression_oracle

# Binding strength of each node kind in the entry grammar: a sum, a
# product, a signed factor, a power, an atom.
LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pos": 3, "^": 4}

leaves = st.one_of(
    st.sampled_from([("x",), ("z",)]),
    st.integers(0, 4).map(lambda n: ("int", n)),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.tuples(st.sampled_from(["neg", "pos", "paren"]), children),
        st.tuples(st.just("^"), children, st.integers(-3, 3)),
    )


trees = st.recursive(leaves, _extend, max_leaves=8)


def render(node, need=1):
    """Entry text of a tree, parenthesized only where the grammar needs it
    (plus wherever the tree has an explicit ``paren`` node)."""
    kind = node[0]
    if kind in ("x", "z"):
        return kind
    if kind == "int":
        return str(node[1])
    if kind == "paren":
        return "(" + render(node[1]) + ")"
    level = LEVEL[kind]
    if kind in ("neg", "pos"):
        text = ("-" if kind == "neg" else "+") + render(node[1], 3)
    elif kind == "^":
        text = render(node[1], 5) + "^" + str(node[2])
    elif level == 1:
        text = render(node[1], 1) + f" {kind} " + render(node[2], 2)
    else:
        text = render(node[1], 2) + kind + render(node[2], 3)
    return text if level >= need else "(" + text + ")"


@settings(max_examples=300, deadline=None)
@given(trees)
def test_parser_agrees_with_sympy(tree):
    text = render(tree)
    try:
        num, den = expression_oracle(tree)
    except ZeroDivisionError:
        with pytest.raises(NotInvertible):
            parse_ratfunc(text)
        with pytest.raises(NotInvertible):
            parse_laurent(text)
        return

    value = parse_ratfunc(text)
    assert (value.num.terms, value.den.terms) == (num, den), text

    if len(den) == 1:
        (shift, _), = den.items()
        assert parse_laurent(text).terms == {e - shift: c for e, c in num.items()}, text
    else:
        with pytest.raises(ParseError):
            parse_laurent(text)



# Pieces of numeral cells and of near misses: numerals (up to and past
# the digit limit, with leading zeros, and a non-ASCII digit), signs, a
# slash, other grammar tokens, and ASCII and Unicode whitespace.
_pieces = st.one_of(
    st.integers(0, 10**12).map(str),
    st.sampled_from(["0", "000", "007", "7" * 4300, "7" * 4301, "\u0663"]),
    st.sampled_from(["-", "-", "/", "/", "+", "*", "x", "(", ")", "."]),
    st.text(alphabet=" \t\u00a0\u2003\u3000", min_size=1, max_size=2),
)
_spaces = st.sampled_from(["", " ", "\t", "\u00a0", "\u2003"])
_numeral_cells = st.builds(
    "{}{}{}{}{}{}".format, _spaces, st.sampled_from(["", "-"]), _spaces,
    st.integers(0, 10**30).map(str), _spaces,
    st.one_of(st.just(""),
              st.builds("/{}{}{}".format, _spaces, st.integers(0, 99).map(str), _spaces)),
)


def _scanner_off():
    """The entry grammar alone: ``io._scan_terms`` passes every cell on."""
    return mock.patch.object(io, "_scan_terms", lambda text: None)


def _by_grammar(text, line, col_offset):
    with _scanner_off():
        value = io._as_laurent(io._evaluate(text, line, col_offset))
    if value is None or value != value.coeff(0):
        raise ParseError("constant rational expected", line=line, column=col_offset + 1)
    return value.coeff(0)


def _outcome(read, text, line, col_offset):
    try:
        value = read(text, line, col_offset)
    except BGSplitError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return type(value), value


@settings(max_examples=400, deadline=None)
@given(st.one_of(_numeral_cells, st.lists(_pieces, max_size=6).map("".join)),
       st.integers(1, 9), st.integers(0, 40))
@example("1/0", 1, 0)
@example("0/000", 2, 5)
@example("-0", 1, 0)
@example(" - 12 / 8 ", 3, 7)
@example("+3", 1, 0)
@example("3 4", 1, 0)
@example("--3", 1, 0)
@example("3/-7", 1, 0)
@example("\t-5\t/\t10\t", 1, 0)
@example("\u00a0\u20033\u3000/\u20024", 1, 0)
@example("\u0663", 4, 2)
@example("1/\u0663", 4, 2)
@example("7" * 4300, 1, 0)
@example("-" + "7" * 4300 + "/" + "9" * 4300, 1, 0)
@example("7" * 4301, 1, 0)
@example("1/" + "7" * 4301, 5, 3)
def test_numeral_cells_read_as_the_grammar_reads_them(text, line, col_offset):
    want = _outcome(_by_grammar, text, line, col_offset)
    assert _outcome(parse_fraction, text, line, col_offset) == want, repr(text)



# Monomial-shaped cells: sums of terms c*x^k with c a numeral, optionally
# negated or over a second numeral, and the near misses of those shapes: a
# numeral under ``^``, a quotient by a power, a chained quotient, x over
# numerals.  The parser reads ``[-] NUM [/ NUM]`` and ``x^[-]NUM`` without
# the general rules; every such cell must read as the grammar reads it.
def monomial_sums(low):
    """Trees of monomial-shaped cells with numerals of at least ``low``;
    a 4,300-digit numeral stands only where no power or budget applies."""
    small = st.integers(low, 40).map(lambda n: ("int", n))
    numerals = st.one_of(small, st.just(("int", int("7" * 4300))))
    numeral_powers = st.tuples(st.just("^"), small, st.integers(0, 3))
    quotients = st.recursive(
        st.one_of(numerals, numerals.map(lambda n: ("neg", n)), numeral_powers),
        lambda q: st.tuples(st.just("/"), q, st.one_of(numerals, numeral_powers)),
        max_leaves=3,
    )
    powers = st.one_of(
        st.sampled_from([("x",), ("z",)]),
        st.tuples(st.just("^"), st.sampled_from([("x",), ("z",)]), st.integers(-12, 12)),
    )
    terms = st.one_of(
        quotients, powers, powers.map(lambda p: ("neg", p)),
        st.tuples(st.just("*"), quotients, powers),
        st.tuples(st.just("/"), powers, numerals),
    )
    return st.recursive(terms, lambda s: st.tuples(st.sampled_from(["+", "-"]), s, terms),
                        max_leaves=5)


_separators = st.lists(st.sampled_from(["", "", " ", "\t"]), min_size=1, max_size=4)
_ZERO_DIVISION = (NotInvertible, "division by the zero rational function (line 1, column 1)",
                  1, 1)


def _spaced(text, separators):
    """text with its tokens rejoined by the separators, cyclically."""
    tokens = io._TOKEN.findall(text)
    return tokens[0] + "".join(separators[i % len(separators)] + tok
                               for i, tok in enumerate(tokens[1:]))


def _agrees_with_oracle(text, tree):
    try:
        num, den = expression_oracle(tree)
    except ZeroDivisionError:
        for read in (parse_laurent, parse_ratfunc):
            assert _outcome(read, text, 1, 0) == _ZERO_DIVISION, text
        return
    value = parse_ratfunc(text)
    assert (value.num.terms, value.den.terms) == (num, den), text
    (shift, _), = den.items()  # monomial cells have monomial denominators
    assert parse_laurent(text).terms == {e - shift: c for e, c in num.items()}, text


@settings(max_examples=300, deadline=None)
@given(monomial_sums(0), _separators)
@example(("neg", ("^", ("int", 3), 2)), [""])                    # -3^2
@example(("/", ("int", 3), ("^", ("int", 4), 2)), [""])          # 3/4^2
@example(("/", ("/", ("int", 2), ("int", 3)), ("int", 4)), [""])  # 2/3/4
@example(("/", ("/", ("x",), ("int", 3)), ("int", 4)), [""])      # x/3/4
@example(("*", ("/", ("int", 3), ("int", 0)), ("x",)), [""])      # 3/0*x
@example(("-", ("^", ("x",), 2), ("neg", ("int", 3))), [" "])    # x^2 - -3
def test_monomial_cells_agree_with_sympy(tree, separators):
    _agrees_with_oracle(_spaced(render(tree), separators), tree)


@st.composite
def long_numeral_cells(draw):
    """A monomial cell with one numeral swapped for 4,301 digits, and the
    error that numeral gives where it stands: with every numeral at least
    1, nothing before it fails first."""
    text = _spaced(render(draw(monomial_sums(1))), draw(_separators))
    slots = [m.span() for m in re.finditer("[0-9]+", text)]
    assume(slots)
    start, end = draw(st.sampled_from(slots))
    line, col_offset = draw(st.integers(1, 9)), draw(st.integers(0, 40))
    column = col_offset + start + 1
    return (text[:start] + "7" * 4301 + text[end:], line, col_offset,
            (ParseError, f"numeral longer than 4300 digits (line {line}, column {column})",
             line, column))


_LONG = "7" * 4301


# Near misses, each with what the parser gave before the direct atom rules:
# the oracle's tree for a value, or (type, message, line, column).
@settings(max_examples=150, deadline=None)
@given(long_numeral_cells())
@example(("x^-0", 1, 0, ("^", ("x",), 0)))
@example(("x^-00", 1, 0, ("^", ("x",), 0)))
@example(("-0/5*x", 1, 0, ("*", ("/", ("neg", ("int", 0)), ("int", 5)), ("x",))))
@example(("3/-4*x", 1, 0, ("*", ("/", ("int", 3), ("neg", ("int", 4))), ("x",))))
@example(("--3*x", 1, 0, ("*", ("neg", ("neg", ("int", 3))), ("x",))))
@example(("- 3 / 4 * x ^ - 2", 1, 0,
          ("*", ("/", ("neg", ("int", 3)), ("int", 4)), ("^", ("x",), -2))))
@example(("3^-1", 1, 0, ("^", ("int", 3), -1)))
@example(("2^3/4*x", 1, 0, ("*", ("/", ("^", ("int", 2), 3), ("int", 4)), ("x",))))
@example(("0^-1", 1, 0, _ZERO_DIVISION))
@example(("3/0^2", 1, 0, _ZERO_DIVISION))
@example(("3/00", 1, 0, _ZERO_DIVISION))
@example(("3/4x", 3, 5, (ParseError, "trailing input after expression (line 3, column 9)", 3, 9)))
@example(("x^+3", 1, 0, (ParseError, "integer expected (line 1, column 3)", 1, 3)))
@example(("x^2^3", 2, 0, (ParseError, "trailing input after expression (line 2, column 4)", 2, 4)))
@example(("x^2x", 1, 0, (ParseError, "trailing input after expression (line 1, column 4)", 1, 4)))
@example(("3 x", 1, 0, (ParseError, "trailing input after expression (line 1, column 3)", 1, 3)))
@example(("x^", 1, 4, (ParseError, "integer expected (line 1, column 7)", 1, 7)))
@example(("x^-", 1, 0, (ParseError, "integer expected (line 1, column 4)", 1, 4)))
@example(("x^-x", 1, 0, (ParseError, "integer expected (line 1, column 4)", 1, 4)))
@example((_LONG + "*x", 4, 2,
          (ParseError, "numeral longer than 4300 digits (line 4, column 3)", 4, 3)))
@example(("-" + _LONG + "/4*x", 1, 0,
          (ParseError, "numeral longer than 4300 digits (line 1, column 2)", 1, 2)))
@example(("3/" + _LONG + "*x", 1, 0,
          (ParseError, "numeral longer than 4300 digits (line 1, column 3)", 1, 3)))
@example(("- 3 / " + _LONG, 1, 0,
          (ParseError, "numeral longer than 4300 digits (line 1, column 7)", 1, 7)))
@example(("-3/4*x^" + _LONG, 1, 0,
          (ParseError, "numeral longer than 4300 digits (line 1, column 8)", 1, 8)))
@example(("x^-" + _LONG, 2, 6,
          (ParseError, "numeral longer than 4300 digits (line 2, column 10)", 2, 10)))
@example(("z^" + _LONG + " + 1", 1, 0,
          (ParseError, "numeral longer than 4300 digits (line 1, column 3)", 1, 3)))
@example(("3^" + _LONG, 1, 0,
          (ParseError, "numeral longer than 4300 digits (line 1, column 3)", 1, 3)))
@example(("3/" + _LONG + "^2", 2, 1,
          (ParseError, "numeral longer than 4300 digits (line 2, column 4)", 2, 4)))
@example(("x/" + _LONG, 1, 0,
          (ParseError, "numeral longer than 4300 digits (line 1, column 3)", 1, 3)))
@example(("1 - " + _LONG + "/2*x", 1, 0,
          (ParseError, "numeral longer than 4300 digits (line 1, column 5)", 1, 5)))
@example(("3/4 + x^-" + _LONG, 5, 9,
          (ParseError, "numeral longer than 4300 digits (line 5, column 19)", 5, 19)))
@example(("x + 3/4*z^-1 - 5/" + _LONG, 1, 0,
          (ParseError, "numeral longer than 4300 digits (line 1, column 18)", 1, 18)))
@example(("x^" + "9" * 4300 + "*x^" + "9" * 4300, 1, 0,
          (ParseError, "exponent longer than 4300 digits (line 1, column 1)", 1, 1)))
def test_monomial_near_misses_read_as_before(cell):
    text, line, col_offset, want = cell
    if isinstance(want[0], str):
        _agrees_with_oracle(text, want)
        return
    for read in (parse_laurent, parse_ratfunc):
        assert _outcome(read, text, line, col_offset) == want, text[:40]



# Monomial-sum cells, which ``io._scan_terms`` reads with one regex pass in
# front of the grammar, and their near misses: a spliced token breaks the
# shape, and the grammar must then read the cell with its own values and
# errors.  The oracle is the same call with the scanner off.
_gaps = st.sampled_from(["", "", " ", "\t", "  ", "\u00a0"])
_numerals = st.one_of(st.integers(0, 12).map(str), st.sampled_from(["000", "007", "30"]))
_splices = st.sampled_from(["^", "*", "/", "(", ")", "x", "3", "-", "+", "^2", "/0", _LONG])


@st.composite
def monomial_sum_cells(draw):
    """Canonical sums of ``[+-] NUM [/ NUM] [* x [^ [-] NUM]]`` and
    ``[+-] x [^ [-] NUM]`` terms with random spacing, z for x, zero
    coefficients and repeated or cancelling exponents, now and then with
    one token spliced in."""
    tokens = []
    for i in range(draw(st.integers(1, 6))):
        sign = draw(st.sampled_from(["", "", "-", "+"] if i == 0 else ["-", "+"]))
        tokens += [sign] if sign else []
        constant = draw(st.booleans())
        if constant:
            tokens.append(draw(_numerals))
            if draw(st.booleans()):
                tokens += ["/", draw(st.one_of(_numerals, st.just("0")))]
        if not constant or draw(st.booleans()):
            tokens += ["*"] if constant else []
            tokens.append(draw(st.sampled_from("xxz")))
            if draw(st.booleans()):
                exp = draw(st.integers(-3, 3))
                tokens += ["^", "-", str(-exp)] if exp < 0 else ["^", str(exp)]
    if draw(st.integers(0, 3)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_splices))
    return draw(_gaps) + "".join(tok + draw(_gaps) for tok in tokens)


@settings(max_examples=400, deadline=None)
@given(monomial_sum_cells(), st.integers(1, 9), st.integers(0, 40))
@example("-3^2", 1, 0)
@example("3/4x", 3, 5)
@example("x^2^3", 2, 0)
@example("x^+3", 1, 0)
@example("--3", 1, 0)
@example("3 4", 1, 0)
@example("1/0", 1, 0)
@example("+ -3", 1, 0)
@example("3*x*2", 1, 0)
@example("", 4, 7)
@example("- 3 / 4 * x ^ - 2 + z^3 - x", 1, 0)
@example(_LONG + "*x + 1", 1, 0)
@example("1 - 3/" + _LONG + "*x", 2, 3)
@example("3*x^" + _LONG, 1, 0)
@example("x - z^-" + _LONG, 1, 4)
def test_term_scanner_reads_as_the_grammar_reads(text, line, col_offset):
    for read in (parse_laurent, parse_ratfunc, parse_fraction):
        with _scanner_off():
            want = _outcome(read, text, line, col_offset)
        assert _outcome(read, text, line, col_offset) == want, repr(text[:60])
