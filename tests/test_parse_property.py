"""Differential property test of the entry-expression evaluator.

Random expression trees are rendered to entry text and evaluated
independently with sympy (``oracles.expression_oracle``).  The parser
evaluates in the Laurent ring and lifts to rational functions only when
it must; whatever the route, its values must be the oracle's.

``parse_fraction`` reads numeral cells (``-12/8``) without the grammar;
on numeral-shaped cells and near misses it must give what the grammar
gives, value or error.
"""

import pytest
from hypothesis import example, given, settings
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


def _by_grammar(text, line, col_offset):
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
