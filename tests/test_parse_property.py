"""Differential property test of the entry-expression evaluator.

Random expression trees are rendered to entry text and evaluated
independently with sympy (``oracles.expression_oracle``).  The parser
evaluates in the Laurent ring and lifts to rational functions only when
it must; whatever the route, its values must be the oracle's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit.errors import NotInvertible, ParseError
from bgsplit.io import parse_laurent, parse_ratfunc

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

