import hashlib
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgsplit.errors import DimensionMismatch, ParseError
from bgsplit.fuchsian import INF, FuchsianSystem, ScalarODE
from bgsplit.io import (
    ParsedFile,
    emit,
    jsonable,
    parse_fraction,
    parse_laurent,
    parse_matrix_file,
    parse_point,
    parse_ratfunc,
    render_json,
    render_text,
    result_document,
)
from bgsplit.laurent import LaurentPoly, lp
from bgsplit.lmatrix import LaurentMatrix
from bgsplit.monodromy import COUNTEREXAMPLE_MATRICES, monodromy_rep
from bgsplit.ratfunc import RatFunc

F = Fraction


def test_entry_grammar_worked_example():
    assert parse_laurent("x^-1 + 3/2*x^2") == lp({-1: 1, 2: F(3, 2)})
    assert parse_laurent("-x + 2") == lp({1: -1, 0: 2})
    assert parse_laurent("0") == LaurentPoly.zero()
    assert parse_laurent("(1 + x)*(1 - x)") == lp({0: 1, 2: -1})
    assert parse_laurent("z^2") == lp({2: 1})


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_laurent("x^")
    assert err.value.line == 1 and err.value.column is not None
    with pytest.raises(ParseError):
        parse_laurent("3 +")
    with pytest.raises(ParseError):
        parse_laurent("x x")
    with pytest.raises(ParseError):
        parse_laurent("(1 + x")
    with pytest.raises(ParseError):
        parse_laurent("y + 1")
    # rational function in a Laurent slot
    with pytest.raises(ParseError):
        parse_laurent("1/(x - 1)")


def test_parse_ratfunc_and_fraction():
    f = parse_ratfunc("(x + 1)/(x^2 - x)")
    assert f == RatFunc(lp({1: 1, 0: 1}), lp({2: 1, 1: -1}))
    assert parse_fraction("-3/4") == F(-3, 4)
    with pytest.raises(ParseError):
        parse_fraction("x + 1")
    assert parse_point("oo") is INF
    assert parse_point("1/2") == F(1, 2)


def test_identity_document():
    text = "kind = laurent_matrix, n = 2\n1, 0\n0, 1\n"
    parsed = parse_matrix_file(text)
    assert parsed.kind == "laurent_matrix"
    assert parsed.obj == LaurentMatrix.identity(2)


def test_round_trip_byte_identity_all_kinds():
    docs = []
    m = LaurentMatrix([[lp({1: 1, -1: F(1, 2)}), 1], [0, lp({-1: 1})]])
    docs.append(emit(ParsedFile("laurent_matrix", m)))
    docs.append(
        "kind = rat_matrix_list, n = 2, count = 2, format_version = 1\n"
        "1, 1/2\n0, 1\n-1, 0\n2/3, 1\n"
    )
    docs.append(
        "kind = fuchsian_system, n = 2, points = 0 1 -1/2, format_version = 1\n"
        + "\n".join(["1, 0", "0, 0", "-1, 0", "0, 0", "0, 0", "0, 1"]) + "\n"
    )
    docs.append(
        "kind = scalar_ode, n = 2, format_version = 1\n"
        "(31/21*x - 1/2)/(-x + x^2)\n(1/21)/(-x + x^2)\n"
    )
    rep = monodromy_rep(COUNTEREXAMPLE_MATRICES)
    docs.append(emit(ParsedFile("monodromy_rep", rep)))
    for text in docs:
        first = emit(parse_matrix_file(text))
        second = emit(parse_matrix_file(first))
        assert first == second


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        parse_matrix_file("kind = laurent_matrix, n = 2\n1, 0, 0\n0, 1\n")
    with pytest.raises(ParseError):
        parse_matrix_file("kind = laurent_matrix, n = 2\n1, 0\n")


def test_header_validation():
    with pytest.raises(ParseError):
        parse_matrix_file("kind = mystery, n = 2\n1, 0\n0, 1\n")
    with pytest.raises(ParseError):
        parse_matrix_file("n = 2\n1, 0\n0, 1\n")
    with pytest.raises(ParseError):
        parse_matrix_file("kind = laurent_matrix\n1\n")
    with pytest.raises(ParseError):
        parse_matrix_file("")
    with pytest.raises(ParseError):
        parse_matrix_file("kind = fuchsian_system, n = 1\n1\n")


@pytest.mark.parametrize("value", ["\u0661", "0_1", "+1", "1.0", "0x1", " ", "1 2", "1" * 4301])
def test_header_integer_is_an_ascii_numeral(value):
    # int() reads Arabic-Indic digits, underscores and a plus sign; the
    # header reads what an entry numeral is, optionally negated
    text = f"kind = laurent_matrix, n = {value}\n1\n"
    with pytest.raises(ParseError, match="^n must be an integer"):
        parse_matrix_file(text)
    text = f"kind = rat_matrix_list, n = 1, count = {value}\n1\n"
    with pytest.raises(ParseError, match="^count must be an integer"):
        parse_matrix_file(text)


@pytest.mark.parametrize("value", ["0", "-1", "-0", "-" + "9" * 4300])
def test_header_integer_below_one_keeps_its_message(value):
    with pytest.raises(ParseError, match="^n must be at least 1"):
        parse_matrix_file(f"kind = laurent_matrix, n = {value}\n1\n")


def test_header_integer_of_the_longest_numeral_is_read():
    # 4300 digits is the numeral limit; such an n then fails on the row count
    with pytest.raises(ParseError, match="^expected 1" + "0" * 4299 + " rows"):
        parse_matrix_file("kind = laurent_matrix, n = 1" + "0" * 4299 + "\n1\n")
    assert parse_matrix_file("kind = laurent_matrix, n = 0001\nx\n").obj.n == 1


@pytest.mark.parametrize("header, key", [
    ("kind = laurent_matrix, n = 1, n = 2", "n"),
    ("kind = laurent_matrix, n = 1, n = 1", "n"),
    ("kind = laurent_matrix, kind = scalar_ode, n = 1", "kind"),
    ("kind = rat_matrix_list, n = 1, count = 1, count = 2", "count"),
    ("kind = laurent_matrix, n = 1, format_version = 1 , format_version = 1", "format_version"),
])
def test_repeated_header_key_is_a_parse_error(header, key):
    with pytest.raises(ParseError, match=f"^header repeats {key} \\(line 1\\)$"):
        parse_matrix_file(header + "\n1\n")


@pytest.mark.parametrize("header, message", [
    ("kind = laurent_matrix, n = 1, format_version = 7, colour = blue",
     "unknown header key 'colour'"),
    ("kind = laurent_matrix, n = 1, Kind = laurent_matrix", "unknown header key 'Kind'"),
    ("kind = laurent_matrix, n = 1, = 1", "unknown header key ''"),
    ("kind = laurent_matrix, n = 1, format_version = 7", "format_version must be 1"),
    ("kind = laurent_matrix, n = 1, format_version = 2", "format_version must be 1"),
    ("kind = laurent_matrix, n = 1, format_version = 0", "format_version must be at least 1"),
    ("kind = laurent_matrix, n = 1, format_version = 1.0", "format_version must be an integer"),
    ("kind = laurent_matrix, n = 1, format_version = +1", "format_version must be an integer"),
])
def test_header_key_outside_the_grammar_is_a_parse_error(header, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)} \\(line 1\\)$"):
        parse_matrix_file(header + "\nx\n")


@pytest.mark.parametrize("version", ["1", "01", "0001"])
def test_every_header_key_of_the_grammar_is_read(version):
    # count and points are accepted on any kind; format_version is a numeral
    doc = parse_matrix_file("kind = laurent_matrix, n = 1, count = 1, points = 0, "
                            f"format_version = {version}\nx\n")
    assert doc.obj.n == 1
    doc = parse_matrix_file(f"kind = scalar_ode, n = 1, points = 0 1, format_version = {version}"
                            "\nx\n")
    assert doc.obj.order == 1


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nkind = laurent_matrix, n = 1  # trailing\n\nx^2  # entry\n"
    parsed = parse_matrix_file(text)
    assert parsed.obj == LaurentMatrix([[lp({2: 1})]])


def test_parsed_kinds_build_domain_objects():
    sys_text = "kind = fuchsian_system, n = 1, points = 0 2\n3\n-3\n"
    system = parse_matrix_file(sys_text).obj
    assert isinstance(system, FuchsianSystem)
    assert system.points == (F(0), F(2))
    assert system.residues[0] == ((F(3),),)

    ode_text = "kind = scalar_ode, n = 1\n1/x\n"
    ode = parse_matrix_file(ode_text).obj
    assert isinstance(ode, ScalarODE)
    assert ode.coeffs[0] == RatFunc(lp({0: 1}), lp({1: 1}))


def test_jsonable_and_renderers():
    doc = {
        "fraction": F(3, 2),
        "poly": lp({-1: 1}),
        "nested": {"flag": True, "values": [F(1, 3), 2]},
        "inf": INF,
    }
    data = jsonable(doc)
    assert data["fraction"] == "3/2"
    assert data["poly"] == "x^-1"
    assert data["nested"]["values"] == ["1/3", 2]
    assert data["inf"] == "oo"
    as_json = render_json(data)
    assert as_json.endswith("\n") and '"3/2"' in as_json
    as_text = render_text(data)
    assert "fraction: 3/2" in as_text
    assert "nested.values: [1/3, 2]" in as_text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(), st.text())
@example("", "kind = laurent_matrix, n = 1\nx\n")
def test_input_digest_is_the_sha256_of_the_utf8_bytes(first, second):
    doc = result_document("split", {"file_a": first, "file_b": second}, None)
    assert doc["inputs"] == {
        name: "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in (("file_a", first), ("file_b", second))
    }
