"""Robustness of entry parsing on the CLI and the parser: short entries
and short headers exit cleanly, documents round-trip, and a long sum
parses in linear time."""

import contextlib
import io
import os
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgsplit.cli import main
from bgsplit.errors import WorkBudgetExceeded
from bgsplit.io import ParsedFile, emit, parse_laurent, parse_matrix_file, parse_ratfunc
from bgsplit.laurent import LaurentPoly
from bgsplit.lmatrix import LaurentMatrix

# The entry grammar's alphabet, plus non-ASCII digits, digit runs on both
# sides of the numeral limit and exponents past the work budget of ``^``.
PIECES = [*"xz0123456789+-*/^() ", "²", "٣", "9" * 60, "9" * 5000,
          "^99999999", "^-99999999", "^4097"]
entries = st.lists(st.sampled_from(PIECES), max_size=10).map("".join)


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


DATA = os.path.join(os.path.dirname(__file__), "data")
# (kind of the entry's file, command line with {} for that file)
ENTRY_COMMANDS = [
    ("laurent_matrix", ["split", "{}"]),
    ("laurent_matrix", ["factor", "{}"]),
    ("laurent_matrix", ["h0", "{}", "-k", "1"]),
    ("laurent_matrix", ["h1", "{}"]),
    ("laurent_matrix", ["rr", "{}"]),
    ("laurent_matrix", ["iso", "{}", os.path.join(DATA, "scalar_1x1.txt")]),
    ("laurent_matrix", ["gauge", "{}", "{}"]),
    ("laurent_matrix", ["verify", "{}", os.path.join(DATA, "golden", "scalar_1x1.factor.json")]),
    ("scalar_ode", ["fuchs-ode", "{}"]),
    ("scalar_ode", ["indicial", "{}", "-p", "0"]),
    ("scalar_ode", ["indicial", "{}", "-p", "1/2"]),
    ("scalar_ode", ["indicial", "{}", "-p", "oo"]),
]


@settings(max_examples=150, deadline=None)
@given(entries)
@example("x^99999999")
@example("x^-99999999+x")
def test_any_short_entry_exits_with_a_result_or_a_refusal(entry):
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("laurent_matrix", "scalar_ode"):
            with open(os.path.join(tmp, kind + ".txt"), "w", encoding="utf-8") as handle:
                handle.write(f"kind = {kind}, n = 1\n{entry}\n")
        for kind, argv in ENTRY_COMMANDS:
            path = os.path.join(tmp, kind + ".txt")
            code, err = _cli(*(arg.format(path) for arg in argv))
            assert code in (0, 2, 3), (argv, entry, err)
            assert "Traceback" not in err


# Each input kind with a command that reads it.
KIND_COMMANDS = [("laurent_matrix", "split"), ("rat_matrix_list", "frobenius"),
                 ("fuchsian_system", "fuchs-system"), ("scalar_ode", "fuchs-ode"),
                 ("monodromy_rep", "bolibrukh")]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KIND_COMMANDS), st.integers(-1, 2), st.integers(-1, 2),
       st.sampled_from(["", "0", "0 0", "0 1"]), st.integers(0, 4))
def test_any_short_header_exits_with_a_result_or_a_refusal(kind_command, n, count, points, rows):
    kind, command = kind_command
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, kind + ".txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"kind = {kind}, n = {n}, count = {count}, points = {points}\n"
                         + "1\n" * rows)
        code, err = _cli(command, path)
    assert code in (0, 2, 3), (kind, n, count, points, rows, err)
    assert "Traceback" not in err


# Rational entries: zeros (singular loop images), small values, fractions and
# numerals up to the 4,300-digit limit.
RATIONAL_PIECES = ["0", "0", "1", "-1", "2", "-3", "1/2", "-7/3", "9" * 60, "-" + "8" * 4300,
                   "1/" + "7" * 80, "123456789/987654321"]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.lists(st.sampled_from(RATIONAL_PIECES), min_size=n, max_size=n),
             min_size=n, max_size=n), min_size=1, max_size=4)))
@example([[["1", "0"], ["0", "0"]]])
def test_any_short_monodromy_document_exits_with_a_result_or_a_refusal(matrices):
    n, count = len(matrices[0]), len(matrices)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rep.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"kind = monodromy_rep, n = {n}, count = {count}\n"
                         + "".join(", ".join(row) + "\n" for m in matrices for row in m))
        code, err = _cli("bolibrukh", path)
    assert code in (0, 1, 2, 3, 4), (matrices, err)
    assert "Traceback" not in err


coefficients = st.fractions(min_value=-99, max_value=99, max_denominator=40)
polys = st.dictionaries(st.integers(-9, 9), coefficients, max_size=5).map(LaurentPoly)


def _square(n, cells):
    return st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _square(n, polys)))
def test_laurent_matrix_document_round_trips(rows):
    text = emit(ParsedFile("laurent_matrix", LaurentMatrix(rows)))
    assert emit(parse_matrix_file(text)) == text


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(_square(n, coefficients), min_size=1, max_size=3)))
def test_rat_matrix_list_document_round_trips(matrices):
    text = emit(ParsedFile("rat_matrix_list", matrices))
    assert emit(parse_matrix_file(text)) == text


def test_sum_of_16000_terms_parses_in_linear_time():
    terms = [f"{(7 * i) % 90 + 1}/{i % 13 + 1}*x^{i - 8000}" for i in range(16000)]
    entry = terms[0] + "".join((" - " if i % 3 else " + ") + t for i, t in enumerate(terms[1:]))
    start = time.perf_counter()
    value = parse_laurent(entry)
    assert time.perf_counter() - start < 5
    assert len(value.terms) == 16000 and value.coeff(-8000) == 1


@pytest.mark.parametrize("text", ("(x+1)^511*(x+2)^511*(x+3)^511",
                                  "1/(x+1)^511/(x+2)^511/(x+3)^511"))
def test_products_past_the_largest_one_a_power_admits_are_refused(text):
    value = parse_laurent("(x+1)^511*(x+2)^511")  # 512 by 512 terms, the largest admitted
    assert len(value.terms) == 1023 and value.coeff(1022) == 1
    with pytest.raises(WorkBudgetExceeded, match="product of 1023 by 512 terms"):
        parse_ratfunc(text)


# Matrices whose value holds an integer past the 4,300-digit limit of str():
# a product of two 4,300-digit numerals (its coefficient), a power of a power
# with two 4,000-digit numerals (its exponent), x^N with N of 4,300 nines,
# whose split certificate is keyed by twists of 4,301 digits, a rank-2 bundle
# on x^N, whose section work-budget message has to print its twist, and such a
# power inside a rational function, whose gcd budget message prints its degree.
N = "9" * 4300
OVERLONG = {
    "coefficient": (["7" * 4300 + "*" + "7" * 4300], 3, "domain error: result holds an integer"),
    "exponent": ([f"(x^{'3' * 4000})^{'3' * 4000}"], 2,
                 "parse error: exponent longer than 4300 digits"),
    "twist_key": ([f"x^{N}"], 3, "domain error: result holds an integer"),
    "budget_message": ([f"x^{N}, 1", f"0, x^-{N}"], 3,
                       "domain error: section system of twist about -10^4300"),
    "gcd_message": ([f"((x^{'3' * 4000})^{'3' * 4000} + 1)/(x + 1)"], 3,
                    "domain error: polynomial gcd on degree about"),
}


@pytest.mark.parametrize("case", sorted(OVERLONG))
def test_overlong_integers_are_refused_not_rendered(tmp_path, case):
    rows, code, message = OVERLONG[case]
    path = tmp_path / "long.txt"
    path.write_text(f"kind = laurent_matrix, n = {len(rows)}\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")
    got, err = _cli("split", str(path))
    assert got == code and err.startswith(message), err[:200]
    assert "Traceback" not in err
