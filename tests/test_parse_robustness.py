"""Robustness of entry parsing on the CLI and the parser: short entries
exit cleanly, documents round-trip, and a long sum parses in linear time."""

import contextlib
import io
import os
import tempfile
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit.cli import main
from bgsplit.io import emit, emit_laurent_matrix, emit_rat_matrix_list, parse_laurent, parse_matrix_file
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


@settings(max_examples=150, deadline=None)
@given(entries)
def test_any_short_entry_exits_with_a_result_or_a_refusal(entry):
    with tempfile.TemporaryDirectory() as tmp:
        for kind, command in (("laurent_matrix", "split"), ("laurent_matrix", "factor"),
                              ("scalar_ode", "fuchs-ode")):
            path = os.path.join(tmp, kind + ".txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(f"kind = {kind}, n = 1\n{entry}\n")
            code, err = _cli(command, path)
            assert code in (0, 2, 3), (command, entry, err)
            assert "Traceback" not in err


coefficients = st.fractions(min_value=-99, max_value=99, max_denominator=40)
polys = st.dictionaries(st.integers(-9, 9), coefficients, max_size=5).map(LaurentPoly)


def _square(n, cells):
    return st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _square(n, polys)))
def test_laurent_matrix_document_round_trips(rows):
    text = emit_laurent_matrix(LaurentMatrix(rows))
    assert emit(parse_matrix_file(text)) == text


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(_square(n, coefficients), min_size=1, max_size=3)))
def test_rat_matrix_list_document_round_trips(matrices):
    text = emit_rat_matrix_list(matrices)
    assert emit(parse_matrix_file(text)) == text


def test_sum_of_16000_terms_parses_in_linear_time():
    terms = [f"{(7 * i) % 90 + 1}/{i % 13 + 1}*x^{i - 8000}" for i in range(16000)]
    entry = terms[0] + "".join((" - " if i % 3 else " + ") + t for i, t in enumerate(terms[1:]))
    start = time.perf_counter()
    value = parse_laurent(entry)
    assert time.perf_counter() - start < 5
    assert len(value.terms) == 16000 and value.coeff(-8000) == 1
