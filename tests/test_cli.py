import json
import os
import resource
import subprocess
import sys
import time

import pytest

import bgsplit
from bgsplit import bundles, fuchsian, lmatrix
from bgsplit.cli import main
from bgsplit.errors import InternalSearchExhausted

EXT = "kind = laurent_matrix, n = 2\nx, 1\n0, x^-1\n"
ID2 = "kind = laurent_matrix, n = 2\n1, 0\n0, 1\n"
NON_UNIT = "kind = laurent_matrix, n = 2\n1, 1\n1, 1\n"
BAD = "kind = laurent_matrix, n = 2\nx^, 1\n0, 1\n"
BOLI = (
    "kind = monodromy_rep, n = 4, count = 3\n"
    "1, 1, 0, 0\n0, 1, 1, 0\n0, 0, 1, 1\n0, 0, 0, 1\n"
    "3, 1, 1, -1\n-4, -1, 1, 2\n0, 0, 3, 1\n0, 0, -4, -1\n"
    "-1, 0, 2, -1\n4, -1, 0, 1\n0, 0, -1, 0\n0, 0, 4, -1\n"
)
RESONANT = "kind = rat_matrix_list, n = 2, count = 2\n1, 0\n0, 0\n0, 1\n0, 0\n"
GAUSS = (
    "kind = scalar_ode, n = 2\n"
    "(31/21*x - 1/2)/(x^2 - x)\n"
    "(1/21)/(x^2 - x)\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_split_identity(tmp_path, capsys):
    path = write(tmp_path, "id.txt", ID2)
    code, out, _ = run(capsys, "split", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["indices"] == [0, 0]
    assert doc["command"] == "split"
    assert doc["inputs"]["file"].startswith("sha256:")


def test_determinism_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "ext.txt", EXT)
    _, out1, _ = run(capsys, "split", path)
    _, out2, _ = run(capsys, "split", path)
    assert out1 == out2


def test_factor_verify_pipeline(tmp_path, capsys):
    path = write(tmp_path, "ext.txt", EXT)
    out_file = tmp_path / "factor.json"
    code, _, _ = run(capsys, "factor", path, "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["result"]["exponents"] == [1, -1]
    assert set(doc["certificate"]) == {"b", "c", "diagonal"}

    code, out, _ = run(capsys, "verify", path, str(out_file))
    assert code == 0
    verdict = json.loads(out)["result"]
    assert verdict["valid"] is True and verdict["failed_clause"] is None


def test_verify_reports_invalid_without_failing(tmp_path, capsys):
    path = write(tmp_path, "ext.txt", EXT)
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({
        "certificate": {"b": [["1", "0"], ["0", "1"]],
                        "c": [["1", "0"], ["0", "1"]],
                        "diagonal": [1, -1]}
    }))
    code, out, _ = run(capsys, "verify", path, str(bogus))
    assert code == 0
    verdict = json.loads(out)["result"]
    assert verdict["valid"] is False and verdict["failed_clause"] == "product diagonal"


def test_verify_compares_the_diagonal_in_the_document_order(tmp_path, capsys):
    path = write(tmp_path, "a.txt", "kind = laurent_matrix, n = 2\nx^-1, 0\n0, x\n")
    for diagonal, valid in (([-1, 1], True), ([1, -1], False)):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"certificate": {"b": [["1", "0"], ["0", "1"]],
                                                   "c": [["1", "0"], ["0", "1"]],
                                                   "diagonal": diagonal}}))
        code, out, _ = run(capsys, "verify", path, str(doc))
        assert code == 0 and json.loads(out)["result"]["valid"] is valid


def test_bolibrukh_counterexample(tmp_path, capsys):
    path = write(tmp_path, "boli.txt", BOLI)
    code, out, _ = run(capsys, "bolibrukh", path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["applies"] is True
    assert result["eigenvalue_product"] == "-1"
    assert result["invariant_subspace_witness"] == [0, 1]


def test_h0_h1_rr_flags(tmp_path, capsys):
    path = write(tmp_path, "ext.txt", EXT)
    code, out, _ = run(capsys, "h0", path, "-k", "0")
    assert code == 0 and json.loads(out)["result"]["dimension"] == 2
    code, out, _ = run(capsys, "h1", path, "-k", "-2")
    assert code == 0 and json.loads(out)["result"]["dimension"] == 2
    code, out, _ = run(capsys, "rr", path, "-k", "-2")
    doc = json.loads(out)["result"]
    assert code == 0 and doc["holds"] is True and doc["lhs"] == doc["rhs"] == -2


def test_iso_command(tmp_path, capsys):
    a = write(tmp_path, "a.txt", EXT)
    b = write(tmp_path, "b.txt", ID2)
    code, out, _ = run(capsys, "iso", a, b)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["isomorphic"] is False
    assert result["splitting_a"] == [1, -1] and result["splitting_b"] == [0, 0]


def test_fuchs_ode_and_indicial(tmp_path, capsys):
    path = write(tmp_path, "gauss.txt", GAUSS)
    code, out, _ = run(capsys, "fuchs-ode", path)
    result = json.loads(out)["result"]
    assert code == 0 and result["holds"] is True
    assert result["lhs"] == "1" and result["rhs"] == "1"

    code, out, _ = run(capsys, "indicial", path, "-p", "0")
    result = json.loads(out)["result"]
    assert code == 0 and result["exponent_sum"] == "1/2"

    code, out, _ = run(capsys, "indicial", path, "-p", "oo")
    result = json.loads(out)["result"]
    values = {r["value"] for r in result["rational_roots"]}
    assert code == 0 and values == {"1/3", "1/7"}


def test_frobenius_command_and_resonant_domain_error(tmp_path, capsys):
    good = write(
        tmp_path, "frob.txt",
        "kind = rat_matrix_list, n = 2, count = 2\n1/2, 0\n0, 0\n0, 1\n1, 0\n",
    )
    code, out, _ = run(capsys, "frobenius", good, "-N", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["residual_order"] >= 1
    assert doc["certificate"]["s"][1] == [["0", "2"], ["2/3", "0"]]

    resonant = write(tmp_path, "res.txt", RESONANT)
    code, _, err = run(capsys, "frobenius", resonant, "-N", "2")
    assert code == 3 and "domain error" in err


def test_gauge_command(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "kind = laurent_matrix, n = 1\n0\n")
    p = write(tmp_path, "p.txt", "kind = laurent_matrix, n = 1\nx\n")
    code, out, _ = run(capsys, "gauge", a, p)
    assert code == 0
    assert json.loads(out)["result"]["matrix"] == [["(-1)/(x)"]]


def test_fuchs_system_command(tmp_path, capsys):
    path = write(
        tmp_path, "sys.txt",
        "kind = fuchsian_system, n = 2, points = 0 1\n1, 0\n0, 0\n-1, 0\n0, 0\n",
    )
    code, out, _ = run(capsys, "fuchs-system", path)
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["holds"] is True and doc["result"]["trace_sum"] == "0"
    points = [entry["point"] for entry in doc["certificate"]["exponent_data"]]
    assert points == ["0", "1", "oo"]


def test_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "definitely-not-a-command")
    assert code == 1 and "usage error" in err

    code, _, err = run(capsys, "split", str(tmp_path / "missing.txt"))
    assert code == 1 and "usage error" in err

    boli = write(tmp_path, "boli.txt", BOLI)
    code, _, err = run(capsys, "split", boli)
    assert code == 1 and "not usable here" in err

    bad = write(tmp_path, "bad.txt", BAD)
    code, _, err = run(capsys, "split", bad)
    assert code == 2 and "parse error" in err

    nonunit = write(tmp_path, "nonunit.txt", NON_UNIT)
    code, _, err = run(capsys, "split", nonunit)
    assert code == 3 and "domain error" in err

    code, _, err = run(capsys)
    assert code == 1


def test_usage_hardening(tmp_path, capsys):
    frob = write(
        tmp_path, "frob.txt",
        "kind = rat_matrix_list, n = 1, count = 1\n1/2\n",
    )
    code, _, err = run(capsys, "frobenius", frob, "-N", "-3")
    assert code == 1 and "nonnegative" in err

    good = write(tmp_path, "id.txt", ID2)
    code, _, err = run(capsys, "split", good, "--out", str(tmp_path / "no" / "x.json"))
    assert code == 1 and "cannot write" in err

    badcount = write(
        tmp_path, "badcount.txt",
        "kind = rat_matrix_list, n = 1, count = abc\n1\n",
    )
    code, _, err = run(capsys, "frobenius", badcount)
    assert code == 2 and "count must be an integer" in err


DEEP_ENTRIES = {
    "parentheses": "(" * 300 + "x" + ")" * 300,
    "signs": "-" * 3000 + "x",
}


def _run_process(*argv, timeout=120):
    """The CLI in a fresh interpreter, so an escaping exception shows as
    a traceback on stderr rather than in the test runner."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bgsplit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "bgsplit.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("shape", sorted(DEEP_ENTRIES))
def test_deeply_nested_entry_is_a_parse_error(tmp_path, shape):
    path = write(tmp_path, "deep.txt", "kind = laurent_matrix, n = 1\n" + DEEP_ENTRIES[shape] + "\n")
    code, out, err = _run_process("split", path)
    assert code == 2 and out == ""
    assert err.startswith("parse error: expression nested too deeply (line 2, column 1)")
    assert "Traceback" not in err


def test_deeply_nested_factorization_document_is_a_parse_error(tmp_path):
    path = write(tmp_path, "id.txt", ID2)
    doc = write(tmp_path, "deep.json", "[" * 100000 + "]" * 100000)
    code, out, err = _run_process("verify", path, doc)
    assert code == 2 and out == ""
    assert err.startswith("parse error: factorization document nested too deeply")
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", ("x^99999999999 + 1", "x^99999999999 + x + 1"))
def test_wide_exponent_non_unit_is_a_domain_error(tmp_path, entry):
    path = write(tmp_path, "wide.txt", "kind = laurent_matrix, n = 1\n" + entry + "\n")
    code, out, err = _run_process("split", path)
    assert code == 3 and out == ""
    assert err.startswith("domain error: transition determinant is not a unit")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ("h0", "h1", "rr", "split"))
def test_huge_exponent_section_system_is_refused_up_front(tmp_path, command):
    # h0 and rr need 10^11 unknowns; split scans twists near -10^11, where
    # the degree bound is 1, and answers; h1's system has one unknown and
    # one row, as target exponents above where A reaches are not built.
    path = write(tmp_path, "huge.txt", "kind = laurent_matrix, n = 1\nx^99999999999\n")
    start = time.monotonic()
    code, out, err = _run_process(command, path)
    assert time.monotonic() - start < 30
    if command == "split":
        assert code == 0, err
        assert json.loads(out)["result"]["indices"] == [99999999999]
        return
    if command == "h1":
        assert code == 0, err
        assert json.loads(out)["result"]["dimension"] == 0
        return
    assert code == 3 and out == ""
    assert err.startswith("domain error: section system") and "work budget" in err
    assert "Traceback" not in err


HUGE_GAUGE_PAIR = ("x^99999999999 + 1", "x^-99999999999 + x")


@pytest.mark.parametrize("swap", (False, True))
def test_huge_exponent_gauge_is_refused_up_front(tmp_path, swap):
    # Either way round, the determinant of the polynomial gauge N = L P is
    # a binomial of degree about 10^11, and the gcd of the first result
    # entry over it refuses; every earlier gcd meets a power of x.
    entries = HUGE_GAUGE_PAIR[::-1] if swap else HUGE_GAUGE_PAIR
    paths = [write(tmp_path, f"{name}.txt", "kind = laurent_matrix, n = 1\n" + entry + "\n")
             for name, entry in zip(("a", "p"), entries)]
    code, out, err = _run_process("gauge", *paths, timeout=5)
    assert code == 3 and out == ""
    assert err.startswith("domain error: polynomial gcd on degree")
    assert "Traceback" not in err


WIDE_SPAN_REFUSALS = {
    "factor": "factorization in rank 2 needs more than 32768 orders",
    "split": "section system of twist -100002 needs degree bound 200001",
    "h0": "section system of twist 0 needs degree bound 100000",
}


@pytest.mark.parametrize("command", sorted(WIDE_SPAN_REFUSALS))
def test_wide_span_bundle_is_refused_by_both_routes(tmp_path, command):
    # the order-basis budget of birkhoff_factor and the degree bound of
    # the section systems each refuse [[x^100000, 1], [0, x^-100000]]
    path = write(tmp_path, "span.txt",
                 "kind = laurent_matrix, n = 2\nx^100000, 1\n0, x^-100000\n")
    start = time.monotonic()
    code, out, err = _run_process(command, path)
    assert time.monotonic() - start < 30
    assert code == 3 and out == ""
    assert err.startswith("domain error: " + WIDE_SPAN_REFUSALS[command])
    assert "Traceback" not in err


SLOW_SHORT_INPUTS = {
    # (exit code, input documents).  Both ran for minutes in poly_gcd's
    # remainder sequence until the heuristic gcd went in front of it.
    # 240 s, then exit 0
    "gauge": (0, (
        "kind = laurent_matrix, n = 2\n3/4*x, 3\nx + 1, 3/4*x^3 + 3/4*x + 999999999999\n",
        "kind = laurent_matrix, n = 2\n1, x^40 - x^2 - x\n7, (x - (x/2 + x^-39)^3)^3\n",
    )),
    # 46 s, then exit 3 (a pole of order above 1); 12 s with x^40 for x^60
    "fuchs-ode": (3, (
        "kind = scalar_ode, n = 1\n1/(x + x^60) + ((x+1) - 999999999999/(x^60-x^-1)^3)^3\n",
    )),
}


@pytest.mark.parametrize("command", sorted(SLOW_SHORT_INPUTS))
def test_short_input_answers_within_seconds(tmp_path, command):
    want, texts = SLOW_SHORT_INPUTS[command]
    paths = [write(tmp_path, f"in{i}.txt", text) for i, text in enumerate(texts)]
    code, _, err = _run_process(command, *paths, timeout=5)
    assert code == want and "Traceback" not in err


def test_cli_run_loads_no_openssl_hash_module(tmp_path):
    # -S: no site hook preloads a module, so sys.modules holds only what
    # importing and running the CLI loaded; the input digest must not map
    # OpenSSL's libcrypto through hashlib.
    path = write(tmp_path, "ext.txt", EXT)
    script = ("import sys\nfrom bgsplit.cli import main\ncode = main(['split', sys.argv[1]])\n"
              "print(code, sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bgsplit.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", script, path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_h0_basis_memory_grows_with_its_terms_not_nullity_times_columns(tmp_path):
    # h0(O(20000)) has 20001 sections of 20002 unknowns each: dense kernel
    # vectors would take 3.2 GB, over the 1 GB address-space cap.
    path = write(tmp_path, "line.txt", "kind = laurent_matrix, n = 1\nx^20000\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bgsplit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "bgsplit.cli", "h0", path],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert proc.returncode == 0, proc.stderr[-300:]
    assert json.loads(proc.stdout)["result"]["dimension"] == 20001


@pytest.mark.parametrize("order", ("1024", "100000"))
def test_frobenius_order_over_the_budget_is_refused_up_front(tmp_path, order):
    # (order + 1) * n^2 coefficients past FROBENIUS_BUDGET = 4096 in rank 2;
    # order 100000 ran past 30 s before the budget, order 1023 answers
    path = write(tmp_path, "frob.txt",
                 "kind = rat_matrix_list, n = 2, count = 2\n1/2, 0\n0, 0\n0, 1\n1, 0\n")
    start = time.monotonic()
    code, out, err = _run_process("frobenius", path, "-N", order)
    assert time.monotonic() - start < 5
    assert code == 3 and out == ""
    assert err.startswith(f"domain error: Frobenius series to order {order} in rank 2")
    assert "work budget" in err and "Traceback" not in err


def test_split_eliminates_the_section_system_once(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "ext.txt", EXT)
    calls = []
    profile = bundles.section_profile

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return profile(*args, **kwargs)

    monkeypatch.setattr(bundles, "section_profile", counted)
    code, out, _ = run(capsys, "split", path)
    assert code == 0 and json.loads(out)["result"]["indices"] == [1, -1]
    assert len(calls) == 1


def test_split_walks_the_transition_once_for_its_exponent_range(tmp_path, capsys, monkeypatch):
    # the degree bound, the section rows, the scan and the certificate all
    # read the range; the transition matrix keeps it after the first walk
    path = write(tmp_path, "ext.txt", EXT)
    walks = []
    walk = lmatrix.exponent_range

    def counted(polys):
        walks.append(polys)
        return walk(polys)

    monkeypatch.setattr(lmatrix, "exponent_range", counted)
    code, out, _ = run(capsys, "split", path)
    assert code == 0 and json.loads(out)["result"]["indices"] == [1, -1]
    assert len(walks) == 1


MALFORMED_FACTORIZATIONS = {
    "array": "[]",
    "int_cell": '{"b": [[1]], "c": [["1"]], "diagonal": [0]}',
    "string_exponent": '{"b": [["1"]], "c": [["1"]], "diagonal": ["q"]}',
    "string_matrix": '{"b": "1", "c": [["1"]], "diagonal": [0]}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FACTORIZATIONS))
def test_malformed_factorization_document_is_a_parse_error(tmp_path, case):
    path = write(tmp_path, "id1.txt", "kind = laurent_matrix, n = 1\n1\n")
    doc = write(tmp_path, "doc.json", MALFORMED_FACTORIZATIONS[case])
    code, out, err = _run_process("verify", path, doc)
    assert code == 2 and out == ""
    assert err.startswith("parse error: factorization")
    assert "Traceback" not in err


# (matrix, row, column, cell, message): a cell of the factorization
# document that does not parse is named by its matrix and 1-based entry,
# with its column inside the cell, since it has no line of its own.
BAD_FACTORIZATION_CELLS = {
    "syntax": ("c", 1, 1, "x^-1 + 3y",
               "factorization 'c' entry (2, 2): trailing input after expression (column 9)"),
    "rational_function": ("b", 0, 1, "1/(x + 1)",
                          "factorization 'b' entry (1, 2): entry is a rational function, "
                          "not a Laurent polynomial (column 1)"),
}


@pytest.mark.parametrize("case", sorted(BAD_FACTORIZATION_CELLS))
def test_bad_factorization_cell_is_named_by_matrix_and_entry(tmp_path, capsys, case):
    key, i, j, cell, message = BAD_FACTORIZATION_CELLS[case]
    doc = {"b": [["1", "0"], ["0", "1"]], "c": [["1", "0"], ["0", "1"]], "diagonal": [0, 0]}
    doc[key][i][j] = cell
    path = write(tmp_path, "id.txt", ID2)
    code, out, err = run(capsys, "verify", path, write(tmp_path, "doc.json", json.dumps(doc)))
    assert code == 2 and out == ""
    assert err == f"parse error: {message}\n"


def test_internal_error_maps_to_exit_4(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "ext.txt", EXT)

    def explode(_):
        raise InternalSearchExhausted("synthetic defect")

    monkeypatch.setattr(bundles, "birkhoff_factor", explode)
    code, _, err = run(capsys, "factor", path)
    assert code == 4 and "internal consistency failure" in err


def test_singular_frobenius_step_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(fuchsian, "solve", lambda a, b: None)
    demo = os.path.join(os.path.dirname(__file__), "..", "demos", "data", "local_system.txt")
    code, out, err = run(capsys, "frobenius", demo)
    assert code == 4 and out == ""
    assert err == ("internal consistency failure: Frobenius step became singular "
                   "despite the resonance check; defect\n")


def test_text_format_and_out_flag(tmp_path, capsys):
    path = write(tmp_path, "id.txt", ID2)
    out_file = tmp_path / "result.txt"
    code, out, _ = run(capsys, "split", path, "--format", "text", "--out", str(out_file))
    assert code == 0 and out == ""
    content = out_file.read_text()
    assert "result.indices: [0, 0]" in content


def test_parser_state_does_not_leak_between_calls(tmp_path, capsys):
    path = write(tmp_path, "ext.txt", EXT)
    first = run(capsys, "h0", path)
    assert run(capsys, "h0", path, "-k", "2")[0] == 0
    code, out, err = run(capsys, "h0", path, "-k", "not-an-int")
    assert code == 1 and out == "" and "usage error" in err
    assert run(capsys, "h0")[0] == 1
    assert run(capsys, "h0", path) == first
    assert json.loads(first[1])["result"]["twist"] == 0


def test_indicial_with_a_huge_constant_term_does_not_hang(tmp_path):
    # The rational zeros of x^2 - x + c come from p-adic lifting; trial
    # division up to sqrt(c) would take hours here.
    path = write(tmp_path, "huge.txt",
                 "kind = scalar_ode, n = 2\n0\n123456789012345678901237/x^2\n")
    start = time.monotonic()
    code, out, err = _run_process("indicial", path, "-p", "0")
    assert time.monotonic() - start < 10
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["polynomial"] == "123456789012345678901237 - x + x^2"
    assert result["rational_roots"] == []


# Entries the parser refuses up front: non-ASCII digits and over-long
# numerals are parse errors (exit 2), and a power over the work budget of
# ``^`` is a domain error (exit 3), raised before it is computed.
REFUSED_ENTRIES = {
    "superscript_exponent": ("x^²", 2, "parse error: integer expected (line 2, column 3)"),
    "superscript_numeral": ("²", 2, "parse error: unexpected character '²' (line 2, column 1)"),
    "arabic_indic_exponent": ("x^٣", 2, "parse error: integer expected (line 2, column 3)"),
    "long_numeral": ("x + " + "7" * 5000, 2,
                     "parse error: numeral longer than 4300 digits (line 2, column 5)"),
    "power_of_two": ("2^20000", 3, "domain error: power with 20000-bit coefficients"),
    "binomial_power": ("(x+1)^3000000", 3, "domain error: power with up to 3000001 terms"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_ENTRIES))
def test_refused_entry_exits_cleanly(tmp_path, case):
    entry, want_code, want_err = REFUSED_ENTRIES[case]
    path = write(tmp_path, "entry.txt", "kind = laurent_matrix, n = 1\n" + entry + "\n")
    start = time.monotonic()
    code, out, err = _run_process("split", path)
    assert time.monotonic() - start < 30
    assert code == want_code and out == ""
    assert err.startswith(want_err), err
    assert "Traceback" not in err


def test_zero_denominator_cell_is_a_domain_error(tmp_path):
    # a numeral cell with a zero denominator is left to the grammar, and the
    # domain error names the cell, as a parse error does
    path = write(tmp_path, "tuple.txt", BOLI.replace("0, 0, -4, -1", "0, 0, -4, 1/0"))
    code, out, err = _run_process("bolibrukh", path)
    assert code == 3 and out == ""
    assert err == "domain error: division by the zero rational function (line 9, column 10)\n"


# (cell on line 3 of a 2 x 2 laurent_matrix, message): a domain error raised
# while reading a cell keeps its class and exit code 3 and names the cell.
DOMAIN_ERROR_CELLS = {
    "zero_divisor": ("0, 3/0*x", "division by the zero rational function (line 3, column 3)"),
    "refused_power": ("(1+x)^99999, 1", "power with up to 100000 terms exceeds the work "
                                         "budget of 512 terms (line 3, column 1)"),
}


@pytest.mark.parametrize("case", sorted(DOMAIN_ERROR_CELLS))
def test_domain_error_in_a_cell_names_its_line_and_column(tmp_path, capsys, case):
    cell, message = DOMAIN_ERROR_CELLS[case]
    path = write(tmp_path, "cell.txt", f"kind = laurent_matrix, n = 2\nx, 1\n{cell}\n")
    code, out, err = run(capsys, "split", path)
    assert code == 3 and out == ""
    assert err == f"domain error: {message}\n"


def test_domain_error_in_a_factorization_cell_is_named_by_matrix_and_entry(tmp_path, capsys):
    doc = {"b": [["1", "3/0*x"], ["0", "1"]], "c": [["1", "0"], ["0", "1"]], "diagonal": [0, 0]}
    path = write(tmp_path, "id.txt", ID2)
    code, out, err = run(capsys, "verify", path, write(tmp_path, "doc.json", json.dumps(doc)))
    assert code == 3 and out == ""
    assert err == ("domain error: factorization 'b' entry (1, 2): "
                   "division by the zero rational function (column 1)\n")


BAD_HEADER_POINTS = {
    "zero_divisor": ("# c\n\nkind = fuchsian_system, n = 1, points = 0 1/0 abc\n1\n2\n3\n",
                     3, "domain error: point '1/0': division by the zero rational function "
                        "(line 3)"),
    "cut_short": ("# c\nkind = fuchsian_system, n = 1, points = 0 2*\n1\n2\n",
                  2, "parse error: point '2*': unexpected end of expression (line 2)"),
}


@pytest.mark.parametrize("case", sorted(BAD_HEADER_POINTS))
def test_bad_header_point_is_named_at_the_header_line(tmp_path, capsys, case):
    text, exit_code, message = BAD_HEADER_POINTS[case]
    code, out, err = run(capsys, "fuchs-system", write(tmp_path, "system.txt", text))
    assert code == exit_code and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("point, exit_code, message", [
    ("abc", 2, "parse error: point 'abc': unexpected character 'a'"),
    ("1/0", 3, "domain error: point '1/0': division by the zero rational function"),
])
def test_bad_point_argument_is_named_without_a_line(tmp_path, capsys, point, exit_code, message):
    path = write(tmp_path, "ode.txt", "kind = scalar_ode, n = 1\nx\n")
    code, out, err = run(capsys, "indicial", path, "-p", point)
    assert code == exit_code and out == ""
    assert err == message + "\n"


def test_fuchs_ode_with_a_huge_pole_order_at_zero_does_not_hang(tmp_path):
    # The multiplicity of the root 0 is the lowest exponent; dividing by x
    # once per unit of multiplicity would take 10^8 steps here.
    path = write(tmp_path, "ode.txt", "kind = scalar_ode, n = 1\nx^-99999999\n")
    start = time.monotonic()
    code, out, err = _run_process("fuchs-ode", path)
    assert time.monotonic() - start < 30
    assert code == 3 and out == ""
    assert err.startswith("domain error: coefficient of derivative order 0 has a pole")


def test_fuchs_ode_with_high_degree_coefficients_does_not_hang(tmp_path):
    # The chart at infinity is read from unreduced numerator/denominator
    # pairs, so no degree-200 gcd runs there.
    path = write(tmp_path, "ode.txt",
                 "kind = scalar_ode, n = 1\n((x+2)^200+1)/((x+3)^200+1)\n")
    start = time.monotonic()
    code, out, err = _run_process("fuchs-ode", path)
    assert time.monotonic() - start < 30
    assert code == 3 and out == ""
    assert err.startswith("domain error: irregular singularity at infinity (rank 1)"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("power", (100000, 99999999999))
def test_factor_over_the_work_budget_is_refused_up_front(tmp_path, power):
    # The order-basis loop pivots at every one of the 2 * power orders here.
    path = write(tmp_path, "wide.txt",
                 f"kind = laurent_matrix, n = 2\nx^{power}, 1\n0, x^-{power}\n")
    start = time.monotonic()
    code, out, err = _run_process("factor", path)
    assert time.monotonic() - start < 10
    assert code == 3 and out == ""
    assert err.startswith("domain error: factorization") and "work budget" in err
    assert "Traceback" not in err


def test_factor_inside_the_work_budget_still_runs(tmp_path):
    path = write(tmp_path, "wide.txt", "kind = laurent_matrix, n = 2\nx^6000, 1\n0, x^-6000\n")
    code, out, err = _run_process("factor", path)
    assert code == 0, err
    assert json.loads(out)["result"]["exponents"] == [6000, -6000]


@pytest.mark.parametrize("power", (1000, 6000, 12000))
def test_section_route_answers_wide_sparse_bundles(tmp_path, power):
    # Each section row holds two entries 2 * power columns apart; the rows
    # must cost their entries, not that span, for both section commands
    # to reach every bundle that factor reaches.  At 12000 the systems fit
    # SECTION_BUDGET only on the proven degree bound.
    path = write(tmp_path, "wide.txt",
                 f"kind = laurent_matrix, n = 2\nx^{power}, 1\n0, x^-{power}\n")
    start = time.monotonic()
    code, out, err = _run_process("split", path)
    assert code == 0, err
    assert json.loads(out)["result"]["indices"] == [power, -power]
    code, out, err = _run_process("h0", path)
    assert code == 0, err
    assert json.loads(out)["result"]["dimension"] == power + 1
    assert time.monotonic() - start < 30


def test_section_route_keeps_its_refusals_on_a_large_determinant_order(tmp_path):
    # Rank 3 and det A = x^30000: split is refused on the adjugate-sized
    # system, before any Toeplitz pass, and h0 far below every jump has the
    # degree bound 0 and needs no pass.  At x^20000 and twist -19990 the
    # pass stops at its cap of 10 groups, short of e_n = 20000, and the
    # system goes on from them on the adjugate bound.
    path = write(tmp_path, "tall.txt",
                 "kind = laurent_matrix, n = 3\nx^30000, 0, 0\n0, 1, 0\n0, 0, 1\n")
    start = time.monotonic()
    code, out, err = _run_process("split", path)
    assert code == 3 and out == ""
    assert err == ("domain error: section system of twist -30002 needs degree bound 30001 "
                   "in rank 3, over the work budget of 65536\n")
    code, out, err = _run_process("h0", path, "-k", "-40000")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["result"] == {"dimension": 0, "twist": -40000}
    assert doc["certificate"] == {"basis": []}
    path = write(tmp_path, "tall2.txt",
                 "kind = laurent_matrix, n = 3\nx^20000, 0, 0\n0, 1, 0\n0, 0, 1\n")
    code, out, err = _run_process("h0", path, "-k", "-19990")
    assert code == 0 and err == ""
    basis = json.loads(out)["certificate"]["basis"]
    assert [section["s1"] for section in basis] == [
        [f"x^-{b}", "0", "0"] for b in range(10, 1, -1)] + [["x^-1", "0", "0"], ["1", "0", "0"]]
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("point", ("1", "1/2"))
def test_indicial_at_a_nonzero_point_refuses_an_over_budget_shift(tmp_path, point):
    # The chart at p != 0 shifts each coefficient by p: x^99999999 ran past
    # 15 s before the shift budget, and x^1000 took 4 s for this answer.
    huge = write(tmp_path, "huge.txt", "kind = scalar_ode, n = 1\nx^99999999\n")
    start = time.monotonic()
    code, out, err = _run_process("indicial", huge, "-p", point)
    assert time.monotonic() - start < 5
    assert code == 3 and out == ""
    assert err.startswith("domain error: polynomial shift on degree 99999999")
    assert "work budget" in err and "Traceback" not in err
    line = write(tmp_path, "line.txt", "kind = scalar_ode, n = 1\nx^1000\n")
    code, out, err = _run_process("indicial", line, "-p", point)
    assert code == 0, err
    assert json.loads(out)["result"] == {
        "exponent_sum": "0", "point": point, "polynomial": "x",
        "rational_roots": [{"multiplicity": 1, "value": "0"}],
    }


def test_product_over_the_budget_is_refused_up_front(tmp_path):
    # 41 bytes that parsed for 10-17 s; the first product, 512 by 512
    # terms, is the largest the budget admits.
    entry = "(x+1)^511*(x+2)^511*(x+3)^511*(x+4)^511"
    path = write(tmp_path, "product.txt", f"kind = laurent_matrix, n = 1\n{entry}\n")
    start = time.monotonic()
    code, out, err = _run_process("split", path)
    assert time.monotonic() - start < 5
    assert code == 3 and out == ""
    assert err.startswith("domain error: product of 1023 by 512 terms exceeds the work budget")
    assert "Traceback" not in err
