"""Byte-identical CLI documents.

The files under ``tests/data/golden/`` are the exact stdout of
``split``, ``h0 -k 1``, ``h0 -k 4``, ``h1 -k 0``, ``rr -k -1``, ``iso``
(a file against itself), ``factor`` and ``verify`` (against the pinned ``factor`` document) on the
demo extension and on a planted rank-4 bundle, and of the commands that
read rational fields (``bolibrukh``, ``fuchs-ode``, ``indicial -p`` at 0,
1 and oo, ``fuchs-system``, ``frobenius -N 4``) on the demo inputs, of ``frobenius
-N 8`` on the non-triangular 4 x 4 residue with denominators 2, 3 and 7
and two tail terms in ``tests/data/local_system4.txt`` and on its rank-8
counterpart ``tests/data/local_system8.txt`` (the benchmark's rank
class), of ``bolibrukh`` on five tuples with non-integer entries under
``tests/data/`` (reducible
n = 6, irreducible n = 5 pair, Jordan n = 6, a 4 x 4 pair reducible
only over Q(i), which only the exact word-span closure decides, and an
irreducible n = 5 pair with denominator 999991) and on an irreducible
4 x 4 triple whose product is the identity, the one input that reaches
the reason "representation is irreducible", and of ``gauge`` on the
demo extension with the gauge matrix ``tests/data/gauge_p.txt``, whose
determinant x + 2 is not a unit, so P^-1 has denominators, and on the
rank-4 pair ``tests/data/gauge_a4.txt``, ``gauge_p4.txt`` (det P =
x^2 - 2x - 2), and of ``factor`` and ``verify`` on a 1 x 1 unit and on
the det-1 matrix ``[[1, 1 + x], [0, 1]]``, where every column pivots at
order 0 and the order-basis loop must still take that step before it
stops.  Any change to the numbers, the
certificates, the parsers or the rendering shows up here.
"""

import os

import pytest

from bgsplit.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
DEMOS = os.path.join(HERE, os.pardir, "demos", "data")
GOLDEN = os.path.join(HERE, "data", "golden")
INPUTS = {
    "extension": os.path.join(DEMOS, "extension.txt"),
    "planted_rank4": os.path.join(HERE, "data", "planted_rank4.txt"),
}
FACTOR_INPUTS = {
    stem: os.path.join(HERE, "data", f"{stem}.txt")
    for stem in ("scalar_1x1", "unipotent_tau0")
}
COMMANDS = {
    "split": lambda stem: ["split", INPUTS[stem]],
    "h0_k1": lambda stem: ["h0", INPUTS[stem], "-k", "1"],
    "h0_k4": lambda stem: ["h0", INPUTS[stem], "-k", "4"],
    "h1_k0": lambda stem: ["h1", INPUTS[stem], "-k", "0"],
    "rr_km1": lambda stem: ["rr", INPUTS[stem], "-k", "-1"],
    "iso": lambda stem: ["iso", INPUTS[stem], INPUTS[stem]],
    "factor": lambda stem: ["factor", INPUTS[stem]],
    "verify": lambda stem: [
        "verify", INPUTS[stem], os.path.join(GOLDEN, f"{stem}.factor.json")
    ],
}
FIELD_CASES = {
    "monodromy.bolibrukh": ["bolibrukh", os.path.join(DEMOS, "monodromy.txt")],
    **{
        f"{stem}.bolibrukh": ["bolibrukh", os.path.join(HERE, "data", f"{stem}.txt")]
        for stem in ("monodromy_reducible6", "monodromy_irreducible5", "monodromy_jordan6",
                     "monodromy_gaussian4", "monodromy_irreducible5_wide",
                     "monodromy_irreducible4_identity")
    },
    "hypergeometric.fuchs_ode": ["fuchs-ode", os.path.join(DEMOS, "hypergeometric.txt")],
    **{
        f"hypergeometric.indicial_{point}": [
            "indicial", os.path.join(DEMOS, "hypergeometric.txt"), "-p", point
        ]
        for point in ("0", "1", "oo")
    },
    "residue_system.fuchs_system": [
        "fuchs-system", os.path.join(DEMOS, "residue_system.txt")
    ],
    "local_system.frobenius_n4": [
        "frobenius", os.path.join(DEMOS, "local_system.txt"), "-N", "4"
    ],
    "extension.gauge_p": [
        "gauge", INPUTS["extension"], os.path.join(HERE, "data", "gauge_p.txt")
    ],
    "local_system4.frobenius_n8": [
        "frobenius", os.path.join(HERE, "data", "local_system4.txt"), "-N", "8"
    ],
    "local_system8.frobenius_n8": [
        "frobenius", os.path.join(HERE, "data", "local_system8.txt"), "-N", "8"
    ],
    "gauge_a4.gauge_p4": [
        "gauge", os.path.join(HERE, "data", "gauge_a4.txt"),
        os.path.join(HERE, "data", "gauge_p4.txt"),
    ],
}


def _assert_golden(argv, name, capsys):
    assert main(argv) == 0
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


@pytest.mark.parametrize("stem", sorted(INPUTS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_document_is_byte_identical(stem, command, capsys):
    _assert_golden(COMMANDS[command](stem), f"{stem}.{command}", capsys)


@pytest.mark.parametrize("case", sorted(FIELD_CASES))
def test_field_parser_document_is_byte_identical(case, capsys):
    _assert_golden(FIELD_CASES[case], case, capsys)


@pytest.mark.parametrize("stem", sorted(FACTOR_INPUTS))
def test_factor_and_verify_documents_are_byte_identical(stem, capsys):
    path = FACTOR_INPUTS[stem]
    _assert_golden(["factor", path], f"{stem}.factor", capsys)
    _assert_golden(
        ["verify", path, os.path.join(GOLDEN, f"{stem}.factor.json")], f"{stem}.verify", capsys
    )
