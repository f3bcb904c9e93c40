"""Byte-identical CLI documents for the bundle commands.

The files under ``tests/data/golden/`` are the exact stdout of
``split``, ``h0 -k 1``, ``rr -k -1`` and ``iso`` (a file against itself)
on the demo extension and on a planted rank-4 bundle.  Any change to the
numbers, the certificates or the rendering shows up here.
"""

import os

import pytest

from bgsplit.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = {
    "extension": os.path.join(HERE, os.pardir, "demos", "data", "extension.txt"),
    "planted_rank4": os.path.join(HERE, "data", "planted_rank4.txt"),
}
COMMANDS = {
    "split": lambda path: ["split", path],
    "h0_k1": lambda path: ["h0", path, "-k", "1"],
    "rr_km1": lambda path: ["rr", path, "-k", "-1"],
    "iso": lambda path: ["iso", path, path],
}


@pytest.mark.parametrize("stem", sorted(INPUTS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_document_is_byte_identical(stem, command, capsys):
    assert main(COMMANDS[command](INPUTS[stem])) == 0
    golden = os.path.join(HERE, "data", "golden", f"{stem}.{command}.json")
    with open(golden, encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()
