"""Byte-identical CLI documents.

The files under ``tests/data/golden/`` are the exact stdout of the
commands listed in ``tests/data/golden_commands.txt``, one line per
golden with the reason for it; the CI step "Installed console script"
diffs the same lines through the installed ``bgsplit`` script.  The
goldens are split over three tests only to keep the test ids of the
hand-written lists they replace: the eight section commands on the two
section bundles, the factor and verify pair on the two small factor
inputs, and every other golden as a field-parser case.
"""

import hashlib
import os

import pytest

from bgsplit.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "data", "golden")


def _manifest():
    """[(golden name, argv)] from the manifest, argv relative to ROOT."""
    with open(os.path.join(HERE, "data", "golden_commands.txt"), encoding="utf-8") as handle:
        return [(words[0], words[1:]) for words in map(str.split, handle)
                if words and not words[0].startswith("#")]


GOLDENS = dict(_manifest())
SECTION_STEMS = ("extension", "planted_rank4")
SECTION_COMMANDS = ("split", "h0_k1", "h0_k4", "h1_k0", "rr_km1", "iso", "factor", "verify")
FACTOR_STEMS = ("scalar_1x1", "unipotent_tau0")
FIELD_CASES = sorted(
    set(GOLDENS)
    - {f"{stem}.{command}" for stem in SECTION_STEMS for command in SECTION_COMMANDS}
    - {f"{stem}.{command}" for stem in FACTOR_STEMS for command in ("factor", "verify")}
)


def test_manifest_lists_every_golden_once():
    names = [name for name, _ in _manifest()]
    assert len(names) == len(set(names))
    assert sorted(os.listdir(GOLDEN)) == sorted(f"{name}.json" for name in names)


def test_long_frobenius_series_document_is_pinned(capsys):
    # frobenius -N 24 on local_system4.txt: 217,285 bytes with denominators
    # of about 1,900 bits, pinned by its SHA-256 rather than as a golden
    argv = ["frobenius", os.path.join(HERE, "data", "local_system4.txt"), "-N", "24"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "85437ad179b19af1304043b8e83850c6a967d378e6b3a231bec080fde971cbf5"


@pytest.fixture(autouse=True)
def _in_root(monkeypatch):
    """The manifest's paths are relative to the repository root."""
    monkeypatch.chdir(ROOT)


def _assert_golden(name, capsys):
    assert main(GOLDENS[name]) == 0
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


@pytest.mark.parametrize("stem", SECTION_STEMS)
@pytest.mark.parametrize("command", sorted(SECTION_COMMANDS))
def test_cli_document_is_byte_identical(stem, command, capsys):
    _assert_golden(f"{stem}.{command}", capsys)


@pytest.mark.parametrize("case", FIELD_CASES)
def test_field_parser_document_is_byte_identical(case, capsys):
    _assert_golden(case, capsys)


@pytest.mark.parametrize("stem", FACTOR_STEMS)
def test_factor_and_verify_documents_are_byte_identical(stem, capsys):
    _assert_golden(f"{stem}.factor", capsys)
    _assert_golden(f"{stem}.verify", capsys)
