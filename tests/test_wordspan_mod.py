"""The modular word-span closure on packed integer rows against the list
oracle (``oracles.word_span_mod_reference``): the dimension and the
accepted words must be equal.

The seeded tuples cover n = 1..6 in five families (reducible,
irreducible, a single Jordan block per generator, a scalar generator,
generic), conjugated by rational matrices, at ``WORD_SPAN_PRIME`` and at
small primes, where ranks drop modulo p and the exact closure decides.
The bound-edge cases put every digit at the top of the proven bound of
``linalg.echelon_insert_mod``: generators whose integer forms are p - 1
modulo p in every entry, and rows whose digits are the largest below
k*p^2 in their residue class.  The prime 2^61 - 1 keeps 17-byte digits,
which ``lmatrix._unpack`` reads one at a time, under the same checks.

At ``WORD_SPAN_PRIME`` itself, the closure must pack every digit as one
8-byte word up to n = 90, and a tuple irreducible over Q whose span
drops modulo that prime must still be answered irreducible, by the
exact closure.
"""

import json
import random
from fractions import Fraction

import pytest

from bgsplit import monodromy
from bgsplit.cli import main
from bgsplit.errors import NotInvertible
from bgsplit.linalg import echelon_insert_mod, rank
from bgsplit.lmatrix import _digit_bytes, _pack, _unpack
from bgsplit.monodromy import (
    WORD_SPAN_PRIME,
    _word_span_dimension,
    irreducibility_certificate,
    monodromy_rep,
)

import oracles

PRIMES = (WORD_SPAN_PRIME, 2, 3, 5, 7, 2**31 - 1, 2**61 - 1)
FAMILIES = ("reducible", "irreducible", "jordan", "scalar", "generic")


def _generator(rng, family, n, k):
    """The k-th generator of a tuple of the family, before conjugation."""
    m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if family == "reducible" and n > 1:
        split = rng.randint(1, n - 1)
        for i in range(split, n):
            m[i][:split] = [0] * split
    elif family == "irreducible":  # a cyclic permutation and a diagonal
        m = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)] if k == 0 else \
            [[(i + 1) * rng.choice((1, -1)) * int(i == j) for j in range(n)] for i in range(n)]
    elif family == "jordan":
        lam = rng.choice((-2, -1, 1, 2, 3))
        m = [[lam if i == j else int(j == i + 1) for j in range(n)] for i in range(n)]
    elif family == "scalar" and k == 0:
        m = [[rng.choice((-2, 1, 2, 3)) * int(i == j) for j in range(n)] for i in range(n)]
    return m


def _tuple(seed):
    rng = random.Random(seed)
    family, n = FAMILIES[seed % len(FAMILIES)], 1 + seed // len(FAMILIES) % 6
    count = 2 if family == "irreducible" else rng.randint(1, 3)
    while True:
        try:
            rep = monodromy_rep([_generator(rng, family, n, k) for k in range(count)])
            s = [[Fraction(int(i == j)) + Fraction(rng.randint(-3, 3), rng.randint(1, 50))
                  for j in range(n)] for i in range(n)]
            return rep.conjugated(s)
        except NotInvertible:  # a singular generator or conjugator: draw again
            continue


def _agree(rep, prime):
    words, want = [], []
    dim = _word_span_dimension(rep, prime, words)
    assert dim == oracles.word_span_mod_reference(rep, prime, want)
    assert words == want
    return dim


@pytest.mark.parametrize("block", range(4))
def test_packed_closure_equals_the_list_oracle_on_1000_seeded_tuples(block):
    dropped = 0
    for seed in range(250 * block, 250 * block + 250):
        rep = _tuple(seed)
        dims = [_agree(rep, prime) for prime in PRIMES]
        dropped += min(dims) < dims[0]
        if dims[0] < rep.size**2:  # the exact closure decides; F_p gives a lower bound
            assert max(dims) <= _word_span_dimension(rep)
    assert dropped  # some small prime lost rank somewhere


def test_certificate_words_equal_the_oracle_words():
    for seed in range(0, 1000, 7):
        rep = _tuple(seed)
        cert = irreducibility_certificate(rep)
        if cert.words is not None:
            words = []
            if oracles.word_span_mod_reference(rep, WORD_SPAN_PRIME, words) == rep.size**2:
                assert cert.words == tuple(words)


@pytest.mark.parametrize("prime", PRIMES)
@pytest.mark.parametrize("n", (2, 3, 5, 8, 10))
def test_generators_at_p_minus_1_in_every_entry(prime, n):
    """Every entry of every reduced generator is p - 1, so every product
    digit is n*(p - 1)^2, the top of its bound."""
    rng = random.Random(n * prime)
    while True:
        try:
            rep = monodromy_rep([[[prime - 1 + prime * rng.randint(-2, 2) for _ in range(n)]
                                  for _ in range(n)] for _ in range(3)])
            break
        except NotInvertible:
            continue
    _agree(rep, prime)


@pytest.mark.parametrize("prime", PRIMES)
@pytest.mark.parametrize("m", (1, 4, 25, 100))
def test_echelon_insert_mod_at_the_digit_bound(prime, m):
    """Rows with every digit the largest value below k*p^2 in its residue
    class, most residues p - 1, keep the pivot columns of the list oracle;
    each stored complement is monic at its column."""
    rng = random.Random(m * prime)
    k = 3
    width = _digit_bytes((k + m) * prime * prime)
    packed, listed = {}, {}
    for _ in range(m + 5):
        residues = [rng.choice((prime - 1, prime - 1, rng.randrange(prime))) for _ in range(m)]
        row = _pack([k * prime * prime - prime + r for r in residues], width)
        assert echelon_insert_mod(packed, row, prime, width) == \
            oracles.echelon_insert_mod(listed, residues, prime)
    assert packed.keys() == listed.keys()
    assert all(_unpack(comp, width)[0] == prime - 1 for comp in packed.values())


def test_closure_digits_are_one_8_byte_word_up_to_n_90(monkeypatch):
    """At ``WORD_SPAN_PRIME`` every digit of the closure is one unsigned
    8-byte word, the ``struct`` path of ``_unpack``, for n = 1..90, where
    (n^2 + n)*p^2 < 2^63; n = 91 needs 9 bytes."""
    p = WORD_SPAN_PRIME
    widths = {}

    def spy(pivots, row, prime, width):
        widths.setdefault(n, set()).add(width)
        return echelon_insert_mod(pivots, row, prime, width)

    monkeypatch.setattr(monodromy, "echelon_insert_mod", spy)
    for n in range(1, 92):
        scalar = [[2 * int(i == j) for j in range(n)] for i in range(n)]
        assert _word_span_dimension(monodromy_rep([scalar]), p) == 1
    assert widths == {n: {8} if n <= 90 else {9} for n in range(1, 92)}
    assert all((n * n + n) * p * p < 2**63 for n in range(1, 91))
    assert (91 * 91 + 91) * p * p >= 2**63


UNLUCKY = ([[1, 1], [0, 1]], [[1, 0], [WORD_SPAN_PRIME, 1]])


def test_unlucky_production_prime_falls_back_to_the_exact_closure():
    """The second generator is the identity modulo ``WORD_SPAN_PRIME``, so
    the span there stops at 2; over Q the pair is irreducible, and the
    certificate's 4 words come from the exact closure."""
    rep = monodromy_rep(UNLUCKY)
    assert _word_span_dimension(rep, WORD_SPAN_PRIME) == 2
    cert = irreducibility_certificate(rep)
    assert cert.irreducible and cert.subspace is None
    assert len(cert.words) == 4
    assert rank([[v for row in rep.loop_image(w) for v in row] for w in cert.words]) == 4


def test_bolibrukh_on_the_unlucky_pair(tmp_path, capsys):
    rows = "".join(", ".join(map(str, row)) + "\n" for m in UNLUCKY for row in m)
    path = tmp_path / "unlucky.txt"
    path.write_text("kind = monodromy_rep, n = 2, count = 2\n" + rows, encoding="utf-8")
    code = main(["bolibrukh", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"]["reducible"] is False
