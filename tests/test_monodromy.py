import random
from fractions import Fraction
from pathlib import Path

import pytest

from bgsplit import monodromy
from bgsplit.errors import NotInvertible
from bgsplit.io import parse_matrix_file
from bgsplit.laurent import LaurentPoly
from bgsplit.linalg import charpoly, det_q, inverse_q, mat_mul, qmat
from bgsplit.monodromy import (
    COUNTEREXAMPLE_MATRICES,
    bolibrukh_criterion,
    check_product_identity,
    coordinate_invariant_subspace,
    is_irreducible,
    jordan_profile,
    monodromy_rep,
)

from oracles import invariant_coordinate_subspace_bruteforce

F = Fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def jordan_block(mu, n):
    return [
        [mu if i == j else (1 if j == i + 1 else 0) for j in range(n)]
        for i in range(n)
    ]


def test_counterexample_product_identity():
    rep = monodromy_rep(COUNTEREXAMPLE_MATRICES)
    assert check_product_identity(rep)
    m = COUNTEREXAMPLE_MATRICES[0]
    assert check_product_identity(monodromy_rep([m, inverse_q(m)]))
    assert not check_product_identity(monodromy_rep([[[2, 0], [0, 1]]]))


def test_counterexample_full_report():
    rep = monodromy_rep(COUNTEREXAMPLE_MATRICES)
    report = bolibrukh_criterion(rep)
    assert report.product_is_identity
    assert report.reducible
    assert report.invariant_subspace_witness == (0, 1)
    assert report.all_single_block
    assert report.eigenvalues == (F(1), F(1), F(-1))
    assert report.eigenvalue_product == F(-1)
    assert report.applies


def test_irreducibility_word_span():
    assert is_irreducible(monodromy_rep([[[1, 1], [0, 1]], [[1, 0], [1, 1]]]))
    assert not is_irreducible(monodromy_rep(COUNTEREXAMPLE_MATRICES))
    assert not is_irreducible(monodromy_rep([[[1, 1], [0, 1]]]))


def test_gaussian_pair_with_wide_entries_needs_the_exact_closure():
    # two 3 x 3 Gaussian-integer matrices as 6 x 6 rational ones, conjugated
    # by L U with entries +-1000: their algebra is M_3(Q(i)), of dimension
    # 18, so the F_p span stops short of 36 and the exact closure, on rows
    # of 36 entries of about 100 bits, finds no certificate either
    path = Path(__file__).parent / "data" / "monodromy_gaussian6_wide.txt"
    rep = parse_matrix_file(path.read_text(encoding="utf-8")).obj
    assert monodromy._word_span_dimension(rep, monodromy.WORD_SPAN_PRIME) < 36
    assert monodromy._word_span_dimension(rep) == 18
    cert = monodromy.irreducibility_certificate(rep)
    assert not cert.irreducible and cert.words is None and cert.subspace is None


def test_irreducibility_vs_bruteforce_coordinate_subspaces():
    rng = random.Random(71)
    found_reducible = 0
    for _ in range(40):
        n = rng.randint(2, 3)
        mats = []
        for _ in range(2):
            while True:
                m = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
                if rng.random() < 0.5:
                    # force a common invariant coordinate plane sometimes
                    for i in range(1, n):
                        m[i][0] = F(0)
                if det_q(m) != 0:
                    mats.append(m)
                    break
        rep = monodromy_rep(mats)
        witness = invariant_coordinate_subspace_bruteforce(
            [qmat(m) for m in mats], n
        )
        assert coordinate_invariant_subspace(rep) == witness
        if witness is not None:
            found_reducible += 1
            assert not is_irreducible(rep)  # one-sided check
    assert found_reducible > 0


def test_jordan_profile_examples():
    assert jordan_profile([[2, 1], [0, 2]]).single_block
    assert jordan_profile([[2, 1], [0, 2]]).single_eigenvalue == 2
    diag = jordan_profile([[2, 0], [0, 2]])
    assert diag.single_eigenvalue == 2 and not diag.single_block
    m2 = jordan_profile(COUNTEREXAMPLE_MATRICES[1])
    assert m2.single_eigenvalue == 1 and m2.single_block
    m3 = jordan_profile(COUNTEREXAMPLE_MATRICES[2])
    assert m3.single_eigenvalue == -1 and m3.single_block
    # two distinct eigenvalues: no single eigenvalue at all, whatever the
    # mean 3/2, since the profile computes its own characteristic polynomial
    two = jordan_profile([[1, 0], [0, 2]])
    assert two.single_eigenvalue is None
    assert two.charpoly == LaurentPoly({2: 1, 1: -3, 0: 2})
    # irrational eigenvalue pair: correctly not a single eigenvalue
    assert jordan_profile([[0, 2], [1, 0]]).single_eigenvalue is None


@pytest.mark.parametrize("matrices", (
    COUNTEREXAMPLE_MATRICES,
    [identity(4), identity(4)],
    [[[0, 1], [-1, 0]], [[0, -1], [1, 0]]],
), ids=("counterexample", "identities", "rotations"))
def test_criterion_computes_each_charpoly_once(monkeypatch, matrices):
    calls = []

    def counted(m):
        calls.append(m)
        return charpoly(m)

    monkeypatch.setattr(monodromy, "charpoly", counted)
    rep = monodromy_rep(matrices)
    bolibrukh_criterion(rep)
    assert calls == list(rep.matrices)


def test_jordan_profile_blocks_up_to_six():
    rng = random.Random(72)
    for n in range(1, 7):
        mu = F(rng.randint(1, 9), rng.randint(1, 4))
        profile = jordan_profile(jordan_block(mu, n))
        assert profile.single_eigenvalue == mu
        assert profile.single_block


def test_criterion_negative_cases():
    rep = monodromy_rep([identity(4), identity(4)])
    report = bolibrukh_criterion(rep)
    assert report.product_is_identity and report.reducible
    assert not report.all_single_block and not report.applies

    j = jordan_block(F(1), 4)
    rep = monodromy_rep([j, inverse_q(qmat(j))])
    report = bolibrukh_criterion(rep)
    assert report.eigenvalue_product == 1 and not report.applies
    assert "eigenvalue product" in report.reason

    small = monodromy_rep([[[1, 1], [0, 1]], inverse_q(qmat([[1, 1], [0, 1]]))])
    report = bolibrukh_criterion(small)
    assert not report.applies and "size at least 4" in report.reason


def test_conjugation_invariance():
    rng = random.Random(73)
    rep = monodromy_rep(COUNTEREXAMPLE_MATRICES)
    base = bolibrukh_criterion(rep)
    done = 0
    while done < 5:
        s = [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        if det_q(s) == 0:
            continue
        done += 1
        conj = bolibrukh_criterion(rep.conjugated(s))
        assert conj.product_is_identity == base.product_is_identity
        assert conj.reducible == base.reducible
        assert conj.all_single_block == base.all_single_block
        assert conj.eigenvalue_product == base.eigenvalue_product
        assert conj.applies == base.applies


def test_loop_composition_reverses_order():
    a, b = qmat([[1, 1], [0, 1]]), qmat([[1, 0], [1, 1]])
    rep = monodromy_rep([a, b])
    assert rep.loop_image([0, 1]) == mat_mul(b, a)
    assert rep.loop_image([1, 0]) == mat_mul(a, b)
    assert rep.loop_image([]) == qmat(identity(2))


def test_singular_matrices_rejected():
    with pytest.raises(NotInvertible):
        monodromy_rep([[[1, 1], [1, 1]]])
