"""The four benchmark workloads: seeded inputs, CLI commands and checks.

``build(name, seed, workdir)`` writes every input file of a workload into
``workdir`` and returns its commands as ``Job``s in pass order.  Each job
carries a check that compares the command's JSON document with the
answer planted by construction; a check returns ``None`` when the answer
is right and a reason otherwise.  Size classes:

* ``small``: low rank, short exponent span, small coefficients, plus the
  sample files in ``demos/data/``;
* ``rank``: the workload's high-rank inputs;
* ``wide``: the second axis grows - exponent span for bundles, coefficient
  bit size for monodromy tuples and hypergeometric parameters.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

import gen

DEMO = os.path.join("demos", "data")
FROBENIUS_ORDER = 8


@dataclass
class Job:
    cls: str
    argv: List[str]
    check: Callable[[dict], Optional[str]]
    rank: int
    span: int  # entry exponent span of a bundle, 0 for other inputs
    bits: int  # largest numerator or denominator bit length of the input
    out: Optional[str] = None  # document written with --out, if any


class Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.serial = 0

    def write(self, text: str, suffix: str = "txt") -> str:
        self.serial += 1
        path = os.path.join(self.workdir, f"in{self.serial:04d}.{suffix}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


# -- checks -------------------------------------------------------------------


def _expect(label: str, got, want) -> Optional[str]:
    return None if got == want else f"{label}: got {got!r}, want {want!r}"


def _first_failure(*reasons) -> Optional[str]:
    return next((r for r in reasons if r), None)


def _matrix_polys(rows) -> List[List[gen.Poly]]:
    return [[gen.parse_poly(cell) for cell in row] for row in rows]


def check_split(d: Sequence[int]):
    want = sorted(d, reverse=True)

    def check(doc):
        cert = doc["certificate"]
        profile = {int(k): v for k, v in cert["section_counts"].items()}
        det = gen.parse_poly(cert["determinant"])
        return _first_failure(
            _expect("indices", doc["result"]["indices"], want),
            _expect("section counts", profile, {k: gen.section_count(d, k) for k in profile}),
            _expect("det exponent", list(det), [sum(d)]),
        )

    return check


def check_h0(a: gen.PMatrix, d: Sequence[int], k: int):
    def check(doc):
        basis = doc["certificate"]["basis"]
        dim = doc["result"]["dimension"]
        reason = _first_failure(
            _expect("dimension", dim, gen.section_count(d, k)),
            _expect("basis size", len(basis), dim),
        )
        if reason:
            return reason
        for pair in basis:
            s0 = [gen.parse_poly(t) for t in pair["s0"]]
            s1 = [gen.parse_poly(t) for t in pair["s1"]]
            if any(e < 0 for p in s0 for e in p) or any(e > 0 for p in s1 for e in p):
                return "section pair is not (polynomial, antipolynomial)"
            for row, want in zip(a, s0):
                got: gen.Poly = {}
                for entry, p in zip(row, s1):
                    got = gen.padd(got, gen.pmul(entry, p))
                if gen.pshift(got, k) != want:
                    return "basis pair violates s0 = x^k A s1"
        return None

    return check


def check_rr(d: Sequence[int], k: int):
    def check(doc):
        r = doc["result"]
        return _first_failure(
            _expect("h0", r["h0"], gen.section_count(d, k)),
            _expect("h1", r["h1"], sum(max(0, -di - k - 1) for di in d)),
            _expect("degree", r["degree"], sum(d) + len(d) * k),
            _expect("holds", r["holds"], True),
        )

    return check


def check_factor(d: Sequence[int]):
    want = sorted(d, reverse=True)

    def check(doc):
        cert = doc["certificate"]
        b, c = _matrix_polys(cert["b"]), _matrix_polys(cert["c"])
        return _first_failure(
            _expect("exponents", doc["result"]["exponents"], want),
            _expect("diagonal", cert["diagonal"], want),
            None if all(e >= 0 for row in b for p in row for e in p) else "B not polynomial",
            None if all(e <= 0 for row in c for p in row for e in p) else "C not antipolynomial",
        )

    return check


def check_verify(doc):
    return _expect("valid", doc["result"]["valid"], True)


def check_bolibrukh(family: str):
    def check(doc):
        r = doc["result"]
        reason = _first_failure(
            _expect("reducible", r["reducible"], family != "irreducible"),
            _expect("applies", r["applies"], family == "jordan"),
        )
        if reason or family != "jordan":
            return reason
        return _first_failure(
            _expect("product", r["product_is_identity"], True),
            _expect("single blocks", r["all_single_block"], True),
            _expect("eigenvalues", r["eigenvalues"], ["1", "1", "-1"]),
        )

    return check


def check_frobenius(doc):
    return _first_failure(
        _expect("order", doc["result"]["order"], FROBENIUS_ORDER),
        None if doc["result"]["residual_order"] >= FROBENIUS_ORDER else "residual order below N",
    )


def check_fuchs_system(doc):
    return _first_failure(
        _expect("holds", doc["result"]["holds"], True),
        _expect("trace sum", doc["result"]["trace_sum"], "0"),
    )


def check_fuchs_ode(doc):
    return _expect("holds", doc["result"]["holds"], True)


def check_indicial(exponents: Sequence[Fraction]):
    want = Counter(Fraction(e) for e in exponents)

    def check(doc):
        got = Counter()
        for root in doc["result"]["rational_roots"]:
            got[Fraction(root["value"])] += root["multiplicity"]
        return _expect("exponents", got, want)

    return check


def check_gauge(b: gen.PMatrix):
    def check(doc):
        return _expect("matrix", _matrix_polys(doc["result"]["matrix"]), b)

    return check


# -- bundle workloads ---------------------------------------------------------

# Per class: (inputs, templates).  A template is (splitting type d, exact
# entry exponent range, total term window) of U diag(x^d) V with 3n
# elementary factors a side; the range is the most frequent one and the
# window the middle of the term counts, so rejection sampling stays cheap
# and every seed's inputs of a template cost about the same.  Input counts
# are for a pass of PASS_SECONDS on a 2-core Xeon; ``scale`` stretches them
# to the pass length asked for.
PASS_SECONDS = 7.0
SMALL_TEMPLATES = [((1, -1), (-2, 3), (19, 21)), ((2, 0), (-1, 4), (19, 21)),
                   ((1, 0, -1), (-3, 3), (43, 46)), ((0, 0, -1), (-3, 2), (36, 40))]
SECTIONS_PLAN = {
    "small": (10, SMALL_TEMPLATES),
    "rank": (8, [((1, 0, 0, 0, -1), (-2, 3), (87, 95)), ((1, 0, 0, -1, -1), (-3, 2), (87, 95))]),
    "wide": (6, [((6, -6), (-7, 8), (24, 27)), ((7, -7), (-8, 9), (24, 27)),
                 ((8, -8), (-9, 10), (24, 27))]),
}
FACTOR_PLAN = {
    "small": (16, SMALL_TEMPLATES),
    "rank": (12, [((1, 1, 0, 0, -1, -1), (-4, 4), (168, 181)),
                  ((2, 1, 0, 0, -1, -2), (-4, 4), (168, 183))]),
    "wide": (24, [((7, -7), (-8, 9), (24, 27)), ((8, -8), (-9, 10), (24, 27)),
                  ((9, -9), (-10, 11), (24, 27))]),
}
EXTENSION = ([[{1: Fraction(1)}, {0: Fraction(1)}], [{}, {-1: Fraction(1)}]], (1, -1))


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _bundles(plan, rng, scale):
    """(class, matrix, d, slot index) for every planted input of a plan."""
    for cls, (count, templates) in plan.items():
        for i in range(_count(count, scale)):
            d, lo_hi, terms = templates[i % len(templates)]
            yield cls, gen.planted_in_window(rng, d, lo_hi, terms), d, i


def _dims(a: gen.PMatrix):
    lo, hi = gen.exponent_range(a)
    return len(a), hi - lo, gen.coeff_bits(c for row in a for p in row for c in p.values())


def sections(rng, w: Writer, scale: float) -> List[Job]:
    jobs = []
    inputs = [("small", EXTENSION[0], EXTENSION[1], 0, os.path.join(DEMO, "extension.txt"))]
    inputs += [(cls, a, d, i, None) for cls, a, d, i in _bundles(SECTIONS_PLAN, rng, scale)]
    for cls, a, d, slot, path in inputs:
        path = path or w.write(gen.fmt_laurent_matrix(a, f"planted d = {d}"))
        k = (0, -1, 1)[slot % 3]
        dims = _dims(a)
        jobs.append(Job(cls, ["split", path], check_split(d), *dims))
        jobs.append(Job(cls, ["h0", path, "-k", str(k)], check_h0(a, d, k), *dims))
        jobs.append(Job(cls, ["rr", path, "-k", str(k)], check_rr(d, k), *dims))
    return jobs


def factor(rng, w: Writer, scale: float) -> List[Job]:
    jobs = []
    inputs = [("small", EXTENSION[0], EXTENSION[1], os.path.join(DEMO, "extension.txt"))]
    inputs += [(cls, a, d, None) for cls, a, d, _ in _bundles(FACTOR_PLAN, rng, scale)]
    for cls, a, d, path in inputs:
        path = path or w.write(gen.fmt_laurent_matrix(a, f"planted d = {d}"))
        doc = w.write("", "json")
        dims = _dims(a)
        jobs.append(Job(cls, ["factor", path, "--out", doc], check_factor(d), *dims, out=doc))
        jobs.append(Job(cls, ["verify", path, doc], check_verify, *dims))
    return jobs


# -- monodromy ------------------------------------------------------------------

FAMILIES = {
    "reducible": gen.reducible_tuple,
    "irreducible": gen.irreducible_pair,
    "jordan": gen.jordan_tuple,
}
# class: (inputs, size n, magnitude of the conjugator's triangular entries)
MONODROMY_PLAN = {"small": (18, 4, 2), "rank": (6, 8, 2), "wide": (6, 6, 1000)}


def monodromy(rng, w: Writer, scale: float) -> List[Job]:
    jobs = [Job("small", ["bolibrukh", os.path.join(DEMO, "monodromy.txt")],
                check_bolibrukh("jordan"), 4, 0, 3)]
    for cls, (count, n, size) in MONODROMY_PLAN.items():
        for i in range(_count(count, scale)):
            family = list(FAMILIES)[i % len(FAMILIES)]
            mats = FAMILIES[family](rng, n, size)
            path = w.write(gen.fmt_monodromy(mats, f"{family} family"))
            bits = gen.coeff_bits(v for m in mats for row in m for v in row)
            jobs.append(Job(cls, ["bolibrukh", path], check_bolibrukh(family), n, 0, bits))
    return jobs


# -- Fuchsian ---------------------------------------------------------------------


def _hypergeometric_jobs(cls, path, a, b, c, points=("oo", "0", "1")) -> List[Job]:
    bits = gen.coeff_bits((a, b, c))
    exponents = {"0": (0, 1 - c), "1": (0, c - a - b), "oo": (a, b)}
    jobs = [Job(cls, ["fuchs-ode", path], check_fuchs_ode, 2, 0, bits)]
    for p in points:
        jobs.append(Job(cls, ["indicial", path, "-p", p], check_indicial(exponents[p]), 2, 0, bits))
    return jobs


def _next_prime(v: int) -> int:
    while any(v % q == 0 for q in range(2, int(v**0.5) + 1)) or v < 2:
        v += 1
    return v


def _local_job(cls, rng, w, n) -> Job:
    mats = gen.local_system(rng, n, 2)
    path = w.write(gen.fmt_rat_matrix_list(mats, "residue R, then the analytic tail"))
    bits = gen.coeff_bits(v for m in mats for row in m for v in row)
    return Job(cls, ["frobenius", path, "-N", str(FROBENIUS_ORDER)], check_frobenius, n, 0, bits)


def _residue_job(cls, rng, w, n, integral) -> Job:
    points, residues = gen.residue_system(rng, n, 3, integral)
    path = w.write(gen.fmt_fuchsian_system(points, residues, "residue system"))
    bits = gen.coeff_bits(v for m in residues for row in m for v in row)
    return Job(cls, ["fuchs-system", path], check_fuchs_system, n, 0, bits)


def _gauge_job(cls, rng, w, n) -> Job:
    a, p, b = gen.gauge_pair(rng, n, 2)
    path_a = w.write(gen.fmt_laurent_matrix(a, "system matrix"))
    path_p = w.write(gen.fmt_laurent_matrix(p, "gauge matrix"))
    bits = gen.coeff_bits(c for m in (a, p) for row in m for q in row for c in q.values())
    return Job(cls, ["gauge", path_a, path_p], check_gauge(b), n, 0, bits)


# Denominator targets of the wide hypergeometric parameters (primes at or
# above each target, so the rational-root search grows with the target).
WIDE_DENOMINATORS = (2000, 4000, 8000, 16000, 32000)


def fuchsian(rng, w: Writer, scale: float) -> List[Job]:
    third, seventh, half = Fraction(1, 3), Fraction(1, 7), Fraction(1, 2)
    jobs = [
        Job("small", ["frobenius", os.path.join(DEMO, "local_system.txt"), "-N",
                      str(FROBENIUS_ORDER)], check_frobenius, 2, 0, 2),
        Job("small", ["fuchs-system", os.path.join(DEMO, "residue_system.txt")],
            check_fuchs_system, 2, 0, 1),
    ]
    jobs += _hypergeometric_jobs("small", os.path.join(DEMO, "hypergeometric.txt"),
                                 third, seventh, half)
    for i in range(_count(6, scale)):
        n = 2 + i % 2
        jobs.append(_local_job("small", rng, w, n))
        jobs.append(_residue_job("small", rng, w, n, integral=False))
        jobs.append(_gauge_job("small", rng, w, 2))
        den_a, den_b = rng.choice((3, 5, 7, 11)), rng.choice((13, 17, 19))
        a, b = Fraction(rng.randint(1, den_a - 1), den_a), Fraction(rng.randint(1, den_b - 1), den_b)
        path = w.write(gen.hypergeometric(a, b, half))
        jobs += _hypergeometric_jobs("small", path, a, b, half)
    for i in range(_count(12, scale)):
        n = 6 + i % 3
        jobs.append(_local_job("rank", rng, w, n))
        jobs.append(_residue_job("rank", rng, w, n, integral=True))
        jobs.append(_gauge_job("rank", rng, w, 4))
    for i in range(_count(3 * len(WIDE_DENOMINATORS), scale)):
        target = WIDE_DENOMINATORS[i % len(WIDE_DENOMINATORS)]
        den_a = _next_prime(target + rng.randint(0, target // 10))
        den_b = _next_prime(den_a + 2)
        # Prime numerators too: the rational-root search tries every divisor
        # pair, so composite numerators would make the cost a lottery.
        a = Fraction(_next_prime(rng.randint(den_a // 2, den_a * 7 // 8)), den_a)
        b = Fraction(_next_prime(rng.randint(den_b // 2, den_b * 7 // 8)), den_b)
        path = w.write(gen.hypergeometric(a, b, half))
        jobs += _hypergeometric_jobs("wide", path, a, b, half, points=("oo",))
    return jobs


GENERATORS: Dict[str, Callable] = {
    "sections": sections,
    "factor": factor,
    "monodromy": monodromy,
    "fuchsian": fuchsian,
}

# One seed stream per workload, so the bundle workloads never share inputs.
STREAMS = {"sections": 11, "factor": 23, "monodromy": 37, "fuchsian": 53}


def build(name: str, seed: int, workdir: str, pass_seconds: float) -> List[Job]:
    """The workload's commands for one pass of about ``pass_seconds``."""
    rng = random.Random(seed * 1009 + STREAMS[name])
    return GENERATORS[name](rng, Writer(workdir), pass_seconds / PASS_SECONDS)
