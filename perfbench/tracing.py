"""Call-site tracing for the traced benchmark run.

Spans are recorded from outside the package: each layer function is
replaced, on every module that binds it, by a wrapper that records
``[name, start, end, parent index, command id]``.  ``LaurentMatrix``
methods are patched on the class; ``LaurentPoly`` multiplication gets a
counting wrapper only, because a span would cost as much as the call.
A layer's self time is its span duration minus the part its child spans
cover.  Work a probe does to read a return value (bit lengths, ranks) is
recorded as a ``trace.probe`` child span, so it is charged to no layer.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List

import gen

perf = time.perf_counter

ALL = ("sections", "factor", "monodromy", "fuchsian")
BUNDLES = ("sections", "factor")

# (metric, unit, kind, sources, workloads whose pass must fire the probe)
# kind "self": summed self time of the source spans; "calls": number of
# source spans; "count"/"max": a counter kept by a probe on the first
# source span; "ratio": counters (numerator, denominator) of that probe.
METRICS = [
    ("io.parse_s", "s", "self", ("io.parse_matrix_file", "io.parse_laurent", "io.parse_point"), ALL),
    ("io.render_s", "s", "self", ("io.result_document", "io.render_json", "io.render_text"), ALL),
    ("io.output_bytes", "bytes", "output", (), ALL),
    ("bundles.h0_calls", "count", "calls", ("bundles._h0_dimension",), ("sections",)),
    ("bundles.h0_widen_calls", "count", "count:bundles.h0_widen", ("bundles._h0_dimension",), ("sections",)),
    ("bundles.h0_s", "s", "self", ("bundles._h0_dimension", "bundles.h0_dim"), ("sections",)),
    ("bundles.section_rows_s", "s", "self", ("bundles._section_rows",), ("sections",)),
    ("bundles.verify_s", "s", "self", ("bundles.verify_factorization",), ("factor",)),
    ("linalg.echelon_calls", "count", "calls", ("linalg.echelon_sparse",), ("sections", "monodromy", "fuchsian")),
    ("linalg.echelon_rows", "count", "count:linalg.echelon_rows", ("linalg.echelon_sparse",), ("sections", "monodromy", "fuchsian")),
    ("linalg.echelon_rank", "count", "count:linalg.echelon_rank", ("linalg.echelon_sparse",), ("sections", "monodromy", "fuchsian")),
    ("linalg.echelon_yield", "ratio", "ratio:linalg.echelon_rank/linalg.echelon_rows", ("linalg.echelon_sparse",), ("sections", "monodromy", "fuchsian")),
    ("linalg.echelon_s", "s", "self", ("linalg.echelon_sparse",), ("sections", "monodromy", "fuchsian")),
    ("linalg.intify_s", "s", "self", ("linalg.sparse_int_rows",), ("sections", "monodromy", "fuchsian")),
    ("linalg.backsub_s", "s", "self", ("linalg.sparse_kernel",), ("sections",)),
    ("linalg.coeff_bits_max", "bits", "max:linalg.coeff_bits", ("linalg.echelon_sparse",), ("sections", "monodromy", "fuchsian")),
    ("linalg.solve_s", "s", "self", ("linalg.solve",), ("fuchsian",)),
    ("linalg.det_q_s", "s", "self", ("linalg.det_q",), ("monodromy", "fuchsian")),
    ("linalg.charpoly_s", "s", "self", ("linalg.charpoly",), ("monodromy", "fuchsian")),
    ("linalg.resultant_s", "s", "self", ("linalg.resultant",), ("fuchsian",)),
    ("linalg.rational_roots_s", "s", "self", ("linalg.rational_roots",), ("fuchsian",)),
    ("linalg.mat_mul_s", "s", "self", ("linalg.mat_mul",), ("monodromy",)),
    ("lmatrix.det_calls", "count", "calls", ("lmatrix.det",), BUNDLES),
    ("lmatrix.det_s", "s", "self", ("lmatrix.det",), BUNDLES),
    ("lmatrix.inverse_calls", "count", "calls", ("lmatrix.inverse",), BUNDLES),
    ("lmatrix.inverse_s", "s", "self", ("lmatrix.inverse",), BUNDLES),
    ("lmatrix.matmul_calls", "count", "calls", ("lmatrix.matmul",), ("factor",)),
    ("lmatrix.matmul_s", "s", "self", ("lmatrix.matmul",), ("factor",)),
    ("orderbasis.factor_s", "s", "self", ("orderbasis.factor_to_diagonal",), ("factor",)),
    ("orderbasis.coeff_bits_max", "bits", "max:orderbasis.coeff_bits", ("orderbasis.factor_to_diagonal",), ("factor",)),
    ("monodromy.wordspan_s", "s", "self", ("monodromy._word_span_dimension",), ("monodromy",)),
    ("monodromy.words_tried", "count", "count:monodromy.words_tried", ("monodromy._word_span_dimension",), ("monodromy",)),
    ("monodromy.wordspan_yield", "ratio", "ratio:monodromy.span_dim/monodromy.words_tried", ("monodromy._word_span_dimension",), ("monodromy",)),
    ("monodromy.witness_s", "s", "self", ("monodromy.coordinate_invariant_subspace",), ("monodromy",)),
    ("monodromy.jordan_s", "s", "self", ("monodromy.jordan_profile",), ("monodromy",)),
    ("fuchsian.frobenius_s", "s", "self", ("fuchsian.frobenius_series",), ("fuchsian",)),
    ("fuchsian.residual_s", "s", "self", ("fuchsian.ode_residual",), ("fuchsian",)),
    ("fuchsian.exponents_s", "s", "self", ("fuchsian.exponents_system",), ("fuchsian",)),
    ("fuchsian.scalar_s", "s", "self", ("fuchsian.fuchs_relation_scalar", "fuchsian.indicial_polynomial"), ("fuchsian",)),
    ("fuchsian.gauge_s", "s", "self", ("fuchsian.gauge_transform",), ("fuchsian",)),
    ("ratfunc.gcd_calls", "count", "calls", ("ratfunc.poly_gcd",), ("fuchsian",)),
    ("ratfunc.gcd_s", "s", "self", ("ratfunc.poly_gcd",), ("fuchsian",)),
    ("laurent.mul_calls", "count", "count:laurent.mul", (), ("sections", "factor", "fuchsian")),
    ("cli.self_s", "s", "self", ("cli.command",), ALL),
    ("trace.wall_s", "s", "wall", (), ALL),
]

# Value reported for a probe that never fired on a workload it is assigned
# to: impossible for every metric, so it can never be read as "no work".
MISSING = -1


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.command_id = None
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # -- instrumentation ---------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer, spans, stack = self, self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.command_id is None:
                return orig(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.command_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            if on_return is not None:
                probe = ["trace.probe", perf(), 0.0, stack[-1] if stack else -1, tracer.command_id]
                spans.append(probe)
                on_return(tracer, args, kwargs, result)
                probe[2] = perf()
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def count(self, owner, attr: str, name: str) -> None:
        orig = owner.__dict__[attr]
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return orig(*args)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    @contextmanager
    def command(self, command_id: int):
        """Root span of one CLI command; spans inside it carry its id."""
        rec = ["cli.command", 0.0, 0.0, -1, command_id]
        self.command_id = command_id
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf()
        try:
            yield
        finally:
            rec[2] = perf()
            self._stack.pop()
            self.command_id = None

    # -- results -----------------------------------------------------------

    def self_times(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(rec[2] - rec[1]) - covered[i] for i, rec in enumerate(self.spans)]

    def finish(self) -> None:
        """Derive counters that need the whole span tree."""
        names = [rec[0] for rec in self.spans]
        for i, rec in enumerate(self.spans):
            if rec[0] == "monodromy._word_span_dimension":
                self.counts["monodromy.words_tried"] += 1  # the identity word
            elif rec[0] == "linalg.mat_mul" and rec[3] >= 0 and names[rec[3]] == "monodromy._word_span_dimension":
                self.counts["monodromy.words_tried"] += 1


def _echelon_probe(tracer, args, kwargs, result):
    tracer.counts["linalg.echelon_rows"] += len(args[0])
    tracer.counts["linalg.echelon_rank"] += len(result)
    bits = max((abs(v).bit_length() for row in result.values() for v in row.values()), default=0)
    tracer.maxima["linalg.coeff_bits"] = max(tracer.maxima["linalg.coeff_bits"], bits)


def _h0_probe(tracer, args, kwargs, result):
    extra = args[2] if len(args) > 2 else kwargs.get("extra", 0)
    if extra > 0:
        tracer.counts["bundles.h0_widen"] += 1


def _factor_probe(tracer, args, kwargs, result):
    b, _, c = result
    bits = gen.coeff_bits(
        coeff for m in (b, c) for row in m.entries for p in row for coeff in p.terms.values()
    )
    tracer.maxima["orderbasis.coeff_bits"] = max(tracer.maxima["orderbasis.coeff_bits"], bits)


def _wordspan_probe(tracer, args, kwargs, result):
    tracer.counts["monodromy.span_dim"] += result


def install(tracer: Tracer, modules) -> None:
    """Patch every call site the metrics read; ``modules`` maps short
    module names to the imported bgsplit modules."""
    cli, bundles, linalg = modules["cli"], modules["bundles"], modules["linalg"]
    monodromy, fuchsian, ratfunc = modules["monodromy"], modules["fuchsian"], modules["ratfunc"]
    matrix, poly = modules["lmatrix"].LaurentMatrix, modules["laurent"].LaurentPoly
    w = tracer.wrap
    for attr in ("parse_matrix_file", "parse_laurent", "parse_point", "result_document",
                 "render_json", "render_text"):
        w(cli, attr, "io." + attr)
    w(bundles, "_h0_dimension", "bundles._h0_dimension", _h0_probe)
    for attr in ("h0_dim", "_section_rows", "verify_factorization"):
        w(bundles, attr, "bundles." + attr)
    w(bundles, "sparse_kernel", "linalg.sparse_kernel")
    w(bundles, "factor_to_diagonal", "orderbasis.factor_to_diagonal", _factor_probe)
    w(linalg, "echelon_sparse", "linalg.echelon_sparse", _echelon_probe)
    for owner, attr in ((linalg, "sparse_int_rows"), (fuchsian, "solve"), (linalg, "det_q"),
                        (monodromy, "det_q"), (monodromy, "charpoly"), (fuchsian, "charpoly"),
                        (fuchsian, "resultant"), (fuchsian, "rational_roots"),
                        (linalg, "rational_roots"), (monodromy, "mat_mul")):
        w(owner, attr, "linalg." + attr)
    w(matrix, "det", "lmatrix.det")
    w(matrix, "inverse", "lmatrix.inverse")
    w(matrix, "__matmul__", "lmatrix.matmul")
    w(monodromy, "_word_span_dimension", "monodromy._word_span_dimension", _wordspan_probe)
    for attr in ("coordinate_invariant_subspace", "jordan_profile"):
        w(monodromy, attr, "monodromy." + attr)
    for attr in ("frobenius_series", "ode_residual", "exponents_system", "fuchs_relation_scalar",
                 "indicial_polynomial", "gauge_transform"):
        w(fuchsian, attr, "fuchsian." + attr)
    w(ratfunc, "poly_gcd", "ratfunc.poly_gcd")
    tracer.count(poly, "__mul__", "laurent.mul")
    tracer.count(poly, "__rmul__", "laurent.mul")


def layer_metrics(tracer: Tracer, workload: str, output_bytes: int, scales: List[float]):
    """Per-layer metrics of a traced pass, and the names of missing probes.
    ``scales[i]`` takes command i's times to nominal machine speed."""
    tracer.finish()
    selfs = defaultdict(float)
    calls = Counter()
    wall = 0.0
    for rec, own in zip(tracer.spans, tracer.self_times()):
        selfs[rec[0]] += own * scales[rec[4]]
        calls[rec[0]] += 1
        if rec[0] == "cli.command":
            wall += (rec[2] - rec[1]) * scales[rec[4]]
    metrics: Dict[str, dict] = {}
    missing = []
    for name, unit, kind, sources, assigned in METRICS:
        if sources:
            fired = any(calls[s] for s in sources)
        else:  # a counting probe, or a value the harness measures itself
            fired = not kind.startswith("count:") or tracer.counts[kind[6:]] > 0
        if not fired and workload in assigned:
            metrics[name] = {"value": MISSING, "unit": unit}
            missing.append(name)
            continue
        if kind == "self":
            value = sum(selfs[s] for s in sources)
        elif kind == "calls":
            value = sum(calls[s] for s in sources)
        elif kind.startswith("count:"):
            value = tracer.counts[kind[6:]]
        elif kind.startswith("max:"):
            value = tracer.maxima[kind[4:]]
        elif kind.startswith("ratio:"):
            num, den = kind[6:].split("/")
            value = tracer.counts[num] / tracer.counts[den] if tracer.counts[den] else 0
        elif kind == "output":
            value = output_bytes
        else:  # "wall"
            value = wall
        metrics[name] = {"value": value, "unit": unit}
    return metrics, missing


def per_command_layers(tracer: Tracer, scales: List[float]) -> Dict[int, Dict[str, float]]:
    """Self time per command id and per self-time metric, scaled."""
    source_metric = {
        s: name for name, _, kind, sources, _ in METRICS if kind == "self" for s in sources
    }
    out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for rec, own in zip(tracer.spans, tracer.self_times()):
        metric = source_metric.get(rec[0])
        if metric is not None:
            out[rec[4]][metric] += own * scales[rec[4]]
    return out
