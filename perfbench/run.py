"""bgsplit benchmark: the CLI driven in process on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one sequential client in a
closed loop: each command starts when the previous one has returned, with
garbage collection between commands outside the timed interval.  Every
answer is checked against the value planted in its input.  With
``--trace 0`` the workload's commands run in PASSES passes, sized so the
passes take about S seconds on a 2-core Xeon, and each command's latency
is its best over the passes.  With ``--trace 1`` one traced pass gives the
per-layer metrics of ``tracing.METRICS``.

Times are scaled to a nominal machine speed.  The benchmark runs on shared
machines whose speed drifts by a third over seconds, which no number of
repeats averages out.  So a fixed reference snippet is timed (best of 3)
just before and just after every measured interval, and the interval is
multiplied by REFERENCE_NOMINAL over the mean of those two snippet times.
The report lines also give the unscaled values.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a readable report.  Exits 2 without a result when the package or the
workload cannot be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("cli", "bundles", "linalg", "lmatrix", "laurent", "monodromy", "fuchsian", "ratfunc")
PASSES = 2
SETUP_REPEATS = 3
REFERENCE_NOMINAL = 0.0005  # s, the snippet's typical time on a 2-core Xeon
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
# Printed, but not in the JSON metrics: the tail order statistic lands on the
# boundary between command clusters and moves 10-20 % between seeds.
REPORT_ONLY = ("tail_s",)
SHOWN_FAILURES = 5


class LoadError(Exception):
    pass


def import_bgsplit() -> dict:
    """Import the package afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "bgsplit" or m.startswith("bgsplit.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        mods = {name: importlib.import_module("bgsplit." + name) for name in MODULES}
    except ImportError as exc:
        raise LoadError(f"cannot import bgsplit from {SRC}: {exc}") from exc
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise LoadError(f"bgsplit was imported from {mods['cli'].__file__}, not {SRC}")
    return mods


def _reference_snippet() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 200):
        acc += Fraction(i, i + 1)
        table[i % 17] = table.get(i % 17, 0) + i * i
    return acc


def reference_time() -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_snippet()
        best = min(best, time.perf_counter() - start)
    return best


class Timing:
    """A measured interval: ``raw`` seconds, and ``scale``, the factor that
    takes it to nominal machine speed."""

    def __enter__(self):
        self.before = reference_time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.raw = time.perf_counter() - self.start
        self.scale = 2 * REFERENCE_NOMINAL / (self.before + reference_time())
        return False

    @property
    def seconds(self) -> float:
        return self.raw * self.scale


def run_command(main, job, tracer=None, command_id=None):
    """Run one command; returns (Timing, failure reason or None, output bytes)."""
    out, err = io.StringIO(), io.StringIO()
    scope = tracer.command(command_id) if tracer else contextlib.nullcontext()
    gc.collect()
    rc, error = None, None
    with Timing() as timing:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), scope:
            try:
                rc = main(job.argv)
            except Exception as exc:  # a traceback is a failed command, not a harness error
                error = f"raised {type(exc).__name__}: {exc}"
    if error:
        return timing, error, 0
    text = out.getvalue()
    nbytes = len(text.encode())
    if rc != 0:
        return timing, f"exit {rc}: {err.getvalue().strip()[:200]}", nbytes
    if job.out:
        with open(job.out, encoding="utf-8") as handle:
            text = handle.read()
        nbytes += len(text.encode())
    try:
        reason = job.check(json.loads(text))
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"unreadable result: {type(exc).__name__}: {exc}"
    return timing, reason, nbytes


class Pass:
    def __init__(self):
        self.timings = []  # in command order
        self.failures = []  # (argv, reason)
        self.output_bytes = 0


def run_pass(main, jobs, tracer=None) -> Pass:
    p = Pass()
    for i, job in enumerate(jobs):
        timing, reason, nbytes = run_command(main, job, tracer, i)
        p.timings.append(timing)
        p.output_bytes += nbytes
        if reason:
            p.failures.append((job.argv, reason))
    return p


def setup(name: str, seed: int, workdir: str, pass_seconds: float):
    """Import, generate and write the inputs, one warm-up command; repeated,
    so the set-up time is a median.  Returns (modules, jobs, times)."""
    times = []
    for _ in range(SETUP_REPEATS):
        with Timing() as timing:
            mods = import_bgsplit()
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            jobs = workloads.build(name, seed, workdir, pass_seconds)
            run_command(mods["cli"].main, jobs[0])
        times.append(timing)
    return mods, jobs, times


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} python={platform.python_version()} cpu={cpu!r} "
            f"commit={git_commit()}")


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        with open(os.path.join(git, head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()[:12]
    except OSError:
        return "unknown"


def describe_inputs(jobs) -> list:
    lines = []
    for cls in ("small", "rank", "wide"):
        group = [j for j in jobs if j.cls == cls]
        if not group:
            continue
        ranks = sorted({j.rank for j in group})
        spans = [j.span for j in group]
        lines.append(
            f"# inputs {cls}: {len(group)} commands, rank {ranks}, exponent span "
            f"{min(spans)}..{max(spans)}, coefficient bits <= {max(j.bits for j in group)}"
        )
    return lines


def end_to_end(jobs, passes, setup_times, attr="seconds"):
    """End-to-end metrics from scaled (``attr="seconds"``) or raw times.

    A command's latency is its best over the passes.  A class's latency is
    the mean over its inputs of the summed latency of each input's commands.
    Command kinds (``factor`` and ``verify``) and input families form
    clusters, and a median lands on the gap between two of them and jumps
    by a quarter between seeds; the mean over a fixed mix does not.
    """
    best = [min(getattr(p.timings[i], attr) for p in passes) for i in range(len(jobs))]
    per_input = defaultdict(float)
    for job, latency in zip(jobs, best):
        per_input[(job.cls, job.argv[1])] += latency
    every = [getattr(t, attr) for p in passes for t in p.timings]
    tail_value, tail_pct = tail(every)
    setup = [getattr(t, attr) for t in setup_times]
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)}"),
        "wall_s": (sum(best), "s", f"one pass, each command at its best of {len(passes)}"),
    }
    for cls in ("small", "rank", "wide"):
        inputs = [v for (c, _), v in per_input.items() if c == cls]
        metrics[f"{cls}_s"] = (statistics.fmean(inputs), "s", f"mean of {len(inputs)} inputs")
    metrics["tail_s"] = (tail_value, "s", f"p{tail_pct:.1f} of {len(every)} commands")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss, "MB", "whole process")
    return metrics


def growth_table(jobs, tracer, p: Pass) -> list:
    """Median per-command self time of each layer, by class, rank and span
    (bits for inputs without exponents)."""
    layers = tracing.per_command_layers(tracer, [t.scale for t in p.timings])
    groups = defaultdict(list)
    for i, job in enumerate(jobs):
        axis = (job.span, "span") if job.span else (1 << (job.bits - 1).bit_length(), "bits<=")
        groups[(job.cls, job.rank) + axis].append(i)
    lines = ["# growth table: median self time per command (s) by class, rank and "
             "exponent span (coefficient bits, rounded up to a power of two, without one)"]
    for (cls, rank, axis, axis_name), ids in sorted(groups.items()):
        med = statistics.median(p.timings[i].seconds for i in ids)
        names = sorted({m for i in ids for m in layers[i]})
        top = sorted(
            ((statistics.median(layers[i].get(m, 0.0) for i in ids), m) for m in names),
            reverse=True,
        )[:4]
        cells = " ".join(f"{m}={v:.4f}" for v, m in top)
        lines.append(f"#   {cls:5} n={rank:<2} {axis_name}{axis:<4} cmds={len(ids):<3} "
                     f"command={med:.4f} {cells}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        try:
            mods, jobs, setup_times = setup(
                args.workload, args.seed, workdir, args.seconds / PASSES)
        except (LoadError, OSError) as exc:
            print(f"benchmark cannot start: {exc}", file=sys.stderr)
            return 2
        cli_main = mods["cli"].main
        print(f"# bgsplit benchmark workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"# machine {machine()}")
        for line in describe_inputs(jobs):
            print(line)

        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer, mods)
            try:
                passes = [run_pass(cli_main, jobs, tracer)]
            finally:
                tracer.uninstall()
            metrics, missing = tracing.layer_metrics(
                tracer, args.workload, passes[0].output_bytes,
                [t.scale for t in passes[0].timings])
            for line in growth_table(jobs, tracer, passes[0]):
                print(line)
            print(f"# spans recorded: {len(tracer.spans)}")
            for name in missing:
                print(f"# MISSING probe: {name} never fired on {args.workload}")
        else:
            passes = [run_pass(cli_main, jobs) for _ in range(PASSES)]
            metrics = {}
            raw = end_to_end(jobs, passes, setup_times, "raw")
            for name, (value, unit, note) in end_to_end(jobs, passes, setup_times).items():
                if name not in REPORT_ONLY:
                    metrics[name] = {"value": value, "unit": unit}
                unscaled = f"; unscaled {raw[name][0]:.6g}" if unit == "s" else ""
                print(f"# {name} = {value:.6g} {unit} ({note}{unscaled})")
            scales = [t.scale for p in passes for t in p.timings]
            print(f"# speed scale: median {statistics.median(scales):.3f}, "
                  f"range {min(scales):.3f}..{max(scales):.3f}; run took "
                  f"{time.perf_counter() - started:.1f} s")

        attempted = sum(len(p.timings) for p in passes)
        failures = [f for p in passes for f in p.failures]
        print(f"# passes={len(passes)} attempted={attempted} failed={len(failures)} "
              f"fail_frac={len(failures) / attempted:.4g}")
        for argv_, reason in failures[:SHOWN_FAILURES]:
            print(f"# FAILED {' '.join(argv_)}: {reason}")
        print(json.dumps({
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # the parent, once no run uses it
            os.rmdir(os.path.dirname(workdir))


if __name__ == "__main__":
    sys.exit(main())
