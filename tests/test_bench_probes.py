"""The benchmark's traced pass patches named functions of the package
(``perfbench/tracing.py``).  Installing its probes here, and removing them
again, makes a moved or renamed probed function fail in the test suite
and not only in the traced benchmark run."""

import importlib
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
MODULES = ("cli", "bundles", "linalg", "lmatrix", "laurent", "monodromy", "fuchsian", "ratfunc")


def _load_tracing():
    """perfbench/tracing.py as a module, without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("_bench_tracing",
                                                  os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_binds_and_uninstall_restores_the_originals(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)  # tracing imports the benchmark's gen
    tracing = _load_tracing()
    modules = {name: importlib.import_module("bgsplit." + name) for name in MODULES}
    owners = [*modules.values(), modules["lmatrix"].LaurentMatrix, modules["laurent"].LaurentPoly]
    before = [(owner, dict(vars(owner))) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
        patched = [(owner, attr) for owner, attr, _ in tracer._undo]
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr in patched:
        assert any(owner is o and attr in names for o, names in before), (owner, attr)
    for owner, names in before:
        for attr, value in names.items():
            assert vars(owner)[attr] is value, (owner, attr)
