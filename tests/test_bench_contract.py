"""Every per-layer metric of bench/run.py finds the lagdpw function it traces.

A refactor that deletes or renames a traced function would otherwise read 0
for that metric.  bench/run.py and bench/tracer.py are loaded from their
files and only read: nothing is installed and no workload runs.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import lagdpw

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_metric_has_its_function():
    for info in pkgutil.iter_modules(lagdpw.__path__):
        importlib.import_module(f"lagdpw.{info.name}")
    run, tracer = _load("run"), _load("tracer")
    assert run.absent_metrics(tracer.Tracer().targets) == []
