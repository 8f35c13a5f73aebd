"""The names bench/tracing.py wraps at run time must exist in the package.

The tracer looks functions up by name, so a renamed or deleted one breaks
every ``--trace 1`` run.  The lists are read from the benchmark itself.
"""

import importlib
import importlib.util
from pathlib import Path

from reinhardt import SeriesSpec

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_names_the_benchmark_traces_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for table in (tracing.SPANS, tracing.COUNTED):
        for layer, names in table.items():
            module = importlib.import_module(f"reinhardt.{layer}")
            for name in names:
                assert callable(getattr(module, name, None)), f"reinhardt.{layer}.{name}"
    for method in tracing.COUNTED_METHODS:
        assert method in SeriesSpec.__dict__, f"SeriesSpec.{method}"
