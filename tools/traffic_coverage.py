"""List the executable lines of src/reinhardt that real traffic never runs.

Standard library only, beside what the benchmark itself imports.  Under the
line tracer of tools/line_coverage.py this runs the golden gate
(tests/test_golden.py, in-process through pytest), then builds the four
benchmark workloads of bench/workloads.py at seeds 1 and 2718 and runs every
operation of each once.  The workloads are imported without writing bytecode
and built under a temporary root, so no file under bench/ changes.  Every
executable line that never ran and is not part of a raise statement is
printed as path:line: source, followed by the count.

    python tools/traffic_coverage.py

It takes about half a minute and is not part of the test suite.  The exit
code is the golden gate's pytest exit code.
"""

from __future__ import annotations

import ast
import shutil
import sys
import tempfile

from line_coverage import ROOT, sources, traced, unrun_lines

SEEDS = (1, 2718)


def raise_lines(text: str) -> set[int]:
    """Every line that a raise statement of the module spans."""
    return {
        line
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def traffic() -> int:
    """The golden gate, then one pass of every benchmark op at each seed."""
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_golden.py")])
    import reinhardt  # with reinhardt.cli, which the golden gate imported
    import workloads

    root = tempfile.mkdtemp(prefix="traffic-coverage-")
    try:
        for seed in SEEDS:
            for name in workloads.WORKLOADS:
                workload = workloads.build(reinhardt, name, seed, root)
                try:
                    for op in workload.ops:
                        op.run()
                finally:
                    workload.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return int(code)


def main() -> int:
    texts = sources()
    sys.dont_write_bytecode = True  # importing bench/ leaves no __pycache__ there
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import pytest  # noqa: F401  (before the tracer: pytest's own import is not traced)

    code, ran = traced(traffic)
    raises = {path: raise_lines(text) for path, text in texts.items()}
    missing = 0
    for path, line, source in unrun_lines(texts, ran):
        if line not in raises[path]:
            print(f"{path.relative_to(ROOT)}:{line}: {source}")
            missing += 1
    print(f"{missing} executable lines never ran outside raise statements")
    return code


if __name__ == "__main__":
    sys.exit(main())
