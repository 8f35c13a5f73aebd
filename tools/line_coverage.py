"""List the executable lines of src/reinhardt that the test suite never runs.

Standard library only.  A sys.settrace line tracer is installed before
reinhardt is imported, pytest then runs the suite in this process, and every
line that the code objects of src/reinhardt/*.py hold (from co_lines()) but
that never ran is printed as path:line: source, followed by the count.  Only frames
whose code lives under src/reinhardt are traced line by line.

    python tools/line_coverage.py [pytest arguments]

The pytest arguments default to the whole suite, quiet.  Tracing makes the
suite several times slower, so this is not part of it.  The exit code is
pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "reinhardt"
PREFIX = str(SRC) + "/"


def executable_lines(path: Path, text: str) -> set[int]:
    """Line numbers of every instruction in the module's code objects, nested ones included."""
    lines, stack = set(), [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(run):
    """Call run() under a line tracer of the frames whose code lives under src/reinhardt.

    Returns run()'s result and the lines that ran, per source path.
    """
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        # entering a frame: trace its lines only where its code is ours
        name = frame.f_code.co_filename
        if not name.startswith(PREFIX):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(start)
    sys.settrace(start)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, ran


def sources() -> dict[Path, str]:
    """The sources as the run imports them, so an edit during the run moves no line."""
    return {path: path.read_text() for path in sorted(SRC.glob("*.py"))}


def unrun_lines(texts: dict[Path, str], ran: dict[str, set[int]]):
    """(path, line number, stripped source) of every executable line that never ran."""
    for path, text in texts.items():
        lines = text.splitlines()
        for line in sorted(executable_lines(path, text) - ran.get(str(path), set())):
            yield path, line, lines[line - 1].strip()


def main(argv: list[str]) -> int:
    texts = sources()
    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # before the tracer: pytest's own import is not traced

    args = ["-p", "no:cacheprovider", *(argv or ["-q", str(ROOT / "tests")])]
    code, ran = traced(lambda: pytest.main(args))
    missing = 0
    for path, line, source in unrun_lines(texts, ran):
        print(f"{path.relative_to(ROOT)}:{line}: {source}")
        missing += 1
    print(f"{missing} executable lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
