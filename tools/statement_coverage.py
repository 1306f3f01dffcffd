"""Fail unless the tier-1 tests run every statement of ``src/coupledalpha``.

Runs pytest in this process under ``sys.settrace``, the standard library's
line tracer, and lists each statement of ``src/coupledalpha/*.py`` whose
first line never ran; docstrings are not statements, and ``__main__.py``
is left to the console-script run. A function stops being traced once
each statement line it holds has run, which keeps the timed acceptance
tests inside their bounds. Line events differ between Python versions, so
the result holds for one version. Usage, from anywhere:
``python tools/statement_coverage.py [extra pytest arguments]``; exits 1
when the tests fail or a statement never ran.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = [p for p in sorted((ROOT / "src" / "coupledalpha").glob("*.py")) if p.name != "__main__.py"]


def statements(path: Path) -> set[int]:
    """First lines of the statements of a module, docstrings left out."""
    tree = ast.parse(path.read_text())
    owners = [n for n in ast.walk(tree) if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    docs = {id(n.body[0]) for n in owners if ast.get_docstring(n, clean=False) is not None}
    return {n.lineno for n in ast.walk(tree) if isinstance(n, ast.stmt) and id(n) not in docs}


wanted = {str(p): statements(p) for p in FILES}
seen: dict[str, set[int]] = {name: set() for name in wanted}
left = {}  # code object -> its statement lines not yet run


def trace(frame, event, arg):
    code = frame.f_code
    lines = seen.get(code.co_filename)
    if lines is None:
        return None
    if code not in left:
        # A function's first line runs in the frame that defines it.
        own = {line for *_, line in code.co_lines()} - {code.co_firstlineno}
        left[code] = own & wanted[code.co_filename] - lines
    todo = left[code]
    if not todo:
        return None

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
            todo.discard(frame.f_lineno)
            if not todo:
                frame.f_trace_lines = False
        return line

    return line


if __name__ == "__main__":
    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    sys.settrace(None)
    missed = [f"{p.relative_to(ROOT)}:{n}" for p in FILES for n in sorted(wanted[str(p)] - seen[str(p)])]
    print("\n".join(missed) or f"every statement of {len(FILES)} modules ran")
    sys.exit(1 if status or missed else 0)
