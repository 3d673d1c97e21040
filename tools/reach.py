"""Report which src lines and functions the CLI suites and the paper's checks execute.

usage: python tools/reach.py

Runs tests/test_cli.py, test_cli_golden.py, test_cli_properties.py and
test_acceptance.py in this process under ``sys.settrace``, without
stopping at a failure: the acceptance criteria 7 and 8 fail as expected.
Then prints, for each file of src/hemohopf, the executable lines reached
and every ``def`` never entered, named ``module.qualname``, and exits 1 if
a function that was never entered is missing from ``ALLOWED``, or if an
``ALLOWED`` entry names no function of src.  Stdlib only, apart from
pytest, which runs the suites; Python 3.11 or later (``co_qualname``).
"""

import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hemohopf"
SUITES = ("tests/test_cli.py", "tests/test_cli_golden.py", "tests/test_cli_properties.py",
          "tests/test_acceptance.py")

_BENCHMARK_LOOKS_IT_UP = ("perfbench/selftest.py looks it up; it goes once the benchmark "
                          "stops (ROADMAP items 1, then 18)")

# Functions the suites above never enter, each with the reason it stays.
ALLOWED = {
    "linstab.omega0": _BENCHMARK_LOOKS_IT_UP,
    "linstab.char_root_newton": _BENCHMARK_LOOKS_IT_UP,
    "linstab.char_root_newton.<locals>.residual": _BENCHMARK_LOOKS_IT_UP,
    "model._CheckedRecord._make": ("keeps _make and _replace from skipping the checks; "
                                   "tests/test_records.py reaches it"),
    "ddesim._build": "runs only when the kernel cache is cold",
    "ddesim.Trajectory.at": ("tests/test_hopf.py::test_center_manifold_matches_the_flow "
                             "evaluates the cycle between nodes with it"),
}


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _defs(node, prefix=""):
    # qualname of every def below `node`, a nested one as outer.<locals>.inner
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name
            yield from _defs(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def source_map():
    """{path: (executable line numbers, def qualnames)} of every src file."""
    result = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = {line for code in _code_objects(compile(text, str(path), "exec"))
                 for _, _, line in code.co_lines() if line}  # 0: a module's RESUME
        result[str(path)] = (lines, list(_defs(ast.parse(text))))
    return result


def run_suites():
    """Run SUITES under the tracer; returns (pytest's exit code, lines, entered),
    lines as {(path, line)} and entered as {(path, qualname)}."""
    import pytest

    prefix = str(SRC) + "/"
    lines, entered = set(), set()

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        entered.add((code.co_filename, code.co_qualname))
        return trace_lines

    sys.path.insert(0, str(SRC.parent))
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}",
                            *(str(ROOT / suite) for suite in SUITES)])
    finally:
        sys.settrace(None)
    return code, lines, entered


def main():
    code, lines, entered = run_suites()
    if code not in (0, 1):  # 1: tests failed, which criteria 7 and 8 do
        print(f"reach: pytest exited {code}")
        return 1
    total = reached_total = 0
    unreached, names = [], set()
    for path, (executable, defs) in source_map().items():
        module = Path(path).stem
        reached = sum(1 for line in executable if (path, line) in lines)
        missed = [f"{module}.{name}" for name in defs if (path, name) not in entered]
        names.update(f"{module}.{name}" for name in defs)
        total, reached_total = total + len(executable), reached_total + reached
        unreached += missed
        print(f"{Path(path).relative_to(ROOT)}: {reached} of {len(executable)} "
              "executable lines reached")
        for name in missed:
            print(f"  never entered: {name}")
    print(f"reach: {reached_total} of {total} executable src lines reached, "
          f"{len(unreached)} functions never entered")
    failures = [f"never entered and not allowed: {name}"
                for name in unreached if name not in ALLOWED]
    failures += [f"allowed but no such function: {name}" for name in ALLOWED if name not in names]
    for failure in failures:
        print(f"reach: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
