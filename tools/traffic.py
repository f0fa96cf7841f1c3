"""List the public functions and methods of ``oseenlab`` that no run calls.

Under ``sys.setprofile`` this runs, in one interpreter:

- the built-in experiments of ``oseenlab.harness.EXPERIMENTS`` through
  ``oseenlab.cli.main``;
- ``oseenlab exponents``;
- one ``--config`` run (a small ``mms`` INI file with a log-spaced drift
  range) with ``--threads 1``;
- both scripts in ``demos/``.

It then prints, one per line as ``module.qualname``, every public function
or method defined in the imported package's source files that none of them
called, and a count last.  A function or method is public when its name has
no leading underscore or is a dunder; methods of private base classes count
too, since public classes inherit them.  Nested functions do not count.  A
call is matched to its definition by file, name and first line (that of the
first decorator, if any).  The runs write into a temporary directory and
their output is discarded.  Standard library and the package only; run from
the repository root::

    PYTHONPATH=src python3 tools/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"

CONFIG_INI = """[experiment]
name = mms
points = 16
lambda_min = 0.5
lambda_max = 2.0
lambda_points = 2
q = 4
r = 2
mode_cap = 2
"""


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def public_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name, first line) of the public module-level functions and
    class methods; the first line is that of the first decorator, if any, as
    in the function's code object."""
    names = []

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_public(node.name):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    names.append((prefix + node.name, first))

    visit(tree.body, "")
    return names


def _workload(scratch: pathlib.Path) -> list[str]:
    """Run everything in ``scratch``; return the CLI runs that exited non-zero."""
    from oseenlab import cli, harness

    runs = [[name, "--out", f"{name}.csv"] for name in harness.EXPERIMENTS]
    runs.append(["exponents"])
    runs.append(["mms", "--config", "config.ini", "--out", "c.csv", "--threads", "1"])
    home = os.getcwd()
    os.chdir(scratch)
    try:
        pathlib.Path("config.ini").write_text(CONFIG_INI)
        failed = [" ".join(args) for args in runs if cli.main(args) != 0]
        for demo in sorted(DEMOS.glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    finally:
        os.chdir(home)
    return failed


def called_names(
    source: pathlib.Path,
) -> tuple[set[tuple[str, str, int]], list[str]]:
    """(file, name, first line) of every code object in ``source`` the runs
    enter, and the CLI runs that exited non-zero."""
    seen = set()
    prefix = os.path.join(source, "")

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            code = frame.f_code
            seen.add((code.co_filename, code.co_name, code.co_firstlineno))

    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(
        sink
    ), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            failed = _workload(pathlib.Path(scratch))
        finally:
            sys.setprofile(None)
    return seen, failed


def main() -> int:
    import oseenlab

    source = pathlib.Path(oseenlab.__file__).parent
    called, failed = called_names(source)
    if failed:
        print("error: runs exited non-zero: " + "; ".join(failed), file=sys.stderr)
        return 1
    total = uncalled = 0
    for path in sorted(source.glob("*.py")):
        names = public_names(ast.parse(path.read_text(), filename=str(path)))
        total += len(names)
        for name, first in names:
            if (str(path), name.rpartition(".")[2], first) not in called:
                uncalled += 1
                print(f"{path.stem}.{name}")
    print(f"{uncalled} of {total} public functions and methods uncalled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
