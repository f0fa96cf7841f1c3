"""Count the public options of the ``oseenlab`` package.

An option is one of:

- a field of a public dataclass (an annotated name in the body of a class
  decorated with ``dataclass``);
- a defaulted parameter of a public function or method;
- a command-line flag (a ``--name`` passed to ``add_argument``).

A name is public when neither it nor its enclosing class starts with an
underscore.  Standard library only; run from the repository root::

    python3 tools/count_options.py [SOURCE_DIR]

It prints the three counts and their total.
"""

from __future__ import annotations

import ast
import pathlib
import sys


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute):
            target = ast.Name(target.attr)
        if getattr(target, "id", None) == "dataclass":
            return True
    return False


def _defaulted(node: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = node.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def count(tree: ast.Module) -> dict[str, int]:
    counts = {"dataclass fields": 0, "defaulted parameters": 0, "cli flags": 0}

    def visit(body, public: bool) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visible = public and not node.name.startswith("_")
                if visible and _is_dataclass(node):
                    counts["dataclass fields"] += sum(
                        isinstance(item, ast.AnnAssign) for item in node.body
                    )
                visit(node.body, visible)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if public and not node.name.startswith("_"):
                    counts["defaulted parameters"] += _defaulted(node)

    visit(tree.body, True)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            counts["cli flags"] += sum(
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value.startswith("--")
                for arg in node.args
            )
    return counts


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/oseenlab")
    totals: dict[str, int] = {}
    for path in sorted(root.glob("*.py")):
        for name, value in count(ast.parse(path.read_text(encoding="utf-8"))).items():
            totals[name] = totals.get(name, 0) + value
    for name, value in totals.items():
        print(f"{name}: {value}")
    print(f"public options: {sum(totals.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
