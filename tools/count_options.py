"""Count the public options of the ``oseenlab`` package.

An option is one of:

- a field of a public dataclass (an annotated name in the body of a class
  decorated with ``dataclass``);
- a defaulted parameter of a public function or method;
- a command-line flag (a ``--name`` passed to ``add_argument``).

A name is public when neither it nor its enclosing class starts with an
underscore.  Standard library only; run from the repository root::

    python3 tools/count_options.py [--list] [SOURCE_DIR]

It prints the three counts and their total; ``--list`` first prints each
option by name, one a line (``harness.ExperimentConfig.rho``,
``picard.radius_schedule(tol)``, ``--out``).
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys

KINDS = ("dataclass fields", "defaulted parameters", "cli flags")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute):
            target = ast.Name(target.attr)
        if getattr(target, "id", None) == "dataclass":
            return True
    return False


def _defaulted(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """Names of the parameters of ``node`` that carry a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [arg.arg for arg in named]


def options(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(kind, name) of every public option of ``tree``, in source order; a
    name reads ``module.Class.field``, ``module.function(param)`` or
    ``--flag``."""
    found: list[tuple[str, str]] = []

    def visit(body, prefix: str, public: bool) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visible = public and not node.name.startswith("_")
                qualified = f"{prefix}.{node.name}"
                if visible and _is_dataclass(node):
                    found.extend(
                        ("dataclass fields", f"{qualified}.{item.target.id}")
                        for item in node.body
                        if isinstance(item, ast.AnnAssign)
                    )
                visit(node.body, qualified, visible)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if public and not node.name.startswith("_"):
                    found.extend(
                        ("defaulted parameters", f"{prefix}.{node.name}({arg})")
                        for arg in _defaulted(node)
                    )

    visit(tree.body, module, True)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            found.extend(
                ("cli flags", arg.value)
                for arg in node.args
                if isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value.startswith("--")
            )
    return found


def count(tree: ast.Module) -> dict[str, int]:
    kinds = [kind for kind, _name in options(tree, "")]
    return {kind: kinds.count(kind) for kind in KINDS}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the public options.")
    parser.add_argument("source", nargs="?", default="src/oseenlab")
    parser.add_argument(
        "--list", action="store_true", help="print each option by name first"
    )
    args = parser.parse_args(argv[1:])
    found: list[tuple[str, str]] = []
    for path in sorted(pathlib.Path(args.source).glob("*.py")):
        found += options(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    if args.list:
        for _kind, name in found:
            print(name)
    kinds = [kind for kind, _name in found]
    for kind in KINDS:
        print(f"{kind}: {kinds.count(kind)}")
    print(f"public options: {len(found)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
