"""The public-name collection of ``tools/traffic.py`` on a toy module."""

from __future__ import annotations

import ast
import importlib.util
import pathlib

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "traffic.py"
_SPEC = importlib.util.spec_from_file_location("traffic", _TOOL)
traffic = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(traffic)

TOY = '''
from dataclasses import dataclass


def function(a, b=1):
    def nested():
        pass


def _helper():
    pass


async def coroutine():
    pass


@dataclass(frozen=True)
class Public:
    a: int

    def __post_init__(self):
        pass

    @property
    def derived(self):
        return self.a

    @classmethod
    def build(cls):
        return cls(0)

    def _private(self):
        pass

    class Inner:
        def method(self):
            pass


class _Base:
    def __neg__(self):
        pass

    def shared(self):
        pass

    def _hidden(self):
        pass


value = property(lambda self: 0)
'''


def test_collects_public_functions_and_methods_by_qualified_name():
    # Each with its first line: the first decorator's when it has one.
    assert traffic.public_names(ast.parse(TOY)) == [
        ("function", 5),
        ("coroutine", 14),
        ("Public.__post_init__", 22),
        ("Public.derived", 25),
        ("Public.build", 29),
        ("Public.Inner.method", 37),
        ("_Base.__neg__", 42),
        ("_Base.shared", 45),
    ]


def test_first_lines_are_those_of_the_code_objects():
    code = compile(TOY, "toy", "exec")
    stack, seen = [code], set()
    while stack:
        for const in stack.pop().co_consts:
            if hasattr(const, "co_firstlineno"):
                seen.add((const.co_name, const.co_firstlineno))
                stack.append(const)
    for name, first in traffic.public_names(ast.parse(TOY)):
        assert (name.rpartition(".")[2], first) in seen


def test_dunders_are_public_and_other_underscored_names_are_not():
    assert traffic._is_public("__init__")
    assert traffic._is_public("column")
    assert not traffic._is_public("_helper")
    assert not traffic._is_public("__mangled")
