"""The public-option count of ``tools/count_options.py`` on a toy module."""

from __future__ import annotations

import ast
import importlib.util
import pathlib

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "count_options.py"
_SPEC = importlib.util.spec_from_file_location("count_options", _TOOL)
count_options = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_options)

TOY = '''
from dataclasses import dataclass
import dataclasses


@dataclass(frozen=True)
class Public:
    a: int
    b: float = 1.0

    def method(self, x, y=2, *, z=3):
        pass

    def _private(self, x=1):
        pass


@dataclasses.dataclass
class AlsoPublic:
    c: str


@dataclass
class _Hidden:
    d: int


class Plain:
    e: int = 0

    def method(self, x=1):
        pass


def function(a, b=1, *args, c, d=None, **kwargs):
    def nested(e=1):
        pass


def _helper(a=1):
    pass


def cli(parser):
    parser.add_argument("--flag")
    parser.add_argument("positional")
    parser.add_argument("-s", "--short", type=int)
'''


def test_counts_public_fields_defaults_and_flags():
    counts = count_options.count(ast.parse(TOY))
    assert counts == {
        "dataclass fields": 3,
        "defaulted parameters": 5,
        "cli flags": 2,
    }


def test_options_name_each_counted_option():
    assert count_options.options(ast.parse(TOY), "toy") == [
        ("dataclass fields", "toy.Public.a"),
        ("dataclass fields", "toy.Public.b"),
        ("defaulted parameters", "toy.Public.method(y)"),
        ("defaulted parameters", "toy.Public.method(z)"),
        ("dataclass fields", "toy.AlsoPublic.c"),
        ("defaulted parameters", "toy.Plain.method(x)"),
        ("defaulted parameters", "toy.function(b)"),
        ("defaulted parameters", "toy.function(d)"),
        ("cli flags", "--flag"),
        ("cli flags", "--short"),
    ]


def test_list_prints_each_option_then_the_counts(tmp_path, capsys):
    (tmp_path / "toy.py").write_text(TOY)
    assert count_options.main(["count_options.py", "--list", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["toy.Public.a", "toy.Public.b", "toy.Public.method(y)"]
    assert "toy.function(d)" in lines and "--short" in lines
    assert lines[-4:] == [
        "dataclass fields: 3",
        "defaulted parameters: 5",
        "cli flags: 2",
        "public options: 10",
    ]
    assert count_options.main(["count_options.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == lines[-4:]
