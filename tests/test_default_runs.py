"""The output comparison of ``tools/default_runs.py`` on toy run directories."""

from __future__ import annotations

import contextlib
import importlib.util
import math
import os
import pathlib
import re

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "default_runs.py"
_SPEC = importlib.util.spec_from_file_location("default_runs", _TOOL)
default_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(default_runs)


def _write(directory: pathlib.Path, files: dict[str, str]) -> pathlib.Path:
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)
    return directory


def test_relative_difference_of_cells():
    assert default_runs.relative_difference("1.5", "1.5") == 0.0
    assert default_runs.relative_difference("1.0", "1.00") == 0.0
    assert default_runs.relative_difference("nan", "NaN") == 0.0
    assert default_runs.relative_difference("1.1", "1.0") == pytest.approx(0.1)
    assert default_runs.relative_difference("1e-300", "0") == math.inf
    assert default_runs.relative_difference("PASS", "FAIL") == math.inf


def test_compare_reports_each_file(tmp_path):
    table = "lambda,value,flag\n1,2.0,x\n2,4.0,y\n"
    moved = "lambda,value,flag\n1,2.0,x\n2,4.000000000001,y\n"
    dat = "# lambda value\n1 2.0\n2 4.0\n"
    ref = _write(tmp_path / "ref", {
        "a.csv": table, "b.csv": table, "b.dat": dat, "a.stdout": "ok\n",
        "c.stdout": "gone\n",
    })
    out = _write(tmp_path / "out", {
        "a.csv": table, "b.csv": moved, "b.dat": dat.replace("4.0", "5.0"),
        "a.stdout": "ok!\n", "d.csv": table,
    })
    report = default_runs.compare(out, ref)
    assert report[0] == "a.csv: byte-identical"
    assert report[1] == "a.stdout: line 1 differs: 'ok!' vs 'ok'"
    assert report[2].startswith("b.csv: largest relative difference value 2.5")
    assert "lambda" not in report[2] and "flag" not in report[2]
    assert report[3] == "b.dat: largest relative difference value 0.25"
    assert report[4] == f"c.stdout: missing in {out}"
    assert report[5] == f"d.csv: missing in {ref}"
    assert len(report) == 6


def test_compare_shows_the_first_moved_line_of_a_text_file(tmp_path):
    head = "experiment: mms\nrows: 2  columns: 13\n"
    moved = "constant picard_rho = " + "9" * 80 + "\n"
    ref = _write(tmp_path / "ref", {
        "a.stdout": head + "constant picard_rho = 0.05\nPASS\n",
        "b.stdout": head, "c.stdout": head + "PASS\n",
    })
    out = _write(tmp_path / "out", {
        "a.stdout": head + moved + "PASS\n", "b.stdout": head + "PASS\n",
        "c.stdout": head,
    })
    assert default_runs.compare(out, ref) == [
        f"a.stdout: line 3 differs: {moved[:60]!r} vs 'constant picard_rho = 0.05'",
        "b.stdout: line 3 differs: 'PASS' vs ''",
        "c.stdout: line 3 differs: '' vs 'PASS'",
    ]


def test_compare_flags_a_changed_header(tmp_path):
    ref = _write(tmp_path / "ref", {"t.csv": "a,b\n1,2\n"})
    out = _write(tmp_path / "out", {"t.csv": "a,c\n1,2\n"})
    assert default_runs.compare(out, ref) == ["t.csv: header or row count differs"]


def test_runs_report_time_and_fail_on_a_failing_experiment(
    tmp_path, capsys, monkeypatch
):
    from oseenlab import cli, harness

    def fake_main(argv):
        name = argv[0]
        print(f"ran {name}")
        pathlib.Path(argv[2]).write_text("a\n1\n")
        return 1 if name == "broken" else 0

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(harness, "EXPERIMENTS", ("fine", "broken"))
    out = tmp_path / "runs"
    assert default_runs.main([str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"fine: exit 0 in \d+\.\d\d s", lines[0])
    assert re.fullmatch(r"broken: exit 1 in \d+\.\d\d s", lines[1])
    # The wall time reaches the console only, so --against stays meaningful.
    assert (out / "fine.stdout").read_text() == "ran fine\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "broken.csv", "broken.stdout", "fine.csv", "fine.stdout",
    ]
    monkeypatch.setattr(harness, "EXPERIMENTS", ("fine",))
    assert default_runs.main([str(tmp_path / "ok")]) == 0


def test_runs_need_no_contextlib_chdir(tmp_path, monkeypatch):
    # contextlib.chdir is Python 3.11+, and the package supports 3.10.
    from oseenlab import cli, harness

    def fake_main(argv):
        pathlib.Path(argv[2]).write_text("a\n1\n")
        return 0

    monkeypatch.delattr(contextlib, "chdir", raising=False)
    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(harness, "EXPERIMENTS", ("fine",))
    home = os.getcwd()
    assert default_runs.main([str(tmp_path / "runs")]) == 0
    assert os.getcwd() == home
    assert (tmp_path / "runs" / "fine.csv").read_text() == "a\n1\n"
