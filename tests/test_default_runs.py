"""``tools/default_runs.py``: its output comparison on toy run directories,
its runs against a throwaway package, and one run record of the real
``lifting-check``: wall time, peak RSS and the allocator counters."""

from __future__ import annotations

import importlib.util
import json
import math
import pathlib
import re

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "default_runs.py"
_SPEC = importlib.util.spec_from_file_location("default_runs", _TOOL)
default_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(default_runs)
_BENCH_27 = pathlib.Path(__file__).resolve().parents[1] / "BENCH_27.json"


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


def _package(root: pathlib.Path, outputs: dict[str, tuple[str, str]]) -> pathlib.Path:
    """A throwaway ``oseenlab`` under ``root`` whose experiments are the keys
    of ``outputs``: each writes its CSV text, prints its console text and
    exits 0, except one named ``broken``, which exits 1."""
    package = root / "oseenlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "fields.py").write_text("def get_fft_workers():\n    return 1\n")
    (package / "harness.py").write_text(f"EXPERIMENTS = {tuple(outputs)!r}\n")
    (package / "cli.py").write_text(
        f"OUTPUTS = {outputs!r}\n"
        "def main(argv):\n"
        "    table, console = OUTPUTS[argv[0]]\n"
        "    with open(argv[2], 'w') as handle:\n"
        "        handle.write(table)\n"
        "    print(console, end='')\n"
        "    return int(argv[0] == 'broken')\n"
    )
    return root


def test_runs_report_time_and_fail_on_a_failing_experiment(tmp_path, capsys):
    src = _package(tmp_path / "src", {
        "fine": ("a\n1\n", "ran fine\n"), "broken": ("a\n1\n", "ran broken\n"),
    })
    out = tmp_path / "runs"
    assert default_runs.main([str(out), "--src", str(src), "--repeat", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    line = r"median \d+\.\d\d s, peak \d+\.\d MB, \d+ minor faults, exit codes"
    assert re.fullmatch(rf"fine: {line} \[0, 0\]", lines[0])
    assert re.fullmatch(rf"broken: {line} \[1, 1\]", lines[1])
    # Only the first round works in OUT; the wall time stays out of the
    # outputs, so --against stays meaningful.
    assert (out / "fine.stdout").read_text() == "ran fine\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "bench.json", "broken.csv", "broken.stdout", "fine.csv", "fine.stdout",
    ]
    bench = json.loads((out / "bench.json").read_text())
    reference = json.loads(_BENCH_27.read_text())
    assert list(bench) == list(reference)
    run_keys = list(next(iter(reference["runs"].values())))
    assert all(list(run) == run_keys for run in bench["runs"].values())
    assert bench["repeat"] == 2 and bench["fft_workers"] == 1
    assert len(bench["runs"]["fine"]["wall_s"]) == 2
    assert bench["runs"]["broken"]["exit_codes"] == [1, 1]


def test_against_a_missing_directory_fails_before_any_run(tmp_path, capsys):
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exit_:
        default_runs.main([str(out), "--against", str(tmp_path / "absent")])
    assert exit_.value.code == 2
    assert "is not a directory" in capsys.readouterr().err
    assert not out.exists()


def test_a_src_without_the_package_fails_before_any_run(tmp_path, capsys):
    out = tmp_path / "runs"
    for src in (tmp_path / "absent", tmp_path):
        with pytest.raises(SystemExit) as exit_:
            default_runs.main([str(out), "--src", str(src)])
        assert exit_.value.code == 2
        assert f"--src {src} holds no oseenlab/__init__.py" in capsys.readouterr().err
    assert not out.exists()


def test_rtol_must_be_finite_and_nonnegative(tmp_path, capsys):
    runs = {"same": ("a\n1.0\n", "PASS\n"), "moved": ("a\n1.0000001\n", "PASS\n")}
    ref = _write(tmp_path / "ref", {
        name + suffix: text for name in runs
        for suffix, text in ((".csv", "a\n1.0\n"), (".stdout", "PASS\n"))
    })
    src = _package(tmp_path / "src", runs)
    out = tmp_path / "out"
    args = [str(out), "--src", str(src), "--against", str(ref)]
    for rtol in ("-1e-12", "nan", "inf"):
        with pytest.raises(SystemExit) as exit_:
            default_runs.main(args + [f"--rtol={rtol}"])
        assert exit_.value.code == 2
        assert "--rtol must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()
    # --rtol 0 stays valid: only byte-identical files pass.
    assert default_runs.main(args + ["--rtol", "0"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "beyond --rtol 0: moved.csv"


def test_rtol_passes_roundoff_moves_and_fails_the_rest(tmp_path, capsys):
    table, console = "lambda,value\n1,2.0\n2,0.0\n", "slope s = 4.8e-17\nPASS\n"
    runs = {
        "fine": (
            "lambda,value\n1,2.0000000000002\n2,0.0\n", "slope s = -6.3e-17\nPASS\n"
        ),
        # A cell beyond rtol and a slope beyond it.
        "table": ("lambda,value\n1,2.00001\n2,0.0\n", "slope s = 1e-11\nPASS\n"),
        # A cell that leaves zero and a changed verdict.
        "zero": ("lambda,value\n1,2.0\n2,1e-300\n", "slope s = 4.8e-17\nFAIL\n"),
    }
    ref = _write(tmp_path / "ref", {
        name + suffix: text for name in runs
        for suffix, text in ((".csv", table), (".stdout", console))
    })
    src = _package(tmp_path / "src", runs)
    args = [str(tmp_path / "all"), "--src", str(src), "--against", str(ref)]
    assert default_runs.main(args + ["--rtol", "1e-12"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    beyond = "table.csv, table.stdout, zero.csv, zero.stdout"
    assert last == f"beyond --rtol 1e-12: {beyond}"

    # A roundoff move alone passes --rtol; without --rtol any moved file fails.
    fine_ref = _write(
        tmp_path / "fine-ref", {"fine.csv": table, "fine.stdout": console}
    )
    fine_src = _package(tmp_path / "fine-src", {"fine": runs["fine"]})
    args = ["--src", str(fine_src), "--against", str(fine_ref)]
    assert default_runs.main([str(tmp_path / "fine")] + args + ["--rtol", "1e-12"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "beyond --rtol 1e-12: none"
    assert default_runs.main([str(tmp_path / "strict")] + args) == 1


def test_one_record_of_the_lifting_check(tmp_path):
    run = default_runs.record(default_runs.DEFAULT_SRC, "lifting-check", tmp_path)
    assert run["exit_code"] == 0
    assert 0.0 < run["wall_s"] < 60.0
    assert run["peak_rss_mb"] > 10.0
    assert isinstance(run["ru_minflt"], int) and run["ru_minflt"] > 1000
    assert isinstance(run["ru_stime"], float) and 0.0 <= run["ru_stime"] < 60.0
    assert run["fft_workers"] == 1
    assert all(isinstance(run[key], str) for key in ("python", "numpy", "scipy"))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "lifting-check.csv", "lifting-check.dat", "lifting-check.stdout",
    ]
    assert "ALL CHECKS PASSED" in (tmp_path / "lifting-check.stdout").read_text()

    summary = default_runs.summarize([run, run])
    assert summary["wall_s"] == [run["wall_s"]] * 2
    assert summary["median_wall_s"] == run["wall_s"]
    assert summary["median_peak_rss_mb"] == run["peak_rss_mb"]
    assert summary["ru_minflt"] == [run["ru_minflt"]] * 2
    assert summary["median_ru_minflt"] == run["ru_minflt"]
    assert summary["ru_stime"] == [run["ru_stime"]] * 2
    assert summary["median_ru_stime"] == run["ru_stime"]
    assert summary["exit_codes"] == [0, 0]


def test_a_child_that_dies_before_reporting_gives_no_timings(tmp_path, capsys):
    # An unknown experiment name makes the command line parser exit the child.
    run = default_runs.record(default_runs.DEFAULT_SRC, "no-such-experiment", tmp_path)
    assert run["exit_code"] == 2
    assert run["wall_s"] is None and run["peak_rss_mb"] is None
    assert run["ru_minflt"] is None and run["ru_stime"] is None
    summary = default_runs.summarize([run])
    assert summary["median_wall_s"] is None and summary["median_ru_minflt"] is None
    assert "invalid choice" in capsys.readouterr().err
