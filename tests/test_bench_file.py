"""One run record of ``tools/bench_file.py`` and the summary built from it:
wall time, peak RSS and the allocator counters (minor faults, system time)."""

from __future__ import annotations

import importlib.util
import pathlib

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"
_SPEC = importlib.util.spec_from_file_location("bench_file", _TOOL)
bench_file = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_file)


def test_one_record_of_the_lifting_check():
    run = bench_file.record(bench_file.DEFAULT_SRC, "lifting-check")
    assert run["exit_code"] == 0
    assert 0.0 < run["wall_s"] < 60.0
    assert run["peak_rss_mb"] > 10.0
    assert isinstance(run["ru_minflt"], int) and run["ru_minflt"] > 1000
    assert isinstance(run["ru_stime"], float) and 0.0 <= run["ru_stime"] < 60.0
    assert run["fft_workers"] == 1
    assert all(isinstance(run[key], str) for key in ("python", "numpy", "scipy"))

    summary = bench_file.summarize([run, run])
    assert summary["wall_s"] == [run["wall_s"]] * 2
    assert summary["median_wall_s"] == run["wall_s"]
    assert summary["median_peak_rss_mb"] == run["peak_rss_mb"]
    assert summary["ru_minflt"] == [run["ru_minflt"]] * 2
    assert summary["median_ru_minflt"] == run["ru_minflt"]
    assert summary["ru_stime"] == [run["ru_stime"]] * 2
    assert summary["median_ru_stime"] == run["ru_stime"]
    assert summary["exit_codes"] == [0, 0]


def test_a_child_that_dies_before_reporting_gives_no_timings(capsys):
    # An unknown experiment name makes the command line parser exit the child.
    run = bench_file.record(bench_file.DEFAULT_SRC, "no-such-experiment")
    assert run["exit_code"] == 2
    assert run["wall_s"] is None and run["peak_rss_mb"] is None
    assert run["ru_minflt"] is None and run["ru_stime"] is None
    summary = bench_file.summarize([run])
    assert summary["median_wall_s"] is None and summary["median_ru_minflt"] is None
    assert "invalid choice" in capsys.readouterr().err
