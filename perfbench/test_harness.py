"""Self-check of the benchmark harness on reduced inputs.

    python3 -m pytest perfbench -q

Every workload runs with --tiny in both modes. Each run must print every
metric BENCHMARK.json names, with its unit, and pass every output check.
"""

import contextlib
import io
import json
import math

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_metric_and_passes_checks(workload, trace):
    code, lines = run_main("--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", str(trace), "--tiny")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in table}
    report = [line.split() for line in lines[:-1]]
    for metric in table:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(words[:1] == [metric["name"]] and words[2] == metric["unit"]
                   for words in report)
        if not trace:
            assert result["metrics"][metric["name"]]["value"] > 0
    assert any(words[:1] == ["failed_ratio"] for words in report)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("tiny", [False, True])
def test_every_sweep_unit_has_a_pinned_digest(tiny, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    sweep = workloads.build("sweep", 5, run.load_package(), tmp_path, tiny)
    assert set(workloads.pinned_digests("sweep", tiny)) == {key for key, _, _ in sweep.units}


def test_missing_source_exits_nonzero_without_result(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code, lines = run_main("--workload", "sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0")
    assert code != 0
    assert lines == []


def test_tail_percentile_leaves_ten_calls_of_a_pass_beyond():
    for calls in (11, 60, 87, 1000):
        p = run.tail_percentile(calls)
        assert calls - math.ceil(p / 100 * calls) >= 10
        assert calls - math.ceil((p + 1) / 100 * calls) < 10
    assert run.tail_percentile(1) == 100
