"""Tests of the benchmark itself: tiny runs, the digest gate, span accounting."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import rep as rep_module
import run as run_module
from spans import (
    LAYER_METRICS,
    SpanRecorder,
    attribute_window,
    check_nesting,
    self_times,
)
from workloads import LEDGER_PATH, ROOT, WORKLOADS, ensure_src_on_path, spec_dict

ensure_src_on_path()


def _plain_digest(workload: str, seed: int) -> str:
    from repro.api.run import run_spec

    return rep_module.summary_digest(run_spec(spec_dict(workload, seed, tiny=True)).summary())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_matches_run_spec_and_accounts_wall_time(workload, tmp_path):
    spans_path = tmp_path / "spans.json"
    result = rep_module.run_rep(workload, 3, mode="traced", tiny=True, spans_path=spans_path)

    assert result["checks"] == []
    assert result["digest"] == _plain_digest(workload, 3)
    assert result["ticks"] > 0 and result["setup_s"] > 0

    metrics = result["trace"]["metrics"]
    layer_ms = sum(metrics[name] for name in LAYER_METRICS.values())
    wall_ms = metrics["trace.wall_ms"]
    assert layer_ms + metrics["unattributed_ms"] == pytest.approx(wall_ms, rel=1e-9)
    assert all(metrics[name] >= 0 for name in LAYER_METRICS.values())
    assert metrics["unattributed_ms"] >= 0

    written = json.loads(spans_path.read_text())
    spans = [list(span) for span in written["spans"]]
    assert check_nesting(spans) == []
    assert {span[2] for span in spans} >= {"run", "loop", "server.ingest", "workload.drive"}


def test_tiny_benchmark_end_to_end_and_traced():
    timed = run_module.benchmark("crowd_interest", 5, seconds=1e-6, trace=False, tiny=True)
    result = timed["result"]
    assert result["correct"] and result["failed"] == 0
    # one plain run_spec repetition, then the measured and set-up-only ones
    assert result["attempted"] == 1 + max(run_module.MIN_REPS, run_module.MIN_SETUPS)
    assert set(result["metrics"]) == set(run_module.END_TO_END)
    assert all(row["value"] > 0 or name == "virtual_over_budget_frac"
               for name, row in result["metrics"].items())

    traced = run_module.benchmark("crowd_interest", 5, seconds=1e-6, trace=True, tiny=True)
    result = traced["result"]
    assert result["correct"] and result["attempted"] == 1 + 2 * run_module.MIN_REPS
    assert set(result["metrics"]) == set(run_module.per_layer_units())
    assert traced["report"]["digest"] == timed["report"]["digest"] == _plain_digest(
        "crowd_interest", 5
    )


def test_runs_that_disagree_with_plain_run_spec_fail(monkeypatch):
    """Hooks that changed the virtual results identically in every run
    must still fail: the reference is a run with no hooks."""

    def fake_child(workload, seed, mode, run_id, timeout_s, tiny=False):
        digest = "a" * 64 if mode == "plain" else "b" * 64
        return {"run_id": run_id, "mode": mode, "digest": digest, "checks": [],
                "measure_s": 1.0, "setup_s": 1.0}

    monkeypatch.setattr(run_module, "run_child", fake_child)
    result = run_module.benchmark("servo_constructs", 7, seconds=1e-6, trace=False)["result"]
    assert not result["correct"]
    assert result["failed"] == run_module.MIN_REPS
    assert result["attempted"] == 1 + max(run_module.MIN_REPS, run_module.MIN_SETUPS)


def _fake_rep(run_id: str, digest: str) -> dict:
    return {"run_id": run_id, "mode": "timed", "digest": digest, "checks": []}


def test_perturbed_digest_counts_as_failed_run():
    reps = [_fake_rep("a", "d" * 64), _fake_rep("b", "d" * 63 + "e"), _fake_rep("c", "d" * 64)]
    assert run_module.judge(reps, None) == "d" * 64
    assert ["error" in rep for rep in reps] == [False, True, False]


def test_recorded_digest_mismatch_fails_every_run():
    reps = [_fake_rep("a", "d" * 64), _fake_rep("b", "d" * 64)]
    run_module.judge(reps, "f" * 64)
    assert all("error" in rep for rep in reps)


def test_failed_invariant_counts_as_failed_run():
    reps = [_fake_rep("a", "d" * 64)]
    reps[0]["checks"] = ["3 of 4 players connected"]
    run_module.judge(reps, None)
    assert reps[0]["error"] == "3 of 4 players connected"


class _FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_times_and_window_attribution():
    recorder = SpanRecorder("t", clock=_FakeClock([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0]))
    loop = recorder.begin("loop")  # 0 .. 10
    outer = recorder.begin("server.ingest")  # 1 .. 7
    inner = recorder.begin("chunks.update")  # 2 .. 4
    recorder.end(inner)
    child = recorder.begin("chunks.update")  # 5 .. 6
    recorder.end(child)
    recorder.end(outer)
    recorder.end(loop)

    assert self_times(recorder.spans) == [4.0, 3.0, 2.0, 1.0]
    totals = attribute_window(recorder.spans, loop)
    assert totals["unattributed"]["self_s"] == 4.0
    assert totals["chunks.update"] == {"self_s": 3.0, "calls": 2}
    assert sum(row["self_s"] for row in totals.values()) == 10.0
    assert check_nesting(recorder.spans) == []


def test_nesting_check_reports_escaping_child_and_open_span():
    spans = [[0, -1, "loop", 0.0, 1.0], [1, 0, "costmodel", 0.5, 1.5]]
    assert any("outside parent" in problem for problem in check_nesting(spans))
    assert any("never closed" in p for p in check_nesting([[0, -1, "loop", 0.0, None]]))
    recorder = SpanRecorder("t")
    outer = recorder.begin("a")
    recorder.begin("b")
    with pytest.raises(RuntimeError):
        recorder.end(outer)


def test_benchmark_json_matches_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = json.loads(LEDGER_PATH.read_text())
    names = [workload["name"] for workload in declared["workloads"]]
    assert sorted(names) == sorted(WORKLOADS) == sorted(ledger["workloads"])
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run_module.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run_module.per_layer_units()


def test_digest_hashes_like_repro_bench():
    from repro.api.bench import _summary_digest

    summary = {"b": [1, 2.5], "a": {"z": None}}
    assert rep_module.summary_digest(summary) == _summary_digest(summary)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crowd_interest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
