"""The simulator's benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload servo_constructs --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: repetitions of the workload,
each in a fresh process, until ``--seconds`` of measured wall time have
passed (at least ``MIN_REPS``), then set-up-only repetitions until the
workload has been set up ``MIN_SETUPS`` times.  Each reported figure is a
median over the repetitions; ``ticks_per_s`` and ``setup_s`` are wall-clock
figures scaled to a reference host speed (see ``host_scale``).  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics (see ``spans.py``), their times scaled the same way, plus the
tracing overhead.

Every repetition's virtual results must hash to the digest of a plain
``run_spec(spec)`` call: the one recorded in ``ledger.json`` when the seed is
recorded there, otherwise the one a ``plain`` repetition, run with no
benchmark hooks, gives first.  The repetition's own invariant checks must
pass too.  A repetition that fails, raises or mismatches counts as a failed
operation.  The last line of
standard output is the result object; a full report, with the host
fingerprint and every repetition, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from rep import PROBE_ITERATIONS, REFERENCE_ITERATIONS
from spans import LAYER_METRICS, SETUP_METRICS
from workloads import LEDGER_PATH, OUT_DIR, ROOT, SRC, WORKLOADS

REP_SCRIPT = Path(__file__).resolve().parent / "rep.py"
MIN_REPS = 2
MIN_SETUPS = 3
MAX_REPS = 15
#: stop starting repetitions after this many wall seconds, and stop any
#: repetition still running at the hard deadline (the whole invocation must
#: finish within 180 s)
START_DEADLINE_S = 110.0
HARD_DEADLINE_S = 170.0
#: ``rep.reference_loop_s()`` and one speed probe on the host speed the
#: wall-clock figures are scaled to
REFERENCE_LOOP_S = 0.015
REFERENCE_PROBE_S = REFERENCE_LOOP_S * PROBE_ITERATIONS / REFERENCE_ITERATIONS
#: ticks on either side of a tick whose probes set its speed (median)
PROBE_HALF_WINDOW = 10

END_TO_END = {
    "ticks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virtual_tick_p95_ms": "ms",
    "virtual_over_budget_frac": "ratio",
}
#: per-layer metrics that are not self times of a layer span
PER_LAYER_EXTRA = {
    "unattributed_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.untraced_ticks_per_s": "1/s",
    "trace.traced_ticks_per_s": "1/s",
    "server.messages": "count",
    "chunks.integrated": "count",
    "chunks.streamed": "count",
    "chunks.evicted": "count",
    "storage.prefetched": "count",
    "storage.cache_hit_rate": "ratio",
    "world.chunks_generated": "count",
    "constructs.simulated_locally": "count",
    "constructs.merged": "count",
    "constructs.skipped_quiescent": "count",
    "faas.invocations": "count",
    "faas.cold_start_frac": "ratio",
    "faas.retries": "count",
    "interest.entries_encoded": "count",
    "interest.flushes": "count",
    "interest.entries_per_flush": "ratio",
    "cluster.migrations": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced benchmark reports, with its unit."""
    units = {metric: "ms" for metric in LAYER_METRICS.values()}
    units.update({metric: "s" for metric in SETUP_METRICS.values()})
    units.update(PER_LAYER_EXTRA)
    return units


def host_fingerprint() -> dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # reported, not fatal: the repetitions will fail instead
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def recorded_digest(workload: str, seed: int) -> Optional[str]:
    ledger = json.loads(LEDGER_PATH.read_text(encoding="utf-8"))
    return ledger["workloads"][workload]["digests"].get(str(seed))


def run_child(
    workload: str, seed: int, mode: str, run_id: str, timeout_s: float, tiny: bool = False
) -> dict[str, Any]:
    """One repetition in a fresh process; ``{"error": ...}`` when it fails."""
    command = [
        sys.executable, str(REP_SCRIPT),
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--run-id", run_id,
    ] + (["--tiny"] if tiny else [])
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout_s
        )
    except subprocess.TimeoutExpired:
        return {"run_id": run_id, "mode": mode, "error": f"timed out after {timeout_s:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"run_id": run_id, "mode": mode, "error": f"exit {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


def judge(reps: list[dict[str, Any]], expected: Optional[str]) -> Optional[str]:
    """Mark failed repetitions in place; return the digest every run must match.

    ``expected`` is the plain ``run_spec`` digest; when it is unknown (the
    plain repetition failed, and counts as failed) the first good
    repetition's digest is the reference.
    """
    reference = expected
    for rep in reps:
        if "error" in rep or rep["mode"] in ("setup", "plain"):
            continue
        if reference is None:
            reference = rep["digest"]
        if rep["digest"] != reference:
            rep["error"] = f"digest {rep['digest'][:12]} != {reference[:12]}"
        elif rep["checks"]:
            rep["error"] = "; ".join(rep["checks"])
    return reference


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def host_scale(rep: dict[str, Any]) -> float:
    """Factor taking a repetition's set-up time to the reference host speed.

    Shared hosts change speed between and within runs by tens of percent.
    A fixed pure-Python loop timed in the repetition's own process follows
    those changes, and no change to the simulator moves it: set-up is
    scaled by the loop's time just before and after the repetition.
    """
    return REFERENCE_LOOP_S / rep["reference_loop_s"]


def tick_scales(probes: list[float]) -> list[float]:
    """Per-tick factors to the reference host speed, from the speed probes
    run before each tick (a sliding median, since one probe is noisy)."""
    scales = []
    for index in range(len(probes)):
        nearby = probes[max(0, index - PROBE_HALF_WINDOW): index + PROBE_HALF_WINDOW + 1]
        scales.append(REFERENCE_PROBE_S / statistics.median(nearby))
    return scales


def tick_rate(good: list[dict[str, Any]]) -> float:
    """Ticks per second of the measured window at the reference host speed.

    Repetitions replay the same ticks (they share one digest), so each
    tick's scaled wall time is taken as its median over the repetitions; a
    slow spell on the host then costs one repetition, not the figure.
    """
    scaled = [
        [wall * scale for wall, scale in zip(rep["tick_wall_s"], tick_scales(rep["tick_probe_s"]))]
        for rep in good
    ]
    per_tick = [statistics.median(column) for column in zip(*scaled)]
    return len(per_tick) / sum(per_tick)


def end_to_end_metrics(good: list[dict[str, Any]]) -> dict[str, float]:
    timed = [rep for rep in good if rep["mode"] == "timed"]
    set_up = [rep for rep in good if rep["mode"] in ("timed", "setup")]
    return {
        "ticks_per_s": tick_rate(timed),
        "setup_s": _median([rep["setup_s"] * host_scale(rep) for rep in set_up]),
        "peak_rss_mb": _median([rep["peak_rss_mb"] for rep in timed]),
        # identical in every timed repetition: they share one digest
        "virtual_tick_p95_ms": timed[0]["virtual_tick_p95_ms"],
        "virtual_over_budget_frac": timed[0]["virtual_over_budget_frac"],
    }


def tracing_pairs(good: list[dict[str, Any]]) -> list[tuple[float, float]]:
    """(untraced, traced) ``ticks_per_s`` at the reference host speed, for
    each untraced repetition and the traced one run right after it."""
    rounds: dict[str, dict[str, float]] = {}
    for rep in good:
        if rep["mode"] in ("timed", "traced"):
            index = rep["run_id"][len(rep["mode"]):]
            rounds.setdefault(index, {})[rep["mode"]] = rep["ticks_per_s"] / host_scale(rep)
    return [(pair["timed"], pair["traced"]) for pair in rounds.values() if len(pair) == 2]


def per_layer_metrics(good: list[dict[str, Any]]) -> dict[str, float]:
    traced = [rep for rep in good if rep["mode"] == "traced"]
    units = per_layer_units()

    def value(rep: dict[str, Any], name: str) -> float:
        raw = rep["trace"]["metrics"][name]
        return raw * host_scale(rep) if units[name] in ("ms", "s") else raw

    metrics = {
        name: _median([value(rep, name) for rep in traced])
        for name in traced[0]["trace"]["metrics"]
    }
    pairs = tracing_pairs(good)
    metrics["trace.untraced_ticks_per_s"] = _median([untraced for untraced, _ in pairs])
    metrics["trace.traced_ticks_per_s"] = _median([traced for _, traced in pairs])
    metrics["trace.overhead_frac"] = _median(
        [1.0 - traced / untraced for untraced, traced in pairs]
    )
    return metrics


def layer_table(good: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per-layer self ms/tick, share of wall time and calls (median over traced runs)."""
    traced = [rep["trace"]["layers"] for rep in good if rep["mode"] == "traced"]
    names = sorted({name for layers in traced for name in layers})
    empty = {"self_ms_per_tick": 0.0, "share": 0.0, "calls": 0}
    return {
        name: {
            key: _median([layers.get(name, empty)[key] for layers in traced])
            for key in empty
        }
        for name in names
    }


def benchmark(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> dict[str, Any]:
    """Run the repetitions and assemble the report and the result object.

    ``tiny`` shrinks the workload for the benchmark's own tests; no digest
    is recorded for that size.
    """
    started = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - started

    fingerprint = host_fingerprint()
    modes = ["timed", "traced"] if trace else ["timed"]
    reps: list[dict[str, Any]] = []
    expected = None if tiny else recorded_digest(workload, seed)
    recorded = expected is not None
    if not recorded:
        plain = run_child(workload, seed, "plain", "plain", HARD_DEADLINE_S, tiny)
        reps.append(plain)
        expected = plain.get("digest")
    measured = 0.0  # seconds measured by the repetitions that report the metrics
    count = 0  # rounds of ``modes`` run so far
    while True:
        if count >= MIN_REPS and (
            measured >= seconds
            or count >= MAX_REPS
            or elapsed() > START_DEADLINE_S
        ):
            break
        for mode in modes:
            timeout_s = HARD_DEADLINE_S - elapsed()
            rep = run_child(workload, seed, mode, f"{mode}{count}", timeout_s, tiny)
            reps.append(rep)
            if mode == modes[-1] and "error" not in rep:
                measured += rep["measure_s"]
        count += 1
    setups = count
    while not trace and setups < MIN_SETUPS and elapsed() < START_DEADLINE_S:
        timeout_s = HARD_DEADLINE_S - elapsed()
        reps.append(run_child(workload, seed, "setup", f"setup{setups}", timeout_s, tiny))
        setups += 1
    digest = judge(reps, expected)
    good = [rep for rep in reps if "error" not in rep]
    failed = len(reps) - len(good)
    metrics: dict[str, float] = {}
    if all(any(rep["mode"] == mode for rep in good) for mode in modes) and (
        not trace or tracing_pairs(good)
    ):
        metrics = per_layer_metrics(good) if trace else end_to_end_metrics(good)
    for rep in reps:
        rep.pop("tick_wall_s", None)
        rep.pop("tick_probe_s", None)
    units = per_layer_units() if trace else END_TO_END
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "host": fingerprint,
        "spec": WORKLOADS[workload],
        "digest": digest,
        "digest_recorded": recorded,
        "reps": reps,
        "wall_s": elapsed(),
    }
    if trace and good:
        report["layers"] = layer_table(good)
    return {
        "report": report,
        "result": {
            "correct": failed == 0 and bool(metrics),
            "attempted": len(reps),
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
                if name in metrics
            },
        },
    }


def format_summary(report: dict[str, Any], result: dict[str, Any]) -> str:
    host = report["host"]
    lines = [
        f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}: "
        f"{result['attempted']} runs, {result['failed']} failed, "
        f"digest {str(report['digest'])[:16]} (recorded: {report['digest_recorded']})",
        f"host: {host['nproc']} cores, Python {host['python']}, numpy {host['numpy']}, "
        f"load {host['loadavg_at_start'][0]:.2f}, {host['platform']}",
    ]
    for rep in report["reps"]:
        if "error" in rep:
            lines.append(f"  {rep['run_id']}: FAILED {rep['error']}")
        elif rep["mode"] == "plain":
            lines.append(f"  {rep['run_id']}: run_spec digest {rep['digest'][:16]}")
        elif rep["mode"] == "setup":
            lines.append(
                f"  {rep['run_id']}: set-up {rep['setup_s']:.3f} s, "
                f"reference loop {1000 * rep['reference_loop_s']:.2f} ms"
            )
        else:
            lines.append(
                f"  {rep['run_id']}: {rep['ticks']} ticks in {rep['measure_s']:.3f} s "
                f"({rep['ticks_per_s']:.1f} ticks/s), set-up {rep['setup_s']:.3f} s, "
                f"peak {rep['peak_rss_mb']:.1f} MB, "
                f"reference loop {1000 * rep['reference_loop_s']:.2f} ms"
            )
    for name, row in sorted(
        report.get("layers", {}).items(), key=lambda item: -item[1]["share"]
    ):
        lines.append(
            f"  layer {name:<20} {row['self_ms_per_tick']:8.3f} ms/tick "
            f"{100 * row['share']:5.1f} %  {row['calls']:.0f} calls"
        )
    for name, metric in sorted(result["metrics"].items()):
        lines.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2

    outcome = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    report, result = outcome["report"], outcome["result"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    report_path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps({**report, "result": result}, indent=1), encoding="utf-8")
    print(format_summary(report, result))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
