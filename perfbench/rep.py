"""One repetition of a benchmark workload.

``run.py`` starts each repetition as a fresh process so that peak memory is
the run's own and no state carries over from one repetition to the next::

    python3 perfbench/rep.py --workload servo_constructs --seed 1 --mode timed

The repetition runs the workload's spec through ``repro.api.run.run_spec``,
the path ``python -m repro run`` takes, observing the host it builds: the
last ``run_for_seconds`` call is the measured window, everything before it
(host build, world preload, construct placement, bot connection, warm-up
ticks) is set-up.  ``--mode traced`` also records layer spans (see
``spans.py``); ``--mode setup`` stops at the first measured tick and reports
only the set-up time; ``--mode plain`` calls ``run_spec`` with no hooks at all
and reports only the digest every other repetition must reproduce.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from spans import (
    LAYER_METRICS,
    LOOP_SPAN,
    ROOT_SPAN,
    SETUP_METRICS,
    LayerTracer,
    SpanRecorder,
    attribute_window,
    check_nesting,
    host_counters,
    servers_of,
    window_counts,
)
from workloads import OUT_DIR, ensure_src_on_path, spec_dict


def summary_digest(summary: dict) -> str:
    """SHA-256 of a ``RunResult.summary()``, hashed as ``repro bench`` hashes it."""
    payload = json.dumps(summary, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


#: iterations of the host-speed loop, run as a reference before and after
#: each repetition and as a short probe before every measured tick
REFERENCE_ITERATIONS = 200_000
PROBE_ITERATIONS = 2_000


def speed_loop_s(iterations: int) -> float:
    """Wall seconds of a fixed pure-Python loop: the host's speed right now.

    The loop uses nothing from the simulator, so no change to the program
    moves it; ``run.py`` scales wall times by it.
    """
    begin = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value * value
    return time.perf_counter() - begin


def reference_loop_s() -> float:
    """The fastest of five reference loops: the host's speed around a repetition."""
    return min(speed_loop_s(REFERENCE_ITERATIONS) for _ in range(5))


class _SetupDone(Exception):
    """Raised at the first measured tick of a set-up-only repetition."""


@contextlib.contextmanager
def observed_build(on_built: Callable[[Any], None]) -> Iterator[None]:
    """Hand every host ``run_spec`` builds to ``on_built`` before it runs."""
    import repro.api.run as api_run

    original = api_run.build_host

    def build_host(*args: Any, **kwargs: Any) -> Any:
        host = original(*args, **kwargs)
        on_built(host)
        return host

    api_run.build_host = build_host
    try:
        yield
    finally:
        api_run.build_host = original


MODES = ("timed", "traced", "setup", "plain")


def run_rep(
    workload: str,
    seed: int,
    mode: str = "timed",
    run_id: str = "rep",
    tiny: bool = False,
    spans_path: Optional[Path] = None,
) -> dict[str, Any]:
    """Run one repetition; return its timings, virtual results and checks."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    ensure_src_on_path()
    import repro.api.run as api_run
    from repro.api.spec import RunSpec

    spec_data = spec_dict(workload, seed, tiny=tiny)
    if mode == "plain":
        result = api_run.run_spec(RunSpec.from_dict(spec_data))
        return {
            "workload": workload, "seed": seed, "run_id": run_id, "mode": mode,
            "digest": summary_digest(result.summary()), "checks": [],
        }
    # Scenario.run calls run_for_seconds once for the warm-up (when there is
    # one), then once for the measured window.
    measured_call = 1 if spec_data["warmup_s"] > 0 else 0
    clock = time.perf_counter
    recorder = SpanRecorder(run_id) if mode == "traced" else None
    tracer = LayerTracer(recorder) if recorder is not None else None
    loops: list[dict[str, Any]] = []
    hosts: list[Any] = []

    def observe(host: Any) -> None:
        hosts.append(host)
        if tracer is not None:
            tracer.install_host(host)
        original = host.run_for_seconds

        def run_for_seconds(seconds: float, before_tick=None):
            if mode == "setup" and len(loops) == measured_call:
                raise _SetupDone(clock())
            loop: dict[str, Any] = {"tick_starts": [], "tick_ends": [], "probes": []}
            if tracer is not None:
                if before_tick is not None:
                    before_tick = recorder.wrap("workload.drive", before_tick)
                loop["counters_start"] = host_counters(host, tracer)
                loop["span"] = recorder.begin(LOOP_SPAN)
            elif before_tick is not None:
                # The driver runs first in every tick, so its calls split the
                # window into ticks.  A speed probe runs before each call,
                # outside the tick's own wall time.
                driver = before_tick
                starts, ends, probes = loop["tick_starts"], loop["tick_ends"], loop["probes"]

                def before_tick(driven_host: Any, tick_index: int) -> None:
                    if starts:
                        ends.append(clock())
                    probes.append(speed_loop_s(PROBE_ITERATIONS))
                    starts.append(clock())
                    driver(driven_host, tick_index)

            loop["start"] = clock()
            try:
                records = original(seconds, before_tick=before_tick)
            finally:
                loop["end"] = clock()
                if tracer is not None:
                    recorder.end(loop["span"])
                elif loop["tick_starts"]:
                    loop["tick_ends"].append(loop["end"])
            if tracer is not None:
                loop["counters_end"] = host_counters(host, tracer)
            loop["ticks"] = len(records)
            loops.append(loop)
            return records

        host.run_for_seconds = run_for_seconds

    loop_before = reference_loop_s()
    started = clock()
    spec = RunSpec.from_dict(spec_data)
    if tracer is not None:
        tracer.install_classes()
    try:
        root = recorder.begin(ROOT_SPAN) if recorder is not None else None
        try:
            with observed_build(observe):
                result = api_run.run_spec(spec)
        finally:
            if root is not None:
                recorder.end(root)
    except _SetupDone as done:
        first_tick = done.args[0]
        return {
            "workload": workload, "seed": seed, "run_id": run_id, "mode": mode,
            "setup_s": first_tick - started, "checks": [],
            "reference_loop_s": (loop_before + reference_loop_s()) / 2,
        }
    finally:
        if tracer is not None:
            tracer.uninstall_classes()

    loop_after = reference_loop_s()
    host = hosts[0]
    measured = loops[-1]
    ticks = measured["ticks"]
    tick_walls = [
        end - start for start, end in zip(measured["tick_starts"], measured["tick_ends"])
    ]
    # Timed repetitions measure the ticks alone, without the speed probes.
    measure_s = sum(tick_walls) if mode == "timed" else measured["end"] - measured["start"]
    checks = []
    if len(hosts) != 1:
        checks.append(f"run_spec built {len(hosts)} hosts, expected 1")
    if ticks != len(result.scenario.tick_durations_ms) or ticks == 0:
        checks.append(
            f"measured window holds {ticks} ticks, the scenario measured "
            f"{len(result.scenario.tick_durations_ms)}"
        )
    if host.player_count != result.scenario.players:
        checks.append(f"{host.player_count} of {result.scenario.players} players connected")
    if host.construct_count != result.scenario.constructs:
        checks.append(f"{host.construct_count} of {result.scenario.constructs} constructs placed")
    for server in servers_of(host):
        if server.interest is not None and not server.interest.verify_index():
            checks.append(f"interest index of {server.name} disagrees with a rebuild")
    if mode == "timed" and len(measured["tick_starts"]) != ticks:
        checks.append("the bot driver did not run before every measured tick")

    out: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "run_id": run_id,
        "mode": mode,
        "digest": summary_digest(result.summary()),
        "setup_s": measured["start"] - started,
        "measure_s": measure_s,
        "ticks": ticks,
        "ticks_per_s": ticks / measure_s,
        "tick_wall_s": tick_walls,
        "tick_probe_s": measured["probes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virtual_tick_p95_ms": result.tick_stats().p95,
        "virtual_over_budget_frac": result.fraction_over_budget(),
        "checks": checks,
        "reference_loop_s": (loop_before + loop_after) / 2,
    }
    if recorder is not None:
        out["trace"] = _trace_report(recorder, measured, ticks)
        checks.extend(out["trace"].pop("problems"))
        if spans_path is not None:
            recorder.write(spans_path)
            out["trace"]["spans_path"] = str(spans_path)
    return out


def _trace_report(recorder: SpanRecorder, measured: dict, ticks: int) -> dict[str, Any]:
    spans = recorder.spans
    problems = check_nesting(spans)
    window = measured["span"]
    window_s = window[4] - window[3]
    totals = attribute_window(spans, window)
    layers = {}
    for name, row in sorted(totals.items()):
        if name != "unattributed" and name not in LAYER_METRICS:
            problems.append(f"span {name!r} in the measured window has no layer metric")
        layers[name] = {
            "self_ms_per_tick": 1000.0 * row["self_s"] / ticks,
            "share": row["self_s"] / window_s,
            "calls": row["calls"],
        }
    metrics = {
        metric: layers[name]["self_ms_per_tick"] if name in layers else 0.0
        for name, metric in LAYER_METRICS.items()
    }
    metrics["unattributed_ms"] = layers["unattributed"]["self_ms_per_tick"]
    metrics["trace.wall_ms"] = 1000.0 * window_s / ticks
    metrics["world.chunks_generated"] = layers.get("world.terrain_gen", {}).get("calls", 0)
    for metric in SETUP_METRICS.values():
        metrics[metric] = 0.0
    for span in spans[: window[0]]:
        if span[2] in SETUP_METRICS:
            metrics[SETUP_METRICS[span[2]]] += span[4] - span[3]
    metrics.update(window_counts(measured["counters_start"], measured["counters_end"]))
    return {"metrics": metrics, "layers": layers, "problems": problems, "spans": len(spans)}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="timed")
    parser.add_argument("--run-id", default="rep")
    parser.add_argument("--tiny", action="store_true", help="test-sized workload")
    args = parser.parse_args(argv)
    spans_path = None
    if args.mode == "traced":
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{args.run_id}.json"
    result = run_rep(
        args.workload,
        args.seed,
        mode=args.mode,
        run_id=args.run_id,
        tiny=args.tiny,
        spans_path=spans_path,
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
