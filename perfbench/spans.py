"""Outside-in wall-clock tracing of the simulator's layers.

A :class:`SpanRecorder` keeps spans (id, parent id, name, start, end) in
memory for one run; :class:`LayerTracer` records them by wrapping the public
calls of a built host: instance attributes on the host, its shards and their
services, and class attributes where the call sites cannot be reached
through an instance (the frozen ``TickCostModel`` and the terrain generators
that FaaS handlers create for themselves).  Nothing under ``src/`` changes.

The simulator is single-threaded, so spans nest strictly.  A span's self
time is its duration minus its direct children's durations; the self times
of a window's spans sum exactly to the window's duration, and the window
span's own self time is the time no wrapped layer claims
(``unattributed``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional

#: span name -> per-layer metric reporting its self time per measured tick
LAYER_METRICS: dict[str, str] = {
    "workload.drive": "workload.drive_ms",
    "server.ingest": "server.ingest_ms",
    "server.finish": "server.finish_ms",
    "server.connect": "server.connect_ms",
    "chunks.update": "chunks.update_ms",
    "storage.prefetch": "storage.prefetch_ms",
    "world.terrain_gen": "world.terrain_gen_ms",
    "constructs.begin": "constructs.begin_ms",
    "constructs.step": "constructs.step_ms",
    "constructs.finish": "constructs.finish_ms",
    "faas.invoke": "faas.invoke_ms",
    "faas.handler": "faas.handler_ms",
    "interest.route": "interest.route_ms",
    "interest.flush": "interest.flush_ms",
    "cluster.round": "cluster.round_ms",
    "costmodel": "costmodel.ms",
    "sim.events": "sim.events_ms",
}

#: set-up span name -> per-layer metric reporting its wall seconds per run
SETUP_METRICS: dict[str, str] = {
    "setup.preload": "setup.preload_s",
    "setup.constructs": "setup.constructs_s",
    "server.connect": "setup.connect_s",
}

#: the span covering one ``run_for_seconds`` call; the last one is measured
LOOP_SPAN = "loop"
ROOT_SPAN = "run"

Span = list  # [span_id, parent_id, name, start_s, end_s]


class SpanRecorder:
    """In-memory spans of one run, closed in strict stack order."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1][0] if self._stack else -1
        span = [len(self.spans), parent, name, self.clock(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span[4] = self.clock()
        if not self._stack or self._stack.pop() is not span:
            raise RuntimeError(f"span {span[2]!r} closed out of order")

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recorded as a ``name`` span; ``on_result`` sees its return value."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write the spans as JSON, times in seconds from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        payload = {
            "run_id": self.run_id,
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [
                [sid, parent, name, round(start - origin, 9), round(end - origin, 9)]
                for sid, parent, name, start, end in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[4] - span[3] for span in spans]
    for span in spans:
        if span[1] >= 0:
            own[span[1]] -= span[4] - span[3]
    return own


def check_nesting(spans: list[Span], tolerance_s: float = 1e-9) -> list[str]:
    """Problems with the span tree: open spans, children outside parents,
    negative self time.  Empty when the tree is sound."""
    problems = []
    for span in spans:
        if span[4] is None:
            problems.append(f"span {span[0]} {span[2]!r} never closed")
            continue
        if span[1] >= 0:
            parent = spans[span[1]]
            if span[3] < parent[3] or span[4] > parent[4]:
                problems.append(f"span {span[0]} {span[2]!r} outside parent {parent[2]!r}")
    if not problems:
        for span, own in zip(spans, self_times(spans)):
            if own < -tolerance_s:
                problems.append(f"span {span[0]} {span[2]!r} has negative self time {own}")
    return problems


def attribute_window(spans: list[Span], window: Span) -> dict[str, dict[str, float]]:
    """Self seconds and call counts per span name inside ``window``.

    ``window`` itself is reported as ``unattributed``.  Spans nest strictly
    and are recorded in start order, so the window's descendants are the
    spans after it that start before it ends.
    """
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {
        "unattributed": {"self_s": own[window[0]], "calls": 1}
    }
    for span in spans[window[0] + 1:]:
        if span[3] >= window[4]:
            break
        row = totals.setdefault(span[2], {"self_s": 0.0, "calls": 0})
        row["self_s"] += own[span[0]]
        row["calls"] += 1
    return totals


class LayerTracer:
    """Wraps a built host's layer boundaries so they record spans and counts."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: cumulative counts taken from the wrapped calls' return values
        self.counts: Counter = Counter()
        self._class_patches: list[tuple[type, str, Any]] = []
        self._seen: set[int] = set()

    # -- class-level wrappers -------------------------------------------------------

    def install_classes(self) -> None:
        """Wrap the calls no instance reaches: cost model and terrain generators."""
        from repro.server.costmodel import TickCostModel
        from repro.world.terrain import TerrainGenerator

        self._patch_class(TickCostModel, "duration_ms", "costmodel")
        pending = list(TerrainGenerator.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "generate_chunk" in vars(cls):
                self._patch_class(cls, "generate_chunk", "world.terrain_gen")

    def _patch_class(self, cls: type, attr: str, name: str) -> None:
        original = vars(cls)[attr]
        self._class_patches.append((cls, attr, original))
        setattr(cls, attr, self.recorder.wrap(name, original))

    def uninstall_classes(self) -> None:
        while self._class_patches:
            cls, attr, original = self._class_patches.pop()
            setattr(cls, attr, original)

    # -- instance-level wrappers ----------------------------------------------------

    def _wrap(self, obj: Any, attr: str, name: str, on_result=None) -> None:
        setattr(obj, attr, self.recorder.wrap(name, getattr(obj, attr), on_result))

    def _first_time(self, obj: Any) -> bool:
        key = id(obj)
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def install_host(self, host: Any) -> None:
        """Wrap every layer boundary of ``host`` (a server or a cluster)."""
        self._wrap(host.chunks, "preload_area", "setup.preload")
        self._wrap(host, "place_construct", "setup.constructs")
        self._wrap(host, "connect_player", "server.connect")
        if hasattr(host, "shards"):
            self._wrap(host, "tick", "cluster.round")
            self._wrap(host.executor, "step_circuits", "constructs.step")
        for server in servers_of(host):
            self._install_server(server)
        self._wrap(host.engine, "advance_to", "sim.events")

    def _install_server(self, server: Any) -> None:
        counts = self.counts
        self._wrap(server, "tick_begin", "server.ingest")
        self._wrap(server, "tick_finish", "server.finish")

        def chunk_report(report: Any) -> None:
            counts["chunks.integrated"] += report.chunks_integrated
            counts["chunks.streamed"] += report.chunks_streamed
            counts["chunks.evicted"] += report.chunks_evicted

        self._wrap(server.chunks, "update", "chunks.update", chunk_report)

        def construct_report(report: Any) -> None:
            counts["constructs.simulated_locally"] += report.simulated_locally
            counts["constructs.merged"] += report.merged_speculative
            counts["constructs.skipped_quiescent"] += report.skipped_quiescent

        recorder = self.recorder

        def wrap_plan(plan: Any) -> None:
            plan.step_inline = recorder.wrap("constructs.step", plan.step_inline)
            plan.finish = recorder.wrap("constructs.finish", plan.finish, construct_report)

        self._wrap(server.constructs, "begin_tick", "constructs.begin", wrap_plan)

        if server.interest is not None:
            def flush_report(report: Any) -> None:
                counts["interest.entries_encoded"] += report.entries_encoded
                counts["interest.flushes"] += report.flushes

            self._wrap(server.interest, "note_dirty", "interest.route")
            self._wrap(server.interest, "note_external", "interest.route")
            self._wrap(server.interest, "flush", "interest.flush", flush_report)

        storage = server.storage
        if hasattr(storage, "prefetch_for_avatars") and self._first_time(storage):
            def prefetched(count: int) -> None:
                counts["storage.prefetched"] += count

            self._wrap(storage, "prefetch_for_avatars", "storage.prefetch", prefetched)

        platform = getattr(server.runtime, "platform", None)
        if platform is not None and self._first_time(platform):
            if platform.invocations:
                raise RuntimeError("the FaaS platform was used before tracing started")
            for method in ("invoke", "invoke_async", "invoke_with_retry"):
                self._wrap(platform, method, "faas.invoke")
            # The platform has no public accessor for its deployed
            # definitions; the handler is a plain field on each of them.
            for definition in platform._functions.values():
                definition.handler = self.recorder.wrap("faas.handler", definition.handler)


def servers_of(host: Any) -> list[Any]:
    shards = getattr(host, "shards", None)
    return list(shards) if shards is not None else [host]


def platforms_of(host: Any) -> list[Any]:
    platforms: dict[int, Any] = {}
    for server in servers_of(host):
        platform = getattr(server.runtime, "platform", None)
        if platform is not None:
            platforms.setdefault(id(platform), platform)
    return list(platforms.values())


def host_counters(host: Any, tracer: LayerTracer) -> dict[str, float]:
    """Cumulative counters of ``host``; a window's counts are end minus start."""
    out: dict[str, float] = dict(tracer.counts)
    servers = servers_of(host)
    out["server.messages"] = sum(server.stats.messages_processed for server in servers)
    storages = {
        id(server.storage): server.storage
        for server in servers
        if hasattr(server.storage, "cache")
    }
    out["storage.hits"] = sum(storage.cache.stats.hits for storage in storages.values())
    out["storage.reads"] = sum(storage.cache.stats.reads for storage in storages.values())
    invocations = [inv for platform in platforms_of(host) for inv in platform.invocations]
    out["faas.invocations"] = len(invocations)
    out["faas.cold_starts"] = sum(1 for inv in invocations if inv.cold_start)
    out["faas.retries"] = host.engine.metrics.counter("faas_retries")
    out["cluster.migrations"] = getattr(host, "migration_count", 0)
    return out


def window_counts(start: dict[str, float], end: dict[str, float]) -> dict[str, float]:
    """The count and ratio per-layer metrics of one measured window."""
    delta = Counter()
    for key, value in end.items():
        delta[key] = value - start.get(key, 0)
    reads = delta["storage.reads"]
    invocations = delta["faas.invocations"]
    flushes = delta["interest.flushes"]
    return {
        "server.messages": delta["server.messages"],
        "chunks.integrated": delta["chunks.integrated"],
        "chunks.streamed": delta["chunks.streamed"],
        "chunks.evicted": delta["chunks.evicted"],
        "storage.prefetched": delta["storage.prefetched"],
        "storage.cache_hit_rate": delta["storage.hits"] / reads if reads else 0.0,
        "constructs.simulated_locally": delta["constructs.simulated_locally"],
        "constructs.merged": delta["constructs.merged"],
        "constructs.skipped_quiescent": delta["constructs.skipped_quiescent"],
        "faas.invocations": invocations,
        "faas.cold_start_frac": delta["faas.cold_starts"] / invocations if invocations else 0.0,
        "faas.retries": delta["faas.retries"],
        "interest.entries_encoded": delta["interest.entries_encoded"],
        "interest.flushes": flushes,
        "interest.entries_per_flush": (
            delta["interest.entries_encoded"] / flushes if flushes else 0.0
        ),
        "cluster.migrations": delta["cluster.migrations"],
    }
