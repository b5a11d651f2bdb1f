#!/usr/bin/env python
"""Chaos smoke test: fault injection recovers fully and deterministically.

Two gates, both at quick scale with a fixed seed (used by the CI
``chaos-smoke`` job):

1. **Shard kill** — the ``shard_kill_at_peak`` scenario runs twice with the
   same seed.  Both runs must recover 100% of the killed shard's sessions,
   and must produce identical fault timelines, recovery records and final
   counters (bit-reproducible chaos).
2. **Offload brownout** — the ``offload_brownout`` scenario runs twice.
   Faults must actually fire (failures > 0) and be answered (retries > 0),
   and both runs must agree on every counter.

Tier-1 (``tests/test_pinned_hashes.py``) pins that runs without a fault plan
keep their recorded hashes.

Exit status is non-zero on any violation.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

import sys

from repro.api.run import run_spec

SEED = 42

SHARD_KILL_SPEC = {
    "host": {"game": "servo-cluster", "shards": 2},
    "workload": {
        "scenario": "shard_kill_at_peak",
        "params": {
            "players": 16,
            "constructs": 8,
            "duration_s": 16.0,
            "kill_at_s": 8.0,
            "respawn_after_s": 2.0,
            "shard": 0,
        },
    },
    "seed": SEED,
}

BROWNOUT_SPEC = {
    "host": {"game": "servo"},
    "workload": {
        "scenario": "offload_brownout",
        "params": {
            "players": 10,
            "constructs": 12,
            "duration_s": 10.0,
            "failure_rate": 0.25,
            "throttle_rate": 0.1,
            "timeout_rate": 0.05,
        },
    },
    "seed": SEED,
}


def _fingerprint(result) -> tuple:
    """Everything two same-seed runs must agree on."""
    host = result.host
    timeline = host.fault_injector.timeline.digest() if host.fault_injector else None
    records = tuple(getattr(host, "recovery_records", ()))
    return (timeline, records, tuple(sorted(result.counters.items())), result.end_virtual_ms)


def check_shard_kill() -> list[str]:
    failures = []
    first, second = run_spec(SHARD_KILL_SPEC), run_spec(SHARD_KILL_SPEC)
    records = first.host.recovery_records
    if len(records) != 1:
        failures.append(f"shard-kill: expected exactly 1 recovery record, got {len(records)}")
    for record in records:
        if record.sessions_lost != 0:
            failures.append(f"shard-kill: {record.sessions_lost} sessions lost: {record}")
        if record.sessions_recovered <= 0:
            failures.append(f"shard-kill: no sessions recovered: {record}")
        if record.downtime_rounds <= 0:
            failures.append(f"shard-kill: non-positive MTTR: {record}")
    if _fingerprint(first) != _fingerprint(second):
        failures.append("shard-kill: same-seed reruns diverged (timeline/records/counters)")
    if not failures:
        record = records[0]
        print(
            f"shard-kill: recovered {record.sessions_recovered}/"
            f"{record.sessions_recovered + record.sessions_lost} sessions, "
            f"MTTR {record.downtime_rounds} rounds, deterministic [ok]"
        )
    return failures


def check_brownout() -> list[str]:
    failures = []
    first, second = run_spec(BROWNOUT_SPEC), run_spec(BROWNOUT_SPEC)
    injected = sum(
        first.counters.get(name, 0.0)
        for name in ("faas_failures", "faas_throttles", "faas_forced_timeouts")
    )
    if injected <= 0:
        failures.append("brownout: no FaaS faults were injected")
    if first.counters.get("faas_retries", 0.0) <= 0:
        failures.append("brownout: faults fired but no retries happened")
    if _fingerprint(first) != _fingerprint(second):
        failures.append("brownout: same-seed reruns diverged")
    if not failures:
        print(
            f"brownout: {injected:.0f} faults injected, "
            f"{first.counters['faas_retries']:.0f} retries, deterministic [ok]"
        )
    return failures


def main() -> int:
    failures = check_shard_kill() + check_brownout()
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
