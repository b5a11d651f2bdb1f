"""Pinned determinism hashes: virtual-time results must not move.

Three fixed scenarios at seed 42 hash their virtual results (the tick-duration
sequence plus every construct's final step and state digest) and compare
against hashes recorded at commit 479c82c, before the hot-path overhaul.  A
wall-clock optimisation that changes any of them is a bug; a deliberate
semantics change re-pins them and says why.

* ``construct_heavy`` — one opencraft server with a varied construct fleet
  and 25 bots, legacy full broadcast (600 ticks).
* ``cluster_quick`` — a 2-shard Servo cluster with 12 constructs and 80 bots
  (240 lockstep rounds).
* ``interest_r4`` — ``construct_heavy`` with area-of-interest broadcast at a
  4-chunk radius.

No fault plan and no telemetry is installed, so the hashes also pin that both
subsystems are invisible when off.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.constructs.library import (
    build_clock,
    build_counter_farm,
    build_lamp_grid,
    build_sized_construct,
    build_wire_line,
)
from repro.experiments.harness import build_game_server
from repro.server import GameConfig
from repro.sim import SimulationEngine
from repro.workload.behavior import behavior_by_code
from repro.workload.bots import BotSwarm, JoinSchedule
from repro.world.coords import BlockPos

SEED = 42

PINNED = {
    "construct_heavy": "fcec4b5eb07e8241581f28b65a436b73639e3940e84b6465bc0d9ce56876fd5c",
    "cluster_quick": "3d86e8733630e515d6069764a882cc92a185f54be7ccef47357a479b9947909a",
    "interest_r4": "cb02ebaa1f025968ac5c544da2d5e58ad3b3ff02fd7d4cd10aaa4dd200dad277",
}


def _construct_fleet() -> list:
    """A varied construct fleet: no two structurally identical.

    Mixes always-active circuits (clock-driven lamp grids, counter farms,
    large sized constructs) with circuits that settle to a fixed point
    (power-source wire lines), so both the compiled step loop and quiescence
    skipping are exercised.
    """
    constructs = []
    index = 0

    def next_origin() -> BlockPos:
        nonlocal index
        origin = BlockPos((index % 8) * 64, 64, (index // 8) * 64)
        index += 1
        return origin

    for width in (4, 5, 6, 7, 8):
        for depth in (3, 4, 5):
            constructs.append(build_lamp_grid(width, depth, next_origin()))
    for period in (4, 6, 8, 10, 12, 16):
        constructs.append(build_clock(period=period, origin=next_origin(), lamps=6))
    for length in range(8, 40, 2):
        constructs.append(build_wire_line(length, next_origin(), powered=True))
    for hoppers in (2, 3, 4, 5):
        constructs.append(build_counter_farm(hoppers, next_origin()))
    for size in (120, 252):
        constructs.append(build_sized_construct(size, next_origin()))
    return constructs


def _swarm(players: int) -> BotSwarm:
    behaviors = [behavior_by_code("A", direction_index=i) for i in range(players)]
    return BotSwarm(behaviors, schedule=JoinSchedule.all_at_start())


def _hash_run(tick_durations_ms: list, constructs: list) -> str:
    """Hash the virtual-time results: tick durations + construct states."""
    hasher = hashlib.sha256()
    for duration in tick_durations_ms:
        hasher.update(repr(duration).encode("ascii"))
        hasher.update(b";")
    for construct in sorted(constructs, key=lambda c: c.construct_id):
        hasher.update(str(construct.step).encode("ascii"))
        hasher.update(construct.snapshot().digest().encode("ascii"))
        hasher.update(b"|")
    return hasher.hexdigest()


def _construct_heavy(interest_radius_chunks: int | None = None) -> str:
    engine = SimulationEngine(seed=SEED)
    server = build_game_server(
        "opencraft",
        engine,
        GameConfig(world_type="flat", interest_radius_chunks=interest_radius_chunks),
    )
    server.chunks.preload_area(server.config.spawn_position, 96.0)
    for construct in _construct_fleet():
        server.place_construct(construct)
    server.run_ticks(600, before_tick=_swarm(25).install(server))
    return _hash_run(
        [record.duration_ms for record in server.tick_records],
        server.constructs.constructs(),
    )


def _cluster_quick() -> str:
    engine = SimulationEngine(seed=SEED)
    cluster = build_game_server(
        "servo-cluster", engine, GameConfig(world_type="flat"), shards=2
    )
    cluster.chunks.preload_area(cluster.config.spawn_position, 96.0)
    for construct in _construct_fleet()[:12]:
        cluster.place_construct(construct)
    cluster.run_ticks(240, before_tick=_swarm(80).install(cluster))
    constructs = [c for shard in cluster.shards for c in shard.constructs.constructs()]
    return _hash_run([record.duration_ms for record in cluster.tick_records], constructs)


SCENARIOS = {
    "construct_heavy": _construct_heavy,
    "cluster_quick": _cluster_quick,
    "interest_r4": lambda: _construct_heavy(interest_radius_chunks=4),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_virtual_results_match_pinned_hash(name):
    assert SCENARIOS[name]() == PINNED[name]
