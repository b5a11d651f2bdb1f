"""Serverless terrain takes one path on every Servo host.

The terrain function's reply carries a zero-argument callable; the provider
generates the chunk when the invocation completes.  A single server and the
shards of a cluster must both integrate exactly the chunks local generation
produces, and the platform's invocation log must never retain chunk data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import build_host
from repro.core.terrain_service import TERRAIN_GENERATION_FUNCTION
from repro.server import GameConfig
from repro.sim import SimulationEngine
from repro.world.chunk import Chunk
from repro.world.terrain import make_terrain_generator


@pytest.mark.parametrize("game, knobs", [("servo", {}), ("servo-cluster", {"shards": 2})])
def test_faas_terrain_delivers_local_chunks_and_keeps_none_in_invocations(game, knobs):
    config = GameConfig(world_type="default", world_seed=9, view_distance_blocks=24.0)
    engine = SimulationEngine(seed=5)
    host = build_host(game, engine, config, **knobs)
    for index in range(4):
        host.connect_player(f"p{index}")
    host.run_for_seconds(6.0)

    servers = list(getattr(host, "shards", [host]))
    platform = servers[0].runtime.platform
    assert all(server.runtime.platform is platform for server in servers)
    terrain = platform.invocations_for(TERRAIN_GENERATION_FUNCTION)
    assert terrain and all(invocation.status == "ok" for invocation in terrain)
    assert engine.metrics.counter("terrain_local_fallbacks") == 0
    assert not any(isinstance(invocation.result, Chunk) for invocation in platform.invocations)

    reference = make_terrain_generator("default", seed=config.world_seed)
    integrated = [chunk for server in servers for chunk in server.world]
    assert 0 < len(integrated) <= len(terrain)
    for chunk in integrated:
        expected = reference.generate_chunk(chunk.position)
        assert np.array_equal(chunk.blocks, expected.blocks), chunk.position
