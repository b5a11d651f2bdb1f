"""Regression: ``Chunk.content_hash`` must be stable across processes.

The original implementation hashed ``(position, blocks.tobytes())`` with the
builtin ``hash()``.  CPython salts ``str``/``bytes`` hashes per process
(``PYTHONHASHSEED``), so the value silently differed between processes while
the docstring claimed stability — exactly the bug class DET005 exists to
catch.  The digest-based replacement is pinned here under explicit, distinct
hash seeds, and so are two default-world chunks: their values were recorded
from the per-column generator, so any change to default terrain shows here.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.world.coords import BlockPos, ChunkPos
from repro.world.terrain import DefaultTerrainGenerator, FlatTerrainGenerator

#: (seed, chunk position, content hash) of default-world chunks
PINNED_DEFAULT_CHUNKS = [
    (1234, (3, -2), 15297289395554904622),
    (1, (-40, 17), 15351165291420115465),
]

_SNIPPET = """
from repro.world.coords import ChunkPos
from repro.world.terrain import FlatTerrainGenerator

chunk = FlatTerrainGenerator(seed=7).generate_chunk(ChunkPos(3, -2))
print(chunk.content_hash())
"""


_DEFAULT_SNIPPET = """
from repro.world.coords import ChunkPos
from repro.world.terrain import DefaultTerrainGenerator

chunk = DefaultTerrainGenerator(seed={seed}).generate_chunk(ChunkPos({cx}, {cz}))
print(chunk.content_hash())
"""


def _hash_in_subprocess(hash_seed: str, snippet: str = _SNIPPET) -> int:
    src_dir = Path(__file__).resolve().parents[2] / "src"
    result = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(src_dir), "PYTHONHASHSEED": hash_seed},
    )
    return int(result.stdout.strip())


def test_content_hash_identical_across_hash_randomized_processes():
    assert _hash_in_subprocess("1") == _hash_in_subprocess("2") == _hash_in_subprocess("random")


def test_content_hash_matches_the_in_process_value():
    chunk = FlatTerrainGenerator(seed=7).generate_chunk(ChunkPos(3, -2))
    assert chunk.content_hash() == _hash_in_subprocess("1")


def test_content_hash_tracks_content_and_position():
    generator = FlatTerrainGenerator(seed=7)
    chunk = generator.generate_chunk(ChunkPos(0, 0))
    twin = generator.generate_chunk(ChunkPos(0, 0))
    assert chunk.content_hash() == twin.content_hash()
    # Position is part of the identity...
    assert chunk.content_hash() != generator.generate_chunk(ChunkPos(0, 1)).content_hash()
    # ...and so is every block.
    before = twin.content_hash()
    origin = BlockPos(twin.position.cx * 16, 0, twin.position.cz * 16)
    twin.set_block(origin, type(twin.get_block(origin))(1))
    assert twin.content_hash() != before


@pytest.mark.parametrize("seed, position, expected", PINNED_DEFAULT_CHUNKS)
def test_default_chunk_hash_is_pinned(seed, position, expected):
    chunk = DefaultTerrainGenerator(seed=seed).generate_chunk(ChunkPos(*position))
    assert chunk.content_hash() == expected
    snippet = _DEFAULT_SNIPPET.format(seed=seed, cx=position[0], cz=position[1])
    assert _hash_in_subprocess("3", snippet) == _hash_in_subprocess("random", snippet) == expected
