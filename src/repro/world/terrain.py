"""Procedural terrain generation (PCG).

Two world types from the paper's experimental setup (Section IV-A):

* ``default`` — procedurally generated terrain with mountains, water and
  different surface materials, built from layered value noise.
* ``flat`` — an infinite plain, used for simulated-construct experiments.

Generation is deterministic in (seed, chunk position), so a chunk generated
inside a serverless function is bit-identical to one generated locally — the
property Servo relies on when it offloads generation.
"""

from __future__ import annotations

import numpy as np

from repro.world.block import BlockType
from repro.world.chunk import CHUNK_HEIGHT, Chunk
from repro.world.coords import CHUNK_SIZE, ChunkPos, chunk_origin
from repro.world.noise import LayeredNoise

SEA_LEVEL = 62
FLAT_SURFACE_LEVEL = 64


def _column_table() -> np.ndarray:
    """The finished default-world column for every surface height.

    Row ``h`` holds the column under and above a surface at ``y = h``:
    bedrock at ``y = 0``, stone up to three blocks below the surface, dirt
    for the three blocks under it (overwriting the bedrock when ``h <= 3``),
    air at the surface itself, and water from above the surface up to sea
    level.  The surface block is chosen per column by the generator.
    """
    y = np.arange(CHUNK_HEIGHT)[None, :]
    h = np.arange(CHUNK_HEIGHT)[:, None]
    table = np.zeros((CHUNK_HEIGHT, CHUNK_HEIGHT), dtype=np.uint8)
    table[:, 0] = int(BlockType.BEDROCK)
    table[(y >= 1) & (y < h - 3)] = int(BlockType.STONE)
    table[(y >= h - 3) & (y < h)] = int(BlockType.DIRT)
    table[(y > h) & (y <= SEA_LEVEL)] = int(BlockType.WATER)
    return table


#: surface height -> column, indexed ``[height, y]``
_COLUMNS = _column_table()
#: local x and z of every column, indexed ``[x, z]``
_LOCAL_X, _LOCAL_Z = np.meshgrid(np.arange(CHUNK_SIZE), np.arange(CHUNK_SIZE), indexing="ij")


class TerrainGenerator:
    """Interface for terrain generators."""

    #: name used in scenario configuration ("default" or "flat")
    world_type: str = "abstract"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def generate_chunk(self, position: ChunkPos) -> Chunk:
        raise NotImplementedError

    def generation_work_units(self) -> float:
        """Relative computational weight of generating one chunk.

        Used by the FaaS resource model and the local tick cost model to turn
        chunk generation into virtual milliseconds.  The flat world is much
        cheaper to produce than the default world.
        """
        raise NotImplementedError


class FlatTerrainGenerator(TerrainGenerator):
    """An infinite plain: bedrock, stone, dirt and a grass surface."""

    world_type = "flat"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._template: np.ndarray | None = None

    def generate_chunk(self, position: ChunkPos) -> Chunk:
        # Every flat chunk has identical contents, so the column layout is
        # built once and copied — far cheaper than refilling the strata.
        if self._template is None:
            template = np.zeros_like(Chunk(position=position).blocks)
            template[:, 0, :] = int(BlockType.BEDROCK)
            template[:, 1:FLAT_SURFACE_LEVEL - 3, :] = int(BlockType.STONE)
            template[:, FLAT_SURFACE_LEVEL - 3:FLAT_SURFACE_LEVEL, :] = int(BlockType.DIRT)
            template[:, FLAT_SURFACE_LEVEL, :] = int(BlockType.GRASS)
            self._template = template
        return Chunk(
            position=position,
            blocks=self._template.copy(),
            generated_by=f"flat:{self.seed}",
            dirty=False,
        )

    def generation_work_units(self) -> float:
        return 0.1


class DefaultTerrainGenerator(TerrainGenerator):
    """Noise-based terrain with mountains, beaches, water and snow caps."""

    world_type = "default"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._height_noise = LayeredNoise(seed=self.seed, octaves=5, base_scale=96.0)
        self._roughness_noise = LayeredNoise(seed=self.seed + 7919, octaves=3, base_scale=256.0)
        self._moisture_noise = LayeredNoise(seed=self.seed + 104729, octaves=3, base_scale=160.0)

    def generate_chunk(self, position: ChunkPos) -> Chunk:
        origin = chunk_origin(position)
        xs = np.arange(origin.x, origin.x + CHUNK_SIZE)
        zs = np.arange(origin.z, origin.z + CHUNK_SIZE)
        base = self._height_noise.sample_grid(xs, zs)
        roughness = self._roughness_noise.sample_grid(xs, zs)
        moisture = self._moisture_noise.sample_grid(xs, zs)
        # Roughness modulates the terrain amplitude: plains vs mountains.
        amplitude = 20.0 + 70.0 * roughness
        height = SEA_LEVEL - 10.0 + amplitude * base
        heights = np.clip(np.round(height), 1, CHUNK_HEIGHT - 2).astype(np.intp)

        # Strata and water come from the column table in one gather, (x, z, y)
        # transposed to the chunk's (x, y, z).
        blocks = np.ascontiguousarray(_COLUMNS[heights].transpose(0, 2, 1))
        # Surface material depends on altitude and moisture.
        surface = np.where(
            heights <= SEA_LEVEL,
            np.where(moisture < 0.6, int(BlockType.SAND), int(BlockType.GRAVEL)),
            np.where(
                heights >= SEA_LEVEL + 55,
                int(BlockType.SNOW),
                np.where(moisture < 0.25, int(BlockType.SAND), int(BlockType.GRASS)),
            ),
        )
        blocks[_LOCAL_X, heights, _LOCAL_Z] = surface
        return Chunk(
            position=position,
            blocks=blocks,
            generated_by=f"default:{self.seed}",
            dirty=False,
        )

    def generation_work_units(self) -> float:
        return 1.0


def make_terrain_generator(world_type: str, seed: int = 0) -> TerrainGenerator:
    """Create a terrain generator by name ("default" or "flat")."""
    if world_type == "default":
        return DefaultTerrainGenerator(seed=seed)
    if world_type == "flat":
        return FlatTerrainGenerator(seed=seed)
    raise ValueError(f"unknown world type {world_type!r} (expected 'default' or 'flat')")
