"""The default-world generator against its per-column reference.

``DefaultTerrainGenerator.generate_chunk`` samples its noise on the chunk's
grid with ``sample_grid`` and fills columns from a height -> column table.
The per-column generator it replaced is kept here, verbatim, as the oracle:
every chunk must be byte-identical to it, and ``sample_grid`` must be
bit-equal to the point-wise ``sample``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.world.block import BlockType
from repro.world.chunk import CHUNK_HEIGHT, Chunk
from repro.world.coords import CHUNK_SIZE, ChunkPos, chunk_origin
from repro.world.noise import LayeredNoise, ValueNoise2D
from repro.world.terrain import _COLUMNS, SEA_LEVEL, DefaultTerrainGenerator


def _reference_surface_height_at(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Surface height for world columns (vectorised)."""
    base = self._height_noise.sample(x, z)
    roughness = self._roughness_noise.sample(x, z)
    # Roughness modulates the terrain amplitude: plains vs mountains.
    amplitude = 20.0 + 70.0 * roughness
    height = SEA_LEVEL - 10.0 + amplitude * base
    return np.clip(np.round(height), 1, CHUNK_HEIGHT - 2).astype(np.int64)


def _reference_generate_chunk(self, position: ChunkPos) -> Chunk:
    """The per-column generator, ``self`` being the generator to mirror."""
    chunk = Chunk(position=position, generated_by=f"default:{self.seed}")
    origin = chunk_origin(position)
    xs = np.arange(origin.x, origin.x + CHUNK_SIZE)
    zs = np.arange(origin.z, origin.z + CHUNK_SIZE)
    grid_x, grid_z = np.meshgrid(xs, zs, indexing="ij")
    heights = _reference_surface_height_at(self, grid_x, grid_z)
    moisture = self._moisture_noise.sample(grid_x, grid_z)

    blocks = chunk.blocks
    blocks[:, 0, :] = int(BlockType.BEDROCK)
    y_axis = np.arange(CHUNK_HEIGHT).reshape(1, CHUNK_HEIGHT, 1)
    height_grid = heights.reshape(CHUNK_SIZE, 1, CHUNK_SIZE)

    # Fill stone below the surface, dirt near the surface.
    stone_mask = (y_axis >= 1) & (y_axis < height_grid - 3)
    dirt_mask = (y_axis >= height_grid - 3) & (y_axis < height_grid)
    blocks[stone_mask.nonzero()] = int(BlockType.STONE)
    blocks[dirt_mask.nonzero()] = int(BlockType.DIRT)

    # Surface material depends on altitude and moisture.
    for lx in range(CHUNK_SIZE):
        for lz in range(CHUNK_SIZE):
            surface_y = int(heights[lx, lz])
            wetness = float(moisture[lx, lz])
            if surface_y <= SEA_LEVEL:
                surface = BlockType.SAND if wetness < 0.6 else BlockType.GRAVEL
            elif surface_y >= SEA_LEVEL + 55:
                surface = BlockType.SNOW
            elif wetness < 0.25:
                surface = BlockType.SAND
            else:
                surface = BlockType.GRASS
            blocks[lx, surface_y, lz] = int(surface)
            # Fill water above low terrain up to sea level.
            if surface_y < SEA_LEVEL:
                blocks[lx, surface_y + 1:SEA_LEVEL + 1, lz] = int(BlockType.WATER)

    chunk.dirty = False
    return chunk


SEEDS = [0, 1, 5, 42, 1234, -7]
POSITIONS = [
    ChunkPos(cx, cz) for cx in (-3, -1, 0, 2, 5) for cz in (-4, -1, 0, 1, 3)
] + [ChunkPos(10 ** 6, -10 ** 6), ChunkPos(-31250, 31249)]


@pytest.mark.parametrize("seed", SEEDS)
def test_chunks_are_byte_identical_to_the_per_column_reference(seed):
    generator = DefaultTerrainGenerator(seed=seed)
    for position in POSITIONS:
        chunk = generator.generate_chunk(position)
        expected = _reference_generate_chunk(generator, position)
        assert np.array_equal(chunk.blocks, expected.blocks), position
        assert chunk.content_hash() == expected.content_hash()
        assert chunk.generated_by == expected.generated_by
        assert chunk.dirty == expected.dirty


class _FixedNoise:
    """A noise field that returns one fixed 16x16 array, point-wise or on a grid."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    def sample(self, x, z):
        return self.values

    def sample_grid(self, xs, zs):
        return self.values


def _fixed_height_generator(heights: np.ndarray, moisture: np.ndarray) -> SimpleNamespace:
    """A stand-in generator whose noise yields exactly ``heights`` and ``moisture``."""
    return SimpleNamespace(
        seed=0,
        # height = SEA_LEVEL - 10 + (20 + 70 * 0) * base
        _height_noise=_FixedNoise((heights - (SEA_LEVEL - 10.0)) / 20.0),
        _roughness_noise=_FixedNoise(np.zeros(heights.shape)),
        _moisture_noise=_FixedNoise(moisture),
    )


def _every_height_grid() -> tuple[np.ndarray, np.ndarray]:
    # Heights 1..254 (plus two repeats) over the 256 columns of a chunk, and
    # moistures on both sides of the 0.25 and 0.6 thresholds.
    heights = np.concatenate([np.arange(1, CHUNK_HEIGHT - 1), [1, CHUNK_HEIGHT - 2]])
    heights = heights.reshape(CHUNK_SIZE, CHUNK_SIZE)
    wetness = np.array([0.1, 0.25, 0.2499, 0.3, 0.5999, 0.6, 0.9])
    moisture = np.resize(wetness, heights.size).reshape(heights.shape)
    return heights, moisture


def test_column_table_matches_the_reference_fill_for_every_height():
    heights, moisture = _every_height_grid()
    stand_in = _fixed_height_generator(heights, moisture)
    grid = np.zeros(heights.shape)
    assert np.array_equal(_reference_surface_height_at(stand_in, grid, grid), heights)

    expected = _reference_generate_chunk(stand_in, ChunkPos(0, 0)).blocks
    for lx in range(CHUNK_SIZE):
        for lz in range(CHUNK_SIZE):
            height = int(heights[lx, lz])
            column = expected[lx, :, lz].copy()
            column[height] = int(BlockType.AIR)  # the surface is not in the table
            assert np.array_equal(_COLUMNS[height], column), height
    # Heights <= 3 put dirt over the bedrock at y = 0, as the reference does.
    assert _COLUMNS[2, 0] == int(BlockType.DIRT)
    assert _COLUMNS[4, 0] == int(BlockType.BEDROCK)


def test_every_height_and_moisture_match_the_reference_chunk():
    heights, moisture = _every_height_grid()
    stand_in = _fixed_height_generator(heights, moisture)
    position = ChunkPos(-2, 3)
    chunk = DefaultTerrainGenerator.generate_chunk(stand_in, position)
    assert np.array_equal(chunk.blocks, _reference_generate_chunk(stand_in, position).blocks)


SCALES = [1.0, 3.0, 6.0, 96.0, 256.0]
ORIGINS = [(0, 0), (-16, 48), (-95, -97), (10 ** 6, -10 ** 6), (-500000, 499984)]


def _mesh(ox: int, oz: int, nx: int = CHUNK_SIZE, nz: int = CHUNK_SIZE):
    xs = np.arange(ox, ox + nx)
    zs = np.arange(oz, oz + nz)
    grid_x, grid_z = np.meshgrid(xs, zs, indexing="ij")
    return xs, zs, grid_x, grid_z


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("origin", ORIGINS)
def test_value_noise_grid_is_bit_equal_to_point_samples(scale, origin):
    xs, zs, grid_x, grid_z = _mesh(*origin)
    for seed in (0, 7, -3):
        noise = ValueNoise2D(seed=seed, scale=scale)
        assert np.array_equal(noise.sample_grid(xs, zs), noise.sample(grid_x, grid_z))


@pytest.mark.parametrize("base_scale", SCALES)
@pytest.mark.parametrize("origin", ORIGINS)
def test_layered_noise_grid_is_bit_equal_to_point_samples(base_scale, origin):
    # Five octaves from scale 1.0 exercise the max(scale / lacunarity, 1.0)
    # clamp; a non-square grid checks the axis order.
    xs, zs, grid_x, grid_z = _mesh(*origin, nx=7, nz=CHUNK_SIZE)
    noise = LayeredNoise(seed=11, octaves=5, base_scale=base_scale)
    assert np.array_equal(noise.sample_grid(xs, zs), noise.sample(grid_x, grid_z))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(-(2 ** 31), 2 ** 31),
    ox=st.integers(-(10 ** 7), 10 ** 7),
    oz=st.integers(-(10 ** 7), 10 ** 7),
    base_scale=st.sampled_from(SCALES),
)
def test_layered_noise_grid_matches_sample_at_any_integer_origin(seed, ox, oz, base_scale):
    xs, zs, grid_x, grid_z = _mesh(ox, oz)
    noise = LayeredNoise(seed=seed, octaves=4, base_scale=base_scale)
    assert np.array_equal(noise.sample_grid(xs, zs), noise.sample(grid_x, grid_z))
