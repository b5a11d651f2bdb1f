"""Block and chunk coordinates.

The world uses Minecraft's conventions: blocks are addressed by integer
``(x, y, z)`` positions where ``y`` is the vertical axis; chunks are 16x16
columns addressed by ``(cx, cz)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

CHUNK_SIZE = 16


@dataclass(frozen=True, order=True)
class BlockPos:
    """An integer block position."""

    x: int
    y: int
    z: int

    def offset(self, dx: int = 0, dy: int = 0, dz: int = 0) -> "BlockPos":
        return BlockPos(self.x + dx, self.y + dy, self.z + dz)

    def neighbours(self) -> list["BlockPos"]:
        """The six axis-aligned neighbours."""
        return [
            self.offset(dx=1),
            self.offset(dx=-1),
            self.offset(dy=1),
            self.offset(dy=-1),
            self.offset(dz=1),
            self.offset(dz=-1),
        ]

    def horizontal_distance_to(self, other: "BlockPos") -> float:
        """Euclidean distance ignoring the vertical axis (used for view range)."""
        return math.hypot(self.x - other.x, self.z - other.z)

    def manhattan_distance_to(self, other: "BlockPos") -> int:
        return abs(self.x - other.x) + abs(self.y - other.y) + abs(self.z - other.z)


@dataclass(frozen=True, order=True)
class ChunkPos:
    """A chunk column position (16x16 blocks horizontally)."""

    cx: int
    cz: int

    def neighbours(self, radius: int = 1) -> list["ChunkPos"]:
        """All chunk positions within a square ``radius`` (excluding self)."""
        out = []
        for dx in range(-radius, radius + 1):
            for dz in range(-radius, radius + 1):
                if dx == 0 and dz == 0:
                    continue
                out.append(ChunkPos(self.cx + dx, self.cz + dz))
        return out

    def key(self) -> str:
        """A stable string key used as a storage object name."""
        return f"chunk_{self.cx}_{self.cz}"


def block_to_chunk(pos: BlockPos) -> ChunkPos:
    """The chunk containing a block position."""
    return ChunkPos(pos.x // CHUNK_SIZE, pos.z // CHUNK_SIZE)


def chunk_origin(pos: ChunkPos) -> BlockPos:
    """The minimum-corner block position of a chunk."""
    return BlockPos(pos.cx * CHUNK_SIZE, 0, pos.cz * CHUNK_SIZE)


@lru_cache(maxsize=2048)
def chunk_offsets_within_blocks(
    offset_x: int, offset_z: int, radius_blocks: float
) -> tuple[tuple[int, int], ...]:
    """Chunk offsets within ``radius_blocks`` of an intra-chunk center offset.

    The chunk grid is uniform, so the set of chunks within a radius of a
    block depends only on the block's offset *inside* its own chunk
    (``x % 16``, ``z % 16``) — not on where in the world the chunk sits.
    This translation-invariant core is memoised: callers that sweep many
    avatar positions (the prefetch planner runs per avatar, several times a
    second of virtual time) reduce the O(radius²) nearest-edge scan to a
    cache lookup plus a translation.
    """
    if radius_blocks < 0:
        raise ValueError("radius_blocks must be non-negative")
    chunk_radius = int(math.ceil(radius_blocks / CHUNK_SIZE)) + 1
    result = []
    for dx in range(-chunk_radius, chunk_radius + 1):
        for dz in range(-chunk_radius, chunk_radius + 1):
            origin_x = dx * CHUNK_SIZE
            origin_z = dz * CHUNK_SIZE
            # Nearest point of the chunk's footprint to the center.
            nearest_x = min(max(offset_x, origin_x), origin_x + CHUNK_SIZE - 1)
            nearest_z = min(max(offset_z, origin_z), origin_z + CHUNK_SIZE - 1)
            if math.hypot(offset_x - nearest_x, offset_z - nearest_z) <= radius_blocks:
                result.append((dx, dz))
    return tuple(result)
