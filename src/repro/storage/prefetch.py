"""Distance-based prefetch policy.

Servo hides blob-storage latency by prefetching terrain data that is outside
of, but close to, the players' view distance (Section III-E).  The policy
computes, from the current avatar positions, the chunks that should be
resident in the cache: those within the view distance plus a prefetch margin
of some avatar.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from repro.world.coords import (
    CHUNK_SIZE,
    BlockPos,
    ChunkPos,
    chunk_offsets_within_blocks,
)

#: chunk coordinates are packed into one int64 as ``cx * 2**21 + (cz + 2**20)``
#: so per-avatar rings become flat integer arrays that numpy can union
_PACK_BITS = 21
_PACK_HALF = 1 << 20
_PACK_MASK = (1 << _PACK_BITS) - 1


@lru_cache(maxsize=2048)
def _packed_offsets(offset_x: int, offset_z: int, radius_blocks: float) -> np.ndarray:
    """The memoised chunk-offset ring as packed int64 coordinates."""
    offsets = chunk_offsets_within_blocks(offset_x, offset_z, radius_blocks)
    return np.fromiter(
        ((dx << _PACK_BITS) + dz + _PACK_HALF for dx, dz in offsets),
        dtype=np.int64,
        count=len(offsets),
    )


@dataclass(frozen=True)
class DistancePrefetchPolicy:
    """Prefetch chunks within ``view_distance + prefetch_margin`` blocks of any avatar."""

    view_distance_blocks: float = 128.0
    prefetch_margin_blocks: float = 48.0

    def candidates(self, avatar_positions: Iterable[BlockPos]) -> list[ChunkPos]:
        """Every chunk within the extended radius of some avatar, in (cx, cz) order.

        The per-avatar chunk rings come from the memoised translation-
        invariant offset table as packed int64 coordinates; one ``np.unique``
        unions and sorts them (packed order is (cx, cz) order), and
        ``ChunkPos`` objects are only materialised for the union.
        """
        radius = float(self.view_distance_blocks) + float(self.prefetch_margin_blocks)
        parts: list[np.ndarray] = []
        for position in avatar_positions:
            base = ((position.x // CHUNK_SIZE) << _PACK_BITS) + (position.z // CHUNK_SIZE)
            parts.append(
                base
                + _packed_offsets(position.x % CHUNK_SIZE, position.z % CHUNK_SIZE, radius)
            )
        if not parts:
            return []
        packed = np.unique(np.concatenate(parts))
        xs = (packed >> _PACK_BITS).tolist()
        zs = ((packed & _PACK_MASK) - _PACK_HALF).tolist()
        return [ChunkPos(x, z) for x, z in zip(xs, zs)]
