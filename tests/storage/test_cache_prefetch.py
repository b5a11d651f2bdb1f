"""Tests for the cache and the distance prefetch policy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.blob import AZURE_BLOB_STANDARD, BlobStorage
from repro.storage.cache import CachedStorage
from repro.storage.prefetch import DistancePrefetchPolicy
from repro.world.coords import (
    BlockPos,
    ChunkPos,
    block_to_chunk,
    chunk_offsets_within_blocks,
)


@pytest.fixture
def cache_and_blob(rng):
    blob = BlobStorage(rng=np.random.default_rng(7), profile=AZURE_BLOB_STANDARD)
    cache = CachedStorage(remote=blob, rng=rng, capacity_objects=16)
    return cache, blob


def test_cache_miss_then_hit(cache_and_blob):
    cache, blob = cache_and_blob
    blob.write("key", b"value")
    first = cache.read("key")
    second = cache.read("key")
    assert first.hit is False
    assert second.hit is True
    assert second.latency_ms < first.latency_ms
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert 0.0 < cache.stats.hit_rate < 1.0


def test_cache_prefetch_makes_reads_hits(cache_and_blob):
    cache, blob = cache_and_blob
    blob.write("key", b"value")
    paid = cache.prefetch("key")
    assert paid > 0.0
    assert cache.is_cached("key")
    assert cache.read("key").hit is True
    # prefetching again is free
    assert cache.prefetch("key") == 0.0
    # prefetching a missing object is a no-op
    assert cache.prefetch("nope") == 0.0


def test_cache_write_behind_flush(cache_and_blob):
    cache, blob = cache_and_blob
    cache.write("new-key", b"data")
    assert not blob.exists("new-key")
    assert cache.dirty_keys == ["new-key"]
    operations = cache.flush()
    assert len(operations) == 1
    assert blob.exists("new-key")
    assert cache.dirty_keys == []


def test_cache_eviction_respects_capacity_and_preserves_dirty_data(rng):
    blob = BlobStorage(rng=np.random.default_rng(3), profile=AZURE_BLOB_STANDARD)
    cache = CachedStorage(remote=blob, rng=rng, capacity_objects=4)
    for index in range(8):
        cache.write(f"key-{index}", b"x")
    assert len(cache.cached_keys) <= 4
    # Every written object survives somewhere (cache or remote).
    for index in range(8):
        assert cache.exists(f"key-{index}")
    assert cache.stats.evictions > 0


def test_cache_delete_removes_everywhere(cache_and_blob):
    cache, blob = cache_and_blob
    blob.write("key", b"v")
    cache.read("key")
    cache.delete("key")
    assert not cache.exists("key")
    assert not blob.exists("key")


def test_cache_rejects_zero_capacity(rng):
    blob = BlobStorage(rng=np.random.default_rng(3))
    with pytest.raises(ValueError):
        CachedStorage(remote=blob, rng=rng, capacity_objects=0)


def test_cache_read_latency_much_lower_than_remote(cache_and_blob):
    cache, blob = cache_and_blob
    blob.write("key", b"x" * 100)
    cache.prefetch("key")
    hits = [cache.read("key").latency_ms for _ in range(300)]
    assert max(hits) < 40.0


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=-500, max_value=500),
)
def test_prefetch_candidates_contain_player_chunk(x, z):
    policy = DistancePrefetchPolicy(view_distance_blocks=48.0, prefetch_margin_blocks=32.0)
    position = BlockPos(x, 64, z)
    assert block_to_chunk(position) in policy.candidates([position])


def test_prefetch_candidates_grow_with_margin():
    avatars = [BlockPos(0, 64, 0)]
    small = DistancePrefetchPolicy(view_distance_blocks=32.0, prefetch_margin_blocks=0.0)
    large = DistancePrefetchPolicy(view_distance_blocks=32.0, prefetch_margin_blocks=32.0)
    assert set(small.candidates(avatars)) < set(large.candidates(avatars))
    assert ChunkPos(50, 50) not in large.candidates(avatars)


def test_prefetch_candidates_are_the_sorted_union_of_rings():
    policy = DistancePrefetchPolicy(view_distance_blocks=48.0, prefetch_margin_blocks=16.0)
    avatars = [BlockPos(-37, 64, 5), BlockPos(0, 64, 0), BlockPos(70, 64, -90), BlockPos(3, 64, 1)]
    candidates = policy.candidates(avatars)
    union = {
        ChunkPos(block_to_chunk(a).cx + dx, block_to_chunk(a).cz + dz)
        for a in avatars
        for dx, dz in chunk_offsets_within_blocks(a.x % 16, a.z % 16, 64.0)
    }
    assert candidates == sorted(union)
    assert policy.candidates([]) == []


def test_prefetch_candidates_match_brute_force_distance():
    # Reference in world coordinates: a chunk is a candidate when the nearest
    # block of its 16x16 footprint lies within the extended radius of some
    # avatar.
    policy = DistancePrefetchPolicy(view_distance_blocks=40.0, prefetch_margin_blocks=9.0)
    avatars = [BlockPos(-37, 64, 5), BlockPos(113, 64, -250), BlockPos(-1, 64, -1)]
    expected = set()
    for avatar in avatars:
        home = block_to_chunk(avatar)
        for cx in range(home.cx - 5, home.cx + 6):
            for cz in range(home.cz - 5, home.cz + 6):
                nearest_x = min(max(avatar.x, cx * 16), cx * 16 + 15)
                nearest_z = min(max(avatar.z, cz * 16), cz * 16 + 15)
                if math.hypot(avatar.x - nearest_x, avatar.z - nearest_z) <= 49.0:
                    expected.add(ChunkPos(cx, cz))
    assert policy.candidates(avatars) == sorted(expected)


def test_prefetch_candidates_are_translation_invariant():
    # Whole-chunk shifts far from the origin, on both signs, move every
    # candidate by the same chunk offset.
    policy = DistancePrefetchPolicy(view_distance_blocks=48.0, prefetch_margin_blocks=16.0)
    avatars = [BlockPos(3, 64, 7), BlockPos(-70, 64, 41)]
    base = policy.candidates(avatars)
    for shift_x, shift_z in ((300_000, -300_000), (-300_000, 300_000), (-1, -1)):
        moved = [BlockPos(a.x + 16 * shift_x, a.y, a.z + 16 * shift_z) for a in avatars]
        assert policy.candidates(moved) == [
            ChunkPos(c.cx + shift_x, c.cz + shift_z) for c in base
        ]


def test_prefetch_candidates_ignore_duplicate_avatars():
    policy = DistancePrefetchPolicy(view_distance_blocks=32.0, prefetch_margin_blocks=16.0)
    avatar = BlockPos(20, 64, -20)
    once = policy.candidates([avatar])
    assert len(once) == len(set(once))
    assert policy.candidates([avatar, avatar, BlockPos(21, 64, -19)]) == sorted(
        set(once) | set(policy.candidates([BlockPos(21, 64, -19)]))
    )
