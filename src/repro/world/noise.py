"""Deterministic 2D value noise for procedural terrain generation.

A light-weight substitute for the Perlin/simplex noise used by Minecraft-like
terrain generators: seeded lattice value noise with smooth interpolation,
composed into octaves by :class:`LayeredNoise`.  Fully deterministic for a
given seed, so generated chunks are identical whether they are produced by the
local generator or inside a (simulated) serverless function.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


def _seed_term(seed: int) -> np.int64:
    """The seed's term in the lattice hash.

    Reduced modulo 2^62 in Python-int space to avoid numpy's scalar-overflow
    warnings.
    """
    return np.int64((int(seed) * 1442695040888963407) % (2 ** 62))


def _lattice_value(seed_term: np.int64 | np.ndarray, ix: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Pseudo-random value in [0, 1) for integer lattice points.

    Uses a 64-bit integer hash so the value depends only on (seed, ix, iz).
    ``seed_term`` is :func:`_seed_term` of the seed, or an array of such
    terms that broadcasts against the points.  Overflow in the array
    arithmetic wraps, which is exactly what an integer hash wants.
    """
    with np.errstate(over="ignore"):
        h = (ix.astype(np.int64) * np.int64(374761393)
             + iz.astype(np.int64) * np.int64(668265263)
             + seed_term)
        h = (h ^ (h >> 13)) * np.int64(1274126177)
        h = h ^ (h >> 16)
    return (h & np.int64(0x7FFFFFFF)).astype(np.float64) / float(0x7FFFFFFF)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    return t * t * (3.0 - 2.0 * t)


def _sample_grid(
    seeds: Sequence[int], scales: Sequence[float], xs: np.ndarray, zs: np.ndarray
) -> np.ndarray:
    """Value noise of stacked layers on the axis-aligned grid ``xs`` x ``zs``.

    Layer ``k`` has seed ``seeds[k]`` and scale ``scales[k]``; the result has
    shape ``(len(seeds), len(xs), len(zs))``.  Each layer is bit-equal to
    :meth:`ValueNoise2D.sample` on ``np.meshgrid(xs, zs, indexing="ij")``:
    every element goes through the same IEEE operations in the same order.
    Lattice cells and weights are computed once per axis, only the lattice
    points the grid touches are hashed, and the grid is interpolated along x
    at every lattice z, then along z.
    """
    scale = np.asarray(scales, dtype=np.float64)[:, None]
    x_arr = np.asarray(xs, dtype=np.float64)[None, :] / scale
    z_arr = np.asarray(zs, dtype=np.float64)[None, :] / scale
    x0 = np.floor(x_arr).astype(np.int64)
    z0 = np.floor(z_arr).astype(np.int64)
    tx = _smoothstep(x_arr - x0)[:, :, None]
    tz = _smoothstep(z_arr - z0)[:, :, None]
    # Each layer's lattice starts at its lowest cell; ix/iz index into it.
    x_lo = x0.min(axis=1, keepdims=True)
    z_lo = z0.min(axis=1, keepdims=True)
    ix = x0 - x_lo
    iz = z0 - z_lo
    lattice = _lattice_value(
        np.array([_seed_term(seed) for seed in seeds])[:, None, None],
        (x_lo + np.arange(int(ix.max()) + 2))[:, :, None],
        (z_lo + np.arange(int(iz.max()) + 2))[:, None, :],
    )
    layer = np.arange(len(seeds))[:, None]
    # Along x at every lattice z: (layer, x, lattice z) ...
    rows = lattice[layer, ix] * (1 - tx) + lattice[layer, ix + 1] * tx
    # ... then along z, with z leading: (layer, z, x).
    rows = rows.swapaxes(1, 2)
    grid = rows[layer, iz] * (1 - tz) + rows[layer, iz + 1] * tz
    return grid.swapaxes(1, 2)


@dataclass(frozen=True)
class ValueNoise2D:
    """Smooth 2D value noise with values in [0, 1)."""

    seed: int
    scale: float = 32.0

    def sample(self, x: np.ndarray | float, z: np.ndarray | float) -> np.ndarray:
        """Sample noise at world coordinates (x, z); accepts scalars or arrays."""
        x_arr = np.asarray(x, dtype=np.float64) / self.scale
        z_arr = np.asarray(z, dtype=np.float64) / self.scale
        x0 = np.floor(x_arr).astype(np.int64)
        z0 = np.floor(z_arr).astype(np.int64)
        tx = _smoothstep(x_arr - x0)
        tz = _smoothstep(z_arr - z0)
        seed_term = _seed_term(self.seed)
        v00 = _lattice_value(seed_term, x0, z0)
        v10 = _lattice_value(seed_term, x0 + 1, z0)
        v01 = _lattice_value(seed_term, x0, z0 + 1)
        v11 = _lattice_value(seed_term, x0 + 1, z0 + 1)
        top = v00 * (1 - tx) + v10 * tx
        bottom = v01 * (1 - tx) + v11 * tx
        return top * (1 - tz) + bottom * tz

    def sample_grid(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Sample noise on the axis-aligned grid ``xs`` x ``zs``.

        Returns shape ``(len(xs), len(zs))``, bit-equal to :meth:`sample` on
        ``np.meshgrid(xs, zs, indexing="ij")`` but much cheaper.
        """
        return _sample_grid([self.seed], [self.scale], xs, zs)[0]


@dataclass(frozen=True)
class LayeredNoise:
    """Octave composition of :class:`ValueNoise2D` (fractal Brownian motion)."""

    seed: int
    octaves: int = 4
    base_scale: float = 64.0
    persistence: float = 0.5
    lacunarity: float = 2.0

    def _octaves(self) -> list[tuple[int, float, float]]:
        """``(seed, scale, amplitude)`` of every octave, first to last."""
        if self.octaves < 1:
            raise ValueError("octaves must be >= 1")
        octaves = []
        amplitude = 1.0
        scale = self.base_scale
        for octave in range(self.octaves):
            octaves.append((self.seed + octave * 1013, scale, amplitude))
            amplitude *= self.persistence
            scale = max(scale / self.lacunarity, 1.0)
        return octaves

    def sample(self, x: np.ndarray | float, z: np.ndarray | float) -> np.ndarray:
        """Sample layered noise in [0, 1) at world coordinates (x, z)."""
        octaves = self._octaves()
        total = np.zeros_like(np.asarray(x, dtype=np.float64))
        for seed, scale, amplitude in octaves:
            total = total + amplitude * ValueNoise2D(seed=seed, scale=scale).sample(x, z)
        return total / sum(amplitude for _, _, amplitude in octaves)

    def sample_grid(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Layered noise on the axis-aligned grid ``xs`` x ``zs``.

        Bit-equal to :meth:`sample` on ``np.meshgrid(xs, zs, indexing="ij")``:
        the octaves are sampled in one stack (see :func:`_sample_grid`) and
        summed in the same order.
        """
        octaves = self._octaves()
        seeds, scales, amplitudes = zip(*octaves)
        layers = _sample_grid(seeds, scales, xs, zs)
        total = np.zeros(layers.shape[1:])
        for amplitude, layer in zip(amplitudes, layers):
            total = total + amplitude * layer
        return total / sum(amplitudes)
