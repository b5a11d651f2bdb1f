"""Runtime contract of the ``@pure_kernel``-marked kernels.

DET004 checks purity statically; this suite exercises the same contract at
runtime: calling a kernel twice on (copies of) the same inputs must return
identical results and leave every argument bit-identical.  Terrain
generation is checked the same way, through the generator itself.
"""

from __future__ import annotations

import importlib

import numpy as np

from repro.constructs.batched import CircuitBatchLayout, advance_states
from repro.constructs.compiled import compile_circuit
from repro.constructs.library import build_clock, build_counter_farm, build_wire_line
from repro.lint.config import DEFAULT_KERNEL_ROOTS
from repro.lint.markers import is_pure_kernel, pure_kernel
from repro.world.coords import ChunkPos
from repro.world.terrain import make_terrain_generator


def test_kernel_roots_carry_the_marker():
    assert is_pure_kernel(advance_states)
    for qualified in DEFAULT_KERNEL_ROOTS:
        module_name, _, name = qualified.rpartition(".")
        assert is_pure_kernel(getattr(importlib.import_module(module_name), name)), qualified


def test_marker_is_a_transparent_decorator():
    def plain(x):
        return x + 1

    assert not is_pure_kernel(plain)
    marked = pure_kernel(plain)
    assert marked is plain  # no wrapper: the function object itself is returned
    assert is_pure_kernel(marked)
    assert marked(2) == 3


def _batch_inputs():
    fleet = [
        build_clock(period=6, lamps=2),
        build_wire_line(length=7, powered=True),
        build_counter_farm(),
    ]
    circuits = [compile_circuit(construct) for construct in fleet]
    layout = CircuitBatchLayout(circuits)
    states = np.fromiter(
        (cell.state for circuit in circuits for cell in circuit._cells),
        dtype=np.int64,
        count=layout.total,
    )
    return layout, states


def _layout_snapshot(layout: CircuitBatchLayout) -> dict[str, np.ndarray]:
    return {
        name: np.array(getattr(layout, name), copy=True)
        for name in CircuitBatchLayout.__slots__
        if isinstance(getattr(layout, name), np.ndarray)
    }


def test_advance_states_double_call_no_argument_mutation():
    layout, states = _batch_inputs()
    states_before = states.copy()
    arrays_before = _layout_snapshot(layout)

    first = advance_states(layout, states.copy())
    second = advance_states(layout, states.copy())

    assert (first == second).all(), "same inputs must give the same step"
    assert first is not states
    assert (states == states_before).all(), "the state vector must not be mutated"
    for name, before in arrays_before.items():
        assert (getattr(layout, name) == before).all(), f"layout.{name} was mutated"


def test_terrain_generation_is_pure_in_seed_and_position():
    warm = make_terrain_generator("default", seed=1234)
    first = warm.generate_chunk(ChunkPos(3, -2))
    second = warm.generate_chunk(ChunkPos(3, -2))
    fresh = make_terrain_generator("default", seed=1234).generate_chunk(ChunkPos(3, -2))
    assert first is not second
    for chunk in (second, fresh):
        assert (first.blocks == chunk.blocks).all()
        assert first.content_hash() == chunk.content_hash()
        assert first.position == chunk.position
