"""Source-level markers the determinism linter recognises.

This module is deliberately tiny and dependency-free: engine modules import
it to tag functions, and pulling a marker in must never drag the analysis
machinery (or anything else) into a hot import path.
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


def pure_kernel(func: F) -> F:
    """Mark ``func`` as a pure kernel.

    A pure kernel must be a closed-form function of its arguments: no writes
    to globals or closures, no mutation of its parameters, no I/O, no
    randomness and no wall-clock reads — transitively, through every
    intra-package call.  The marker itself changes nothing at runtime; it
    registers the function with the ``DET004`` rule of :mod:`repro.lint`,
    which statically enforces that contract on every lint run.
    """
    func.__pure_kernel__ = True
    return func


def is_pure_kernel(func: Callable) -> bool:
    """True when ``func`` carries the :func:`pure_kernel` marker."""
    return bool(getattr(func, "__pure_kernel__", False))
