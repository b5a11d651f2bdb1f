"""The host registry: every runnable game topology, looked up by name.

A *host* is anything satisfying the :class:`~repro.workload.bots.GameHost`
surface — a single :class:`~repro.server.gameloop.GameServer` or a
:class:`~repro.cluster.coordinator.ClusterCoordinator`.  Variants register
themselves with :func:`register_host` where they are defined::

    @register_host("servo")
    def build_servo_server(engine, game_config=None, servo_config=None, ...):
        ...

:func:`build_host` then constructs any variant by name, passing only the
optional knobs (``servo_config``, ``shards``) the factory's signature
accepts — there is no per-name branching anywhere.  Passing a knob a host
does not accept is an error that names the host and the knob, rather than a
silent no-op.

Third-party variants plug in the same way: define a factory in your module,
decorate it, and import the module before building (the built-in variants are
imported automatically on first lookup).
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping, Set
from dataclasses import dataclass
from typing import Any, Callable

from repro.api.registry import Registry

#: the optional keyword knobs a host factory may accept, in canonical order
HOST_KNOBS = ("servo_config", "shards")


def _load_builtin_hosts() -> None:
    """Import the modules whose decorators register the built-in variants."""
    import repro.cluster.assembly  # noqa: F401  (registers *-cluster)
    import repro.core.servo  # noqa: F401  (registers servo)
    import repro.server.variants  # noqa: F401  (registers opencraft, minecraft)


HOSTS = Registry("host", loader=_load_builtin_hosts)


@dataclass(frozen=True)
class HostEntry:
    """One registered host variant."""

    name: str
    factory: Callable[..., Any]
    #: True when the factory builds a multi-shard cluster coordinator
    cluster: bool
    #: which of :data:`HOST_KNOBS` the factory's signature accepts
    knobs: frozenset[str]

    def build(self, engine, game_config=None, **knobs) -> Any:
        """Invoke the factory with exactly the knobs it accepts.

        Knobs with value ``None`` are dropped (the factory's defaults apply);
        a non-``None`` knob the factory does not accept raises ``ValueError``.
        """
        kwargs = {}
        for knob, value in knobs.items():
            if knob not in HOST_KNOBS:
                raise ValueError(
                    f"unknown host knob {knob!r}; expected one of {list(HOST_KNOBS)}"
                )
            if value is None:
                continue
            if knob not in self.knobs:
                raise ValueError(
                    f"host {self.name!r} does not accept the {knob!r} knob"
                    f" (accepted: {sorted(self.knobs) or 'none'})"
                )
            kwargs[knob] = value
        return self.factory(engine, game_config, **kwargs)


def register_host(name: str, *, cluster: bool = False, replace: bool = False):
    """Class/function decorator registering a host factory under ``name``.

    The factory must accept ``(engine, game_config=None)`` positionally; the
    optional knobs it supports (``servo_config``, ``shards``) are discovered
    from its signature, so :func:`build_host` can delegate uniformly.
    """

    def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        parameters = inspect.signature(factory).parameters
        knobs = frozenset(knob for knob in HOST_KNOBS if knob in parameters)
        HOSTS.register(name, HostEntry(name, factory, cluster, knobs), replace=replace)
        return factory

    return decorator


def host_entry(name: str) -> HostEntry:
    """Look up a registered host (importing the built-ins first)."""
    return HOSTS.get(name)


def host_names() -> list[str]:
    return HOSTS.names()


def cluster_host_names() -> frozenset[str]:
    """The registered names that build multi-shard clusters."""
    return frozenset(name for name, entry in HOSTS.items() if entry.cluster)


def build_host(
    name: str,
    engine,
    game_config=None,
    *,
    servo_config=None,
    shards: int | None = None,
):
    """Build a registered host by name.

    ``servo_config`` and ``shards`` are forwarded only when given (not
    ``None``); giving one to a host that does not accept it is a
    ``ValueError``.
    """
    return host_entry(name).build(engine, game_config, servo_config=servo_config, shards=shards)


class GameFactoryView(Mapping):
    """Live, read-only mapping view of the host registry, keyed by host name.

    Kept for backward compatibility with the historical ``GAME_FACTORIES``
    dict (``items()``/``values()``/``get()`` and friends come from
    :class:`~collections.abc.Mapping`): each value is a callable
    ``(engine, game_config, *, servo_config=None, shards=None)``
    that delegates to the registered factory with whatever knobs it accepts.
    """

    def __getitem__(self, name: str) -> Callable[..., Any]:
        entry = host_entry(name)

        def factory(engine, game_config=None, *, servo_config=None, shards=None):
            return entry.build(engine, game_config, servo_config=servo_config, shards=shards)

        factory.__name__ = f"build_{name.replace('-', '_')}"
        factory.__doc__ = f"Build the {name!r} host (registered via @register_host)."
        return factory

    def __iter__(self):
        return iter(host_names())

    def __len__(self) -> int:
        return len(HOSTS)

    def __repr__(self) -> str:
        return f"GameFactoryView({host_names()})"


class ClusterGameView(Set):
    """Live, read-only set view of the registered cluster host names.

    Tracks the registry (unlike a frozen snapshot), so third-party clusters
    registered after import are still classified correctly.
    """

    def __contains__(self, name: object) -> bool:
        return name in cluster_host_names()

    def __iter__(self):
        return iter(sorted(cluster_host_names()))

    def __len__(self) -> int:
        return len(cluster_host_names())

    def __repr__(self) -> str:
        return f"ClusterGameView({sorted(cluster_host_names())})"
