"""Zone-partitioned multi-server clusters.

The paper raises the ceiling of *one* MVE server by offloading constructs,
terrain and storage to serverless services; this layer raises the ceiling of
the *world* by partitioning it into zones served by cooperating game servers
that share one simulation engine and (for Servo) one FaaS platform and blob
store:

* :mod:`repro.cluster.partition` — grid zones over chunk coordinates and the
  per-shard ownership regions derived from them.
* :mod:`repro.cluster.coordinator` — virtual-time lockstep ticking of all
  shards and the player-migration protocol (session state serialized through
  the shared storage service when an avatar crosses a zone boundary).
* :mod:`repro.cluster.assembly` — cluster construction for the Servo and
  Opencraft variants, built from the same :class:`~repro.server.ServerBuilder`
  parts as the single-server stack.

The re-exports resolve lazily (PEP 562), so importing the package does not
pull in the server and Servo layers.
"""

_EXPORTS = {
    "WorldPartitioner": "repro.cluster.partition",
    "ZoneRegion": "repro.cluster.partition",
    "ClusterChunks": "repro.cluster.coordinator",
    "ClusterCoordinator": "repro.cluster.coordinator",
    "ClusterSession": "repro.cluster.coordinator",
    "MigrationRecord": "repro.cluster.coordinator",
    "build_servo_cluster": "repro.cluster.assembly",
    "build_opencraft_cluster": "repro.cluster.assembly",
    "DEFAULT_ZONE_WIDTH_CHUNKS": "repro.cluster.assembly",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
