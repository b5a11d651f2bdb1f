"""The run-summary digest: SHA-256 of a ``RunResult.summary()``.

Two runs of the same spec and seed must produce the same digest.  The
wall-clock benchmark in ``perfbench/`` hashes each repetition the same way,
and its tests check that against this function.
"""

from __future__ import annotations

import hashlib
import json


def _summary_digest(summary: dict) -> str:
    payload = json.dumps(summary, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
