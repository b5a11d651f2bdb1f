"""One minimal positive and negative fixture per determinism rule."""

from __future__ import annotations

from repro.lint.config import LintConfig
from repro.lint.engine import LintReport


def rules_of(report: LintReport, suppressed: bool = False) -> list[str]:
    """The rule ids of a report's (un)suppressed findings, in report order."""
    findings = report.suppressed if suppressed else report.unsuppressed
    return [finding.rule for finding in findings]


# -- DET001: wall clock ---------------------------------------------------------------


def test_det001_flags_wall_clock_reads(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            import time
            from time import perf_counter
            from datetime import datetime

            def tick():
                a = time.time()
                b = perf_counter()
                c = datetime.now()
                return a, b, c
        """
    })
    assert rules_of(report) == ["DET001", "DET001", "DET001"]
    assert "time.time()" in report.unsuppressed[0].message


def test_det001_ignores_virtual_clocks_and_unrelated_attributes(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            def tick(engine, record):
                record.time = engine.now_ms  # attribute named 'time' is not the module
                return engine.clock.advance(50.0)
        """
    })
    assert report.clean


def test_det001_quarantine_allowlist_suppresses_with_reason(lint_snippets):
    config = LintConfig(allowlist={"DET001": ("quarantine/*.py",)})
    report = lint_snippets({
        "quarantine/profiling.py": """
            import time

            def section():
                return time.perf_counter()
        """,
    }, config=config)
    assert report.clean
    assert rules_of(report, suppressed=True) == ["DET001"]
    assert "allowlisted" in report.suppressed[0].reason


# -- DET002: ambient randomness -------------------------------------------------------


def test_det002_flags_ambient_randomness(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            import os
            import random
            import numpy as np

            def roll():
                a = random.randint(1, 6)
                b = np.random.rand(3)
                c = np.random.default_rng()  # unseeded: seeds itself from the OS
                d = os.urandom(8)
                return a, b, c, d
        """
    })
    assert rules_of(report) == ["DET002"] * 4
    assert "unseeded" in report.unsuppressed[2].message


def test_det002_allows_named_streams_and_seeded_construction(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            import numpy as np

            def sample(engine, seed: int):
                rng = engine.rng("storage")  # the named-stream surface
                explicit = np.random.default_rng(seed)
                return rng.normal(), explicit.normal()
        """
    })
    assert report.clean


# -- DET003: unordered-set iteration --------------------------------------------------


def test_det003_flags_set_iteration_into_ordered_sinks(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            def emit(items: set[int], sink):
                out = []
                for item in items:
                    out.append(item)
                listed = [item * 2 for item in items]
                joined = ",".join(str(item) for item in items)
                return out, listed, joined
        """
    })
    assert rules_of(report) == ["DET003"] * 3


def test_det003_accepts_sorted_and_order_insensitive_consumers(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            def emit(items: set[int]):
                out = []
                for item in sorted(items):
                    out.append(item)
                total = sum(item for item in items)
                biggest = max(item for item in items)
                a_set = {item * 2 for item in items}
                return out, total, biggest, a_set
        """
    })
    assert report.clean


def test_det003_tracks_assignments_attributes_and_set_algebra(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            class Tracker:
                def __init__(self):
                    self._pending = set()

                def drain(self, done: frozenset):
                    for item in self._pending - done:
                        yield item

            def local_flow():
                seen = set()
                return [item for item in seen]
        """
    })
    assert rules_of(report) == ["DET003", "DET003"]
    assert "self._pending - done" in report.unsuppressed[0].message


# -- DET004: kernel purity ------------------------------------------------------------


def test_det004_flags_parameter_mutation_global_state_and_io(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            def pure_kernel(func):
                return func

            _CACHE = {}

            @pure_kernel
            def bad_kernel(layout, states):
                states[0] = 1
                layout.total = 2
                states.sort()
                _CACHE["k"] = states
                print("debug")
                return states
        """
    })
    messages = [finding.message for finding in report.unsuppressed]
    assert rules_of(report) == ["DET004"] * 5
    assert any("writes element of parameter 'states'" in m for m in messages)
    assert any("writes attribute of parameter 'layout'" in m for m in messages)
    assert any("mutates parameter 'states' via .sort()" in m for m in messages)
    assert any("module-level state '_CACHE'" in m for m in messages)
    assert any("performs I/O: print()" in m for m in messages)


def test_det004_transitive_through_intra_package_calls(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            def pure_kernel(func):
                return func

            STATE = []

            def helper(x):
                STATE.append(x)
                return x

            @pure_kernel
            def kernel(x):
                return helper(x) + 1
        """
    })
    assert rules_of(report) == ["DET004"]
    assert "calls impure" in report.unsuppressed[0].message


def test_det004_accepts_pure_compute_and_vetted_callees(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            def pure_kernel(func):
                return func

            _MEMO = {}

            def warm(key):
                value = _MEMO.get(key)
                if value is None:
                    value = _MEMO[key] = key * 2  # det: allow[DET004] per-process memo; value is a pure function of the key
                return value

            @pure_kernel
            def kernel(states):
                fresh = states.copy()
                fresh += 1
                local = []
                local.append(warm(3))
                return fresh, local
        """
    })
    # The vetted callee is cleared silently: no findings at all, suppressed
    # or otherwise (the pragma applies inside `warm`, which is not a root).
    assert report.clean
    assert not report.findings


def test_det004_config_roots_cover_undetected_kernels(lint_snippets):
    config = LintConfig(kernel_roots=("pkg.mod.registered",))
    report = lint_snippets({
        "mod.py": """
            def registered(out):
                out.append(1)
        """
    }, config=config)
    assert rules_of(report) == ["DET004"]


def test_det004_reports_configured_roots_that_do_not_resolve(lint_snippets):
    config = LintConfig(
        kernel_roots=(
            "pkg.mod.renamed_kernel",  # module exists, function does not
            "pkg.sub.deleted.kernel",  # module deleted from its package
            "elsewhere.mod.kernel",  # outside the linted tree: not this run's
        )
    )
    report = lint_snippets({
        "__init__.py": "",
        "mod.py": """
            def kernel(x):
                return x
        """,
        "sub/__init__.py": "",
    }, config=config)
    assert rules_of(report) == ["DET004"] * 2
    by_path = {finding.path: finding.message for finding in report.unsuppressed}
    assert by_path == {
        "mod.py": "kernel root pkg.mod.renamed_kernel does not resolve to a function",
        "sub/__init__.py": "kernel root pkg.sub.deleted.kernel does not resolve to a function",
    }


# -- DET005: address dependence -------------------------------------------------------


def test_det005_flags_id_hash_and_key_id(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            def keys(obj, values):
                a = id(obj)
                b = hash(obj)
                c = sorted(values, key=id)
                return a, b, c
        """
    })
    assert rules_of(report) == ["DET005"] * 3


def test_det005_accepts_content_digests(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            import hashlib

            def digest(payload: bytes) -> int:
                raw = hashlib.sha256(payload).digest()
                return int.from_bytes(raw[:8], "little")
        """
    })
    assert report.clean
