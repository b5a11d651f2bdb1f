"""Record each workload's virtual-results digest in ``ledger.json``.

The digest comes from a plain ``repro.api.run.run_spec(spec)`` call, with no
benchmark hooks, at the ledger's reference and held-out seeds.  ``run.py``
then requires every repetition at those seeds to reproduce it, so drift in
the virtual results shows as failed runs.  Re-record every workload after a
change that is meant to alter the virtual results::

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys

from rep import summary_digest
from run import host_fingerprint
from workloads import LEDGER_PATH, WORKLOADS, ensure_src_on_path, spec_dict


def main() -> int:
    ensure_src_on_path()
    from repro.api.run import run_spec

    ledger = json.loads(LEDGER_PATH.read_text(encoding="utf-8"))
    seeds = [ledger["seeds"]["reference"], ledger["seeds"]["held_out"]]
    for workload in sorted(WORKLOADS):
        digests = ledger["workloads"][workload]["digests"]
        for seed in seeds:
            digest = summary_digest(run_spec(spec_dict(workload, seed)).summary())
            known = digests.get(str(seed))
            status = "same" if known == digest else ("new" if known is None else "CHANGED")
            print(f"{workload} seed={seed}: {digest} ({status})")
            digests[str(seed)] = digest
    ledger["recorded_on"] = host_fingerprint()
    LEDGER_PATH.write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
