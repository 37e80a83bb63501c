"""Record the SHA-256 of every default-seed op output into ``digests.json``.

Run from the repository root, at a commit whose outputs are trusted::

    PYTHONPATH=src python3 perfbench/record_digests.py

Every output must pass the invariant checks before it is recorded.  Later
runs on the default seed then require byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"


def record(workload: str, workdir: Path) -> dict[str, str]:
    digests = {}
    for op in workloads.write_inputs(workload, workloads.DEFAULT_SEED, workdir):
        code, data = workloads.run_op(workload, op)
        reason = workloads.check_output(workload, op, code, data, None)
        if reason is not None:
            raise SystemExit(f"{workload} op {op['key']}: {reason}")
        digests[op["key"]] = hashlib.sha256(data).hexdigest()
    return digests


def main() -> None:
    table = {}
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=BENCH_DIR / ".work") as tmp:
            table[workload] = record(workload, Path(tmp))
        print(f"{workload}: {len(table[workload])} digests", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
