"""Record the golden outputs: exit code and stdout sha256 of every op.

Runs each workload once at the default seed and writes golden.json.
Run from the repository root, on the commit whose output is the
reference:

    python3 bench/record_golden.py
"""

from __future__ import annotations

import json
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS, build


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import hadcover.cli
    from checks import digest

    golden = {}
    for workload in WORKLOADS:
        ops = build(workload, DEFAULT_SEED)
        outputs, _, _ = run.run_pass(hadcover.cli, ops)
        for op, (code, stdout) in zip(ops, outputs):
            golden[op.key] = {"exit": code, "sha256": digest(stdout)}
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} golden records written to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
