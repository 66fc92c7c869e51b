"""Regenerate goldens.json: the sha256 of every run's rendered trace.

    python3 perfbench/make_goldens.py

The goldens pin the traces at the commit that defined the benchmark, for
the default seed 0, so a change that alters any trace byte fails the
benchmark's output check.  Regenerate them only when a change is meant to
alter the traces, and say so in that change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from check import GOLDENS, sha256  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

goldens = {}
for workload in WORKLOADS.values():
    for cmd in workload.build(0):
        for key, (_, text) in zip(cmd.keys(), cmd.execute()):
            goldens[key] = sha256(text)
GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
print(f"{len(goldens)} goldens written to {GOLDENS.name}")
