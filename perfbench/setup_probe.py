"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Times `import rateauction` and the building of the workload's scenarios,
and prints them as one JSON line.  run.py starts it several times per run.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import rateauction  # noqa: E402,F401

t1 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
