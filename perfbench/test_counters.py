"""The traced run's work counters repeat exactly and match the defining commit.

    python3 -m pytest perfbench/test_counters.py

Each workload runs twice in a fresh process with --trace 1.  The counters
are counts of calls and rows, not times, so any difference between two
runs or from the values below means the work itself changed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().with_name("run.py")

EXPECTED = {
    "fixed-converge": {
        "engine.rounds": 87,
        "engine.user_rounds": 522,
        "utility.log_slope.calls": 522 * 28,
        "ue.slope_evals_per_solve": 28.0,
        "ue.clamped_frac": 0.0,
        "sampling.stream_rng.calls": 0,
    },
    "scaled-600": {
        "engine.rounds": 20,
        "engine.user_rounds": 12_000,
        "utility.log_slope.calls": 12_000 * 35,
        "ue.slope_evals_per_solve": 35.0,
        "ue.clamped_frac": 0.0,
        "sampling.stream_rng.calls": 0,
    },
    "stochastic-replicate": {
        "engine.rounds": 2_000,
        "engine.user_rounds": 12_000,
        "sampling.stream_rng.calls": 3 * 2_000,
    },
}

COUNTERS = (
    "engine.rounds",
    "engine.user_rounds",
    "trace.rows",
    "utility.log_slope.calls",
    "ue.slope_evals_per_solve",
    "ue.clamped_frac",
    "sampling.stream_rng.calls",
)


def traced_run(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "1", "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout + out.stderr
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_counters_repeat_and_match(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert {c: first[c] for c in COUNTERS} == {c: second[c] for c in COUNTERS}
    for name, want in EXPECTED[workload].items():
        assert first[name] == want, name
