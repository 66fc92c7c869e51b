"""The golden digests at lower SIMD levels.

The digests in ``test_golden.py`` pin float bits of numpy's exp, expm1 and
log1p kernels, recorded on an AVX-512 (X86_V4) host.  numpy picks those
kernels at run time, and ``NPY_DISABLE_CPU_FEATURES`` switches the
dispatched ones off.  Each test runs ``test_golden.py`` in a fresh
interpreter held to one x86-64 level: X86_V3 (AVX2), then X86_V2, numpy's
baseline.  A host or numpy build that cannot run a level skips it, saying
why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# numpy's dispatched optimizations above each level
ABOVE = {
    "X86_V3": ["X86_V4", "AVX512_ICL", "AVX512_SPR"],
    "X86_V2": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}
PROBE = """import json, numpy
m = numpy._core._multiarray_umath
print(json.dumps([m.__cpu_baseline__, m.__cpu_dispatch__, m.__cpu_features__]))"""


def held_env(level: str) -> dict:
    """The environment of an interpreter held to ``level``; skips where the
    host or the numpy build cannot run it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    baseline, dispatch, features = json.loads(subprocess.run(
        [sys.executable, "-c", PROBE], env=env, check=True, capture_output=True, text=True).stdout)
    if level not in baseline + dispatch:
        pytest.skip(f"numpy on this host neither dispatches nor assumes {level} (baseline {baseline})")
    if not features.get(level):
        pytest.skip(f"this host's CPU cannot run {level}")
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(f for f in ABOVE[level] if f in dispatch)
    _, _, held = json.loads(subprocess.run(
        [sys.executable, "-c", PROBE], env=env, check=True, capture_output=True, text=True).stdout)
    assert held[level] and not any(held.get(f) for f in ABOVE[level]), held
    return env


@pytest.mark.parametrize("level", ["X86_V3", "X86_V2"])
def test_goldens_hold_at_level(level):
    env = held_env(level)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_golden.py")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
