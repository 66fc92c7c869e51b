"""rateauction benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from its `src/`.
Each workload runs in its own process, with no threads: it repeats the
workload's fixed batch of commands (workloads.py) for `--seconds`, checks
the output of every run (check.py), and prints its metrics, by name and
with their units, then one JSON line {"correct", "attempted", "failed",
"metrics"} as the last line.  Batch times are taken on hostclock.HostClock,
which cancels the host's changes of speed; raw wall times are printed
beside them.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced batches and reports the per-layer metrics from the traced ones
(tracer.py); its spans are written to .perfbench_out/<workload>.spans.npz.
`--workload all` runs every workload in turn, each in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
MIN_BATCHES = 2

E2E_UNITS = {
    "ref_wall_s": "s",
    "user_rounds_per_ref_s": "1/s",
    "rounds": "count",
    "price_gap_rel": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "utility.log_slope.calls": "count",
    "utility.log_slope.self_s": "s",
    "utility.log_slope.us_per_call": "us",
    "ue.solve_rate.self_s": "s",
    "ue.slope_evals_per_solve": "count",
    "ue.clamped_frac": "ratio",
    "ue.ue_step.self_s": "s",
    "sampling.stream_rng.calls": "count",
    "sampling.stream_rng.self_s": "s",
    "sampling.resample_user.self_s": "s",
    "station.ingest.self_s": "s",
    "station.compute_price.self_s": "s",
    "station.check_convergence.self_s": "s",
    "engine.run.self_s": "s",
    "engine.rounds": "count",
    "engine.user_rounds": "count",
    "trace.render_trace.self_s": "s",
    "trace.rows": "count",
    "trace.us_per_row": "us",
    "scenarios.build_s": "s",
    "setup.import_s": "s",
    "tracing.overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def run_all(args, names) -> int:
    """Every named workload in turn, each in a fresh interpreter."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Import and build times from SETUP_PROBES fresh interpreters, one at a time."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    return [
        json.loads(subprocess.run(probe, cwd=ROOT, check=True, capture_output=True, text=True).stdout)
        for _ in range(SETUP_PROBES)
    ]


def stamp(args) -> dict:
    """What a before/after pair must share to be comparable."""
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the repository rooted here; None outside a git checkout."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def spread(values: list[float]) -> str:
    """Sample count, quartiles and the highest percentile with ten samples beyond it."""
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    text = f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        text += f" p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    return text


@dataclass
class Tally:
    """What the timed batches of one process measured and checked."""

    # (start, end) of each batch, keyed by whether the batch was traced.
    windows: dict[bool, list[tuple[float, float]]] = field(default_factory=lambda: {False: [], True: []})
    layers: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    user_rounds: int = 0
    rows: int = 0
    price_gap_rel: float | None = None


def run_batches(workload, commands, goldens, seconds: float, tracer) -> Tally:
    """Repeat the batch for `seconds`, timing each, and check every run.

    A batch starts only if it is expected to end, checks included, by the
    deadline, so a run lasts `seconds` plus set-up, not a batch more.  With a
    tracer, odd-numbered batches are traced, so traced and untraced batches
    interleave and drift in machine speed hits both alike.
    """
    import check

    tally = Tally()
    first_digest: dict[str, str] = {}
    batch = 0
    deadline = time.perf_counter() + seconds
    last = 0.0
    while batch < MIN_BATCHES or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        traced = tracer is not None and batch % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
            first_span = len(tracer)
        outputs = []
        t0 = time.perf_counter()
        for k, cmd in enumerate(commands):
            if tracer is not None:
                tracer.request = batch * len(commands) + k
            try:
                outputs.append(cmd.execute())
            except Exception as exc:  # a failing run is counted, not fatal
                print(f"# {cmd.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                outputs.append(None)
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        tally.windows[traced].append((t0, t1))

        tally.rounds = tally.user_rounds = tally.rows = 0
        for cmd, runs in zip(commands, outputs):
            tally.attempted += len(cmd.keys())
            if runs is None:
                tally.failed += len(cmd.keys())
                continue
            for key, (result, text) in zip(cmd.keys(), runs):
                tally.rounds += result.iterations
                tally.user_rounds += len(cmd.scenario.users) * result.iterations
                tally.rows += len(result.trace)
                digest = check.sha256(text)
                want = goldens.get(key, first_digest.setdefault(key, digest))
                problems = check.check_run(result, digest, cmd.scenario.capacity, want,
                                           workload.converged_at)
                if problems:
                    tally.failed += 1
                    print(f"# {key}: " + "; ".join(problems), file=sys.stderr)
        if traced:
            tally.layers.append(batch_layers(*tracer.totals(first_span, len(tracer)), tally.rows))
        if batch == 0:
            # Outside the timed region and with no wrappers installed.
            try:
                tally.price_gap_rel = statistics.fmean(
                    check.price_gap(cmd.scenario, result)
                    for cmd, runs in zip(commands, outputs) if runs for result, _ in runs)
            except (ValueError, RuntimeError) as exc:
                print(f"# clearing price: {type(exc).__name__}: {exc}", file=sys.stderr)
        del outputs
        batch += 1
        last = time.perf_counter() - started
    return tally


def measure(args) -> int:
    import check
    from hostclock import HostClock
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    probes = measure_setup(args.workload, args.seed)
    commands = workload.build(args.seed)
    tracer = Tracer() if args.trace else None
    clock = HostClock()
    clock.start()
    try:
        tally = run_batches(workload, commands, check.load_goldens(), args.seconds, tracer)
    finally:
        clock.stop()

    env = stamp(args)
    untraced, traced = ([clock.elapsed(*w) for w in tally.windows[t]] for t in (False, True))
    raw = [t1 - t0 for t0, t1 in tally.windows[False]]
    setup = [p["import_s"] + p["build_s"] for p in probes]
    if tracer is None:
        metrics = {
            "ref_wall_s": statistics.median(untraced),
            "user_rounds_per_ref_s": statistics.median(tally.user_rounds / t for t in untraced),
            "rounds": tally.rounds,
            "price_gap_rel": tally.price_gap_rel,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        units = E2E_UNITS
        notes = {
            "ref_wall_s": f"{spread(untraced)}; raw wall {spread(raw)}",
            "setup_s": spread(setup),
        }
    else:
        metrics = {name: statistics.median(layer[name] for layer in tally.layers)
                   for name in tally.layers[0]}
        metrics.update({
            "engine.rounds": tally.rounds,
            "engine.user_rounds": tally.user_rounds,
            "trace.rows": tally.rows,
            "scenarios.build_s": statistics.median(p["build_s"] for p in probes),
            "setup.import_s": statistics.median(p["import_s"] for p in probes),
            "tracing.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1,
        })
        metrics = {name: metrics[name] for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        notes = {"tracing.overhead_frac": f"traced {spread(traced)}; untraced {spread(untraced)}"}
        tracer.save(SPANS_DIR / f"{args.workload}.spans.npz", env)
    kernel = clock.kernel_s

    print("# stamp " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload}: {len(untraced) + len(traced)} batches ({len(traced)} traced), "
          f"{tally.attempted} runs attempted, {tally.failed} failed, "
          f"failed_frac {tally.failed / tally.attempted:.6g}")
    print(f"# host speed: probe kernel {1e6 * statistics.median(kernel):.1f} us median, "
          f"{1e6 * min(kernel):.1f} us fastest, over {len(kernel)} samples")
    for name, value in metrics.items():
        print(f"{name:32s} {value!s:>22} {units[name]:6s} {notes.get(name, '')}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.price_gap_rel is not None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def batch_layers(calls: dict, self_s: dict, evals_per_solve, rows: int) -> dict:
    """The per-layer metrics of one traced batch."""
    slope_calls = calls["utility.log_slope"]
    solves = len(evals_per_solve)
    return {
        "utility.log_slope.calls": slope_calls,
        "utility.log_slope.self_s": self_s["utility.log_slope"],
        "utility.log_slope.us_per_call": 1e6 * self_s["utility.log_slope"] / slope_calls if slope_calls else 0.0,
        "ue.solve_rate.self_s": self_s["ue.solve_rate"],
        "ue.slope_evals_per_solve": float(evals_per_solve.mean()) if solves else 0.0,
        "ue.clamped_frac": float((evals_per_solve == 1).mean()) if solves else 0.0,
        "ue.ue_step.self_s": self_s["ue.ue_step"],
        "sampling.stream_rng.calls": calls["sampling.stream_rng"],
        "sampling.stream_rng.self_s": self_s["sampling.stream_rng"],
        "sampling.resample_user.self_s": self_s["sampling.resample_user"],
        "station.ingest.self_s": self_s["station.ingest"],
        "station.compute_price.self_s": self_s["station.compute_price"],
        "station.check_convergence.self_s": self_s["station.check_convergence"],
        "engine.run.self_s": self_s["engine.run"],
        "trace.render_trace.self_s": self_s["trace.render_trace"],
        "trace.us_per_row": 1e6 * self_s["trace.render_trace"] / rows if rows else 0.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rateauction" / "__init__.py").is_file():
        print(f"error: no rateauction sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from all, "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
