"""Convergence-trace emission.

One CSV row per (iteration, user) with nine-significant-digit numbers,
followed by a commented summary block.  Output is byte-stable: the same
run always renders the same file.  Rows are rendered from the result's
arrays in blocks of whole rounds, with one ``%`` operation per block.
"""

from __future__ import annotations

import numpy as np

from .engine import RunResult

TRACE_HEADER = "iteration,user_id,price,rate,bid,a,b"
BLOCK_ROWS = 16384  # rows per block, rounded down to whole rounds (at least one)


def format_number(x: float) -> str:
    """Nine significant digits, no trailing noise."""
    return f"{x:.9g}"


def _blocks(result: RunResult):
    """The trace file in pieces: header, blocks of rows, summary."""
    yield TRACE_HEADER + "\n"
    rounds, users = result.rates.shape
    sig = result.sigmoid
    # one round's rows, user ids baked in; a log user's a and b are empty
    template = "".join(
        f"%d,{uid},%.9g,%.9g,%.9g," + ("%.9g,%.9g\n" if s else ",\n")
        for uid, s in enumerate(sig.tolist(), start=1)
    )
    filled = np.ones((users, 6), dtype=bool)  # iteration, price, rate, bid, a, b
    filled[~sig, 4:] = False
    step = max(1, BLOCK_ROWS // users)
    for lo in range(0, rounds, step):
        hi = min(lo + step, rounds)
        values = np.empty((hi - lo, users, 6))
        values[..., 0] = np.arange(lo + 1, hi + 1)[:, None]
        values[..., 1] = result.prices[lo:hi, None]
        values[..., 2], values[..., 3] = result.rates[lo:hi], result.bids[lo:hi]
        values[:, sig, 4], values[:, sig, 5] = result.a[lo:hi], result.b[lo:hi]
        yield template * (hi - lo) % tuple(values[:, filled].ravel().tolist())
    lines = [
        f"# stop_reason,{result.stop_reason}",
        f"# converged_at,{result.converged_at if result.converged_at is not None else ''}",
        f"# iterations,{result.iterations}",
        f"# final_price,{format_number(result.final_price)}",
    ]
    for uid in sorted(result.final_rates):
        lines.append(f"# final_rate,{uid},{format_number(result.final_rates[uid])}")
    yield "\n".join(lines) + "\n"


def render_trace(result: RunResult) -> str:
    return "".join(_blocks(result))


def emit_trace(result: RunResult, path) -> None:
    """Write the trace table block by block; I/O failures carry the
    destination path."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_blocks(result))
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc
