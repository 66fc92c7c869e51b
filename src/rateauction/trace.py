"""Convergence-trace emission.

One CSV row per (iteration, user) with nine-significant-digit numbers,
followed by a commented summary block.  Output is byte-stable: the same
run always renders the same file.  Rows are rendered from the result's
arrays in blocks of whole rounds, with one ``%`` operation per block, over
one float matrix of rates, bids and the a and b that vary.  What a run holds
constant is printed once: the user ids, and a sigmoid user's a or b that
every round shares, into the row template; the iteration and the price once
per round, into that round's copy of the template.
"""

from __future__ import annotations

import numpy as np

from .engine import RunResult

TRACE_HEADER = "iteration,user_id,price,rate,bid,a,b"
BLOCK_ROWS = 16384  # rows per block, rounded down to whole rounds (at least one)
ITERATION, PRICE = "\x00", "\x01"  # where a round's rows take its iteration and price


def format_number(x: float) -> str:
    """Nine significant digits, no trailing noise."""
    return f"{x:.9g}"


def _blocks(result: RunResult):
    """The trace file in pieces: header, blocks of rows, summary."""
    yield TRACE_HEADER + "\n"
    rounds, users = result.rates.shape
    sig = result.sigmoid
    # a sigmoid user's a or b with one bit pattern in every round is printed
    # once, into the template, as the user id is; a log user's are empty
    params = np.stack((result.a, result.b), axis=-1)  # (round, sigmoid user, half)
    bits = params.view(np.uint64)
    varying = (bits != bits[:1]).any(axis=0)
    fields = [("", "")] * users
    for uid, vary, first in zip(np.flatnonzero(sig).tolist(), varying.tolist(), params[0].tolist()):
        fields[uid] = ["%.9g" if v else format_number(x) for v, x in zip(vary, first)]
    # one round's rows; the iteration and the price go in as text, once per
    # round, at two marker characters, so the % fills floats only
    template = "".join(
        f"{ITERATION},{uid},{PRICE},%.9g,%.9g,{a},{b}\n" for uid, (a, b) in enumerate(fields, start=1)
    )
    filled = np.ones((users, 4), dtype=bool)  # rate, bid, a, b
    filled[~sig, 2:] = False
    filled[sig, 2:] = varying
    step = max(1, BLOCK_ROWS // users)
    for lo in range(0, rounds, step):
        hi = min(lo + step, rounds)
        values = np.empty((hi - lo, users, 4))
        values[..., 0], values[..., 1] = result.rates[lo:hi], result.bids[lo:hi]
        values[:, sig, 2:] = params[lo:hi]
        rows = "".join(
            template.replace(ITERATION, str(n)).replace(PRICE, format_number(price))
            for n, price in enumerate(result.prices[lo:hi].tolist(), start=lo + 1)
        )
        yield rows % tuple(values[:, filled].ravel().tolist())
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
