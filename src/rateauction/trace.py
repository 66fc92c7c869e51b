"""Convergence-trace emission.

One CSV row per (iteration, user) with nine-significant-digit numbers,
followed by a commented summary block.  Output is byte-stable: the same
run always renders the same file.  Rows are rendered from the result's
arrays in blocks of whole rounds, with one ``%`` operation per block, over
one float matrix of rates, bids and the a and b that vary.  What a run holds
constant is printed once: the user ids, and a sigmoid user's a or b that
every round shares, into the row template; the iteration and the price once
per round, into that round's copy of the template.  Users whose columns are
bit-equal over the run, such as the copies of a tiled scenario, are formatted
once: a second ``%`` per block fills each distinct column's row ends, and the
rows take them through ``%s``.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from .engine import RunResult

TRACE_HEADER = "iteration,user_id,price,rate,bid,a,b"
BLOCK_ROWS = 16384  # rows per block, rounded down to whole rounds (at least one)
ITERATION, PRICE = "\x00", "\x01"  # where a round's rows take its iteration and price


def format_number(x: float) -> str:
    """Nine significant digits, no trailing noise."""
    return f"{x:.9g}"


def _distinct_columns(values: np.ndarray, sigmoid: np.ndarray):
    """Group the user columns of ``values`` bit-equal over the run in family
    and every field: one column of each group, and each user's group.  Every
    column, and no groups, when the last round's rates tell them apart."""
    users = values.shape[1]
    last = values[-1, :, 0]
    if len(set(last.tolist())) == users:  # equal columns have equal last rates
        return slice(None), None
    # equal columns sort next to each other by their last rate; a tie between
    # unequal columns may split a group, which costs a format, not a byte
    order = np.argsort(last.view(np.uint64), kind="stable")
    key, sig = values[:, order].transpose(1, 0, 2).reshape(users, -1).view(np.uint64), sigmoid[order]
    starts = np.r_[True, (key[1:] != key[:-1]).any(axis=1) | (sig[1:] != sig[:-1])]
    return order[starts], (np.cumsum(starts) - 1)[np.argsort(order)]


def _blocks(result: RunResult):
    """The trace file in pieces: header, blocks of rows, summary."""
    yield TRACE_HEADER + "\n"
    rounds, users = result.rates.shape
    sig = result.sigmoid
    values = np.zeros((rounds, users, 4))  # rate, bid, a, b
    values[..., 0], values[..., 1] = result.rates, result.bids
    values[:, sig, 2], values[:, sig, 3] = result.a, result.b
    columns, group = _distinct_columns(values, sig)
    # a sigmoid user's a or b with one bit pattern in every round is printed
    # once, into the template, as the user id is; a log user's are empty
    bits = values.view(np.uint64)
    filled = (bits != bits[:1]).any(axis=0)  # the fields the % fills:
    filled[:, :2] = True  # every rate and bid, and the a and b that vary
    own = sig if group is None else sig & np.isin(np.arange(users), columns)  # the sigmoid users formatted
    fields = [("", "")] * users
    for uid, vary, first in zip(np.flatnonzero(own).tolist(), filled[own, 2:].tolist(), values[0, own, 2:].tolist()):
        fields[uid] = ["%.9g" if v else format_number(x) for v, x in zip(vary, first)]
    # one round's rows; the iteration and the price go in as text, once per
    # round, at two marker characters, so the % fills floats only.  With
    # groups, the floats fill one row end per group, and each row takes its
    # group's end through a %s
    ends = [f"%.9g,%.9g,{a},{b}\n" for a, b in fields]
    if group is not None:
        group_ends, ends = "".join(map(ends.__getitem__, columns.tolist())), ["%s\n"] * users
    template = "".join(f"{ITERATION},{uid},{PRICE},{end}" for uid, end in enumerate(ends, start=1))
    step = max(1, BLOCK_ROWS // users)
    for lo in range(0, rounds, step):
        hi = min(lo + step, rounds)
        numbers = tuple(values[lo:hi, columns][:, filled[columns]].ravel().tolist())
        rows = "".join(
            template.replace(ITERATION, str(n)).replace(PRICE, format_number(price))
            for n, price in enumerate(result.prices[lo:hi].tolist(), start=lo + 1)
        )
        if group is not None:
            text = (group_ends * (hi - lo) % numbers).split("\n")
            numbers = itemgetter(*(np.arange(hi - lo)[:, None] * len(columns) + group).ravel().tolist())(text)
        yield rows % numbers
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
