"""Convergence-trace emission.

One CSV row per (iteration, user) with nine-significant-digit numbers,
followed by a commented summary block.  Output is byte-stable: the same
run always renders the same file.  Rows are rendered from the result's
arrays in blocks of whole rounds, with one ``%`` operation per block, over
one float matrix of rates, bids and the a and b that vary.  What a run holds
constant is printed once: the user ids, and a sigmoid user's a or b that
every round shares, into the row ends; the iteration and the price once
per round.  When every user column differs, the rows are one template, and
each round's copy takes its iteration and price by ``replace``.  Users whose
columns are bit-equal over the run, such as the copies of a tiled scenario,
are formatted once: the ``%`` fills each distinct column's row end, and each
round's rows are one ``join`` of its iteration, the user ids and the row
ends.  The summary formats each distinct final rate once.
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


def final_rate_texts(result: RunResult) -> list[str]:
    """Each user's final rate through ``format_number``, in user-id order,
    each distinct value formatted once.  Values are told apart by their
    float64 bits: ``0.0`` and ``-0.0`` are equal floats that print apart."""
    rates = list(map(result.final_rates.__getitem__, range(1, len(result.final_rates) + 1)))
    if len(set(rates)) == len(rates):  # no value repeats
        return list(map(format_number, rates))
    keys, inverse = np.unique(np.array(rates).view(np.uint64), return_inverse=True)
    texts = list(map(format_number, keys.view(float).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


def _blocks(result: RunResult):
    """The trace file in pieces: header, blocks of rows, summary."""
    yield TRACE_HEADER + "\n"
    rounds, users = result.rates.shape
    sig = result.sigmoid
    values = np.zeros((rounds, users, 4))  # rate, bid, a, b
    values[..., 0], values[..., 1] = result.rates, result.bids
    values[:, sig, 2], values[:, sig, 3] = result.a, result.b
    columns, group = _distinct_columns(values, sig)
    values, sig = values[:, columns], sig[columns]  # one column of each group
    # a sigmoid user's a or b with one bit pattern in every round is printed
    # once, into its row end; a log user's are empty
    bits = values.view(np.uint64)
    filled = (bits != bits[:1]).any(axis=0)  # the fields the % fills:
    filled[:, :2] = True  # every rate and bid, and the a and b that vary
    fields = [("", "")] * len(sig)
    for col, vary, first in zip(np.flatnonzero(sig).tolist(), filled[sig, 2:].tolist(), values[0, sig, 2:].tolist()):
        fields[col] = ["%.9g" if v else format_number(x) for v, x in zip(vary, first)]
    ends = [f"%.9g,%.9g,{a},{b}\n" for a, b in fields]
    ids = [f"{uid}," for uid in range(1, users + 1)]
    step = max(1, BLOCK_ROWS // users)
    if group is None:
        # one round's rows; the iteration and the price go in as text, once
        # per round, at two marker characters, so the % fills floats only
        template = "".join(f"{ITERATION},{uid}{PRICE},{end}" for uid, end in zip(ids, ends))
    else:
        # each round's rows are joined from pieces: its iteration, the user
        # id, and the user's group's row end after the round's price
        pieces, pick, ends = [None] * (3 * users), itemgetter(*group.tolist()), "".join(ends)
        pieces[1::3] = ids
    for lo in range(0, rounds, step):
        hi = min(lo + step, rounds)
        numbers = tuple(values[lo:hi][:, filled].ravel().tolist())
        prices = enumerate(map(format_number, result.prices[lo:hi].tolist()), start=lo + 1)
        if group is None:
            yield "".join(template.replace(ITERATION, str(n)).replace(PRICE, price) for n, price in prices) % numbers
            continue
        text = (ends * (hi - lo) % numbers).splitlines(keepends=True)
        for (n, price), at in zip(prices, range(0, len(text), len(sig))):
            pieces[0::3] = [f"{n},"] * users
            pieces[2::3] = pick([f"{price},{end}" for end in text[at:at + len(sig)]])
            yield "".join(pieces)
    yield (
        f"# stop_reason,{result.stop_reason}\n"
        f"# converged_at,{result.converged_at if result.converged_at is not None else ''}\n"
        f"# iterations,{result.iterations}\n"
        f"# final_price,{format_number(result.final_price)}\n"
    ) + "".join([f"# final_rate,{uid}{rate}\n" for uid, rate in zip(ids, final_rate_texts(result))])


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
