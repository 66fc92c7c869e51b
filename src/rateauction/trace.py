"""Convergence-trace emission.

One CSV row per (iteration, user) with nine-significant-digit numbers,
followed by a commented summary block.  Output is byte-stable: the same
run always renders the same file.  Rows are rendered in blocks of whole
rounds, with one ``%`` per block over the rates, bids and varying a and b
of one user of each lane (``RunResult.lane``): the users of a lane have
bit-equal columns and final rates.  The ids and the a or b a run holds
are baked into the row ends, and each round's iteration and price are
formatted once: into a template of the round's rows where every user has
a lane of its own, else joined with the ids and the lanes' row ends.  A
small cache keeps each layout's plan of this text.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

import numpy as np

from .engine import RunResult

TRACE_HEADER = "iteration,user_id,price,rate,bid,a,b"
BLOCK_ROWS = 16384  # rows per block, rounded down to whole rounds (at least one)
ITERATION, PRICE = "\x00", "\x01"  # where a round's rows take its iteration and price


def format_number(x: float) -> str:
    """Nine significant digits, no trailing noise."""
    return f"{x:.9g}"


@lru_cache(maxsize=8)
def _layout(sigmoid: bytes, lane: bytes):
    """Of a result's ``sigmoid`` and ``lane`` bytes (the user count in the
    latter): one user of each lane, and a getter of each user's (None where
    every user has a lane of its own); their families, and each sigmoid
    one's column of a and b; the user ids and the ``# final_rate`` prefixes."""
    sigmoid, lane = np.frombuffer(sigmoid, dtype=bool), np.frombuffer(lane, dtype=int)
    _, columns, group = np.unique(lane, return_index=True, return_inverse=True)
    pick = itemgetter(*group.tolist()) if len(columns) < len(lane) else None
    columns = columns if pick else slice(None)
    uids = range(1, len(lane) + 1)
    return (columns, pick, sigmoid[columns], (np.cumsum(sigmoid) - 1)[columns][sigmoid[columns]],
            [f"{uid}," for uid in uids], [f"\n# final_rate,{uid}," for uid in uids])


@lru_cache(maxsize=8)
def _plan(sigmoid: bytes, lane: bytes, filled: bytes, held: bytes):
    """A layout's rows but for their numbers, given the fields the ``%``
    fills and the bits of the others: one round's template, or the lanes'
    row ends and a round's pieces with the user ids in place."""
    _, pick, sig, _, ids, _ = _layout(sigmoid, lane)
    filled = np.frombuffer(filled, dtype=bool).reshape(-1, 4)
    fields = np.zeros(filled.shape)
    fields[~filled] = np.frombuffer(held)
    ends = [f"%.9g,%.9g,{a},{b}\n" for a, b in (  # a held a or b printed once, a log user's empty
        ["%.9g" if v else format_number(x) for v, x in zip(vary, first)] if is_sig else ("", "")
        for is_sig, vary, first in zip(sig.tolist(), filled[:, 2:].tolist(), fields[:, 2:].tolist()))]
    if pick is None:  # the iteration and the price go in at two marks, so the % fills floats only
        return "".join(f"{ITERATION},{uid}{PRICE},{end}" for uid, end in zip(ids, ends)), None
    return "".join(ends), [piece for uid in ids for piece in (None, uid, None)]


def final_rate_texts(result: RunResult) -> list[str]:
    """Each user's final rate through ``format_number``, in user-id order,
    formatted once a lane."""
    columns, pick, *_ = _layout(result.sigmoid.tobytes(), result.lane.astype(int, copy=False).tobytes())
    uids = np.arange(1, len(result.lane) + 1)[columns].tolist()
    texts = list(map(format_number, map(result.final_rates.__getitem__, uids)))
    return list(pick(texts)) if pick else texts


def _blocks(result: RunResult, rate_texts: list[str]):
    """The trace file in pieces: header, blocks of rows, summary with ``rate_texts``."""
    yield TRACE_HEADER + "\n"
    rounds, users = result.rates.shape
    keys = result.sigmoid.tobytes(), result.lane.astype(int, copy=False).tobytes()
    columns, pick, sig, a_cols, _, prefixes = _layout(*keys)
    values = np.zeros((rounds, len(sig), 4))  # rate, bid, a, b of one user a lane
    values[..., 0], values[..., 1] = result.rates[:, columns], result.bids[:, columns]
    values[:, sig, 2], values[:, sig, 3] = result.a[:, a_cols], result.b[:, a_cols]
    bits = values.view(np.uint64)
    filled = (bits != bits[:1]).any(axis=0)  # the fields the % fills:
    filled[:, :2] = True  # every rate and bid, and the a and b that vary
    rows, pieces = _plan(*keys, filled.tobytes(), bits[0][~filled].tobytes())
    pieces = pieces and pieces.copy()  # a round's iterations and row ends go in
    step = max(1, BLOCK_ROWS // users)
    for lo in range(0, rounds, step):
        hi = min(lo + step, rounds)
        numbers = tuple(values[lo:hi][:, filled].ravel().tolist())
        prices = enumerate(map(format_number, result.prices[lo:hi].tolist()), start=lo + 1)
        if pieces is None:
            yield "".join(rows.replace(ITERATION, str(n)).replace(PRICE, price) for n, price in prices) % numbers
            continue
        text = (rows * (hi - lo) % numbers).splitlines(keepends=True)
        for (n, price), at in zip(prices, range(0, len(text), len(sig))):
            pieces[0::3] = [f"{n},"] * users
            pieces[2::3] = pick([f"{price},{end}" for end in text[at:at + len(sig)]])
            yield "".join(pieces)
    yield (
        f"# stop_reason,{result.stop_reason}\n"
        f"# converged_at,{result.converged_at if result.converged_at is not None else ''}\n"
        f"# iterations,{result.iterations}\n"
        f"# final_price,{format_number(result.final_price)}"
    ) + "".join(map(str.__add__, prefixes, rate_texts)) + "\n"


def render_trace(result: RunResult) -> str:
    return "".join(_blocks(result, final_rate_texts(result)))


def emit_trace(result: RunResult, path) -> list[str]:
    """Write the trace table block by block, and return its final rates'
    texts (:func:`final_rate_texts`); I/O failures carry the destination path."""
    rate_texts = final_rate_texts(result)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_blocks(result, rate_texts))
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc
    return rate_texts
