"""Base-station side of the auction, one row per run of a batch: bid
bookkeeping, shadow price, convergence test, and the final allocation."""

from __future__ import annotations

from typing import Optional

import numpy as np


class DegenerateBidsError(RuntimeError):
    """Every current bid of a run is zero; its shadow price would be degenerate."""


class BidLedger:
    """Current and previous bid matrices for one capacity pool.

    Each row is one live run of a batch and holds its bids in user order:
    column i is the bid of user i + 1.  ``delta`` is the absolute per-user
    bid-change threshold under which a run is declared converged.
    """

    def __init__(self, capacity: float, delta: float) -> None:
        if not capacity > 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not delta > 0:
            raise ValueError(f"delta must be > 0, got {delta}")
        self.capacity = capacity
        self.delta = delta
        self.current: Optional[np.ndarray] = None
        self.previous: Optional[np.ndarray] = None

    def ingest(self, bids) -> None:
        """Replace the current bids with a new round, keeping the old round."""
        bids = np.array(bids, dtype=float)
        if np.count_nonzero(bids < 0):
            row, i = np.argwhere(bids < 0)[0].tolist()
            raise ValueError(f"user {i + 1} sent negative bid {bids[row, i]}")
        self.previous, self.current = self.current, bids

    def compute_price(self) -> np.ndarray:
        """Shadow price of every run = sum of its current bids / capacity.

        Each row sums sequentially in user order (``add.accumulate``, which
        is ``cumsum`` without its method wrapper, not numpy's pairwise
        ``sum``), so the price does not depend on how numpy or Python
        chooses to reduce.
        """
        totals = np.add.accumulate(self.current, axis=1)[:, -1]
        if np.count_nonzero(totals > 0) < len(totals):
            raise DegenerateBidsError("all current bids of a run are zero")
        return totals / self.capacity

    def check_convergence(self) -> np.ndarray:
        """Per run: True iff every user's absolute bid change is within delta.

        False until two rounds of the same users exist.  The absolute value
        matters: a signed test would fire on any bid decrease long before
        the auction settles.
        """
        if self.previous is not None and len(self.previous) != len(self.current):
            raise ValueError("rounds differ in run count: drop the rows of runs that left")
        if self.previous is None or self.previous.shape != self.current.shape:
            return np.zeros(len(self.current), dtype=bool)
        return np.abs(self.current - self.previous).max(axis=1) <= self.delta

    def drop(self, rows) -> None:
        """Remove the runs marked in the boolean mask ``rows`` from both rounds."""
        keep = ~np.asarray(rows, dtype=bool)
        self.current = self.current[keep]
        self.previous = None if self.previous is None else self.previous[keep]

    def allocate_rates(self, prices) -> np.ndarray:
        """Final rates bid/price, one row per run and one price per row.

        With the prices from :meth:`compute_price` each row sums to the
        capacity identically (each rate is bid * capacity / total bids).
        """
        prices = np.asarray(prices, dtype=float)
        if not (prices > 0).all():
            raise ValueError(f"prices must be > 0, got {prices}")
        return self.current / prices[:, None]
