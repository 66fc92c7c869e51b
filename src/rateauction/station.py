"""Base-station side of the auction: bid bookkeeping, shadow price,
convergence test, and the final allocation."""

from __future__ import annotations

from typing import Optional

import numpy as np


class DegenerateBidsError(RuntimeError):
    """Every current bid is zero; the shadow price would be degenerate."""


class BidLedger:
    """Current and previous bid vectors for one capacity pool.

    Bids are held in user order: element i is the bid of user i + 1.
    ``delta`` is the absolute per-user bid-change threshold under which the
    auction is declared converged.
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
        negative = np.flatnonzero(bids < 0)
        if negative.size:
            i = int(negative[0])
            raise ValueError(f"user {i + 1} sent negative bid {bids[i]}")
        self.previous, self.current = self.current, bids

    def compute_price(self) -> float:
        """Shadow price = sum of current bids / capacity.

        The sum runs sequentially in user order (``cumsum``, not numpy's
        pairwise ``sum``), so the price does not depend on how numpy or
        Python chooses to reduce.
        """
        total = float(np.cumsum(self.current)[-1])
        if not total > 0:
            raise DegenerateBidsError("all current bids are zero")
        return total / self.capacity

    def check_convergence(self) -> bool:
        """True iff every user's absolute bid change is within delta.

        False until two rounds of the same users exist.  The absolute value
        matters: a signed test would fire on any bid decrease long before
        the auction settles.
        """
        if self.previous is None or self.previous.shape != self.current.shape:
            return False
        return float(np.max(np.abs(self.current - self.previous))) <= self.delta

    def allocate_rates(self, price: float) -> dict[int, float]:
        """Final rates bid/price per user id.

        With the price from :meth:`compute_price` these sum to the capacity
        identically (each rate is bid * capacity / total bids).
        """
        if not price > 0:
            raise ValueError(f"price must be > 0, got {price}")
        return {i + 1: bid / price for i, bid in enumerate(self.current.tolist())}
