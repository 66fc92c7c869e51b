"""Base-station tests: price aggregation, convergence test, allocation."""

import math

import numpy as np
import pytest

from rateauction import BidLedger, DegenerateBidsError


def ledger_with(bids, capacity=100.0, delta=1e-2):
    ledger = BidLedger(capacity=capacity, delta=delta)
    ledger.ingest(bids)
    return ledger


class TestComputePrice:
    def test_direct_formula(self):
        assert ledger_with([10.0, 20.0, 30.0]).compute_price() == pytest.approx(0.6)

    def test_symmetry(self):
        for m in (1, 4, 9):
            ledger = ledger_with([2.5] * m, capacity=50.0)
            assert ledger.compute_price() == pytest.approx(m * 2.5 / 50.0)

    def test_price_tracks_latest_round(self):
        ledger = ledger_with([1.0, 2.0])
        assert ledger.compute_price() == pytest.approx(0.03)
        ledger.ingest([4.0, 5.0])
        assert ledger.compute_price() == pytest.approx(0.09)

    def test_sum_is_sequential_in_user_order(self):
        # numpy's pairwise sum and a compensated sum both differ from the
        # left-to-right sum on this vector; the price must not
        bids = np.random.default_rng(61).uniform(0.0, 1.0, size=1000)
        total = 0.0
        for w in bids.tolist():
            total += w
        assert total != float(np.sum(bids))
        assert total != math.fsum(bids)
        assert ledger_with(bids, capacity=1.0).compute_price() == total

    def test_all_zero_bids_degenerate(self):
        with pytest.raises(DegenerateBidsError):
            ledger_with([0.0, 0.0]).compute_price()


class TestCheckConvergence:
    def test_false_before_two_rounds(self):
        ledger = ledger_with([1.0, 2.0])
        assert ledger.check_convergence() is False

    def test_identical_rounds_converge(self):
        ledger = ledger_with([1.0, 2.0, 3.0])
        ledger.ingest([1.0, 2.0, 3.0])
        assert ledger.check_convergence() is True

    def test_single_user_exceeding_delta_blocks(self):
        delta = 1e-2
        ledger = ledger_with([1.0, 2.0, 3.0], delta=delta)
        ledger.ingest([1.0 + 2 * delta, 2.0, 3.0])
        assert ledger.check_convergence() is False

    def test_sign_symmetric(self):
        delta = 1e-2
        for sign in (+1.0, -1.0):
            ledger = ledger_with([1.0, 2.0], delta=delta)
            ledger.ingest([1.0 + sign * 2 * delta, 2.0])
            assert ledger.check_convergence() is False

    def test_within_delta_converges(self):
        delta = 1e-2
        ledger = ledger_with([1.0, 2.0], delta=delta)
        ledger.ingest([1.0 + 0.5 * delta, 2.0 - 0.5 * delta])
        assert ledger.check_convergence() is True

    def test_user_set_change_blocks(self):
        ledger = ledger_with([1.0, 2.0])
        ledger.ingest([1.0, 2.0, 3.0])
        assert ledger.check_convergence() is False
        ledger = ledger_with([1.0, 1.0])
        ledger.ingest([1.0])  # would broadcast against the old round
        assert ledger.check_convergence() is False


class TestAllocateRates:
    def test_division_identity(self):
        ledger = ledger_with([10.0, 20.0, 30.0])
        rates = ledger.allocate_rates(0.6)
        assert rates[1] == pytest.approx(16.6667, abs=1e-4)
        assert rates[2] == pytest.approx(33.3333, abs=1e-4)
        assert rates[3] == pytest.approx(50.0, abs=1e-4)
        assert sum(rates.values()) == pytest.approx(100.0, rel=1e-12)

    def test_single_user_takes_everything(self):
        ledger = ledger_with([7.3], capacity=42.0)
        price = ledger.compute_price()
        assert ledger.allocate_rates(price)[1] == pytest.approx(42.0, rel=1e-15)

    def test_capacity_identity_random_bids(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            bids = rng.uniform(0.01, 50.0, size=m)
            capacity = float(rng.uniform(1.0, 500.0))
            ledger = ledger_with(bids, capacity=capacity)
            rates = ledger.allocate_rates(ledger.compute_price())
            assert sum(rates.values()) == pytest.approx(capacity, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(59)
        bids = list(rng.uniform(0.1, 10.0, size=5))
        base = ledger_with(bids)
        base_rates = base.allocate_rates(base.compute_price())
        for lam in (1e-3, 3.7, 1e4):
            scaled = ledger_with([lam * w for w in bids])
            rates = scaled.allocate_rates(scaled.compute_price())
            for uid in base_rates:
                assert rates[uid] == pytest.approx(base_rates[uid], rel=1e-9)


class TestLedgerBookkeeping:
    def test_rotation(self):
        ledger = ledger_with([1.0, 2.0])
        ledger.ingest([5.0, 6.0])
        assert ledger.previous.tolist() == [1.0, 2.0]
        assert ledger.current.tolist() == [5.0, 6.0]

    def test_ingest_copies_the_round(self):
        bids = np.array([1.0, 2.0])
        ledger = ledger_with(bids)
        bids[0] = 9.0
        assert ledger.current.tolist() == [1.0, 2.0]

    def test_rejects_bad_bids(self):
        ledger = BidLedger(100.0, 1e-2)
        with pytest.raises(ValueError, match="user 2 sent negative bid -1.0"):
            ledger.ingest([1.0, -1.0])
        assert ledger.current is None

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            BidLedger(0.0, 1e-2)
        with pytest.raises(ValueError):
            BidLedger(100.0, 0.0)
