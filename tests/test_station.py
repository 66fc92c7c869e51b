"""Base-station tests: price aggregation, convergence test, allocation.

The ledger holds one row of bids per run of a lockstep batch; every
property below is checked row by row."""

import math

import numpy as np
import pytest

from rateauction import BidLedger, DegenerateBidsError


def ledger_with(rows, capacity=100.0, delta=1e-2):
    ledger = BidLedger(capacity=capacity, delta=delta)
    ledger.ingest(rows)
    return ledger


class TestComputePrice:
    def test_direct_formula(self):
        prices = ledger_with([[10.0, 20.0, 30.0], [5.0, 5.0, 5.0]]).compute_price()
        assert prices.tolist() == pytest.approx([0.6, 0.15])

    def test_symmetry(self):
        for m in (1, 4, 9):
            ledger = ledger_with([[2.5] * m, [1.0] * m], capacity=50.0)
            assert ledger.compute_price().tolist() == pytest.approx([m * 2.5 / 50.0, m / 50.0])

    def test_price_tracks_latest_round(self):
        ledger = ledger_with([[1.0, 2.0], [2.0, 2.0]])
        assert ledger.compute_price().tolist() == pytest.approx([0.03, 0.04])
        ledger.ingest([[4.0, 5.0], [1.0, 1.0]])
        assert ledger.compute_price().tolist() == pytest.approx([0.09, 0.02])

    def test_sum_is_sequential_in_user_order(self):
        # numpy's pairwise sum and a compensated sum both differ from the
        # left-to-right sum on these rows; no row's price may
        rows = np.random.default_rng(61).uniform(0.0, 1.0, size=(4, 1000))
        prices = ledger_with(rows, capacity=1.0).compute_price()
        for row, price in zip(rows, prices.tolist()):
            total = 0.0
            for w in row.tolist():
                total += w
            assert total != float(np.sum(row))
            assert total != math.fsum(row)
            assert price == total

    def test_all_zero_bids_degenerate(self):
        with pytest.raises(DegenerateBidsError):
            ledger_with([[1.0, 0.0], [0.0, 0.0]]).compute_price()


class TestCheckConvergence:
    def test_false_before_two_rounds(self):
        ledger = ledger_with([[1.0, 2.0], [3.0, 4.0]])
        assert ledger.check_convergence().tolist() == [False, False]

    def test_identical_rounds_converge(self):
        ledger = ledger_with([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        ledger.ingest([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert ledger.check_convergence().tolist() == [True, True]

    def test_single_user_exceeding_delta_blocks(self):
        delta = 1e-2
        ledger = ledger_with([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], delta=delta)
        ledger.ingest([[1.0 + 2 * delta, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert ledger.check_convergence().tolist() == [False, True]

    def test_sign_symmetric(self):
        delta = 1e-2
        ledger = ledger_with([[1.0, 2.0], [1.0, 2.0]], delta=delta)
        ledger.ingest([[1.0 + 2 * delta, 2.0], [1.0 - 2 * delta, 2.0]])
        assert ledger.check_convergence().tolist() == [False, False]

    def test_within_delta_converges(self):
        delta = 1e-2
        ledger = ledger_with([[1.0, 2.0], [1.0, 2.0]], delta=delta)
        ledger.ingest([[1.0 + 0.5 * delta, 2.0 - 0.5 * delta], [1.0, 2.0 + 0.5 * delta]])
        assert ledger.check_convergence().tolist() == [True, True]

    def test_user_set_change_blocks(self):
        ledger = ledger_with([[1.0, 2.0]])
        ledger.ingest([[1.0, 2.0, 3.0]])
        assert ledger.check_convergence().tolist() == [False]
        ledger = ledger_with([[1.0, 1.0]])
        ledger.ingest([[1.0]])  # would broadcast against the old round
        assert ledger.check_convergence().tolist() == [False]

    def test_run_count_change_without_drop_raises(self):
        # a run that left without its rows dropped would otherwise read as
        # "not converged" forever
        ledger = ledger_with([[1.0, 2.0], [1.0, 2.0]])
        ledger.ingest([[1.0, 2.0]])
        with pytest.raises(ValueError, match="drop the rows"):
            ledger.check_convergence()


class TestAllocateRates:
    def test_division_identity(self):
        ledger = ledger_with([[10.0, 20.0, 30.0], [30.0, 20.0, 10.0]])
        rates = ledger.allocate_rates([0.6, 0.6])
        assert rates[0].tolist() == pytest.approx([16.6667, 33.3333, 50.0], abs=1e-4)
        assert rates[1].tolist() == pytest.approx([50.0, 33.3333, 16.6667], abs=1e-4)
        assert rates.sum(axis=1).tolist() == pytest.approx([100.0, 100.0], rel=1e-12)

    def test_single_user_takes_everything(self):
        ledger = ledger_with([[7.3], [0.2]], capacity=42.0)
        rates = ledger.allocate_rates(ledger.compute_price())
        assert rates.ravel().tolist() == pytest.approx([42.0, 42.0], rel=1e-15)

    def test_capacity_identity_random_bids(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            bids = rng.uniform(0.01, 50.0, size=(int(rng.integers(1, 4)), m))
            capacity = float(rng.uniform(1.0, 500.0))
            ledger = ledger_with(bids, capacity=capacity)
            rates = ledger.allocate_rates(ledger.compute_price())
            for row in rates:
                assert sum(row.tolist()) == pytest.approx(capacity, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(59)
        bids = rng.uniform(0.1, 10.0, size=(2, 5))
        base = ledger_with(bids)
        base_rates = base.allocate_rates(base.compute_price())
        for lam in (1e-3, 3.7, 1e4):
            scaled = ledger_with(lam * bids)
            rates = scaled.allocate_rates(scaled.compute_price())
            assert rates.ravel().tolist() == pytest.approx(base_rates.ravel().tolist(), rel=1e-9)

    def test_rejects_non_positive_prices(self):
        ledger = ledger_with([[1.0], [2.0]])
        with pytest.raises(ValueError):
            ledger.allocate_rates([0.5, 0.0])


class TestLedgerBookkeeping:
    def test_rotation(self):
        ledger = ledger_with([[1.0, 2.0], [3.0, 4.0]])
        ledger.ingest([[5.0, 6.0], [7.0, 8.0]])
        assert ledger.previous.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ledger.current.tolist() == [[5.0, 6.0], [7.0, 8.0]]

    def test_ingest_copies_the_round(self):
        bids = np.array([[1.0, 2.0]])
        ledger = ledger_with(bids)
        bids[0, 0] = 9.0
        assert ledger.current.tolist() == [[1.0, 2.0]]

    def test_drop_removes_rows_from_both_rounds(self):
        ledger = ledger_with([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        ledger.ingest([[1.0, 2.0], [3.5, 4.0], [5.0, 6.0]])
        done = ledger.check_convergence()
        assert done.tolist() == [True, False, True]
        ledger.drop(done)
        assert ledger.previous.tolist() == [[3.0, 4.0]]
        assert ledger.current.tolist() == [[3.5, 4.0]]
        ledger.ingest([[3.5, 4.0]])
        assert ledger.check_convergence().tolist() == [True]

    def test_drop_before_a_second_round(self):
        ledger = ledger_with([[1.0], [2.0]])
        ledger.drop([False, True])
        assert ledger.previous is None
        assert ledger.current.tolist() == [[1.0]]

    def test_rejects_bad_bids(self):
        ledger = BidLedger(100.0, 1e-2)
        with pytest.raises(ValueError, match="user 2 sent negative bid -1.0"):
            ledger.ingest([[1.0, 3.0], [1.0, -1.0]])
        assert ledger.current is None

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            BidLedger(0.0, 1e-2)
        with pytest.raises(ValueError):
            BidLedger(100.0, 0.0)
