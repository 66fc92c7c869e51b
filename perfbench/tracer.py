"""Timing spans around rateauction's layer boundaries, from outside the library.

`Tracer.install()` replaces each public call below with a wrapper that
records one span (name, start, end, parent span, request id) and restores
the originals on `uninstall()`.  A call is wrapped where its caller looks
it up: `engine` imports `ue_step`, `stream_rng` and `resample_user` by
name, `ue_step` finds `solve_rate` in `rateauction.ue`, and `log_slope`
and the `BidLedger` methods are found on their classes.  The request id is
set by the caller: one command of the batch, a run or a replicate.

Spans are kept in flat arrays in memory and written out by `save()`.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

import numpy as np
import rateauction as ra
import rateauction.engine
import rateauction.ue

NO_PARENT = -1


def _sites() -> dict[str, list[tuple[object, str]]]:
    """Span name -> every (owner, attribute) through which the call is made."""
    return {
        "engine.run": [(ra, "run"), (ra.engine, "run")],
        "ue.ue_step": [(ra.engine, "ue_step")],
        "ue.solve_rate": [(ra.ue, "solve_rate")],
        "utility.log_slope": [(ra.SigmoidalUtility, "log_slope"), (ra.LogarithmicUtility, "log_slope")],
        "sampling.stream_rng": [(ra.engine, "stream_rng")],
        "sampling.resample_user": [(ra.engine, "resample_user")],
        "station.ingest": [(ra.BidLedger, "ingest")],
        "station.compute_price": [(ra.BidLedger, "compute_price")],
        "station.check_convergence": [(ra.BidLedger, "check_convergence")],
        "trace.render_trace": [(ra, "render_trace")],
    }


class Tracer:
    def __init__(self) -> None:
        self.sites = _sites()
        self.names = list(self.sites)
        self.request = 0
        self.name = array("b")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name_id: int, fn):
        name, parent, req, start, end = self.name, self.parent, self.req, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            req.append(self.request)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for name_id, sites in enumerate(self.sites.values()):
            for owner, attr in sites:
                fn = owner.__dict__[attr]
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name_id, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def totals(self, first: int, stop: int) -> tuple[dict[str, int], dict[str, float], np.ndarray]:
        """Calls and self seconds per span name over spans [first, stop),
        plus the number of log_slope calls made directly by each solve_rate."""
        names = np.frombuffer(self.name, dtype=np.int8)[first:stop].astype(np.intp)
        parents = np.frombuffer(self.parent, dtype=np.int32)[first:stop].astype(np.intp) - first
        duration = np.frombuffer(self.end)[first:stop] - np.frombuffer(self.start)[first:stop]
        n = stop - first
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=duration[has_parent], minlength=n)
        self_s = np.bincount(names, weights=duration - covered, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))

        slope = names == self.names.index("utility.log_slope")
        evals = np.bincount(parents[slope & has_parent], minlength=n)
        evals_per_solve = evals[names == self.names.index("ue.solve_rate")]
        return (
            dict(zip(self.names, calls.tolist())),
            dict(zip(self.names, self_s.tolist())),
            evals_per_solve,
        )

    def save(self, path: Path, stamp: dict) -> None:
        """Write every span, with the names and the run's stamp, as .npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int8),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.req, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            stamp=np.array(json.dumps(stamp, sort_keys=True)),
        )
