"""The benchmark's workloads: what each one runs, and why it was chosen.

A workload is a fixed batch of user-level commands.  A command is either
one `rateauction run` of a scenario or one `rateauction replicate` over a
seed range; both render the trace of every run they make, as the CLI does,
but keep it in memory instead of writing it to disk.  Only the public
functions of `rateauction` are called, and they are looked up on the
package at call time, so the tracer's wrappers see every call.

Baseline spread at the commit that defined this benchmark (2-core x86-64
container shared with other tenants, Python 3.11.7, numpy 2.4.6, scipy
1.17.1): the machine runs in slow phases lasting seconds to a minute, so one
batch's wall time varied by up to 1.7x within a process (0.06-0.19 s on
fixed-converge, 1.7-3.3 s on stochastic-replicate, 2.2-4.0 s on
scaled-600).  Medians of raw wall time over 30 s of batches in ten fresh
processes still spread by 13-18% (quartile distance over median), and by
up to 26% in other sets, so run.py times batches on a clock that cancels
the host's speed (hostclock.py), reports medians over many batches per
process, and before/after pairs need medians over many interleaved
processes, never single timings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import rateauction as ra

# Workload sizes; changing any of them invalidates goldens.json.
CONVERGE_DELTA = 1e-6
CONVERGE_CAP = 200
REPLICATE_SEEDS = 50
SCALE_COPIES = 100
SCALED_CAPACITY = 10_000.0


@dataclass(frozen=True)
class Command:
    """One CLI-equivalent command: a single run, or a replicate over `seeds`."""

    label: str
    scenario: ra.Scenario
    seeds: tuple[int, ...] = ()

    def keys(self) -> list[str]:
        """Golden-file key of each run the command makes, in run order."""
        if not self.seeds:
            return [self.label]
        return [f"{self.label}-seed{s}" for s in self.seeds]

    def execute(self) -> list[tuple[ra.RunResult, str]]:
        """Run the command and render every run's trace."""
        if self.seeds:
            results = ra.run_replication(self.scenario, list(self.seeds))
        else:
            results = [ra.run(self.scenario)]
        return [(r, ra.render_trace(r)) for r in results]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list[Command]]
    converged_at: Optional[int] = None


def _fixed_converge(seed: int) -> list[Command]:
    # The fixed preset makes no draws, so the seed does not reach its inputs.
    scenario = replace(ra.preset("fixed"), delta=CONVERGE_DELTA, max_iterations=CONVERGE_CAP)
    return [Command("fixed-converge", scenario)]


def _stochastic_replicate(seed: int) -> list[Command]:
    seeds = tuple(range(seed, seed + REPLICATE_SEEDS))
    return [Command(name, ra.preset(name), seeds) for name in ("normal", "triangular")]


def _scaled_600(seed: int) -> list[Command]:
    # R grows with the user count so every copy faces the fixed preset's
    # per-user equilibrium; at R = 100 the price cycles instead of settling.
    fixed = ra.preset("fixed")
    scenario = replace(fixed, capacity=SCALED_CAPACITY, users=fixed.users * SCALE_COPIES)
    return [Command("scaled-600", scenario)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fixed-converge",
            "small N, many rounds: per-call and per-round overhead dominate, no sampling; "
            "the only run that stops on convergence, so its round count can move",
            _fixed_converge,
            converged_at=87,
        ),
        Workload(
            "stochastic-replicate",
            "the only sampling workload: parameters change every round, so a cross-round "
            "cache or warm start that helps fixed-converge shows its cost here",
            _stochastic_replicate,
        ),
        Workload(
            "scaled-600",
            "large N: stresses per-user objects, the dict ledger and a 12000-row trace; "
            "vectorising across users shows here far more than on fixed-converge",
            _scaled_600,
        ),
    )
}
