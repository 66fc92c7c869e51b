"""Command-line front end.

Subcommands:

* ``run`` -- execute one scenario (file or preset) and emit its trace;
* ``verify`` -- compare the auction against the brute-force reference on
  a small scenario (at most three users, every parameter fixed);
* ``replicate`` -- run a preset under many seeds, one trace file each.

Exit codes: 0 success, 1 an output path that cannot be written, 2
usage/scenario errors, 3 solver failures, 4 reference-grid budget exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .engine import Scenario, SimulationError, SpecError, run, run_replication
from .oracle import BudgetExceededError, GridStepError, centralized_argmax, log_objective
from .sampling import format_param_spec
from .scenarios import PRESETS, ScenarioError, load_scenario, preset
from .station import DegenerateBidsError
from .trace import emit_trace, final_rate_texts, format_number
from .ue import BisectionError

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4


def _positive(kind):
    """argparse type: a finite ``kind`` number > 0, else a usage error naming
    the flag."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse says "invalid <type> value"
    return parse


def _scenario_from_args(args) -> Scenario:
    if args.scenario is not None:
        scenario = load_scenario(args.scenario)
    else:
        scenario = preset(args.preset)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.delta is not None:
        overrides["delta"] = args.delta
    if args.iterations is not None:
        overrides["max_iterations"] = args.iterations
    if args.allow_early_stop:
        overrides["allow_early_stop"] = True
    return replace(scenario, **overrides) if overrides else scenario


def _print_summary(result, rate_texts: list[str]) -> None:
    converged = f"converged_at: {result.converged_at}\n" if result.converged_at is not None else ""
    rates = [f"final_rate[{uid}]: {rate}\n" for uid, rate in enumerate(rate_texts, start=1)]
    sys.stdout.write(
        f"stop_reason: {result.stop_reason}\n{converged}iterations: {result.iterations}\n"
        f"final_price: {format_number(result.final_price)}\n" + "".join(rates)
    )


def cmd_run(args) -> int:
    scenario = _scenario_from_args(args)
    result = run(scenario)
    if args.output is None:
        rate_texts = final_rate_texts(result)
    else:  # the trace's final rates, formatted once for the file and stdout
        rate_texts = emit_trace(result, args.output)
        print(f"trace written to {args.output}")
    _print_summary(result, rate_texts)
    return EXIT_OK


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    utilities = []
    for i, spec in enumerate(scenario.users):
        try:
            utilities.append(spec.initial_utility(scenario.capacity))
        except SpecError as exc:  # the reference is the optimum of one fixed set of parameters
            param = format_param_spec(getattr(spec, exc.field))
            raise ScenarioError(
                f"{args.scenario}: field 'users[{i}].{exc.field}': verify needs fixed parameters, got {param}"
            ) from exc
    try:
        reference = centralized_argmax(utilities, scenario.capacity, args.step)
    except GridStepError as exc:
        raise ScenarioError(f"--step: {exc}") from exc
    result = run(scenario)

    uids = sorted(reference)
    rates = [result.final_rates[uid] for uid in uids]
    refs = [reference[uid] for uid in uids]
    diffs = [abs(got - want) for got, want in zip(rates, refs)]
    for uid, got, want, diff in zip(uids, rates, refs, diffs):
        print(
            f"user {uid}: auction={format_number(got)} "
            f"reference={format_number(want)} |diff|={format_number(diff)}"
        )
    obj_run = log_objective(utilities, rates)
    obj_ref = log_objective(utilities, refs)
    print(
        f"log-objective: auction={format_number(obj_run)} "
        f"reference={format_number(obj_ref)} gap={format_number(abs(obj_run - obj_ref))}"
    )
    print(f"max rate discrepancy: {format_number(max(diffs))}")
    return EXIT_OK


def cmd_replicate(args) -> int:
    scenario = preset(args.preset)
    out_dir = Path(args.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
    seeds = list(range(args.seeds))
    results = run_replication(scenario, seeds)
    for seed, result in zip(seeds, results):
        path = out_dir / f"{args.preset}-seed{seed}.csv"
        emit_trace(result, path)
        print(
            f"seed {seed}: {result.stop_reason} after {result.iterations} "
            f"iterations -> {path}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rateauction",
        description="Shadow-price auction simulator for a shared rate budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and emit its trace")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="path to a scenario JSON file")
    src.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--output", help="write the trace table to this path")
    p_run.add_argument("--delta", type=float, help="override the convergence threshold")
    p_run.add_argument("--iterations", type=int, help="override the iteration cap")
    p_run.add_argument(
        "--allow-early-stop",
        action="store_true",
        help="stop at convergence even for stochastic scenarios",
    )
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser(
        "verify", help="compare the auction against the brute-force reference"
    )
    p_verify.add_argument("--scenario", required=True, help="scenario JSON (max 3 users)")
    p_verify.add_argument("--step", type=_positive(float), required=True, help="reference grid step")
    p_verify.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("replicate", help="run a preset under seeds 0..n-1")
    p_rep.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p_rep.add_argument("--seeds", type=_positive(int), required=True, help="number of seeds")
    p_rep.add_argument("--output-dir", required=True, help="directory for trace files")
    p_rep.set_defaults(func=cmd_replicate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except (BisectionError, SimulationError, DegenerateBidsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
