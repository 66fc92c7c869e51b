"""Shadow-price auction simulator for a shared rate budget.

A base station repeatedly broadcasts a shadow price, user equipments
answer with bids derived from their own utility-optimal rates, and the
settled bids determine a proportionally fair allocation that favors
real-time (sigmoidal-utility) applications while guaranteeing every
delay-tolerant (logarithmic-utility) user a positive rate.
"""

from .engine import (
    STOP_CONVERGED,
    STOP_ITERATION_CAP,
    LogarithmicUserSpec,
    RunResult,
    Scenario,
    SigmoidalUserSpec,
    SimulationError,
    TraceRecord,
    run,
    run_replication,
)
from .oracle import (
    BudgetExceededError,
    centralized_argmax,
    log_objective,
    subproblem_argmax,
)
from .sampling import (
    Fixed,
    Normal,
    Triangular,
    format_param_spec,
    parse_param_spec,
    resample_user,
    sample,
    stream_rng,
)
from .scenarios import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    preset,
    save_scenario,
    scenario_to_json,
)
from .station import BidLedger, DegenerateBidsError
from .trace import emit_trace, render_trace
from .ue import BisectionError, solve_rate, ue_step
from .utility import (
    LogarithmicUtility,
    RateDomainError,
    SigmoidalUtility,
)

__version__ = "0.1.0"
