"""Two-stage utility-proportional-fair rate allocation for a single cell.

Stage one is a distributed bidding protocol between users and the base
station that prices the cell's capacity and fixes per-user rates; stage
two splits each user's rate among its applications. Independent
centralized solvers certify the distributed results.
"""

from .errors import (
    ContractError,
    DomainError,
    NonConvergenceError,
    NuraError,
    ProtocolError,
    SolverError,
    SweepError,
    ValidationError,
)
from .oracle import OracleResult, centralized_solve, grid_search_solve
from .price_response import (
    app_rate_at_price,
    damp_bid,
    user_rate_at_price,
    vip_bid,
)
from .protocol import (
    CaseFlag,
    FirstStageResult,
    ProtocolParams,
    RoundState,
    allocate_internal,
    determine_case,
    run_first_stage,
    trace_records,
)
from .scenario import (
    Epoch,
    RunRecord,
    ScenarioConfig,
    WeightSchedule,
    bundled_scenario_path,
    bundled_schedule_path,
    emit_csv,
    load_scenario,
    load_schedule,
    run_once,
    run_schedule,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    sweep_R,
)
from .utility import (
    Application,
    LogarithmicUtility,
    SigmoidalUtility,
    UserClass,
    UserProfile,
)

__version__ = "0.1.0"

__all__ = [
    "Application",
    "CaseFlag",
    "ContractError",
    "DomainError",
    "Epoch",
    "FirstStageResult",
    "LogarithmicUtility",
    "NonConvergenceError",
    "NuraError",
    "OracleResult",
    "ProtocolError",
    "ProtocolParams",
    "RoundState",
    "RunRecord",
    "ScenarioConfig",
    "SigmoidalUtility",
    "SolverError",
    "SweepError",
    "UserClass",
    "UserProfile",
    "ValidationError",
    "WeightSchedule",
    "allocate_internal",
    "app_rate_at_price",
    "bundled_scenario_path",
    "bundled_schedule_path",
    "centralized_solve",
    "damp_bid",
    "determine_case",
    "emit_csv",
    "grid_search_solve",
    "load_scenario",
    "load_schedule",
    "run_first_stage",
    "run_once",
    "run_schedule",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "sweep_R",
    "trace_records",
    "user_rate_at_price",
    "vip_bid",
    "__version__",
]
