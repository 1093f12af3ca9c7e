"""Decentralized EV-charging simulation and controller training toolkit."""

from .controllers import (
    BASELINE_KINDS,
    ControllerParams,
    LearnedController,
    RuleController,
    TRAINABLE_KINDS,
    build_reservoir,
    init_params,
    load_params,
    make_controller,
    save_params,
)
from .data import (
    TravelRecord,
    charging_share_of,
    load_dataset,
    save_dataset,
    split_scenario,
    synth_scenario,
)
from .domain import (
    ChargingRequest,
    Household,
    Scenario,
    SimResult,
    Timebase,
    load_scenario,
    save_scenario,
    slice_scenario,
)
from .errors import (
    ConfigError,
    GridChargeError,
    ParameterError,
    SimulationError,
    ValidationError,
)
from .oracle import OracleResult, optimal_schedule
from .optim import (
    CmaEs,
    OptResult,
    cmaes_minimize,
    minimize_numgrad,
    train_cma,
    train_numgrad,
    tune_smoothing,
)
from .simulator import (
    SimKernel,
    load_changes,
    objective_std,
    result_metrics,
)

__version__ = "0.1.0"

__all__ = [
    "BASELINE_KINDS",
    "ChargingRequest",
    "CmaEs",
    "ConfigError",
    "ControllerParams",
    "GridChargeError",
    "Household",
    "LearnedController",
    "OptResult",
    "OracleResult",
    "ParameterError",
    "RuleController",
    "Scenario",
    "SimKernel",
    "SimResult",
    "SimulationError",
    "Timebase",
    "TRAINABLE_KINDS",
    "TravelRecord",
    "ValidationError",
    "build_reservoir",
    "charging_share_of",
    "cmaes_minimize",
    "init_params",
    "load_changes",
    "load_dataset",
    "load_params",
    "load_scenario",
    "make_controller",
    "minimize_numgrad",
    "objective_std",
    "optimal_schedule",
    "result_metrics",
    "save_dataset",
    "save_params",
    "save_scenario",
    "slice_scenario",
    "split_scenario",
    "synth_scenario",
    "train_cma",
    "train_numgrad",
    "tune_smoothing",
]
