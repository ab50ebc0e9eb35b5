"""gridshave: peak shaving for an islanded CHP campus microgrid.

Models a combined-cycle plant (gas turbine + steam turbine + peaking steam
turbine) coupled to a district cooling plant with chilled-water storage, and
optimizes hourly storage schedules to flatten the generation profile.
"""

from .cooling import (
    DEFAULT_COP_MODEL,
    DEFAULT_TES,
    CopModel,
    StorageSchedule,
    TesConfig,
    check_schedule,
    chiller_power,
    cop,
    storage_trajectory,
)
from .errors import GridShaveError
from .optimizer import (
    OptimalSchedule,
    ScheduleProblem,
    SolverOptions,
    dp_oracle,
    gradient,
    hessian_diagonal,
    objective,
    operator_heuristic,
    p_mean,
    solve,
)
from .plant import (
    DEFAULT_PLANT,
    ChpDispatch,
    EfficiencyCurve,
    FuelSavings,
    PlantConfig,
    dispatch_hour,
    fuel_savings,
    peaking_power,
    verify_balance,
)
from .regression import FitReport, SampleSet, cvrmse, fit_cop_model, mbe
from .report import RunReport, build_report, write_run_outputs
from .run import run_days
from .scenario import (
    Scenario,
    SynthParams,
    generate_synthetic,
    load_scenario,
    no_storage_baseline,
    split_days,
    write_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "ChpDispatch",
    "CopModel",
    "DEFAULT_COP_MODEL",
    "DEFAULT_PLANT",
    "DEFAULT_TES",
    "EfficiencyCurve",
    "FitReport",
    "FuelSavings",
    "GridShaveError",
    "OptimalSchedule",
    "PlantConfig",
    "RunReport",
    "SampleSet",
    "Scenario",
    "ScheduleProblem",
    "SolverOptions",
    "StorageSchedule",
    "SynthParams",
    "TesConfig",
    "build_report",
    "check_schedule",
    "chiller_power",
    "cop",
    "cvrmse",
    "dispatch_hour",
    "dp_oracle",
    "fit_cop_model",
    "fuel_savings",
    "generate_synthetic",
    "gradient",
    "hessian_diagonal",
    "load_scenario",
    "mbe",
    "no_storage_baseline",
    "objective",
    "operator_heuristic",
    "p_mean",
    "peaking_power",
    "run_days",
    "solve",
    "split_days",
    "storage_trajectory",
    "verify_balance",
    "write_run_outputs",
    "write_scenario",
]
