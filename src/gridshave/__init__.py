"""gridshave: peak shaving for an islanded CHP campus microgrid.

Models a district cooling plant with chilled-water storage that draws on a
combined-cycle CHP plant, and optimizes hourly storage schedules to flatten
the generation profile and keep it under the combined-cycle threshold, above
which the less efficient peaking unit must run.
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
    solve,
)
from .plant import (
    DEFAULT_PLANT,
    FuelSavings,
    PlantConfig,
    fuel_savings,
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
    "CopModel",
    "DEFAULT_COP_MODEL",
    "DEFAULT_PLANT",
    "DEFAULT_TES",
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
    "run_days",
    "solve",
    "split_days",
    "storage_trajectory",
    "write_run_outputs",
    "write_scenario",
]
