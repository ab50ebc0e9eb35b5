"""Multi-day runs: build one problem per day, solve the days in turn, and
collect the heuristic and no-storage references.

Days decouple completely because the tank must return to its terminal state
at each midnight, so a 72-hour scenario is exactly three independent 24-hour
problems. The flat target for each day is the previous day's mean no-storage
generation; the first day (or every day, in same-day mode) uses its own mean
and is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cooling import CopModel, StorageSchedule, TesConfig, check_schedule
from .errors import InfeasibleScheduleError, ShapeError
from .optimizer import (
    OptimalSchedule,
    ScheduleProblem,
    SolverOptions,
    generation_profile,
    objective,
    operator_heuristic,
    solve,
)
from .plant import PlantConfig
from .scenario import HOURS_PER_DAY, Scenario, no_storage_baseline, split_days


@dataclass(frozen=True)
class DayResult:
    day: int
    problem: ScheduleProblem
    optimal: OptimalSchedule
    heuristic_generation: np.ndarray
    no_storage_generation: np.ndarray
    p_mean: float
    p_mean_mode: str        # "previous-day" or "same-day"


def build_problems(scenario: Scenario,
                   plant: PlantConfig,
                   cop_model: CopModel,
                   tes: TesConfig,
                   p_mean_mode: str = "previous-day") -> list[tuple[ScheduleProblem, str]]:
    """One ScheduleProblem per day with its flat-target provenance flag."""
    if p_mean_mode not in ("previous-day", "same-day"):
        raise ValueError(f"unknown p_mean mode {p_mean_mode!r}")
    days = split_days(scenario)
    day_means = []
    for day in days:
        g = no_storage_baseline(day, cop_model, plant, tes)
        day_means.append(float(np.mean(g)))

    problems = []
    for k, day in enumerate(days):
        if p_mean_mode == "previous-day" and k > 0:
            target, mode = day_means[k - 1], "previous-day"
        else:
            target, mode = day_means[k], "same-day"
        problems.append((
            ScheduleProblem(
                p_base=day.p_base, q_cool=day.q_cool, twb=day.twb,
                p_mean=target, tes=tes, cop_model=cop_model),
            mode,
        ))
    return problems


def _day_results(problems: list[tuple[ScheduleProblem, str]],
                 schedules: list[OptimalSchedule]) -> list[DayResult]:
    """Pair each day's schedule with the generation of the operator heuristic
    it carries and of the idle tank."""
    out = []
    for k, ((problem, mode), optimal) in enumerate(zip(problems, schedules)):
        out.append(DayResult(
            day=k, problem=problem, optimal=optimal,
            heuristic_generation=generation_profile(optimal.heuristic.q_stor, problem),
            no_storage_generation=generation_profile(np.zeros(problem.horizon), problem),
            p_mean=problem.p_mean, p_mean_mode=mode,
        ))
    return out


def run_days(scenario: Scenario,
             plant: PlantConfig,
             cop_model: CopModel,
             tes: TesConfig,
             opts: SolverOptions = SolverOptions(),
             p_mean_mode: str = "previous-day") -> list[DayResult]:
    """Solve every day of the scenario, one after the other."""
    problems = build_problems(scenario, plant, cop_model, tes, p_mean_mode)
    return _day_results(problems, [solve(p, opts) for p, _ in problems])


def evaluate_fixed_schedule(scenario: Scenario,
                            q_stor: np.ndarray,
                            plant: PlantConfig,
                            cop_model: CopModel,
                            tes: TesConfig,
                            p_mean_mode: str = "previous-day") -> list[DayResult]:
    """Like run_days but with a given schedule instead of an optimized one.

    Raises InfeasibleScheduleError, naming the day, when the schedule breaks
    a rate, tank or terminal-state limit.
    """
    q = np.asarray(q_stor, dtype=float)
    if q.shape != (len(scenario),):
        raise ShapeError(
            f"schedule length {q.shape} does not match scenario length {len(scenario)}")
    problems = build_problems(scenario, plant, cop_model, tes, p_mean_mode)
    fixed = []
    for k, (problem, _) in enumerate(problems):
        day_q = q[k * HOURS_PER_DAY:(k + 1) * HOURS_PER_DAY]
        schedule = StorageSchedule.from_rates(day_q, tes)
        violations = check_schedule(schedule, tes)
        if violations:
            raise InfeasibleScheduleError(
                f"day {k}: fixed schedule infeasible: "
                + "; ".join(str(v) for v in violations))
        generation = generation_profile(day_q, problem)
        fixed.append(OptimalSchedule(
            schedule=schedule, objective=objective(day_q, problem),
            p_ch=generation - problem.p_base, generation=generation,
            iterations=0, converged=True, message="fixed schedule",
            heuristic=operator_heuristic(problem),
        ))
    return _day_results(problems, fixed)
