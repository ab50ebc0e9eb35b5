"""Multi-day runs: build one problem per day, solve the days in turn, and
collect the heuristic and no-storage references.

Days decouple completely because the tank must return to its terminal state
at each midnight, so a 72-hour scenario is exactly three independent 24-hour
problems. The flat target for each day is the previous day's mean no-storage
generation; the first day uses its own mean and is flagged "same-day".
"""

from __future__ import annotations

from array import array

from .configio import Record
from .cooling import CopModel, StorageSchedule, TesConfig, check_schedule
from .errors import InfeasibleScheduleError, ShapeError
from .optimizer import (
    OptimalSchedule,
    ScheduleProblem,
    SolverOptions,
    _chiller_pass,
    flatness,
    operator_heuristic,
    solve,
)
from .plant import PlantConfig
from .scenario import HOURS_PER_DAY, Scenario, no_storage_baseline, split_days


class DayTarget(Record):
    """Where a day's flat target came from: the day's no-storage generation
    and whether the target is the mean of this day's or the previous day's."""
    no_storage: array
    mode: str               # "previous-day" or "same-day"


class DayResult(Record):
    """One day of a run: its problem (which holds the flat target p_mean),
    where that target came from, and the schedule evaluated, which carries
    the generation under the operator heuristic. The list position is the
    day's index."""
    problem: ScheduleProblem
    target: DayTarget
    optimal: OptimalSchedule


def build_problems(scenario: Scenario,
                   plant: PlantConfig,
                   cop_model: CopModel,
                   tes: TesConfig) -> list[tuple[ScheduleProblem, DayTarget]]:
    """One ScheduleProblem per day with the provenance of its flat target."""
    days = split_days(scenario)
    no_storage = [no_storage_baseline(day, cop_model, plant, tes) for day in days]
    day_means = [sum(g) / len(g) for g in no_storage]

    problems = []
    for k, day in enumerate(days):
        target, mode = (day_means[k - 1], "previous-day") if k else (day_means[0], "same-day")
        problems.append((
            ScheduleProblem(
                p_base=day.p_base, q_cool=day.q_cool, twb=day.twb,
                p_mean=target, tes=tes, cop_model=cop_model),
            DayTarget(no_storage=no_storage[k], mode=mode),
        ))
    return problems


def run_days(scenario: Scenario,
             plant: PlantConfig,
             cop_model: CopModel,
             tes: TesConfig,
             opts: SolverOptions = SolverOptions()) -> list[DayResult]:
    """Solve every day of the scenario, one after the other."""
    return [DayResult(problem, target, solve(problem, opts))
            for problem, target in build_problems(scenario, plant, cop_model, tes)]


def evaluate_fixed_schedule(scenario: Scenario,
                            q_stor,
                            plant: PlantConfig,
                            cop_model: CopModel,
                            tes: TesConfig,
                            e_stor_end=None) -> list[DayResult]:
    """Like run_days but with a given schedule instead of an optimized one.

    `e_stor_end`, if given, is the stored energy after each hour as the
    schedule states it; the limits are then checked on it, so a stated
    trajectory off the recursion of the rates is a `trajectory` violation.
    Raises InfeasibleScheduleError, naming the day and its first violation
    in `check_schedule`'s order, when the schedule breaks a trajectory, rate,
    tank or terminal-state limit.
    """
    q = array("d", q_stor)
    if len(q) != len(scenario):
        raise ShapeError(
            f"schedule length {len(q)} does not match scenario length {len(scenario)}")
    if e_stor_end is not None and len(e_stor_end) != len(q):
        raise ShapeError(
            f"schedule has {len(q)} rates but {len(e_stor_end)} stored-energy values")
    fixed = []
    for k, (problem, target) in enumerate(build_problems(scenario, plant, cop_model, tes)):
        hours = slice(k * HOURS_PER_DAY, (k + 1) * HOURS_PER_DAY)
        day_q = q[hours]
        schedule = StorageSchedule.from_rates(day_q, tes)
        stated = schedule if e_stor_end is None else StorageSchedule(
            day_q, [tes.e_initial, *e_stor_end[hours]])
        violations = check_schedule(stated, tes)
        if violations:
            more = f"; and {len(violations) - 1} more" if len(violations) > 1 else ""
            raise InfeasibleScheduleError(
                f"day {k}: fixed schedule infeasible: {violations[0]}{more}")
        p_ch, generation = _chiller_pass(day_q, problem)
        fixed.append(DayResult(problem, target, OptimalSchedule(
            schedule=schedule, objective=flatness(generation, problem.p_mean),
            p_ch=p_ch, generation=generation,
            iterations=0, converged=True, message="fixed schedule",
            heuristic_generation=_chiller_pass(operator_heuristic(problem).q_stor, problem)[1],
        )))
    return fixed
