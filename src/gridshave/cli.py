"""Command-line interface.

Subcommands:
    fit       fit a COP model from a sample CSV, write it as a config
    synth     generate a synthetic scenario CSV
    optimize  optimize storage schedules for a scenario, write run outputs
    simulate  evaluate a fixed schedule against a scenario
    report    re-render outputs from an existing run directory

Exit codes: 0 success, 1 validation/usage error, 2 solver non-convergence.
"""

from __future__ import annotations

import argparse
import re
import sys

from .cooling import DEFAULT_COP_MODEL, DEFAULT_TES, CopModel, TesConfig
from .errors import GridShaveError
from .optimizer import SolverOptions
from .plant import DEFAULT_PLANT, PlantConfig
from .regression import fit_cop_model, load_samples
from .report import build_report, load_schedule_csv, rebuild_report, write_run_outputs, \
    write_profile_svg, write_summary
from .run import evaluate_fixed_schedule, run_days
from .scenario import SynthParams, generate_synthetic, load_scenario, write_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NOT_CONVERGED = 2


class _Parser(argparse.ArgumentParser):
    """Parser that exits with code 1 on usage errors (argparse defaults to 2)
    and reads any negative float spelling after a flag (-1e3, -inf, -nan) as
    that flag's value, so the value reaches its own validation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf(inity)?|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _load_configs(args) -> tuple[PlantConfig, CopModel, TesConfig, SolverOptions]:
    plant = PlantConfig.load(args.plant) if args.plant else DEFAULT_PLANT
    cop_model = CopModel.load(args.cop) if args.cop else DEFAULT_COP_MODEL
    tes = TesConfig.load(args.tes) if args.tes else DEFAULT_TES
    opts = SolverOptions.load(args.solver) if getattr(args, "solver", None) \
        else SolverOptions()
    return plant, cop_model, tes, opts


def _add_config_flags(sub, solver=True):
    sub.add_argument("--plant", help="plant config file (defaults used if omitted)")
    sub.add_argument("--cop", help="COP model config file")
    sub.add_argument("--tes", help="thermal storage config file")
    if solver:
        sub.add_argument("--solver", help="solver options config file")


def build_parser() -> _Parser:
    parser = _Parser(prog="gridshave",
                     description="CHP microgrid peak shaving with chilled-water storage")
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="fit a COP model from plr/twb/cop samples")
    p_fit.add_argument("--samples", required=True, help="CSV with header plr,twb_c,cop")
    p_fit.add_argument("--out", required=True, help="output COP config file")
    p_fit.add_argument("--metrics", help="optional metrics text file")
    p_fit.add_argument("--cop-floor", type=float, default=CopModel.cop_floor)

    p_synth = subs.add_parser("synth", help="generate a synthetic scenario")
    p_synth.add_argument("--out", required=True, help="output scenario CSV")
    p_synth.add_argument("--days", type=int, default=3)
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--base-mw", type=float, default=SynthParams.base_level_mw,
                         help="overnight base electric load level")
    p_synth.add_argument("--cool-peak-mw", type=float, default=SynthParams.cool_peak_amp_mw,
                         help="added cooling at the afternoon peak")
    p_synth.add_argument("--noise-mw", type=float, default=SynthParams.noise_mw)

    p_opt = subs.add_parser("optimize", help="optimize storage schedules for a scenario")
    p_opt.add_argument("--scenario", required=True)
    p_opt.add_argument("--out", required=True, help="output run directory")
    _add_config_flags(p_opt)
    p_opt.add_argument("--workers", type=int, default=None,
                       help="ignored: the days are solved one after the other")

    p_sim = subs.add_parser("simulate", help="evaluate a fixed schedule")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--schedule", required=True, help="schedule CSV to evaluate")
    p_sim.add_argument("--out", required=True)
    _add_config_flags(p_sim, solver=False)

    p_rep = subs.add_parser("report", help="re-render outputs from a run directory")
    p_rep.add_argument("--run", required=True, help="run directory with report.csv")
    p_rep.add_argument("--plant", help="plant config file")

    return parser


def _cmd_fit(args) -> int:
    samples = load_samples(args.samples)
    report = fit_cop_model(samples, cop_floor=args.cop_floor)
    report.model.save(args.out, header=f"COP model fit from {args.samples}")
    block = report.metrics_block()
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(block + "\n")
    print(f"wrote {args.out}")
    print(block)
    return EXIT_OK


def _cmd_synth(args) -> int:
    params = SynthParams(days=args.days, base_level_mw=args.base_mw,
                         cool_peak_amp_mw=args.cool_peak_mw, noise_mw=args.noise_mw)
    scenario = generate_synthetic(params, seed=args.seed)
    write_scenario(scenario, args.out)
    print(f"wrote {args.out}: {len(scenario)} hours, seed {args.seed}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    plant, cop_model, tes, opts = _load_configs(args)
    scenario = load_scenario(args.scenario)
    results = run_days(scenario, plant, cop_model, tes, opts)
    report = build_report(scenario, results, plant)
    paths = write_run_outputs(report, args.out)
    for line in report.summary_lines():
        print(line)
    print("wrote " + ", ".join(sorted(paths.values())))
    return EXIT_OK if all(d.optimal.converged for d in results) else EXIT_NOT_CONVERGED


def _cmd_simulate(args) -> int:
    plant, cop_model, tes, _ = _load_configs(args)
    scenario = load_scenario(args.scenario)
    q_stor, e_stor_end = load_schedule_csv(args.schedule, scenario.timestamps)
    results = evaluate_fixed_schedule(scenario, q_stor, plant, cop_model, tes,
                                      e_stor_end=e_stor_end)
    report = build_report(scenario, results, plant)
    paths = write_run_outputs(report, args.out)
    for line in report.summary_lines():
        print(line)
    print("wrote " + ", ".join(sorted(paths.values())))
    return EXIT_OK


def _cmd_report(args) -> int:
    import os

    plant = PlantConfig.load(args.plant) if args.plant else DEFAULT_PLANT
    report = rebuild_report(args.run, plant)
    write_profile_svg(report, os.path.join(args.run, "profile.svg"))
    write_summary(report, os.path.join(args.run, "summary.txt"))
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "synth": _cmd_synth,
    "optimize": _cmd_optimize,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except GridShaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
