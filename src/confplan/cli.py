"""Command-line interface.

Subcommands: gen-scenarios, calibrate, plan, coverage, compare,
dataset-conditional. Exit codes: 0 ok, 1 planning failure, 2 configuration
error, 3 transport error, 4 budget error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import conformal, harness, planner, scenario as scn, scoring, world
from .errors import (
    BudgetError,
    ConfigError,
    ConfplanError,
    PlanningAborted,
    TransportError,
)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read(load, path: str):
    """`load(path)`, with a document of the wrong shape (a list where a
    mapping belongs, a number where a pair does, a missing field) reported as
    a config error instead of escaping as a program error."""
    try:
        return load(path)
    except (TypeError, IndexError, AttributeError) as exc:
        raise ConfigError(f"malformed document {path}: {exc}") from exc


def _load_params(args) -> scn.DistributionParams:
    if args.params:
        params = _read(lambda p: scn.params_from_dict(_load_json(p)), args.params)
    else:
        params = scn.default_distribution_params()
    if args.seed is not None:
        params = replace(params, rng_seed=args.seed)
    return params


def _load_scorer_spec(args) -> scoring.ScorerSpec:
    text = args.scorer or "noisy-oracle"
    if text.endswith(".json"):
        spec = _read(lambda p: scoring.scorer_spec_from_dict(_load_json(p)), text)
    else:
        spec = _read(scoring.parse_scorer_spec, text)
    if args.seed is not None:
        spec = replace(spec, rng_seed=args.seed + 1)
    return spec


def _load_config(args) -> harness.ExperimentConfig:
    cfg = _read(lambda p: harness.config_from_dict(_load_json(p)), args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.alpha:
        overrides["alphas"] = tuple(args.alpha)
    if args.scorer:
        overrides["scorer"] = _load_scorer_spec(args)
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    return replace(cfg, **overrides) if overrides else cfg


def cmd_gen_scenarios(args) -> int:
    if args.count < 1:
        # every reader refuses a file that holds no scenario
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    if args.start < 0:
        # draw indices key the scenarios' seeds, which are nonnegative
        raise ConfigError(f"--start must be >= 0, got {args.start}")
    params = _load_params(args)
    scenarios = [scn.sample_scenario(params, args.start + i) for i in range(args.count)]
    out = Path(args.out or "scenarios.json")
    scn.write_scenarios(scenarios, out)
    sizes = {len(scn.decision_space(s.env)) for s in scenarios}
    sys.stderr.write(
        f"wrote {len(scenarios)} scenarios to {out} (decision-space sizes: "
        f"{sorted(sizes)})\n"
    )
    return 0


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:  # NaN fails both comparisons
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")


def cmd_calibrate(args) -> int:
    _check_alpha(args.alpha)  # before any scenario is labeled, each label costing scorer calls
    spec = _load_scorer_spec(args)
    scorer = scoring.build_scorer(spec)
    if args.scenarios:
        if args.m is not None:
            raise ConfigError("--m sizes a sampled set; --scenarios calibrates on the whole file")
        scenarios = _read(scn.read_scenarios, args.scenarios)
        records = conformal.calibration_records(scenarios, scorer, label_mode=args.label_mode)
    else:
        m = 30 if args.m is None else args.m
        records = conformal.build_calibration_set(
            _load_params(args), m, scorer, label_mode=args.label_mode
        )
    quantile = conformal.calibrate(records, args.alpha)
    out_dir = Path(args.out or "calibration")
    out_dir.mkdir(parents=True, exist_ok=True)
    conformal.write_records_jsonl(records, out_dir / "calibration.jsonl")
    summary = conformal.quantile_summary(quantile, [r.ncs for r in records])
    world.dump_json(summary, out_dir / "quantile.json")
    if quantile.full_set:
        need = conformal.min_calibration_size(args.alpha)
        sys.stderr.write(
            f"warning: M={quantile.n_calibration} is below the minimal calibration "
            f"size {need} for alpha={args.alpha}; the quantile is the FULL-SET "
            f"sentinel and every prediction set is the whole decision space\n"
        )
    sys.stderr.write(f"calibrated {len(records)} records -> {out_dir}\n")
    return 0


def _quantile_for_plan(args) -> conformal.Quantile | None:
    """The plan mode's quantile; argmax mode needs none and refuses one. An
    option that the mode never reads is refused too."""
    _check_alpha(args.alpha)
    if args.mode != planner.DISTRIBUTED and (args.feasible == "search" or args.reorders):
        raise ConfigError(f"{args.mode} mode takes no --feasible search or --reorders")
    if args.mode == planner.ARGMAX:
        if args.quantile is not None or args.calibration or args.help_policy != planner.ORACLE_USER:
            raise ConfigError("argmax mode takes no --quantile, --calibration or --help-policy")
        return None
    if args.quantile is not None and args.calibration:
        raise ConfigError("plan takes --quantile or --calibration, not both")
    if args.quantile is not None:
        if not 0.0 <= args.quantile <= 1.0:  # NaN fails both comparisons
            raise ConfigError(f"quantile must be in [0, 1], got {args.quantile}")
        return conformal.Quantile(args.quantile, 0, args.alpha)
    if args.calibration:
        records = _read(conformal.read_records_jsonl, args.calibration)
        return conformal.calibrate(records, args.alpha)
    raise ConfigError("plan needs --calibration or --quantile (except argmax mode)")


def cmd_plan(args) -> int:
    scenarios = _read(scn.read_scenarios, args.scenario)
    if not scenarios:
        raise ConfigError(f"{args.scenario} holds no scenario")
    scenario = scenarios[0]
    spec = _load_scorer_spec(args)
    scorer = scoring.build_scorer(spec)
    pcfg = planner.PlannerConfig(reorder_bound=args.reorders, help_policy=args.help_policy)
    quantile = _quantile_for_plan(args)
    if args.mode == planner.ARGMAX:
        trace = planner.plan_argmax(scenario, scorer)
    elif args.mode == planner.CENTRALIZED:
        if args.calibration:
            sys.stderr.write(
                "warning: reusing a sequence-level quantile for joint sets; the "
                "result is not a calibrated joint guarantee\n"
            )
        trace = planner.plan_centralized(scenario, scorer, quantile, pcfg)
    else:
        provider = None
        if args.feasible == "search":
            provider = planner.search_feasible_provider(scenario)
        trace = planner.plan_distributed(
            scenario, scorer, quantile, pcfg, feasible_provider=provider
        )
    result = scn.validate_scenario_plan(scenario, trace.plan)
    payload = planner.trace_to_dict(trace)
    payload["validation"] = {
        "complete": result.complete,
        "steps_used": result.steps_used,
        "reason": result.reason,
    }
    out = Path(args.out or "trace.json")
    world.dump_json(payload, out)
    sys.stderr.write(
        f"plan for {scenario.id}: complete={result.complete} "
        f"help={trace.n_user_help} calls={trace.scorer_calls} -> {out}\n"
    )
    return 1 if trace.failed else 0


def cmd_experiment(args) -> int:
    """coverage, compare and dataset-conditional: the harness run named by
    `args.experiment` on the loaded config, with the run's own flags (coverage
    --jobs, dataset-conditional --delta), and its metrics on stdout."""
    cfg = _load_config(args)
    own = {name: getattr(args, name) for name in ("jobs", "delta") if name in args}
    run = getattr(harness, args.experiment)
    metrics = run(cfg, out_dir=args.out, log=sys.stderr.write, **own)["metrics"]
    if args.format == "csv":
        harness.write_csv(metrics, sys.stdout)
    else:
        json.dump([world.to_data(m) for m in metrics], sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confplan",
        description="Conformal multi-robot planning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=None, help="output file or directory")

    p = sub.add_parser("gen-scenarios", help="sample scenarios to a JSON file")
    common(p)
    p.add_argument("--params", help="distribution params JSON file")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--start", type=int, default=0, help="first draw index")
    p.set_defaults(func=cmd_gen_scenarios)

    p = sub.add_parser("calibrate", help="build a calibration set and quantile")
    common(p)
    p.add_argument("--params", help="distribution params JSON file")
    p.add_argument("--scenarios", help="scenario JSON file (instead of sampling)")
    p.add_argument("--m", type=int, default=None, help="sampled calibration size (default 30)")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--scorer", default="noisy-oracle")
    p.add_argument("--label-mode", choices=("oracle", "selector"), default="oracle")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("plan", help="plan one scenario and write the trace")
    common(p)
    p.add_argument("--scenario", required=True, help="scenario JSON file (its first scenario)")
    p.add_argument("--calibration", help="calibration JSONL file")
    p.add_argument("--quantile", type=float, default=None, help="explicit quantile in [0, 1]")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--scorer", default="noisy-oracle")
    p.add_argument(
        "--mode",
        choices=(planner.DISTRIBUTED, planner.CENTRALIZED, planner.ARGMAX),
        default=planner.DISTRIBUTED,
    )
    p.add_argument("--reorders", type=int, default=0, help="reorder bound W")
    p.add_argument(
        "--help-policy",
        choices=(planner.ORACLE_USER, planner.FAIL_ON_HELP, planner.INTERACTIVE_USER),
        default=planner.ORACLE_USER,
        help="interactive-user resolves help on the terminal (numbered set with scores)",
    )
    p.add_argument(
        "--feasible",
        choices=("teacher", "search"),
        default="teacher",
        help="feasible-set provider for simulated user help",
    )
    p.set_defaults(func=cmd_plan)

    for name, help_text, experiment in (
        ("coverage", "marginal coverage experiment", "run_coverage_experiment"),
        ("compare", "distributed vs centralized comparison", "run_comparison"),
        ("dataset-conditional", "fixed-calibration coverage experiment", "run_dataset_conditional"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--alpha", type=float, action="append", default=None)
        p.add_argument("--scorer", default=None)
        p.add_argument("--trials", type=int, default=None)
        if name == "coverage":
            p.add_argument("--jobs", type=int, default=1, help="worker count")
        elif name == "dataset-conditional":
            p.add_argument("--delta", type=float, default=0.01)
        p.set_defaults(func=cmd_experiment, experiment=experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlanningAborted as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except TransportError as exc:
        sys.stderr.write(f"transport error: {exc}\n")
        return 3
    except BudgetError as exc:
        sys.stderr.write(f"budget error: {exc}\n")
        return 4
    except (ConfplanError, OSError, KeyError, ValueError) as exc:  # OSError: a bad path
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
