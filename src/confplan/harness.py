"""Experiment orchestration: Monte Carlo coverage validation, distributed vs
centralized comparisons, and the fixed-calibration (dataset-conditional) mode.

The three experiments share one shape. `_calibrate_draws` samples the
calibration draws, labels them once as one batch and calibrates at each
alpha's level; the kernel, `_trial_row`, labels one test draw and, for each
distinct calibrated threshold, checks coverage, plans, validates and records
a cell per planner, which every alpha at that threshold shares;
`_run_trials` runs the kernel over the trials (coverage adds the resumable
checkpoint and worker processes); `_aggregate` folds the rows into Metrics.
The experiments differ only in their calibration draws (fresh at
trial * (M + 1) per trial, or 0..M-1 once for dataset-conditional), in each
alpha's calibration level (alpha itself, or `dataset_conditional_alpha`),
and in whether the centralized planner runs (compare, with oracle labels and
W = 0).

All randomness is keyed by (seed, draw index), so trial i's results do not
depend on which other trials run, and synthetic scores are pure in (seed,
scenario id, k), so one calibration serves every alpha. Timing is reported on
stderr only; metrics files are a pure function of the serialized experiment
configuration, so an experiment refuses the interactive-user help policy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from .conformal import (
    calibrate,
    calibration_records,
    dataset_conditional_alpha,
    score_joint_label_sequence,
    score_label_sequence,
)
from .errors import ConfigError
from .planner import (
    CENTRALIZED,
    DISTRIBUTED,
    INTERACTIVE_USER,
    ORACLE_USER,
    PlannerConfig,
    plan_centralized,
    plan_distributed,
    search_feasible_provider,
)
from .scenario import (
    DistributionParams,
    decision_space,
    sample_scenario,
    validate_params,
    validate_scenario_plan,
)
from .scoring import ScorerSpec, build_scorer, scorer_spec_to_dict
from .world import dump_json, from_data, to_data


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a coverage/comparison run depends on; fully serializable."""

    params: DistributionParams
    scorer: ScorerSpec
    alphas: tuple[float, ...] = (0.05, 0.10, 0.20)
    m_calibration: int = 30
    n_trials: int = 200
    reorder_bound: int = 0
    help_policy: str = ORACLE_USER
    label_mode: str = "oracle"  # "oracle" (unique-solution) or "selector"
    master_seed: int | None = None
    centralized_budget: int = 4096

    def validate(self) -> None:
        validate_params(self.params)
        self.scorer.validate()
        if self.master_seed is not None and not (
            isinstance(self.master_seed, int) and self.master_seed >= 0
        ):
            raise ConfigError(f"master_seed must be None or an int >= 0, got {self.master_seed!r}")
        if self.n_trials < 1 or self.m_calibration < 1:
            raise ConfigError("n_trials and m_calibration must be >= 1")
        if not self.alphas:
            raise ConfigError("need at least one alpha")
        for alpha in self.alphas:
            if not 0.0 < alpha < 1.0:
                raise ConfigError(f"alpha {alpha} outside (0, 1)")
        if len({f"{alpha:g}" for alpha in self.alphas}) < len(self.alphas):
            # trial rows key each alpha's result by f"{alpha:g}"
            raise ConfigError(f"alphas {list(self.alphas)} repeat at 6 significant digits")
        if self.label_mode not in ("oracle", "selector"):
            raise ConfigError(f"unknown label mode {self.label_mode!r}")
        if self.help_policy == INTERACTIVE_USER:
            raise ConfigError("experiments take no interactive-user help policy")
        self.planner_config().validate()

    def planner_config(self) -> PlannerConfig:
        """The planners' settings; every trial plans under them."""
        return PlannerConfig(
            reorder_bound=self.reorder_bound,
            help_policy=self.help_policy,
            centralized_budget=self.centralized_budget,
        )

    def effective(self) -> tuple[DistributionParams, ScorerSpec]:
        """Apply the master seed to the scenario and scorer streams."""
        if self.master_seed is None:
            return self.params, self.scorer
        return (
            replace(self.params, rng_seed=self.master_seed),
            replace(self.scorer, rng_seed=self.master_seed + 1),
        )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {**to_data(cfg), "schema_version": 1, "scorer": scorer_spec_to_dict(cfg.scorer)}


def config_from_dict(data: dict) -> ExperimentConfig:
    cfg = from_data(ExperimentConfig, data)
    cfg.validate()
    return cfg


@dataclass
class Metrics:
    """Aggregated rates for one (alpha, planner mode) cell."""

    alpha: float
    mode: str
    trials: int
    coverage: float
    coverage_se: float
    success_rate: float
    success_se: float
    singleton_rate: float
    help_rate: float
    mean_set_size: float
    p50_set_size: float
    p90_set_size: float
    scorer_calls: int
    n_decisions: int
    extra: dict = field(default_factory=dict)


CSV_COLUMNS = [f.name for f in fields(Metrics) if f.name != "extra"]


def _binomial_se(p: float, n: int) -> float:
    if n <= 0:
        return 0.0
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _hist_percentile(hist: dict[int, int], q: float) -> float:
    total = sum(hist.values())
    if total == 0:
        return 0.0
    target = q * total
    cum = 0
    for size in sorted(hist):
        cum += hist[size]
        if cum >= target:
            return float(size)
    return float(max(hist))


def _cell(alpha: float, mode: str, rows: list[dict]) -> Metrics:
    """One (alpha, mode) cell from its trial rows. Every set statistic is read
    off the rows' merged set-size histogram: each decision is one set, and
    each set that is not a singleton is a help slot."""
    hist: dict[int, int] = {}
    for row in rows:
        for size, count in row["set_hist"].items():
            hist[int(size)] = hist.get(int(size), 0) + count
    n = len(rows)
    decisions = sum(hist.values())
    singletons = hist.get(1, 0)
    set_sum = sum(size * count for size, count in hist.items())
    coverage = sum(bool(r["covered"]) for r in rows) / n
    success = sum(bool(r["success"]) for r in rows) / n
    return Metrics(
        alpha=alpha,
        mode=mode,
        trials=n,
        coverage=coverage,
        coverage_se=_binomial_se(coverage, n),
        success_rate=success,
        success_se=_binomial_se(success, n),
        singleton_rate=singletons / decisions if decisions else 0.0,
        help_rate=(decisions - singletons) / decisions if decisions else 0.0,
        mean_set_size=set_sum / decisions if decisions else 0.0,
        p50_set_size=_hist_percentile(hist, 0.5),
        p90_set_size=_hist_percentile(hist, 0.9),
        scorer_calls=sum(r["scorer_calls"] for r in rows),
        n_decisions=decisions,
        extra={
            "coverage_le_success": all(r["success"] or not r["covered"] for r in rows),
            "full_set_trials": sum(bool(r.get("full_set", False)) for r in rows),
        },
    )


def _trace_row(trace, covered: bool, success: bool) -> dict:
    return {
        "covered": covered,
        "success": success,
        "n_user_help": trace.n_user_help,
        "n_reorder": trace.n_reorder,
        "coverage_misses": trace.coverage_misses,
        "set_hist": {str(k): v for k, v in trace.set_size_histogram().items()},
        "scorer_calls": trace.scorer_calls,
        "full_set": trace.quantile.full_set,
    }


def _calibrate_draws(cfg: ExperimentConfig, params, scorer, draws, levels, joint=False):
    """Sample the calibration draws and label them once, as one batch, then
    calibrate at each level: one (quantile, joint quantile or None) per
    level. With `joint`, the canonical labels are also scored jointly for the
    centralized planner."""
    scenarios = [sample_scenario(params, draw) for draw in draws]
    records = calibration_records(scenarios, scorer, label_mode=cfg.label_mode)
    joint_records = [score_joint_label_sequence(s, scorer) for s in scenarios] if joint else None
    return [
        (calibrate(records, level), calibrate(joint_records, level) if joint else None)
        for level in levels
    ]


def _trial_row(cfg: ExperimentConfig, scorer, quantiles, trial: int, test) -> dict:
    """The experiment kernel: label the test draw once, then for each distinct
    calibrated threshold pair (distributed, joint or None) check coverage,
    plan, validate and record a cell per planner ("alphas" for the
    distributed one), and give those cells to every alpha that calibrated to
    the pair. A plan and its cells depend on the quantile only through its
    threshold (-inf under the FULL-SET sentinel), so alphas that share a
    level, or all fall to the sentinel, share one plan. The label is in the
    product of the local sets exactly when its lowest score is above the
    threshold. With a joint quantile the centralized planner runs too
    ("centralized"), and each planner's call-count law is asserted exactly
    when its plan ran to the end."""
    test_record = score_label_sequence(test, scorer, label_mode=cfg.label_mode)
    provider = search_feasible_provider(test) if cfg.label_mode == "selector" else None
    pcfg = cfg.planner_config()
    keys = [
        (quantile.threshold, None if q_joint is None else q_joint.threshold)
        for quantile, q_joint in quantiles
    ]
    cells: dict[tuple, dict] = {}
    for key, (quantile, q_joint) in zip(keys, quantiles):
        if key in cells:
            continue
        covered = min(test_record.scores) > quantile.threshold
        trace_d = plan_distributed(test, scorer, quantile, pcfg, feasible_provider=provider)
        plans = {"alphas": trace_d}
        if q_joint is not None:
            trace_c = plan_centralized(test, scorer, q_joint, pcfg)
            size = len(decision_space(test.env))
            expected_d = test.n_robots * size * test.horizon
            expected_c = (size**test.n_robots) * test.horizon
            if not trace_d.failed and trace_d.scorer_calls != expected_d:
                raise RuntimeError(
                    f"distributed call-count law violated: {trace_d.scorer_calls} != {expected_d}"
                )
            if not trace_c.failed and trace_c.scorer_calls != expected_c:
                raise RuntimeError(
                    f"centralized call-count law violated: {trace_c.scorer_calls} != {expected_c}"
                )
            plans["centralized"] = trace_c
        cells[key] = {}
        for planner, trace in plans.items():
            success = (not trace.failed) and validate_scenario_plan(test, trace.plan).complete
            cells[key][planner] = _trace_row(trace, covered, success)
    row = {"trial": trial, "test_scenario": test.id}
    for alpha, key in zip(cfg.alphas, keys):
        for planner, cell in cells[key].items():
            row.setdefault(planner, {})[f"{alpha:g}"] = cell
    return row


def _fresh_calibration_trial(cfg: ExperimentConfig, joint: bool, trial: int) -> dict:
    """One marginal trial: a fresh scorer and calibration set at draws
    trial * (M + 1) .. trial * (M + 1) + M - 1, and the test draw after them."""
    params, scorer_spec = cfg.effective()
    scorer = build_scorer(scorer_spec)
    base = trial * (cfg.m_calibration + 1)
    draws = range(base, base + cfg.m_calibration)
    quantiles = _calibrate_draws(cfg, params, scorer, draws, cfg.alphas, joint)
    test = sample_scenario(params, base + cfg.m_calibration)
    return _trial_row(cfg, scorer, quantiles, trial, test)


def _config_stamp(cfg: ExperimentConfig) -> str:
    """sha256 of the serialized config without n_trials, so a run extended to
    more trials still resumes from its checkpoint."""
    data = config_to_dict(cfg)
    del data["n_trials"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def _load_checkpoint(path: Path, stamp: str) -> dict[int, dict]:
    """Completed trial rows of a checkpoint, each of which must carry `stamp`.
    A torn last line (a run killed mid-write) is cut off the file, and a
    missing final newline restored, so the rows appended next start on a line
    of their own; a corrupt line anywhere else raises, and so does a row of
    another config (ConfigError)."""
    rows: dict[int, dict] = {}
    if not path.exists():
        return rows
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    offset = 0
    for i, line in enumerate(lines):
        if line.strip():
            try:
                row = json.loads(line)
            except ValueError:
                if any(rest.strip() for rest in lines[i + 1 :]):
                    raise
                with open(path, "r+b") as fh:
                    fh.truncate(offset)
                return rows
            if row.pop("config_sha256", None) != stamp:
                raise ConfigError(
                    f"{path} holds trials of another experiment config; "
                    "use a fresh output directory"
                )
            rows[int(row["trial"])] = row
        offset += len(line)
    if data and not data.endswith(b"\n"):
        with open(path, "ab") as fh:
            fh.write(b"\n")
    return rows


def _run_trials(trial, cfg: ExperimentConfig, checkpoint_dir=None, jobs: int = 1) -> list[dict]:
    """Rows of trial(0) .. trial(n_trials - 1), in trial order.

    With `checkpoint_dir`, rows stream to trials.jsonl there, stamped with the
    config, and the trials already in it are not run again. With jobs > 1 the
    trials run in worker processes (`trial` must then be picklable)."""
    rows: dict[int, dict] = {}
    sink = None
    with ExitStack() as stack:
        if checkpoint_dir is not None:
            checkpoint_dir = Path(checkpoint_dir)
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
            checkpoint = checkpoint_dir / "trials.jsonl"
            stamp = _config_stamp(cfg)
            rows = _load_checkpoint(checkpoint, stamp)
            sink = stack.enter_context(open(checkpoint, "a", encoding="utf-8"))
        pending = [t for t in range(cfg.n_trials) if t not in rows]
        run = map
        if jobs > 1 and pending:
            # imported here: it loads multiprocessing, which no serial run needs
            from concurrent.futures import ProcessPoolExecutor

            run = stack.enter_context(ProcessPoolExecutor(max_workers=jobs)).map
        for row in run(trial, pending):
            rows[row["trial"]] = row
            if sink:
                sink.write(json.dumps({**row, "config_sha256": stamp}, sort_keys=True) + "\n")
                sink.flush()
    return [rows[t] for t in range(cfg.n_trials)]


def _aggregate(rows: list[dict], alphas, modes: dict[str, str]) -> list[Metrics]:
    """One Metrics per (alpha, mode), alphas in the given order; `modes` maps
    each planner's key in the rows to the mode name its cells report."""
    return [
        _cell(alpha, mode, [row[planner][f"{alpha:g}"] for row in rows])
        for alpha in alphas
        for planner, mode in modes.items()
    ]


def _report(cfg, metrics, detail: dict, out_dir, stem: str, log, started: float) -> dict:
    """Log the run's wall time, write the metrics files when `out_dir` is set,
    and return {"metrics": ..., **detail}."""
    if log:
        log(f"{stem}: {cfg.n_trials} trials in {time.monotonic() - started:.1f}s\n")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_metrics(metrics, out_dir, cfg, detail, stem)
    return {"metrics": metrics, **detail}


def run_coverage_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    jobs: int = 1,
    log=None,
) -> dict:
    """Marginal-coverage experiment: fresh calibration per trial.

    Returns {"metrics": [Metrics per alpha], "trials": [per-trial rows]}.
    When `out_dir` is set, partial results stream to trials.jsonl (resumable
    under the same config; a checkpoint of another config raises ConfigError)
    and the aggregate lands in coverage.json / coverage.csv.
    """
    cfg.validate()
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    started = time.monotonic()
    trials = _run_trials(partial(_fresh_calibration_trial, cfg, False), cfg, out_dir, jobs)
    metrics = _aggregate(trials, cfg.alphas, {"alphas": DISTRIBUTED})
    result = _report(cfg, metrics, {"mode": "marginal"}, out_dir, "coverage", log, started)
    return {**result, "trials": trials}


def run_comparison(cfg: ExperimentConfig, out_dir: str | Path | None = None, log=None) -> dict:
    """Run both planners on identical scenarios, calibrations, and scorer
    seeds; assert the call-count laws exactly and report help rates side by
    side (reported, never asserted). Labels are always oracle labels and the
    reorder bound is always 0, whatever the config says: the distributed
    call-count law counts no reorders, and the centralized planner has only
    canonical joint labels."""
    cfg.validate()
    started = time.monotonic()
    forced = replace(cfg, label_mode="oracle", reorder_bound=0)
    rows = _run_trials(partial(_fresh_calibration_trial, forced, True), forced)
    modes = {"alphas": DISTRIBUTED, "centralized": CENTRALIZED}
    metrics = sorted(_aggregate(rows, cfg.alphas, modes), key=lambda m: (m.alpha, m.mode))
    return _report(cfg, metrics, {"mode": "comparison"}, out_dir, "compare", log, started)


def run_dataset_conditional(
    cfg: ExperimentConfig,
    delta: float,
    out_dir: str | Path | None = None,
    log=None,
) -> dict:
    """Fixed-calibration mode: calibrate once on draws 0..M-1, then evaluate
    coverage over n_trials fresh test draws, each alpha at its adjusted level.

    Each test draw gets a fresh scorer, as a marginal trial does: a scorer
    keeps every table it draws, so one scorer for the whole run would keep
    every test draw alive to its end. A scorer's scores do not depend on what
    it scored before, and each planner counts its own queries
    (`PlanTrace.scorer_calls`), so the rows are the same either way."""
    cfg.validate()
    started = time.monotonic()
    params, scorer_spec = cfg.effective()
    targets = [1.0 - alpha for alpha in cfg.alphas]
    levels = [dataset_conditional_alpha(cfg.m_calibration, delta, t) for t in targets]
    quantiles = _calibrate_draws(
        cfg, params, build_scorer(scorer_spec), range(cfg.m_calibration), levels
    )

    def trial(i: int) -> dict:
        test = sample_scenario(params, cfg.m_calibration + i)
        return _trial_row(cfg, build_scorer(scorer_spec), quantiles, i, test)

    rows = _run_trials(trial, cfg)
    metrics = _aggregate(rows, cfg.alphas, {"alphas": "dataset-conditional"})
    for m, target, adjusted in zip(metrics, targets, levels):
        m.extra.update(
            {
                "delta": delta,
                "target_coverage": target,
                "alpha_adjusted": adjusted,
                "meets_target": m.coverage >= target - 3 * _binomial_se(target, cfg.n_trials),
            }
        )
    detail = {"mode": "dataset-conditional", "delta": delta}
    return _report(cfg, metrics, detail, out_dir, "dataset_conditional", log, started)


# --- output -----------------------------------------------------------------------

def write_metrics(metrics, out_dir: Path, cfg: ExperimentConfig, detail: dict, stem: str):
    out_dir = Path(out_dir)
    with open(out_dir / f"{stem}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for m in metrics:
            writer.writerow({col: getattr(m, col) for col in CSV_COLUMNS})
    payload = {
        "config": config_to_dict(cfg),
        "detail": detail,
        "metrics": [to_data(m) for m in metrics],
    }
    dump_json(payload, out_dir / f"{stem}.json")
