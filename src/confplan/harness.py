"""Experiment orchestration: Monte Carlo coverage validation, distributed vs
centralized comparisons, and the fixed-calibration (dataset-conditional) mode.

Marginal mode (the default) samples a fresh calibration set for every trial,
matching the marginal coverage statement; dataset-conditional mode calibrates
once at an adjusted level and evaluates many fresh tests against it. All
randomness is keyed by (seed, draw index), so trial i's results do not depend
on which other trials run (checkpoint/resume and parallel workers are safe).

Timing is reported on stderr only; metrics files are a pure function of the
serialized experiment configuration.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from .conformal import (
    calibrate,
    dataset_conditional_alpha,
    local_prediction_set,
    product_set,
    score_joint_label_sequence,
    score_label_sequence,
)
from .errors import ConfigError
from .planner import (
    CENTRALIZED,
    DISTRIBUTED,
    ORACLE_USER,
    PlannerConfig,
    plan_centralized,
    plan_distributed,
    search_feasible_provider,
    teacher_feasible_provider,
)
from .scenario import (
    DistributionParams,
    decision_space,
    params_from_dict,
    params_to_dict,
    sample_scenario,
    validate_scenario_plan,
)
from .scoring import (
    ScorerSpec,
    build_scorer,
    scorer_spec_from_dict,
    scorer_spec_to_dict,
)


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
        if self.n_trials < 1 or self.m_calibration < 1:
            raise ConfigError("n_trials and m_calibration must be >= 1")
        if not self.alphas:
            raise ConfigError("need at least one alpha")
        for alpha in self.alphas:
            if not 0.0 < alpha < 1.0:
                raise ConfigError(f"alpha {alpha} outside (0, 1)")
        if self.label_mode not in ("oracle", "selector"):
            raise ConfigError(f"unknown label mode {self.label_mode!r}")

    def effective(self) -> tuple[DistributionParams, ScorerSpec]:
        """Apply the master seed to the scenario and scorer streams."""
        if self.master_seed is None:
            return self.params, self.scorer
        return (
            replace(self.params, rng_seed=self.master_seed),
            replace(self.scorer, rng_seed=self.master_seed + 1),
        )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "schema_version": 1,
        "params": params_to_dict(cfg.params),
        "scorer": scorer_spec_to_dict(cfg.scorer),
        "alphas": list(cfg.alphas),
        "m_calibration": cfg.m_calibration,
        "n_trials": cfg.n_trials,
        "reorder_bound": cfg.reorder_bound,
        "help_policy": cfg.help_policy,
        "label_mode": cfg.label_mode,
        "master_seed": cfg.master_seed,
        "centralized_budget": cfg.centralized_budget,
    }


def config_from_dict(data: dict) -> ExperimentConfig:
    cfg = ExperimentConfig(
        params=params_from_dict(data["params"]),
        scorer=scorer_spec_from_dict(data["scorer"]),
        alphas=tuple(float(a) for a in data.get("alphas", (0.05, 0.10, 0.20))),
        m_calibration=int(data.get("m_calibration", 30)),
        n_trials=int(data.get("n_trials", 200)),
        reorder_bound=int(data.get("reorder_bound", 0)),
        help_policy=data.get("help_policy", ORACLE_USER),
        label_mode=data.get("label_mode", "oracle"),
        master_seed=data.get("master_seed"),
        centralized_budget=int(data.get("centralized_budget", 4096)),
    )
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


CSV_COLUMNS = [
    "alpha",
    "mode",
    "trials",
    "coverage",
    "coverage_se",
    "success_rate",
    "success_se",
    "singleton_rate",
    "help_rate",
    "mean_set_size",
    "p50_set_size",
    "p90_set_size",
    "scorer_calls",
    "n_decisions",
]


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


class _CellAccumulator:
    def __init__(self, alpha: float, mode: str):
        self.alpha = alpha
        self.mode = mode
        self.trials = 0
        self.covered = 0
        self.success = 0
        self.singleton = 0
        self.help_slots = 0
        self.decisions = 0
        self.set_sum = 0
        self.set_hist: dict[int, int] = {}
        self.calls = 0
        self.coverage_implies_success = True
        self.full_set_trials = 0

    def add(self, row: dict) -> None:
        self.trials += 1
        self.covered += bool(row["covered"])
        self.success += bool(row["success"])
        self.singleton += row["n_singleton"]
        self.help_slots += row["n_help_slots"]
        self.decisions += row["n_sets"]
        self.calls += row["scorer_calls"]
        self.full_set_trials += bool(row.get("full_set", False))
        for size, count in row["set_hist"].items():
            size = int(size)
            self.set_hist[size] = self.set_hist.get(size, 0) + count
            self.set_sum += size * count
        if row["covered"] and not row["success"]:
            self.coverage_implies_success = False

    def metrics(self) -> Metrics:
        n = self.trials
        coverage = self.covered / n if n else 0.0
        success = self.success / n if n else 0.0
        return Metrics(
            alpha=self.alpha,
            mode=self.mode,
            trials=n,
            coverage=coverage,
            coverage_se=_binomial_se(coverage, n),
            success_rate=success,
            success_se=_binomial_se(success, n),
            singleton_rate=self.singleton / self.decisions if self.decisions else 0.0,
            help_rate=self.help_slots / self.decisions if self.decisions else 0.0,
            mean_set_size=self.set_sum / self.decisions if self.decisions else 0.0,
            p50_set_size=_hist_percentile(self.set_hist, 0.5),
            p90_set_size=_hist_percentile(self.set_hist, 0.9),
            scorer_calls=self.calls,
            n_decisions=self.decisions,
            extra={
                "coverage_le_success": self.coverage_implies_success,
                "full_set_trials": self.full_set_trials,
            },
        )


def _trace_row(trace, covered: bool, success: bool, full_set: bool) -> dict:
    return {
        "covered": covered,
        "success": success,
        "n_sets": trace.n_sets,
        "n_singleton": trace.n_singleton,
        "n_help_slots": trace.n_sets - trace.n_singleton,
        "n_user_help": trace.n_user_help,
        "n_reorder": trace.n_reorder,
        "coverage_misses": trace.coverage_misses,
        "set_hist": {str(k): v for k, v in trace.set_size_histogram().items()},
        "scorer_calls": trace.scorer_calls,
        "full_set": full_set,
    }


def _coverage_trial(cfg: ExperimentConfig, trial: int) -> dict:
    params, scorer_spec = cfg.effective()
    base = trial * (cfg.m_calibration + 1)
    scorer = build_scorer(scorer_spec)
    records = []
    for i in range(cfg.m_calibration):
        s = sample_scenario(params, base + i)
        record, _ = score_label_sequence(s, scorer, label_mode=cfg.label_mode)
        records.append(record)
    test = sample_scenario(params, base + cfg.m_calibration)
    test_record, test_labels = score_label_sequence(
        test, scorer, label_mode=cfg.label_mode
    )
    if cfg.label_mode == "selector":
        provider = search_feasible_provider(test)
    else:
        provider = teacher_feasible_provider(test)
    out = {"trial": trial, "test_scenario": test.id, "alphas": {}}
    for alpha in cfg.alphas:
        quantile = calibrate(records, alpha)
        local_sets = [local_prediction_set(vec, quantile) for vec in test_labels.vectors]
        covered = tuple(test_record.decision_indices) in product_set(local_sets)
        pcfg = PlannerConfig(
            mode=DISTRIBUTED,
            alpha=alpha,
            reorder_bound=cfg.reorder_bound,
            help_policy=cfg.help_policy,
        )
        trace = plan_distributed(test, scorer, quantile, pcfg, feasible_provider=provider)
        success = (not trace.failed) and validate_scenario_plan(test, trace.plan).complete
        out["alphas"][f"{alpha:g}"] = _trace_row(trace, covered, success, quantile.full_set)
    return out


def _load_checkpoint(path: Path) -> dict[int, dict]:
    """Completed trial rows of a checkpoint. A torn last line (a run killed
    mid-write) is cut off the file, and a missing final newline restored, so
    the rows appended next start on a line of their own; a corrupt line
    anywhere else raises."""
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
            rows[int(row["trial"])] = row
        offset += len(line)
    if data and not data.endswith(b"\n"):
        with open(path, "ab") as fh:
            fh.write(b"\n")
    return rows


def run_coverage_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    jobs: int = 1,
    log=None,
) -> dict:
    """Marginal-coverage experiment: fresh calibration per trial.

    Returns {"metrics": [Metrics per alpha], "trials": [per-trial rows]}.
    When `out_dir` is set, partial results stream to trials.jsonl (resumable)
    and the aggregate lands in coverage.json / coverage.csv.
    """
    cfg.validate()
    started = time.monotonic()
    rows: dict[int, dict] = {}
    checkpoint = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        checkpoint = out_dir / "trials.jsonl"
        rows = _load_checkpoint(checkpoint)
    pending = [t for t in range(cfg.n_trials) if t not in rows]
    sink = open(checkpoint, "a", encoding="utf-8") if checkpoint else None
    try:
        if jobs > 1 and pending:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for row in pool.map(_coverage_trial, [cfg] * len(pending), pending):
                    rows[row["trial"]] = row
                    if sink:
                        sink.write(json.dumps(row, sort_keys=True) + "\n")
                        sink.flush()
        else:
            for trial in pending:
                row = _coverage_trial(cfg, trial)
                rows[trial] = row
                if sink:
                    sink.write(json.dumps(row, sort_keys=True) + "\n")
                    sink.flush()
    finally:
        if sink:
            sink.close()
    ordered = [rows[t] for t in sorted(rows) if t < cfg.n_trials]
    cells = {alpha: _CellAccumulator(alpha, DISTRIBUTED) for alpha in cfg.alphas}
    for row in ordered:
        for alpha in cfg.alphas:
            cells[alpha].add(row["alphas"][f"{alpha:g}"])
    metrics = [cells[alpha].metrics() for alpha in cfg.alphas]
    if log:
        log(f"coverage: {len(ordered)} trials in {time.monotonic() - started:.1f}s\n")
    result = {"metrics": metrics, "trials": ordered, "mode": "marginal"}
    if out_dir is not None:
        write_metrics(metrics, out_dir, cfg, detail={"mode": "marginal"})
    return result


# --- distributed vs centralized ------------------------------------------------

def run_comparison(cfg: ExperimentConfig, out_dir: str | Path | None = None, log=None) -> dict:
    """Run both planners on identical scenarios, calibrations, and scorer
    seeds; assert the call-count laws exactly and report help rates side by
    side (reported, never asserted)."""
    cfg.validate()
    params, scorer_spec = cfg.effective()
    cells: dict[tuple[float, str], _CellAccumulator] = {}
    for alpha in cfg.alphas:
        cells[(alpha, DISTRIBUTED)] = _CellAccumulator(alpha, DISTRIBUTED)
        cells[(alpha, CENTRALIZED)] = _CellAccumulator(alpha, CENTRALIZED)
    for trial in range(cfg.n_trials):
        base = trial * (cfg.m_calibration + 1)
        scorer = build_scorer(scorer_spec)
        dist_records = []
        joint_records = []
        for i in range(cfg.m_calibration):
            s = sample_scenario(params, base + i)
            record, _ = score_label_sequence(s, scorer, label_mode="oracle")
            dist_records.append(record)
            joint_records.append(score_joint_label_sequence(s, scorer))
        test = sample_scenario(params, base + cfg.m_calibration)
        test_record, test_labels = score_label_sequence(test, scorer, label_mode="oracle")
        n, horizon = test.n_robots, test.horizon
        size = len(decision_space(test.env))
        for alpha in cfg.alphas:
            q_dist = calibrate(dist_records, alpha)
            q_joint = calibrate(joint_records, alpha)
            pcfg = PlannerConfig(
                mode=DISTRIBUTED,
                alpha=alpha,
                reorder_bound=0,
                help_policy=cfg.help_policy,
                centralized_budget=cfg.centralized_budget,
            )
            trace_d = plan_distributed(
                test, scorer, q_dist, pcfg, feasible_provider=teacher_feasible_provider(test)
            )
            trace_c = plan_centralized(test, scorer, q_joint, replace(pcfg, mode=CENTRALIZED))
            expected_d = n * size * horizon
            expected_c = (size**n) * horizon
            if trace_d.scorer_calls != expected_d:
                raise RuntimeError(
                    f"distributed call-count law violated: {trace_d.scorer_calls} != {expected_d}"
                )
            if not trace_c.failed and trace_c.scorer_calls != expected_c:
                raise RuntimeError(
                    f"centralized call-count law violated: {trace_c.scorer_calls} != {expected_c}"
                )
            sets_d = [local_prediction_set(vec, q_dist) for vec in test_labels.vectors]
            covered = tuple(test_record.decision_indices) in product_set(sets_d)
            success_d = (not trace_d.failed) and validate_scenario_plan(test, trace_d.plan).complete
            success_c = (not trace_c.failed) and validate_scenario_plan(test, trace_c.plan).complete
            cells[(alpha, DISTRIBUTED)].add(
                _trace_row(trace_d, covered, success_d, q_dist.full_set)
            )
            cells[(alpha, CENTRALIZED)].add(
                _trace_row(trace_c, covered, success_c, q_joint.full_set)
            )
    metrics = [cells[key].metrics() for key in sorted(cells, key=lambda k: (k[0], k[1]))]
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_metrics(metrics, out_dir, cfg, detail={"mode": "comparison"}, stem="compare")
    return {"metrics": metrics, "mode": "comparison"}


# --- dataset-conditional mode ----------------------------------------------------

def run_dataset_conditional(
    cfg: ExperimentConfig,
    delta: float,
    out_dir: str | Path | None = None,
    log=None,
) -> dict:
    """Fixed-calibration mode: calibrate once at the adjusted level, then
    evaluate coverage over n_trials fresh test scenarios."""
    cfg.validate()
    params, scorer_spec = cfg.effective()
    metrics = []
    for alpha in cfg.alphas:
        target = 1.0 - alpha
        adjusted = dataset_conditional_alpha(cfg.m_calibration, delta, target)
        scorer = build_scorer(scorer_spec)
        records = []
        for i in range(cfg.m_calibration):
            s = sample_scenario(params, i)
            record, _ = score_label_sequence(s, scorer, label_mode=cfg.label_mode)
            records.append(record)
        quantile = calibrate(records, adjusted)
        cell = _CellAccumulator(alpha, "dataset-conditional")
        for i in range(cfg.n_trials):
            test = sample_scenario(params, cfg.m_calibration + i)
            test_record, test_labels = score_label_sequence(
                test, scorer, label_mode=cfg.label_mode
            )
            local_sets = [
                local_prediction_set(vec, quantile) for vec in test_labels.vectors
            ]
            covered = tuple(test_record.decision_indices) in product_set(local_sets)
            if cfg.label_mode == "selector":
                provider = search_feasible_provider(test)
            else:
                provider = teacher_feasible_provider(test)
            pcfg = PlannerConfig(
                mode=DISTRIBUTED,
                alpha=adjusted,
                reorder_bound=cfg.reorder_bound,
                help_policy=cfg.help_policy,
            )
            trace = plan_distributed(
                test, scorer, quantile, pcfg, feasible_provider=provider
            )
            success = (not trace.failed) and validate_scenario_plan(test, trace.plan).complete
            cell.add(_trace_row(trace, covered, success, quantile.full_set))
        m = cell.metrics()
        m.extra.update(
            {
                "delta": delta,
                "target_coverage": target,
                "alpha_adjusted": adjusted,
                "meets_target": m.coverage >= target - 3 * _binomial_se(target, cfg.n_trials),
            }
        )
        metrics.append(m)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_metrics(
            metrics,
            out_dir,
            cfg,
            detail={"mode": "dataset-conditional", "delta": delta},
            stem="dataset_conditional",
        )
    return {"metrics": metrics, "mode": "dataset-conditional", "delta": delta}


# --- output -----------------------------------------------------------------------

def metrics_to_dict(m: Metrics) -> dict:
    data = {col: getattr(m, col) for col in CSV_COLUMNS}
    data["extra"] = m.extra
    return data


def write_metrics(metrics, out_dir: Path, cfg: ExperimentConfig, detail=None, stem="coverage"):
    out_dir = Path(out_dir)
    with open(out_dir / f"{stem}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for m in metrics:
            writer.writerow({col: getattr(m, col) for col in CSV_COLUMNS})
    payload = {
        "config": config_to_dict(cfg),
        "detail": detail or {},
        "metrics": [metrics_to_dict(m) for m in metrics],
    }
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
