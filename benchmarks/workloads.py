"""The benchmark's workloads: each turns a master seed into one harness call.

Every workload uses the noisy-oracle scorer (beta=4, sigma=1, eps=0.15) and
the alphas (0.05, 0.10, 0.20). The master seed is the only input that varies
between calls; the program sees it only inside the built ExperimentConfig.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from confplan import harness
from confplan.harness import ExperimentConfig
from confplan.scenario import DistributionParams, reference_distribution_params
from confplan.scoring import ScorerSpec

SCORER = ScorerSpec(kind="noisy-oracle", sharpness=4.0, noise=1.0, confusion=0.15)
ALPHAS = (0.05, 0.10, 0.20)

# The criterion-9 profile: one robot, one sub-task, two allowed destinations
# and no containers, so several plans are feasible and the exact search runs.
MULTI_FEASIBLE = DistributionParams(
    n_robots=(1, 1),
    n_subtasks=(1, 1),
    n_objects=(1, 2),
    n_containers=(0, 0),
    n_destinations=(2, 2),
    multi_destination_prob=1.0,
    safety_prob=0.0,
    horizon_slack=1,
)

# Two robots on the reference profile: |S|^N = 28^2 = 784 joint decisions per
# step, under the centralized budget of 4096 (three robots would exceed it).
REFERENCE_TWO_ROBOTS = replace(reference_distribution_params(), n_robots=(2, 2))

DATASET_CONDITIONAL_DELTA = 0.01


@dataclass(frozen=True)
class Call:
    """One harness call: its config, entry point and the metrics file it writes."""

    cfg: ExperimentConfig
    entry: str  # name of the harness function, looked up when the call runs
    stem: str  # the call writes <stem>.json into its output directory
    trials: int  # trials the call completes, as trials_per_s counts them
    kwargs: dict = field(default_factory=dict)

    def run(self, out_dir: Path) -> dict:
        return getattr(harness, self.entry)(self.cfg, out_dir=out_dir, **self.kwargs)


def _coverage_oracle(seed: int) -> Call:
    cfg = ExperimentConfig(
        params=DistributionParams(),
        scorer=SCORER,
        alphas=ALPHAS,
        m_calibration=30,
        n_trials=30,
        reorder_bound=0,
        label_mode="oracle",
        master_seed=seed,
    )
    return Call(cfg, "run_coverage_experiment", "coverage", cfg.n_trials, {"jobs": 1})


def _coverage_selector(seed: int) -> Call:
    cfg = ExperimentConfig(
        params=MULTI_FEASIBLE,
        scorer=SCORER,
        alphas=ALPHAS,
        m_calibration=30,
        n_trials=10,
        reorder_bound=0,
        label_mode="selector",
        master_seed=seed,
    )
    return Call(cfg, "run_coverage_experiment", "coverage", cfg.n_trials, {"jobs": 1})


def _compare_reference(seed: int) -> Call:
    cfg = ExperimentConfig(
        params=REFERENCE_TWO_ROBOTS,
        scorer=SCORER,
        alphas=ALPHAS,
        m_calibration=30,
        n_trials=4,
        master_seed=seed,
    )
    return Call(cfg, "run_comparison", "compare", cfg.n_trials)


def _dataset_conditional(seed: int) -> Call:
    cfg = ExperimentConfig(
        params=reference_distribution_params(),
        scorer=SCORER,
        alphas=ALPHAS,
        m_calibration=99,
        n_trials=25,
        reorder_bound=1,
        master_seed=seed,
    )
    # a trial is one test evaluation at one alpha
    trials = cfg.n_trials * len(cfg.alphas)
    kwargs = {"delta": DATASET_CONDITIONAL_DELTA}
    return Call(cfg, "run_dataset_conditional", "dataset_conditional", trials, kwargs)


WORKLOADS = {
    "coverage-oracle": _coverage_oracle,
    "coverage-selector": _coverage_selector,
    "compare-reference": _compare_reference,
    "dataset-conditional": _dataset_conditional,
}


def build(name: str, master_seed: int) -> Call:
    return WORKLOADS[name](master_seed)
