"""Split conformal prediction over decision sequences.

A whole multi-robot plan is one calibration example: its nonconformity score
is one minus the lowest per-iteration confidence of the labeled decision. The
empirical quantile of M such scores thresholds the per-iteration local
prediction sets at test time; the Cartesian product of the local sets equals
the brute-force sequence-level set (see ProductSet). So a plan is in the set
exactly when its lowest step score is above 1 - quantile, and a labeled
plan's coverage is one comparison of its record's scores.

Conventions, kept exactly:
  * quantile = the ceil((M+1)(1-alpha))-th smallest calibration score; when
    that index exceeds M the quantile is the FULL-SET sentinel, whose
    threshold is -inf, so prediction sets are all of the decision space
    (coverage holds trivially);
  * set membership uses the strict inequality score > 1 - quantile, so a
    degenerate all-perfect calibration (quantile 0) can produce empty sets;
    planners treat an empty local set like a non-singleton (help path).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from .context import Context
from .errors import BudgetError, ConfigError, InfeasibleAlphaError
from .scenario import (
    DistributionParams,
    LabelResult,
    Scenario,
    anchor_decision,
    decision_index,
    decision_space,
    label_sequence,
    label_sequences,
    sample_scenario,
)
from .world import check_schema_version, from_data


def sequence_ncs(step_scores) -> float:
    """Nonconformity of a labeled sequence: 1 - min over its step scores."""
    scores = list(step_scores)
    if not scores:
        raise ValueError("need at least one step score")
    return 1.0 - min(scores)


@dataclass(frozen=True)
class Quantile:
    """Calibrated threshold; `value` is None for the FULL-SET sentinel."""

    value: float | None
    n_calibration: int
    alpha: float

    @property
    def full_set(self) -> bool:
        return self.value is None

    @property
    def threshold(self) -> float:
        """Scores strictly above this enter the prediction set."""
        if self.value is None:
            return -math.inf
        return 1.0 - self.value


def quantile_index(m: int, alpha: float) -> int:
    """ceil((m+1)(1-alpha)) with a tolerance for float noise on exact integers."""
    return math.ceil((m + 1) * (1.0 - alpha) - 1e-9)


def min_calibration_size(alpha: float) -> int:
    """Smallest M whose quantile index stays within the calibration set:
    `quantile_index(m, alpha) <= m` is monotone in m, so doubling and then
    bisection find it in O(log 1/alpha) steps. (The closed form
    (1 - alpha) / alpha is off by float rounding: by 28 at alpha = 1e-9.)"""
    lo, hi = 0, 1  # the index exceeds lo (or lo is 0) and stays within hi
    while quantile_index(hi, alpha) > hi:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if quantile_index(mid, alpha) > mid:
            lo = mid
        else:
            hi = mid
    return hi


def conformal_quantile(ncs_values, alpha: float) -> Quantile:
    """Empirical conformal quantile of the calibration nonconformity scores.

    Sorts ascending and returns the ceil((M+1)(1-alpha))-th smallest value
    (duplicates count by position). Returns the FULL-SET sentinel when the
    index exceeds M, which happens exactly when M < min_calibration_size(alpha).
    """
    values = [float(v) for v in ncs_values]
    m = len(values)
    if m < 1:
        raise ValueError("need at least one calibration score")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    j = quantile_index(m, alpha)
    if j > m:
        return Quantile(None, m, alpha)
    return Quantile(sorted(values)[j - 1], m, alpha)


@dataclass(frozen=True)
class PredictionSet:
    """Decisions whose score clears the threshold, as decision-space indices."""

    indices: tuple[int, ...]
    full_set: bool = False

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def is_singleton(self) -> bool:
        return len(self.indices) == 1

    def __contains__(self, index: int) -> bool:
        return index in self.indices


def local_prediction_set(scores, quantile: Quantile) -> PredictionSet:
    """Per-iteration prediction set {d : g(d) > 1 - q}. Under the FULL-SET
    sentinel the threshold is -inf, so every decision is in the set."""
    threshold = quantile.threshold
    return PredictionSet(
        tuple(i for i, s in enumerate(scores) if s > threshold), quantile.full_set
    )


def global_prediction_set(tables, quantile: Quantile, budget: int = 250_000):
    """Brute-force sequence-level set: all plans whose min step score clears
    the threshold. Reference implementation used to check the product set."""
    tables = [tuple(tab) for tab in tables]
    if not tables:
        raise ValueError("need at least one step table")
    size = len(tables[0])
    if any(len(tab) != size for tab in tables):
        raise ValueError("step tables must share one decision space")
    if size ** len(tables) > budget:
        raise BudgetError(
            f"{size}^{len(tables)} plans exceed the enumeration budget {budget}"
        )
    thr = quantile.threshold
    return frozenset(
        plan
        for plan in product(range(size), repeat=len(tables))
        if min(tables[k][i] for k, i in enumerate(plan)) > thr
    )


@dataclass(frozen=True)
class ProductSet:
    """Lazy Cartesian product of local sets; plan membership costs O(T)."""

    local_sets: tuple[PredictionSet, ...]

    def __contains__(self, plan_indices) -> bool:
        plan = tuple(plan_indices)
        if len(plan) != len(self.local_sets):
            return False
        return all(i in ps for ps, i in zip(self.local_sets, plan))

    @property
    def cardinality(self) -> int:
        out = 1
        for ps in self.local_sets:
            out *= ps.size
        return out

    def materialize(self, budget: int = 250_000) -> frozenset:
        if self.cardinality > budget:
            raise BudgetError(f"product set of size {self.cardinality} exceeds {budget}")
        return frozenset(product(*(ps.indices for ps in self.local_sets)))


def product_set(local_sets) -> ProductSet:
    return ProductSet(tuple(local_sets))


# --- calibration records -------------------------------------------------------

@dataclass(frozen=True)
class CalibrationRecord:
    """One labeled sequence: decisions, and the scorer's normalized score of
    each labeled decision (recalibration at a new alpha reuses these)."""

    scenario_id: str
    space_size: int
    label_mode: str  # "oracle" | "selector"
    search_mode: str  # "exact" | "oracle"
    decisions: tuple[tuple[str, str | None], ...]
    decision_indices: tuple[int, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.decisions) == len(self.decision_indices) == len(self.scores)):
            raise ValueError("record fields must have matching lengths")
        if any(not 0.0 <= s <= 1.0 for s in self.scores):
            raise ValueError("scores must lie in [0, 1]")

    @property
    def ncs(self) -> float:
        return sequence_ncs(self.scores)


def calibrate(records, alpha: float) -> Quantile:
    """Sequence-level calibration: lift each record to its min-score NCS, then
    take the conformal quantile."""
    records = list(records)
    if not records:
        raise ValueError("need at least one calibration record")
    return conformal_quantile([r.ncs for r in records], alpha)


def _record(scenario: Scenario, lr: LabelResult, label_mode: str) -> CalibrationRecord:
    index = decision_index(scenario.env)
    return CalibrationRecord(
        scenario_id=scenario.id,
        space_size=len(decision_space(scenario.env)),
        label_mode=label_mode,
        search_mode=lr.mode,
        decisions=tuple((d.kind, d.target) for d in lr.decisions),
        decision_indices=tuple(index[d] for d in lr.decisions),
        scores=lr.scores,
    )


def score_label_sequence(scenario: Scenario, scorer, label_mode: str = "oracle"):
    """Label one scenario and package it as a CalibrationRecord. Its scores
    also decide a test label's coverage: the label is in the product set
    exactly when its lowest score is above the threshold."""
    lr = label_sequence(scenario, scorer, label_mode=label_mode)
    return _record(scenario, lr, label_mode)


def calibration_records(scenarios, scorer, label_mode: str = "oracle") -> list[CalibrationRecord]:
    """Label a sequence of scenarios as one batch (`label_sequences`) and
    record each one's labeled decisions and their scores."""
    labels = label_sequences(scenarios, scorer, label_mode=label_mode)
    return [_record(s, lr, label_mode) for s, lr in zip(scenarios, labels)]


def build_calibration_set(
    params: DistributionParams,
    m: int,
    scorer,
    label_mode: str = "oracle",
) -> list[CalibrationRecord]:
    """Sample M scenarios i.i.d. (draw indices 0..M-1) and label them as one
    batch (`calibration_records`)."""
    if m < 1:
        raise ValueError("calibration size must be >= 1")
    scenarios = [sample_scenario(params, i) for i in range(m)]
    return calibration_records(scenarios, scorer, label_mode=label_mode)


# --- joint (whole-team) calibration for the centralized baseline ---------------

@dataclass(frozen=True)
class JointCalibrationRecord:
    """Sequence of per-step joint scores of the labeled team decision, where
    the joint score is the product of the robots' per-decision scores."""

    scenario_id: str
    step_scores: tuple[float, ...]

    @property
    def ncs(self) -> float:
        return sequence_ncs(self.step_scores)


def joint_scores(scenario: Scenario, scorer, history, t: int) -> np.ndarray:
    """The team scores of step t as one N-axis array: entry (i_0, ..., i_N-1)
    is the product ((1.0 * a_0) * a_1) * ... of each robot's score of its
    decision i_r against the step-start context of step t (no within-step
    conditioning), taken in robot-index order."""
    rows = (
        scorer.score_all(Context(scenario=scenario, history=history, cursor=(t, robot)))
        for robot in range(scenario.n_robots)
    )
    return reduce(np.multiply.outer, rows, 1.0)


def score_joint_label_sequence(scenario: Scenario, scorer) -> JointCalibrationRecord:
    """Score the canonical labels jointly: a step's score is the labeled
    tuple's entry of `joint_scores`. A scorer that keeps score tables (the
    synthetic ones) reads every step's entry from the scenario's table in
    one pass (`joint_label_scores`), drawing nothing that its calibration
    batch drew; a scorer without tables (the external one) walks the steps
    through `joint_scores`, and that walk is the tests' reference."""
    if hasattr(scorer, "score_tables"):
        (table,) = scorer.score_tables((scenario,))
        return JointCalibrationRecord(scenario.id, table.joint_label_scores())
    index = decision_index(scenario.env)
    history: tuple = ()
    step_scores = []
    for t in range(scenario.horizon):
        labels = tuple(anchor_decision(scenario, t, r) for r in range(scenario.n_robots))
        joint = joint_scores(scenario, scorer, history, t)
        step_scores.append(float(joint[tuple(index[label] for label in labels)]))
        history = history + tuple((t, r, labels[r]) for r in scenario.orders[t])
    return JointCalibrationRecord(scenario_id=scenario.id, step_scores=tuple(step_scores))


# --- dataset-conditional adjustment --------------------------------------------

def beta_quantile(a: int, b: int, delta: float) -> float:
    """Quantile of Beta(a, b) at level delta for positive integer shapes (all
    that split conformal needs), by bisecting the CDF to 1e-10. The CDF is the
    binomial tail I_x(a, b) = P[Binomial(a + b - 1, x) >= a], whose terms are
    taken through logarithms so that none overflows a float."""
    if not all(float(s).is_integer() and s >= 1 for s in (a, b)):
        raise ValueError("beta shape parameters must be positive integers")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    if delta == 0.0:
        return 0.0
    if delta == 1.0:
        return 1.0
    n = int(a + b - 1)
    log_combs = [(j, math.log(math.comb(n, j))) for j in range(int(a), n + 1)]

    def cdf(x: float) -> float:
        lx, l1x = math.log(x), math.log1p(-x)
        return math.fsum(math.exp(c + j * lx + (n - j) * l1x) for j, c in log_combs)

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dataset_conditional_alpha(m: int, delta: float, target_coverage: float) -> float:
    """Adjusted miscoverage level for coverage that holds for one fixed
    calibration set with confidence 1 - delta.

    Feasibility is certified in the smallest adjustment cell v = 1 (that is,
    floor((M+1) alpha) = 1), whose Beta(M, 1) coverage bound delta**(1/M) is
    the largest available; the returned level is the largest value inside that
    cell, capped at the marginal level 1 - target_coverage. Calibrating at the
    returned level therefore guarantees coverage >= target_coverage with
    probability 1 - delta over the calibration draw.
    """
    if m < 1:
        raise ValueError("calibration size must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if not 0.0 < target_coverage < 1.0:
        raise ValueError("target coverage must be in (0, 1)")
    bound = beta_quantile(m, 1, delta)  # closed form: delta ** (1 / m)
    if bound < target_coverage:
        m_min = math.ceil(math.log(delta) / math.log(target_coverage))
        raise InfeasibleAlphaError(
            f"M={m} cannot certify coverage {target_coverage} at confidence "
            f"{1 - delta}: bound {bound:.6f}; need M >= {m_min}"
        )
    marginal = 1.0 - target_coverage
    cell_top = 2.0 / (m + 1)  # exclusive upper edge of the v = 1 cell
    return min(marginal, cell_top * (1.0 - 1e-9))


# --- persistence ----------------------------------------------------------------

def record_to_dict(record: CalibrationRecord) -> dict:
    return {
        "schema_version": 1,
        "scenario_id": record.scenario_id,
        "space_size": record.space_size,
        "label_mode": record.label_mode,
        "search_mode": record.search_mode,
        "decisions": [
            {"k": k, "kind": kind, "target": target, "index": idx, "score": score}
            for k, ((kind, target), idx, score) in enumerate(
                zip(record.decisions, record.decision_indices, record.scores)
            )
        ],
        "sequence_ncs": record.ncs,
    }


_RECORD_KEYS = {"schema_version", "scenario_id", "space_size", "label_mode", "search_mode",
                "decisions", "sequence_ncs"}
_ENTRY_KEYS = {"k", "kind", "target", "index", "score"}


def record_from_dict(data: dict) -> CalibrationRecord:
    """The record `record_to_dict` wrote, decoded by `from_data`, so a value
    of the wrong type raises TypeError. A key it does not write, a
    `schema_version` other than 1, an entry whose `k` is not its position, or
    a `sequence_ncs` other than 1 minus the lowest score raises ConfigError."""
    check_schema_version(data)
    entries = data["decisions"]
    unknown = set(data).difference(_RECORD_KEYS).union(*(set(e) - _ENTRY_KEYS for e in entries))
    if unknown:
        raise ConfigError(f"calibration record has no field {', '.join(sorted(unknown))}")
    if any(e.get("k", k) != k for k, e in enumerate(entries)):
        raise ConfigError(f"{data['scenario_id']}: decision entries are not numbered 0, 1, ...")
    record = from_data(CalibrationRecord, {
        "scenario_id": data["scenario_id"],
        "space_size": data["space_size"],
        "label_mode": data.get("label_mode", "oracle"),
        "search_mode": data.get("search_mode", "oracle"),
        "decisions": [[e["kind"], e.get("target")] for e in entries],
        "decision_indices": [e["index"] for e in entries],
        "scores": [e["score"] for e in entries],
    })
    ncs = data.get("sequence_ncs", record.ncs)
    if not math.isclose(ncs, record.ncs, rel_tol=0.0, abs_tol=1e-12):
        raise ConfigError(f"{record.scenario_id}: sequence_ncs {ncs} is not {record.ncs}")
    return record


def write_records_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), sort_keys=True))
            fh.write("\n")


def read_records_jsonl(path) -> list[CalibrationRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(record_from_dict(json.loads(line)))
    return records


def quantile_summary(quantile: Quantile, ncs_values) -> dict:
    """Small structured summary of a calibration: level, size, quantile, and a
    ten-bin histogram of the nonconformity scores."""
    values = [float(v) for v in ncs_values]
    counts, edges = np.histogram(values, bins=10, range=(0.0, 1.0))
    return {
        "alpha": quantile.alpha,
        "m": quantile.n_calibration,
        "quantile": "FULL_SET" if quantile.full_set else quantile.value,
        "min_calibration_size": min_calibration_size(quantile.alpha),
        "ncs_histogram": {
            "edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        },
    }
