"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The statistical criteria use fixed seeds; every tolerance is pinned
here, none are calibrated after the fact.
"""

import dataclasses
import math
import time
from itertools import product

import numpy as np
import pytest

from confplan.conformal import (
    Quantile,
    beta_quantile,
    calibrate,
    conformal_quantile,
    dataset_conditional_alpha,
    global_prediction_set,
    local_prediction_set,
    product_set,
    quantile_index,
    score_joint_label_sequence,
    score_label_sequence,
)
from confplan.context import advance, initial_context
from confplan.harness import ExperimentConfig, run_coverage_experiment, run_dataset_conditional
from confplan.planner import (
    ORACLE_USER,
    PlannerConfig,
    plan_centralized,
    plan_distributed,
)
from confplan.scenario import (
    DistributionParams,
    decision_index,
    decision_space,
    default_distribution_params,
    flat_to_plan,
    label_sequence,
    oracle_plan,
    reference_distribution_params,
    sample_scenario,
    validate_scenario_plan,
)
from confplan.scoring import CallCounter, ScoreVector, ScorerSpec, build_scorer
from confplan.world import IDLE_DECISION


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


ACCEPTANCE_SCORER = ScorerSpec(
    kind="noisy-oracle", sharpness=4.0, noise=1.0, confusion=0.15, rng_seed=1
)

COVERAGE_CONFIG = ExperimentConfig(
    params=default_distribution_params(2026),
    scorer=ACCEPTANCE_SCORER,
    alphas=(0.05, 0.10, 0.20),
    m_calibration=30,
    n_trials=500,
)


@pytest.fixture(scope="module")
def coverage_result():
    started = time.monotonic()
    result = run_coverage_experiment(COVERAGE_CONFIG)
    result["elapsed"] = time.monotonic() - started
    return result


def _coverage_bound(alpha: float, trials: int) -> float:
    return (1.0 - alpha) - 3.0 * math.sqrt(alpha * (1.0 - alpha) / trials)


def test_criterion_1_marginal_coverage(coverage_result):
    details = []
    ok = True
    for m in coverage_result["metrics"]:
        bound = _coverage_bound(m.alpha, m.trials)
        ok = ok and m.coverage >= bound
        details.append(f"alpha={m.alpha}: {m.coverage:.4f} >= {bound:.4f}")
    details.append(f"{coverage_result['elapsed']:.0f}s for R=500")
    _report("marginal-coverage", ok, "; ".join(details))


def test_criterion_2_success_dominates_coverage(coverage_result):
    details = []
    ok = True
    for m in coverage_result["metrics"]:
        ok = ok and m.success_rate >= m.coverage and m.extra["coverage_le_success"]
        details.append(
            f"alpha={m.alpha}: success {m.success_rate:.4f} >= coverage {m.coverage:.4f}"
        )
    _report("success-dominates-coverage", ok, "; ".join(details))


def test_criterion_3_product_set_equivalence():
    rng = np.random.default_rng(7)
    started = time.monotonic()
    checked = 0
    for _ in range(200):
        size = int(rng.integers(2, 6))  # |S| <= 5
        steps = int(rng.integers(1, 5))  # T <= 4
        tables = [tuple(float(x) for x in rng.random(size)) for _ in range(steps)]
        quantile = Quantile(float(rng.random()), 10, 0.1)
        brute = global_prediction_set(tables, quantile)
        locals_ = [local_prediction_set(t, quantile) for t in tables]
        assert brute == product_set(locals_).materialize()
        checked += 1
    elapsed = time.monotonic() - started
    _report(
        "product-set-equivalence",
        checked == 200 and elapsed < 10.0,
        f"{checked} random instances identical in {elapsed:.2f}s",
    )


def test_criterion_4_quantile_order_statistic():
    rng = np.random.default_rng(11)
    started = time.monotonic()
    sentinel_seen = below_seen = 0
    for _ in range(1000):
        m = int(rng.integers(1, 60))
        values = rng.random(m)
        while len(set(values.tolist())) != m:  # no ties
            values = rng.random(m)
        alpha = float(rng.uniform(0.01, 0.6))
        j = quantile_index(m, alpha)
        q = conformal_quantile(values, alpha)
        if j > m:
            assert q.full_set
            sentinel_seen += 1
        else:
            assert not q.full_set
            assert sum(1 for v in values if v < q.value) == j - 1
            below_seen += 1
    elapsed = time.monotonic() - started
    _report(
        "quantile-order-statistic",
        sentinel_seen > 0 and below_seen > 0 and elapsed < 1.0,
        f"1000 lists ({sentinel_seen} sentinel, {below_seen} in-range) in {elapsed:.3f}s",
    )


def _nine_decision_params(n_robots: int) -> DistributionParams:
    return DistributionParams(
        n_robots=(n_robots, n_robots),
        n_subtasks=(0, 0),
        n_objects=(2, 2),
        n_containers=(1, 1),
        n_destinations=(1, 1),
        enclosure_prob=0.0,
        safety_prob=0.0,
        horizon_slack=3,
        rng_seed=606,
    )


class _AmbiguousLastScorer:
    """Uniform scores exactly once: at the last position of step 0."""

    def __init__(self, scenario):
        self.counter = CallCounter()
        schedule = scenario.schedule
        n = scenario.n_robots
        self._trigger = (n - 1, schedule.order_at(0)[n - 1])

    def score_all(self, ctx, space, count=True):
        if count:
            self.counter.add(len(space))
        if (ctx.k, ctx.cursor[1]) == self._trigger:
            scores = tuple(1.0 / len(space) for _ in space)
        else:
            from confplan.scenario import anchor_decision

            idx = decision_index(ctx.scenario.env)[
                anchor_decision(ctx.scenario, *ctx.cursor)
            ]
            rest = 0.1 / (len(space) - 1)
            scores = tuple(0.9 if i == idx else rest for i in range(len(space)))
        return ScoreVector(raw=scores, scores=scores)


def test_criterion_5_call_count_laws():
    details = []
    ok = True
    for n in (1, 2):
        scenario = sample_scenario(_nine_decision_params(n), 0)
        size = len(decision_space(scenario.env))
        assert size == 9 and scenario.horizon == 3
        scorer = build_scorer(dataclasses.replace(ACCEPTANCE_SCORER, rng_seed=5))
        quantile = Quantile(0.5, 20, 0.1)
        cfg = PlannerConfig(reorder_bound=0, help_policy=ORACLE_USER)
        dist = plan_distributed(scenario, scorer, quantile, cfg)
        expected_d = n * size * scenario.horizon
        scorer_c = build_scorer(dataclasses.replace(ACCEPTANCE_SCORER, rng_seed=5))
        cent = plan_centralized(scenario, scorer_c, quantile, cfg)
        expected_c = (size**n) * scenario.horizon
        ok = ok and dist.scorer_calls == expected_d and cent.scorer_calls == expected_c
        details.append(
            f"N={n}: distributed {dist.scorer_calls}=={expected_d}, "
            f"centralized {cent.scorer_calls}=={expected_c}"
        )
    # one reorder at the last position of a step adds exactly N*|S| calls
    scenario = sample_scenario(_nine_decision_params(2), 0)
    scorer = _AmbiguousLastScorer(scenario)
    cfg = PlannerConfig(reorder_bound=1, help_policy=ORACLE_USER)
    trace = plan_distributed(scenario, scorer, Quantile(0.95, 20, 0.1), cfg)
    base = 2 * 9 * scenario.horizon
    ok = ok and trace.n_reorder == 1 and trace.scorer_calls == base + 2 * 9
    details.append(
        f"reorder: {trace.scorer_calls}=={base}+18 with {trace.n_reorder} reorder"
    )
    _report("call-count-laws", ok, "; ".join(details))


def test_criterion_6_single_robot_mode_equivalence():
    params = dataclasses.replace(
        default_distribution_params(808), n_robots=(1, 1)
    )
    scorer = build_scorer(dataclasses.replace(ACCEPTANCE_SCORER, rng_seed=3))
    dist_records = []
    joint_records = []
    for i in range(15):
        s = sample_scenario(params, i)
        record, _ = score_label_sequence(s, scorer, label_mode="oracle")
        dist_records.append(record)
        joint_records.append(score_joint_label_sequence(s, scorer))
    q_dist = calibrate(dist_records, 0.1)
    q_joint = calibrate(joint_records, 0.1)
    assert q_dist.value == pytest.approx(q_joint.value)
    compared = 0
    for i in range(20):
        test = sample_scenario(params, 100 + i)
        cfg = PlannerConfig(help_policy=ORACLE_USER)
        dist = plan_distributed(test, scorer, q_dist, cfg)
        cent = plan_centralized(test, scorer, q_joint, cfg)
        assert dist.plan == cent.plan
        assert dist.scorer_calls == cent.scorer_calls
        assert len(dist.records) == len(cent.records)
        for dr, cr in zip(dist.records, cent.records):
            assert tuple((i,) for i in dr.set_indices) == cr.set_tuples
            assert (dr.chosen_index,) == cr.chosen_tuple
            assert [h.kind for h in dr.help] == [h.kind for h in cr.help]
        compared += 1
    _report(
        "single-robot-mode-equivalence",
        compared == 20,
        f"{compared} scenarios decision-for-decision identical",
    )


def test_criterion_7_alpha_monotonicity(coverage_result):
    rng = np.random.default_rng(23)
    supersets = 0
    for _ in range(100):
        m = int(rng.integers(5, 40))
        ncs = [float(x) for x in rng.random(m)]
        a_small, a_large = sorted((float(rng.uniform(0.02, 0.5)), float(rng.uniform(0.02, 0.5))))
        scores = tuple(float(x) for x in rng.dirichlet(np.ones(int(rng.integers(3, 10)))))
        q_small, q_large = conformal_quantile(ncs, a_small), conformal_quantile(ncs, a_large)
        set_small = set(local_prediction_set(scores, q_small).indices)
        set_large = set(local_prediction_set(scores, q_large).indices)
        assert set_small >= set_large  # decreasing alpha never shrinks a set
        supersets += 1
    by_alpha = {m.alpha: m for m in coverage_result["metrics"]}
    helps = [by_alpha[a].help_rate for a in (0.05, 0.10, 0.20)]
    singles = [by_alpha[a].singleton_rate for a in (0.05, 0.10, 0.20)]
    trend = helps[0] >= helps[1] >= helps[2] and singles[0] <= singles[1] <= singles[2]
    _report(
        "alpha-monotonicity",
        supersets == 100 and trend,
        f"{supersets} superset checks; help rates {[f'{h:.3f}' for h in helps]} "
        f"non-increasing in 1-alpha",
    )


def test_criterion_8_dataset_conditional_mode():
    adjusted = dataset_conditional_alpha(99, 0.01, 0.9)
    certificate = beta_quantile(99, 1, 0.01)
    cfg = ExperimentConfig(
        params=default_distribution_params(3030),
        scorer=dataclasses.replace(ACCEPTANCE_SCORER, rng_seed=8),
        alphas=(0.10,),
        m_calibration=99,
        n_trials=500,
    )
    result = run_dataset_conditional(cfg, delta=0.01)
    (m,) = result["metrics"]
    bound = 0.9 - 3.0 * math.sqrt(0.9 * 0.1 / 500)
    ok = (
        adjusted < 0.02
        and abs(certificate - 0.01 ** (1 / 99)) < 1e-9
        and certificate >= 0.9
        and m.coverage >= bound
    )
    _report(
        "dataset-conditional",
        ok,
        f"alpha_M={adjusted:.9f} < 0.02 (certificate {certificate:.4f}); "
        f"single-calibration coverage {m.coverage:.4f} >= {bound:.4f}",
    )


MULTI_FEASIBLE_PARAMS = DistributionParams(
    n_robots=(1, 1),
    n_subtasks=(1, 1),
    n_objects=(1, 2),
    n_containers=(0, 0),
    n_destinations=(2, 2),
    multi_destination_prob=1.0,
    safety_prob=0.0,
    horizon_slack=1,
    rng_seed=77,
)


def _brute_force_stepwise_argmax(scenario, scorer):
    """Independent oracle for the selector labels: enumerate every plan by
    exhaustive product, keep the ones the validator accepts, then pick the
    argmax-scoring continuation step by step."""
    space = decision_space(scenario.env)
    index = decision_index(scenario.env)
    total = scenario.n_robots * scenario.horizon
    feasible = [
        seq
        for seq in product(space, repeat=total)
        if validate_scenario_plan(scenario, flat_to_plan(scenario, seq)).complete
    ]
    assert feasible
    ctx = initial_context(scenario)
    chosen: list = []
    for k in range(total):
        prefix = tuple(chosen)
        options = sorted(
            {seq[k] for seq in feasible if seq[: k] == prefix}, key=lambda d: index[d]
        )
        vec = scorer.score_all(ctx, space, count=False)
        best = max(options, key=lambda d: (vec.scores[index[d]], -index[d]))
        chosen.append(best)
        ctx = advance(ctx, best)
    return tuple(chosen)


def test_criterion_9_multi_feasible_labels_and_coverage():
    checked = 0
    for draw in range(4):
        scenario = sample_scenario(MULTI_FEASIBLE_PARAMS, draw)
        assert len(decision_space(scenario.env)) ** (
            scenario.n_robots * scenario.horizon
        ) <= 10**6  # exact-mode instance
        scorer = build_scorer(dataclasses.replace(ACCEPTANCE_SCORER, rng_seed=2))
        labels = label_sequence(scenario, scorer, label_mode="selector")
        assert labels.mode == "exact"
        reference_scorer = build_scorer(dataclasses.replace(ACCEPTANCE_SCORER, rng_seed=2))
        expected = _brute_force_stepwise_argmax(scenario, reference_scorer)
        assert labels.decisions == expected
        checked += 1
    cfg = ExperimentConfig(
        params=MULTI_FEASIBLE_PARAMS,
        scorer=dataclasses.replace(ACCEPTANCE_SCORER, rng_seed=2),
        alphas=(0.05, 0.10, 0.20),
        m_calibration=30,
        n_trials=500,
        label_mode="selector",
    )
    result = run_coverage_experiment(cfg)
    cov_ok = True
    details = [f"{checked} labels match the brute-force stepwise argmax"]
    for m in result["metrics"]:
        bound = _coverage_bound(m.alpha, m.trials)
        cov_ok = cov_ok and m.coverage >= bound
        details.append(f"alpha={m.alpha}: {m.coverage:.4f} >= {bound:.4f}")
    _report("multi-feasible-mode", checked == 4 and cov_ok, "; ".join(details))


def test_criterion_10_generator_and_oracle_soundness():
    profiles = (
        (default_distribution_params(555), 500),
        (
            dataclasses.replace(
                default_distribution_params(556), n_subtasks=(0, 1), safety_prob=0.4
            ),
            200,
        ),
        (reference_distribution_params(557), 100),
        (
            dataclasses.replace(
                MULTI_FEASIBLE_PARAMS, rng_seed=558, n_robots=(1, 2), n_objects=(2, 3)
            ),
            200,
        ),
    )
    checked = 0
    for params, count in profiles:
        for draw in range(count):
            scenario = sample_scenario(params, draw)
            assert validate_scenario_plan(scenario, oracle_plan(scenario)).complete
            idle_plan = ((IDLE_DECISION,) * scenario.n_robots,) * scenario.horizon
            idle_ok = validate_scenario_plan(scenario, idle_plan).complete
            assert idle_ok == (len(scenario.mission.subtasks) == 0)
            checked += 1
    _report(
        "generator-and-oracle-soundness",
        checked == 1000,
        f"{checked} sampled scenarios: oracle validates; all-Idle complete iff no sub-tasks",
    )
