import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import confplan
from confplan.conformal import (
    CalibrationRecord,
    Quantile,
    beta_quantile,
    build_calibration_set,
    calibrate,
    calibration_records,
    conformal_quantile,
    dataset_conditional_alpha,
    global_prediction_set,
    local_prediction_set,
    min_calibration_size,
    product_set,
    quantile_index,
    quantile_summary,
    read_records_jsonl,
    record_from_dict,
    record_to_dict,
    score_joint_label_sequence,
    score_label_sequence,
    sequence_ncs,
    write_records_jsonl,
)
from confplan.errors import BudgetError, InfeasibleAlphaError
from confplan.scenario import default_distribution_params, sample_scenario
from confplan.scoring import ScorerSpec, build_scorer


def test_sequence_ncs_basic_cases():
    assert sequence_ncs([1.0, 1.0, 1.0]) == 0.0
    assert abs(sequence_ncs([0.9, 0.5, 0.7]) - 0.5) < 1e-15
    assert sequence_ncs([0.4, 0.0, 0.9]) == 1.0
    with pytest.raises(ValueError):
        sequence_ncs([])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0, 1), min_size=1, max_size=10), st.randoms())
def test_sequence_ncs_is_permutation_invariant(scores, rnd):
    shuffled = list(scores)
    rnd.shuffle(shuffled)
    assert sequence_ncs(scores) == sequence_ncs(shuffled)
    assert 0.0 <= sequence_ncs(scores) <= 1.0


def test_quantile_nine_even_scores():
    ncs = [round(0.1 * i, 10) for i in range(1, 10)]
    q = conformal_quantile(ncs, 0.1)
    assert quantile_index(9, 0.1) == 9
    assert q.value == pytest.approx(0.9)
    assert sum(1 for v in ncs if v < q.value) == 8  # exactly j - 1 strictly below


def test_quantile_single_record():
    q = conformal_quantile([0.42], 0.5)
    assert q.value == 0.42 and not q.full_set


def test_quantile_full_set_sentinel():
    q = conformal_quantile([0.1, 0.2, 0.3, 0.4], 0.1)
    assert q.full_set
    assert min_calibration_size(0.1) == 9
    with pytest.raises(ValueError):
        conformal_quantile([0.5], 0.0)
    with pytest.raises(ValueError):
        conformal_quantile([], 0.1)


def test_quantile_index_handles_float_fuzz():
    # (9+1)*(1-0.1) is 9.000000000000002 in floats; the index must stay 9
    assert quantile_index(9, 0.1) == 9
    assert quantile_index(30, 0.1) == 28
    assert quantile_index(30, 0.05) == 30
    assert quantile_index(30, 0.2) == 25


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.001, 0.999), min_size=1, max_size=40, unique=True),
    st.floats(0.01, 0.99),
)
def test_quantile_order_statistic_property(ncs, alpha):
    m = len(ncs)
    j = quantile_index(m, alpha)
    q = conformal_quantile(ncs, alpha)
    if j > m:
        assert q.full_set
    else:
        assert sum(1 for v in ncs if v < q.value) == j - 1
        assert q.value in ncs


def test_local_set_thresholding():
    q = Quantile(0.2, 10, 0.1)  # threshold 0.8
    ps = local_prediction_set((0.9, 0.05, 0.05), q)
    assert ps.indices == (0,) and ps.is_singleton
    q_loose = Quantile(0.7, 10, 0.5)  # threshold 0.3
    ps = local_prediction_set((1 / 3, 1 / 3, 1 / 3), q_loose)
    assert ps.indices == (0, 1, 2)


def test_local_set_full_sentinel_includes_zero_scores():
    q = Quantile(None, 4, 0.1)
    ps = local_prediction_set((0.0, 1.0, 0.0), q)
    assert ps.indices == (0, 1, 2) and ps.full_set


def test_local_set_strict_inequality_can_be_empty():
    q = Quantile(0.0, 3, 0.5)  # threshold 1.0: nothing exceeds it strictly
    ps = local_prediction_set((1.0, 0.0), q)
    assert ps.indices == ()


def test_global_set_degenerates_to_local_for_one_step():
    q = Quantile(0.4, 5, 0.2)
    table = (0.7, 0.1, 0.2)
    plans = global_prediction_set([table], q)
    local = local_prediction_set(table, q)
    assert plans == {(i,) for i in local.indices}


def test_global_set_matches_product_on_a_hand_built_instance():
    tables = [(0.5, 0.3, 0.2), (0.1, 0.8, 0.1)]
    q = Quantile(0.75, 7, 0.3)  # threshold 0.25
    plans = global_prediction_set(tables, q)
    locals_ = [local_prediction_set(t, q) for t in tables]
    assert plans == product_set(locals_).materialize()
    assert plans == {(0, 1), (1, 1)}


def test_global_set_empty_under_zero_quantile():
    tables = [(1.0, 0.0), (0.3, 0.7)]
    assert global_prediction_set(tables, Quantile(0.0, 3, 0.5)) == frozenset()


def test_global_set_budget():
    with pytest.raises(BudgetError):
        global_prediction_set([(0.5,) * 6] * 9, Quantile(0.5, 3, 0.5), budget=1000)


def test_product_set_shapes():
    q = Quantile(0.9, 9, 0.1)
    singles = [local_prediction_set((0.95, 0.05), q) for _ in range(3)]
    prod = product_set(singles)
    assert prod.cardinality == 1 and prod.materialize() == {(0, 0, 0)}
    sized = [
        local_prediction_set(t, Quantile(0.85, 9, 0.2))
        for t in [(0.4, 0.4, 0.2), (0.9, 0.05, 0.05), (0.3, 0.3, 0.4)]
    ]
    prod = product_set(sized)
    assert [ps.size for ps in sized] == [3, 1, 3]
    assert prod.cardinality == 9
    assert (0, 0, 2) in prod and (0, 1, 2) not in prod


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_set_equals_global_on_random_instances(data):
    size = data.draw(st.integers(2, 5))
    steps = data.draw(st.integers(1, 4))
    tables = [
        tuple(data.draw(st.floats(0, 1)) for _ in range(size)) for _ in range(steps)
    ]
    qv = data.draw(st.floats(0, 1))
    q = Quantile(qv, 10, 0.1)
    locals_ = [local_prediction_set(t, q) for t in tables]
    assert global_prediction_set(tables, q) == product_set(locals_).materialize()


def _record(scores, sid="scn"):
    n = len(scores)
    return CalibrationRecord(
        scenario_id=sid,
        space_size=4,
        label_mode="oracle",
        search_mode="oracle",
        decisions=(("idle", None),) * n,
        decision_indices=(3,) * n,
        scores=tuple(scores),
    )


def test_calibrate_composes_ncs_and_quantile():
    q = calibrate([_record([0.4, 0.9])], 0.5)
    assert q.value == pytest.approx(0.6)


def test_calibrate_all_perfect_scores_gives_zero_quantile_and_empty_sets():
    records = [_record([1.0, 1.0]) for _ in range(9)]
    q = calibrate(records, 0.1)
    assert q.value == 0.0
    ps = local_prediction_set((1.0, 0.0, 0.0), q)
    assert ps.indices == ()  # strict threshold at 1.0 excludes even perfect scores


def test_calibrate_below_minimal_size_is_full_set():
    records = [_record([0.5]) for _ in range(4)]
    assert calibrate(records, 0.05).full_set


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=25),
    st.floats(0.02, 0.5),
    st.floats(0.02, 0.5),
)
def test_threshold_monotonicity(ncs, a1, a2):
    lo, hi = sorted((a1, a2))
    q_lo, q_hi = conformal_quantile(ncs, lo), conformal_quantile(ncs, hi)
    if q_lo.full_set:
        return  # full set is a superset of everything
    assert not q_hi.full_set
    assert q_lo.value >= q_hi.value
    scores = tuple(np.linspace(0, 1, 7))
    set_lo = set(local_prediction_set(scores, q_lo).indices)
    set_hi = set(local_prediction_set(scores, q_hi).indices)
    assert set_lo >= set_hi


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.01, 5.0), min_size=2, max_size=9),
    st.floats(0.0, 0.999),
)
def test_argmax_always_in_nonempty_sets(raws, qv):
    from confplan.scoring import softmax

    vec = tuple(softmax(raws).tolist())
    ps = local_prediction_set(vec, Quantile(qv, 10, 0.1))
    if ps.indices:
        assert vec.index(max(vec)) in ps.indices


# --- calibration record construction -----------------------------------------------


def test_build_calibration_set_is_deterministic(tmp_path):
    params = default_distribution_params(3)
    scorer_a = build_scorer(ScorerSpec(rng_seed=5))
    scorer_b = build_scorer(ScorerSpec(rng_seed=5))
    recs_a = build_calibration_set(params, 5, scorer_a)
    recs_b = build_calibration_set(params, 5, scorer_b)
    assert recs_a == recs_b
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records_jsonl(recs_a, path_a)
    write_records_jsonl(recs_b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert read_records_jsonl(path_a) == recs_a
    with pytest.raises(ValueError):
        build_calibration_set(params, 0, scorer_a)


def test_indicator_scorer_records_have_the_closed_form_min_score():
    params = dataclasses.replace(
        default_distribution_params(17),
        n_robots=(1, 1),
        n_objects=(2, 2),
        n_containers=(1, 1),
        n_destinations=(1, 1),
        enclosure_prob=0.0,
        safety_prob=0.0,
    )
    scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
    records = build_calibration_set(params, 3, scorer)
    top = math.e / (math.e + 8)
    for record in records:
        assert record.space_size == 9
        assert all(abs(s - top) < 1e-12 for s in record.scores)
        assert record.ncs == pytest.approx(1 - top)


def test_record_roundtrip():
    record = _record([0.25, 0.75], sid="scn-x")
    assert record_from_dict(record_to_dict(record)) == record


def test_joint_records_match_distributed_for_single_robot():
    params = dataclasses.replace(default_distribution_params(21), n_robots=(1, 1))
    scorer = build_scorer(ScorerSpec(rng_seed=2))
    joint = [score_joint_label_sequence(sample_scenario(params, i), scorer) for i in range(4)]
    scorer2 = build_scorer(ScorerSpec(rng_seed=2))
    dist = build_calibration_set(params, 4, scorer2)
    for j, d in zip(joint, dist):
        assert j.step_scores == d.scores
        assert j.ncs == pytest.approx(d.ncs)


class _Walker:
    """A scorer without score tables, so `score_joint_label_sequence` walks
    its steps through `joint_scores`."""

    def __init__(self, scorer):
        self.score_all = scorer.score_all


JOINT_SPECS = {
    "noisy-oracle": ScorerSpec(rng_seed=4),
    "noise-0": ScorerSpec(noise=0.0, rng_seed=4),
    "confusion-0": ScorerSpec(confusion=0.0, rng_seed=4),
    "oracle-indicator": ScorerSpec(kind="oracle-indicator"),
}


@pytest.mark.parametrize("spec", JOINT_SPECS.values(), ids=JOINT_SPECS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_joint_labels_read_from_the_table_equal_the_walked_labels(n, spec):
    # at N = 3 a step's product has two off-schedule factors, so its order shows
    params = dataclasses.replace(default_distribution_params(7), n_robots=(n, n))
    scenarios = [sample_scenario(params, i) for i in range(8)]
    scorer = build_scorer(spec)
    scorer.score_tables(scenarios)  # drawn as a calibration batch draws them
    walker = _Walker(build_scorer(spec))
    for s in scenarios:
        read = score_joint_label_sequence(s, scorer)
        walked = score_joint_label_sequence(s, walker)
        assert read.scenario_id == walked.scenario_id == s.id
        assert [x.hex() for x in read.step_scores] == [x.hex() for x in walked.step_scores]


@pytest.mark.parametrize("label_mode", ["oracle", "selector"])
def test_a_joint_calibration_batch_builds_no_score_row(monkeypatch, label_mode):
    params = dataclasses.replace(default_distribution_params(7), n_robots=(2, 3))
    scenarios = [sample_scenario(params, i) for i in range(6)]
    scorer = build_scorer(ScorerSpec(rng_seed=4))
    contexts, score_all = [], scorer.score_all
    monkeypatch.setattr(scorer, "score_all", lambda ctx: contexts.append(ctx) or score_all(ctx))
    calibration_records(scenarios, scorer, label_mode)
    for s in scenarios:
        score_joint_label_sequence(s, scorer)
    assert contexts == []
    assert all(not table.others for table in scorer.score_tables(scenarios))


def test_quantile_summary_reports_sentinel_and_histogram():
    records = [_record([0.5]) for _ in range(4)]
    q = calibrate(records, 0.05)
    summary = quantile_summary(q, [r.ncs for r in records])
    assert summary["quantile"] == "FULL_SET"
    assert summary["min_calibration_size"] == min_calibration_size(0.05) == 19
    assert sum(summary["ncs_histogram"]["counts"]) == 4


# --- beta quantile and the fixed-calibration adjustment ------------------------------


def test_beta_quantile_closed_forms():
    assert beta_quantile(1, 1, 0.3) == pytest.approx(0.3, abs=1e-9)
    assert beta_quantile(2, 1, 0.25) == pytest.approx(0.5, abs=1e-9)  # CDF x^2
    assert beta_quantile(99, 1, 0.01) == pytest.approx(0.01 ** (1 / 99), abs=1e-9)
    assert abs(beta_quantile(99, 1, 0.01) - 0.9546) < 1e-4


def _betainc_quantile(a, b, delta):
    """Reference: bisection of scipy's regularized incomplete beta to 1e-10."""
    from scipy import special

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if special.betainc(a, b, mid) < delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("m", [1, 2, 5, 10, 30, 99, 200])
def test_beta_quantile_matches_the_incomplete_beta_reference(m):
    shapes = {v for v in (1, 2, 3, m // 2, m) if 1 <= v <= m}
    for v in shapes:
        for delta in (1e-4, 0.01, 0.05, 0.1, 0.5, 0.9, 0.99):
            got = beta_quantile(m + 1 - v, v, delta)
            assert abs(got - _betainc_quantile(m + 1 - v, v, delta)) < 1e-10, (v, delta)


@pytest.mark.parametrize("a, b", [(1.5, 1), (2, 0.5), (0, 1), (3, 0), (-1, 2), (math.nan, 1)])
def test_beta_quantile_rejects_non_integer_and_non_positive_shapes(a, b):
    with pytest.raises(ValueError):
        beta_quantile(a, b, 0.1)


def test_importing_confplan_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(confplan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, confplan, confplan.harness, confplan.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_dataset_conditional_alpha_stays_in_the_certified_cell():
    adjusted = dataset_conditional_alpha(99, 0.01, 0.9)
    assert adjusted < 0.02  # within the v=1 cell for M=99
    assert adjusted >= 1 / 100
    assert math.floor(100 * adjusted) == 1


def test_dataset_conditional_alpha_caps_at_the_marginal_level():
    # when the marginal level sits inside the certified cell it binds:
    # M=999, delta=0.5 certifies 0.5**(1/999) ~ 0.99931 >= 0.999, and the
    # marginal level 0.001 is below the cell top 2/1000
    adjusted = dataset_conditional_alpha(999, 0.5, 0.999)
    assert adjusted == pytest.approx(0.001)
    # otherwise the cell top binds (just under 2/(M+1))
    adjusted = dataset_conditional_alpha(199, 0.05, 0.6)
    assert 1 / 200 <= adjusted < 2 / 200


def test_dataset_conditional_alpha_infeasible_for_small_m():
    with pytest.raises(InfeasibleAlphaError) as exc:
        dataset_conditional_alpha(10, 0.01, 0.9)
    assert "need M >=" in str(exc.value)
