import dataclasses
from itertools import product
from types import SimpleNamespace

import pytest

from confplan import planner as planner_module
from confplan.conformal import (
    CalibrationRecord,
    Quantile,
    calibrate,
    joint_scores,
    local_prediction_set,
)
from confplan.context import Context, order_family
from confplan.errors import BudgetError, PlanningAborted
from confplan.planner import (
    FAIL_ON_HELP,
    INTERACTIVE_USER,
    ORACLE_USER,
    PlannerConfig,
    plan_argmax,
    plan_centralized,
    plan_distributed,
    resolve_user_help,
    search_feasible_provider,
    trace_to_dict,
)
from confplan.scenario import (
    anchor_decision,
    decision_index,
    decision_space,
    default_distribution_params,
    oracle_plan,
    sample_scenario,
    teacher_sequence,
    validate_scenario_plan,
)
from confplan.scoring import ScorerSpec, build_scorer
from confplan.world import IDLE_DECISION


class StubScorer:
    """Normalized scores keyed by (k, robot); else near-one-hot on the
    canonical decision. A bare `score_all(ctx)`: the planners count the
    queries."""

    def __init__(self, tables=None, default_top=0.9):
        self.tables = tables or {}
        self.default_top = default_top

    def score_all(self, ctx):
        t, robot = ctx.cursor
        scores = self.tables.get((ctx.k, robot))
        if scores is None:
            size = len(decision_space(ctx.scenario.env))
            anchor = anchor_decision(ctx.scenario, t, robot)
            idx = decision_index(ctx.scenario.env)[anchor]
            rest = (1.0 - self.default_top) / (size - 1)
            scores = [rest] * size
            scores[idx] = self.default_top
        return tuple(scores)


def seeded_scenario(seed=3, **overrides):
    params = dataclasses.replace(default_distribution_params(seed), **overrides)
    return sample_scenario(params, 0)


def matching_quantile(scenario, scorer, margin=0.02, alpha=0.1):
    """Calibration whose quantile sits just past the test scenario's own label
    scores, so singleton sets appear wherever the scorer is confident."""
    from confplan.conformal import score_label_sequence

    record = score_label_sequence(scenario, scorer, label_mode="oracle")
    top = min(record.scores)
    records = [
        CalibrationRecord(
            scenario_id=f"cal-{i}",
            space_size=record.space_size,
            label_mode="oracle",
            search_mode="oracle",
            decisions=(("idle", None),),
            decision_indices=(0,),
            scores=(max(top - margin, 0.0),),
        )
        for i in range(19)
    ]
    return calibrate(records, alpha)


def test_indicator_scorer_with_matching_calibration_reproduces_the_oracle():
    scenario = seeded_scenario(3)
    scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
    quantile = matching_quantile(scenario, scorer)
    cfg = PlannerConfig(reorder_bound=0, help_policy=ORACLE_USER)
    trace = plan_distributed(scenario, scorer, quantile, cfg)
    assert trace.n_user_help == 0 and trace.n_reorder == 0
    assert all(r.set_size == 1 for r in trace.records)
    padded = oracle_plan(scenario) + (
        (IDLE_DECISION,) * scenario.n_robots,
    ) * (scenario.horizon - len(oracle_plan(scenario)))
    assert trace.plan == padded
    assert validate_scenario_plan(scenario, trace.plan).complete


def test_empty_mission_plans_all_idle_with_full_trace():
    scenario = seeded_scenario(1, n_subtasks=(0, 0), safety_prob=0.0)
    scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
    quantile = matching_quantile(scenario, scorer)
    cfg = PlannerConfig()
    trace = plan_distributed(scenario, scorer, quantile, cfg)
    assert len(trace.records) == scenario.n_robots * scenario.horizon
    assert all(d == IDLE_DECISION for jd in trace.plan for d in jd)


def test_single_seeded_ambiguity_triggers_exactly_one_user_help():
    scenario = seeded_scenario(3)
    space = decision_space(scenario.env)
    index = decision_index(scenario.env)
    schedule = scenario.schedule
    teacher = teacher_sequence(scenario)
    k_star = 1
    t_star, pos = divmod(k_star, scenario.n_robots)
    robot_star = schedule.order_at(t_star)[pos]
    truth_idx = index[teacher[k_star]]
    other_idx = (truth_idx + 1) % len(space)
    ambiguous = [0.0] * len(space)
    ambiguous[truth_idx], ambiguous[other_idx] = 0.40, 0.35
    rest = 0.25 / (len(space) - 2)
    ambiguous = [v if i in (truth_idx, other_idx) else rest for i, v in enumerate(ambiguous)]
    scorer = StubScorer({(k_star, robot_star): tuple(ambiguous)})
    quantile = Quantile(0.7, 19, 0.1)  # threshold 0.3: two members at k_star
    cfg = PlannerConfig(reorder_bound=0, help_policy=ORACLE_USER)
    trace = plan_distributed(scenario, scorer, quantile, cfg)
    assert trace.n_user_help == 1
    events = [h for r in trace.records for h in r.help]
    assert len(events) == 1 and events[0].kind == "user"
    # resolution is the highest-scoring feasible member of the presented set
    assert events[0].resolution_index == truth_idx
    assert not events[0].coverage_miss
    assert validate_scenario_plan(scenario, trace.plan).complete


def test_resolve_user_help_cases():
    scores = (0.40, 0.35, 0.05, 0.20)
    space = decision_space(seeded_scenario(3).env)[:4]
    pred = local_prediction_set(scores, Quantile(0.7, 9, 0.1))  # {0, 1}
    assert pred.indices == (0, 1)
    chosen, miss = resolve_user_help(pred, scores, (0,), ORACLE_USER, space)
    assert (chosen, miss) == (0, False)
    # prediction set misses the only feasible decision
    pred_b = local_prediction_set((0.05, 0.9, 0.03, 0.02), Quantile(0.7, 9, 0.1))
    chosen, miss = resolve_user_help(pred_b, (0.05, 0.9, 0.03, 0.02), (0,), ORACLE_USER, space)
    assert (chosen, miss) == (0, True)
    # FULL-SET sentinel: argmax over the feasible decisions
    full = local_prediction_set((0.2, 0.1, 0.5, 0.2), Quantile(None, 4, 0.1))
    chosen, miss = resolve_user_help(full, (0.2, 0.1, 0.5, 0.2), (0, 2), ORACLE_USER, space)
    assert (chosen, miss) == (2, False)
    # nothing feasible: the best presented decision, flagged as a miss
    chosen, miss = resolve_user_help(pred, scores, (), ORACLE_USER, space)
    assert (chosen, miss) == (0, True)


def test_interactive_help_reads_selection_and_aborts_after_three_bad_inputs():
    scores = (0.40, 0.35, 0.25)
    space = decision_space(seeded_scenario(3).env)[:3]
    pred = local_prediction_set(scores, Quantile(0.7, 9, 0.1))

    class FakeIO:
        def __init__(self, replies):
            self.replies = iter(replies)
            self.out = []

        def write(self, text):
            self.out.append(text)

        def readline(self):
            return next(self.replies)

    good = FakeIO(["2\n"])
    chosen, miss = resolve_user_help(pred, scores, (0, 1), INTERACTIVE_USER, space, io=good)
    assert chosen == pred.indices[1] and not miss
    printed = "".join(good.out)
    assert "[1]" in printed and "score" in printed
    bad = FakeIO(["x\n", "99\n", "\n"])
    with pytest.raises(PlanningAborted):
        resolve_user_help(pred, scores, (0, 1), INTERACTIVE_USER, space, io=bad)


def test_interactive_prompt_prints_four_decimal_scores():
    scores = (0.40, 0.35, 0.25)
    space = decision_space(seeded_scenario(3).env)[:3]
    pred = local_prediction_set(scores, Quantile(0.7, 9, 0.1))
    out = []
    io = SimpleNamespace(write=out.append, readline=lambda: "1\n")
    resolve_user_help(pred, scores, (0, 1), INTERACTIVE_USER, space, io=io)
    assert "".join(out) == (
        "help needed; pick one decision:\n"
        f"  [1] {space[0].phrase()} (score 0.4000)\n"
        f"  [2] {space[1].phrase()} (score 0.3500)\n"
        "selection: "
    )


def test_centralized_interactive_help_reads_selection_and_aborts_after_three_bad_inputs():
    scenario = seeded_scenario(8, n_robots=(2, 2), n_subtasks=(1, 1))
    space = decision_space(scenario.env)
    uniform = tuple(1 / len(space) for _ in space)
    scorer = StubScorer({(0, 0): uniform, (0, 1): uniform})
    quantile = Quantile(1.0, 19, 0.1)  # threshold 0: every joint decision is in the set
    cfg = PlannerConfig(help_policy=INTERACTIVE_USER)
    out = []
    good = SimpleNamespace(write=out.append, readline=lambda: "2\n")
    trace = plan_centralized(scenario, scorer, quantile, cfg, io=good)
    first = trace.records[0]
    assert first.chosen_tuple == first.set_tuples[1] == (0, 1)
    assert not first.help[0].coverage_miss
    score = f"{uniform[0] * uniform[1]:.6f}"
    assert "".join(out).startswith(
        "help needed; pick one joint decision:\n"
        f"  [1] {space[0].phrase()}; {space[0].phrase()} (score {score})\n"
        f"  [2] {space[0].phrase()}; {space[1].phrase()} (score {score})\n"
    )
    replies = iter(["x\n", "0\n", f"{len(space) ** 2 + 1}\n"])
    bad = SimpleNamespace(write=out.append, readline=lambda: next(replies))
    with pytest.raises(PlanningAborted):
        plan_centralized(scenario, scorer, quantile, cfg, io=bad)


def test_fail_on_help_converts_help_into_planning_failure():
    scenario = seeded_scenario(3)
    space = decision_space(scenario.env)
    uniform = tuple(1 / len(space) for _ in space)
    scorer = StubScorer({(0, r): uniform for r in range(scenario.n_robots)})
    quantile = Quantile(0.7, 19, 0.1)
    cfg = PlannerConfig(reorder_bound=0, help_policy=FAIL_ON_HELP)
    trace = plan_distributed(scenario, scorer, quantile, cfg)
    assert trace.failed
    assert any(h.unresolved for r in trace.records for h in r.help)


def test_reorder_resolves_ambiguity_without_user_help():
    scenario = seeded_scenario(8, n_robots=(2, 2), n_subtasks=(1, 1))
    schedule = scenario.schedule
    base_order = schedule.order_at(0)
    first = base_order[0]
    space = decision_space(scenario.env)
    uniform = tuple(1 / len(space) for _ in space)
    # ambiguous only when `first` opens the step (k == 0)
    scorer = StubScorer({(0, first): uniform})
    quantile = Quantile(0.95, 19, 0.1)
    cfg = PlannerConfig(reorder_bound=1, help_policy=ORACLE_USER)
    trace = plan_distributed(scenario, scorer, quantile, cfg)
    assert trace.n_reorder == 1
    assert trace.n_user_help == 0
    assert validate_scenario_plan(scenario, trace.plan).complete
    family = set(order_family(scenario.n_robots))
    assert all(r.order in family for r in trace.records)
    assert len(trace.records) <= scenario.n_robots * scenario.horizon * (cfg.reorder_bound + 1)


def test_reorder_bound_and_family_exhaustion_fall_through_to_user():
    scenario = seeded_scenario(8, n_robots=(2, 2), n_subtasks=(1, 1))
    space = decision_space(scenario.env)
    uniform = tuple(1 / len(space) for _ in space)
    tables = {(k, r): uniform for k in range(2) for r in range(2)}
    scorer = StubScorer(tables)
    quantile = Quantile(0.95, 19, 0.1)
    cfg = PlannerConfig(reorder_bound=5, help_policy=ORACLE_USER)
    trace = plan_distributed(scenario, scorer, quantile, cfg)
    # the 2-robot family has 2 orders: 1 reorder, then user help despite W=5
    step0 = [r for r in trace.records if r.t == 0]
    reorders = sum(1 for r in step0 for h in r.help if h.kind == "reorder")
    users = sum(1 for r in step0 for h in r.help if h.kind == "user")
    assert reorders == 1 and users >= 1
    for record in trace.records:
        user_events = [h for h in record.help if h.kind == "user"]
        if user_events:
            assert record.set_size != 1


def test_distributed_call_count_law_without_reorders():
    scenario = seeded_scenario(3)
    scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
    quantile = matching_quantile(scenario, scorer)
    cfg = PlannerConfig()
    trace = plan_distributed(scenario, scorer, quantile, cfg)
    n, h = scenario.n_robots, scenario.horizon
    assert trace.scorer_calls == n * len(decision_space(scenario.env)) * h


def test_a_context_scored_again_after_a_reorder_counts_again():
    """The planner counts |S| logical queries per score_all: a context scored
    again after a reorder restarts its step counts again."""
    scenario = seeded_scenario(6, n_robots=(3, 3))
    size = len(decision_space(scenario.env))
    uniform = tuple([1.0 / size] * size)
    stub = StubScorer({(2, scenario.orders[0][2]): uniform})  # the last robot of step 0
    scored = []

    class Recording:
        def score_all(self, ctx):
            scored.append(ctx)
            return stub.score_all(ctx)

    cfg = PlannerConfig(reorder_bound=1)
    trace = plan_distributed(scenario, Recording(), Quantile(0.5, 20, 0.1), cfg)
    assert trace.n_reorder == 1
    # the redrawn order starts with the same robot: step 0 opens on the same context
    assert scored.count(scored[0]) == 2
    assert trace.scorer_calls == len(scored) * size


def test_argmax_mode_follows_indicator_and_never_asks():
    scenario = seeded_scenario(3)
    scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
    trace = plan_argmax(scenario, scorer)
    assert trace.n_user_help == 0
    assert validate_scenario_plan(scenario, trace.plan).complete
    again = plan_argmax(scenario, build_scorer(ScorerSpec(kind="oracle-indicator")))
    assert again.plan == trace.plan


def test_argmax_mode_fails_under_an_adversarial_scorer():
    scenario = seeded_scenario(3, n_subtasks=(1, 1))
    space = decision_space(scenario.env)
    wrong = [0.0] * len(space)
    wrong[len(space) - 1] = 1.0  # idles where work was needed
    scorer = StubScorer({(0, r): tuple(wrong) for r in range(scenario.n_robots)})
    trace = plan_argmax(scenario, scorer)
    assert not validate_scenario_plan(scenario, trace.plan).complete


def test_centralized_matches_distributed_for_single_robot():
    params = dataclasses.replace(default_distribution_params(5), n_robots=(1, 1))
    for draw in range(3):
        scenario = sample_scenario(params, draw)
        scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
        quantile = matching_quantile(scenario, scorer)
        cfg = PlannerConfig()
        dist = plan_distributed(scenario, scorer, quantile, cfg)
        cent = plan_centralized(scenario, scorer, quantile, cfg)
        assert dist.plan == cent.plan
        assert dist.scorer_calls == cent.scorer_calls
        for dr, cr in zip(dist.records, cent.records):
            assert dr.set_size == cr.set_size
            assert tuple((i,) for i in dr.set_indices) == cr.set_tuples
            assert (dr.chosen_index,) == cr.chosen_tuple


def python_joint(scenario, scorer, history, t):
    """The reference for `joint_scores`: each joint tuple's team score as a
    Python product ((1.0 * a) * b) * ... in robot-index order, the tuples in
    itertools.product order."""
    rows = [
        scorer.score_all(Context(scenario=scenario, history=history, cursor=(t, r)))
        for r in range(scenario.n_robots)
    ]
    joint = {}
    for combo in product(range(len(rows[0])), repeat=len(rows)):
        score = 1.0
        for robot, i in enumerate(combo):
            score *= rows[robot][i]
        joint[combo] = score
    return joint


@pytest.mark.parametrize("n", [1, 2, 3])
def test_joint_scores_are_bitwise_the_robot_order_product(n):
    # at step start every robot after the first of the step's order scores an
    # off-schedule row
    scenario = seeded_scenario(3, n_robots=(n, n), n_subtasks=(1, 1))
    scorer = build_scorer(ScorerSpec(kind="noisy-oracle", rng_seed=5))
    history: tuple = ()
    for t in range(scenario.horizon):
        joint = joint_scores(scenario, scorer, history, t)
        want = python_joint(scenario, scorer, history, t)
        assert joint.shape == (len(decision_space(scenario.env)),) * n
        assert {c: float(joint[c]).hex() for c in want} == {c: s.hex() for c, s in want.items()}
        labels = [anchor_decision(scenario, t, r) for r in range(n)]
        history = history + tuple((t, r, labels[r]) for r in scenario.orders[t])


def central_quantile(kind, scenario, scorer):
    if kind == "between-scores":  # between the 3rd and 4th best team scores of step 0
        top = sorted(set(python_joint(scenario, scorer, (), 0).values()), reverse=True)
        return Quantile(1.0 - (top[2] + top[3]) / 2, 19, 0.1)
    return Quantile(None if kind == "full-set" else 0.0, 19, 0.1)


@pytest.mark.parametrize("kind", ["between-scores", "full-set", "quantile-0"])
@pytest.mark.parametrize("n", [1, 2])
def test_centralized_sets_are_the_product_order_filter(n, kind):
    scenario = seeded_scenario(3, n_robots=(n, n), n_subtasks=(1, 1))
    space = decision_space(scenario.env)
    scorer = build_scorer(ScorerSpec(kind="noisy-oracle", rng_seed=5))
    quantile = central_quantile(kind, scenario, scorer)
    out = []
    io = SimpleNamespace(write=out.append, readline=lambda: "1\n")
    cfg = PlannerConfig(help_policy=INTERACTIVE_USER)
    trace = plan_centralized(scenario, scorer, quantile, cfg, io=io)
    assert not trace.failed and len(trace.records) == scenario.horizon
    history: tuple = ()
    for r in trace.records:
        joint = python_joint(scenario, scorer, history, r.t)
        assert r.set_tuples == tuple(c for c, s in joint.items() if s > quantile.threshold)
        assert r.set_full == (kind == "full-set")
        assert all(type(i) is int for c in (*r.set_tuples, r.chosen_tuple) for i in c)
        history = history + tuple((r.t, i, space[r.chosen_tuple[i]]) for i in scenario.orders[r.t])
    if kind == "quantile-0":
        # every set is empty, and each prompt presents the whole joint space,
        # the first option being the smallest tuple
        assert all(r.set_size == 0 and r.chosen_tuple == (0,) * n for r in trace.records)
        options = sum(line.startswith("  [") for line in out)
        assert options == scenario.horizon * len(space) ** n


def test_centralized_call_count_and_joint_flagging():
    scenario = seeded_scenario(8, n_robots=(2, 2), n_subtasks=(1, 1))
    space = decision_space(scenario.env)
    uniform = tuple(1 / len(space) for _ in space)
    scorer = StubScorer({(0, 0): uniform, (0, 1): uniform})
    quantile = Quantile(1.0, 19, 0.1)  # threshold 0: everything positive is in
    cfg = PlannerConfig(help_policy=ORACLE_USER, centralized_budget=4096)
    trace = plan_centralized(scenario, scorer, quantile, cfg)
    assert trace.scorer_calls == (len(space) ** 2) * scenario.horizon
    # ambiguity flags the whole team: the record carries no robot index
    flagged = [h for r in trace.records for h in r.help]
    assert flagged and all(h.robot is None for h in flagged)


def test_centralized_oracle_help_breaks_ties_to_the_smallest_tuple():
    # plan_centralized's oracle user knows one feasible tuple, the canonical one, so
    # the tie rule over several is pinned on the help resolver it calls, on a
    # uniform joint array as the planner builds it
    scenario = seeded_scenario(8, n_robots=(2, 2), n_subtasks=(1, 1))
    space = decision_space(scenario.env)
    uniform = tuple(1 / len(space) for _ in space)
    joint = joint_scores(scenario, StubScorer({(0, 0): uniform, (0, 1): uniform}), (), 0)
    every = tuple(product(range(len(space)), repeat=2))
    chosen, miss = planner_module._resolve(
        ORACLE_USER, every, set(every), joint, ((1, 1), (0, 1), (1, 0)), "joint decision", str, None
    )
    assert (chosen, miss) == ((0, 1), False)


def test_centralized_oracle_help_takes_the_canonical_tuple_outside_the_set():
    scenario = seeded_scenario(8, n_robots=(2, 2), n_subtasks=(1, 1))
    space = decision_space(scenario.env)
    index = decision_index(scenario.env)
    canonical = tuple(index[anchor_decision(scenario, 0, r)] for r in range(2))
    other = [(c + 1) % len(space) for c in canonical]
    rest = 0.08 / (len(space) - 2)
    tables = {}
    # robot 0 is confidently wrong; robot 1 splits between its label and another
    for robot, (hi, lo) in enumerate(((0.9, 0.02), (0.45, 0.45))):
        scores = [rest] * len(space)
        scores[other[robot]], scores[canonical[robot]] = hi, lo
        tables[(0, robot)] = tuple(scores)
    scorer = StubScorer(tables)
    quantile = Quantile(0.7, 19, 0.1)  # threshold 0.3: two joint members at t = 0
    cfg = PlannerConfig(help_policy=ORACLE_USER)
    trace = plan_centralized(scenario, scorer, quantile, cfg)
    first = trace.records[0]
    assert first.set_size == 2 and canonical not in first.set_tuples
    assert first.chosen_tuple == canonical
    assert first.help[0].coverage_miss and not first.help[0].unresolved


def test_fail_on_help_records_the_full_set_flag_in_both_planners(monkeypatch):
    scenario = seeded_scenario(3, n_robots=(2, 2))
    scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
    quantile = Quantile(None, 5, 0.1)  # FULL-SET sentinel

    def never(*_):
        raise AssertionError("fail-on-help must not ask for feasible decisions")

    # the centralized planner builds its feasible tuple from the canonical decisions
    monkeypatch.setattr(planner_module, "anchor_decision", never)
    cfg = PlannerConfig(help_policy=FAIL_ON_HELP)
    dist = plan_distributed(scenario, scorer, quantile, cfg, feasible_provider=never)
    cent = plan_centralized(scenario, scorer, quantile, cfg)
    for trace in (dist, cent):
        assert trace.failed
        last = trace.records[-1]
        assert last.set_full
        (event,) = last.help
        assert event.unresolved and event.full_set and not event.coverage_miss


def test_interactive_help_never_asks_for_feasible_decisions_in_both_planners(monkeypatch):
    scenario = seeded_scenario(3, n_robots=(2, 2))
    scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
    quantile = Quantile(None, 5, 0.1)  # FULL-SET sentinel: every step asks
    io = SimpleNamespace(write=lambda _: None, readline=lambda: "1\n")

    def never(*_):
        raise AssertionError("the user's pick must not read feasible decisions")

    monkeypatch.setattr(planner_module, "anchor_decision", never)
    cfg = PlannerConfig(help_policy=INTERACTIVE_USER)
    dist = plan_distributed(scenario, scorer, quantile, cfg, feasible_provider=never, io=io)
    cent = plan_centralized(scenario, scorer, quantile, cfg, io=io)
    for trace in (dist, cent):
        assert not trace.failed
        events = [e for r in trace.records for e in r.help]
        assert events and all(e.kind == "user" and not e.unresolved for e in events)


def test_centralized_budget_error():
    scenario = seeded_scenario(8, n_robots=(2, 2))
    scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
    cfg = PlannerConfig(centralized_budget=10)
    with pytest.raises(BudgetError):
        plan_centralized(scenario, scorer, Quantile(0.5, 9, 0.1), cfg)


def test_trace_serialization_roundtrips_to_json_types():
    import json

    scenario = seeded_scenario(3)
    scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
    quantile = matching_quantile(scenario, scorer)
    trace = plan_distributed(scenario, scorer, quantile, PlannerConfig())
    payload = trace_to_dict(trace)
    text = json.dumps(payload)
    assert json.loads(text)["scenario_id"] == scenario.id
    assert payload["scorer_calls"] == trace.scorer_calls


def test_search_provider_feeds_feasible_resolutions():
    scenario = seeded_scenario(3, n_subtasks=(1, 1), n_objects=(2, 2), horizon_slack=1)
    space = decision_space(scenario.env)
    uniform = tuple(1 / len(space) for _ in space)
    scorer = StubScorer({(0, r): uniform for r in range(scenario.n_robots)})
    quantile = Quantile(0.7, 19, 0.1)
    cfg = PlannerConfig(help_policy=ORACLE_USER)
    trace = plan_distributed(
        scenario,
        scorer,
        quantile,
        cfg,
        feasible_provider=search_feasible_provider(scenario),
    )
    assert validate_scenario_plan(scenario, trace.plan).complete


def _audit_plumbing(trace, space):
    """Every committed decision came from a singleton set, a user resolution,
    or (argmax mode) the per-iteration argmax; checkable from the trace alone."""
    index_by_decision = {d: i for i, d in enumerate(space)}
    committed = {}
    for record in trace.records:
        if record.chosen_index is None:
            assert record.help and record.help[0].kind in ("reorder", "user")
            continue
        committed[(record.t, record.robot)] = record  # later records overwrite
    for (t, robot), record in committed.items():
        if trace.mode == "argmax":
            continue
        if record.set_size == 1:
            assert record.chosen_index == record.set_indices[0]
        else:
            users = [h for h in record.help if h.kind == "user"]
            assert users and users[0].resolution_index == record.chosen_index
    for t, jd in enumerate(trace.plan):
        for robot, decision in enumerate(jd):
            record = committed[(t, robot)]
            assert space[record.chosen_index] == decision


def test_trace_plumbing_soundness_audit():
    scenario = seeded_scenario(3)
    space = decision_space(scenario.env)
    scorer = build_scorer(ScorerSpec(kind="noisy-oracle", rng_seed=4))
    from confplan.conformal import build_calibration_set, calibrate as _calibrate
    from confplan.scenario import default_distribution_params as _ddp

    records = build_calibration_set(_ddp(3), 20, build_scorer(ScorerSpec(rng_seed=4)))
    quantile = _calibrate(records, 0.1)
    cfg = PlannerConfig(reorder_bound=1, help_policy=ORACLE_USER)
    trace = plan_distributed(scenario, scorer, quantile, cfg)
    _audit_plumbing(trace, space)
    argmax_trace = plan_argmax(scenario, build_scorer(ScorerSpec(rng_seed=4)))
    _audit_plumbing(argmax_trace, space)
