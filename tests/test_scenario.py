import dataclasses
import itertools
import multiprocessing
import pickle
import random
import types
from concurrent.futures import ProcessPoolExecutor

import pytest

from confplan import scenario as scenario_module
from confplan import world
from confplan.context import Context, OrderSchedule
from confplan.errors import ConfigError, NoFeasibleError, OracleError
from confplan.scenario import (
    DistributionParams,
    FeasibilityIndex,
    FeasibleResult,
    Scenario,
    anchor_decision,
    argmax_feasible,
    decision_index,
    decision_space,
    default_distribution_params,
    feasible_next_decisions,
    flat_to_plan,
    label_sequence,
    oracle_plan,
    oracle_plan_failure,
    params_from_dict,
    params_to_dict,
    reference_distribution_params,
    sample_scenario,
    scenario_from_dict,
    scenario_to_dict,
    teacher_sequence,
    validate_scenario_plan,
)
from confplan.scoring import ScoreVector, ScorerSpec, build_scorer
from confplan.world import (
    ACTION_KINDS,
    DESTINATION,
    CONTAINER_SITE,
    GOTO,
    GRAB,
    IDLE_DECISION,
    OBJECT_SITE,
    OPEN_DOOR,
    PUTDOWN,
    Container,
    Decision,
    Environment,
    Location,
    Mission,
    SafetyConstraint,
    SemanticObject,
    SubTask,
)


def make_scenario(env, mission, n_robots=1, horizon=6, order_seed=0, sid="scn-test"):
    return Scenario(
        id=sid,
        n_robots=n_robots,
        skills=ACTION_KINDS,
        mission=mission,
        horizon=horizon,
        env=env,
        order_seed=order_seed,
    )


def two_object_env(n_robots=1):
    """2 loose objects, 1 container, 1 destination: a 9-decision space."""
    return Environment(
        locations=(
            Location("loc-obj-1", "apple spot", OBJECT_SITE),
            Location("loc-obj-2", "bread spot", OBJECT_SITE),
            Location("loc-cont-1", "fridge spot", CONTAINER_SITE),
            Location("loc-dest-1", "table", DESTINATION),
        ),
        objects=(
            SemanticObject("obj-1", "apple", "loc-obj-1"),
            SemanticObject("obj-2", "bread", "loc-obj-2"),
        ),
        containers=(Container("cont-1", "fridge", "loc-cont-1"),),
        robot_start=("loc-dest-1",) * n_robots,
    )


class StubScorer:
    """Fixed score tables keyed by iteration index; uniform elsewhere."""

    def __init__(self, tables=None):
        self.tables = tables or {}
        from confplan.scoring import CallCounter

        self.counter = CallCounter()

    def score_all(self, ctx, space, count=True):
        if count:
            self.counter.add(len(space))
        raw = self.tables.get(ctx.k)
        if raw is None:
            raw = [0.0] * len(space)
        return ScoreVector.from_raw(raw)


# --- decision space -----------------------------------------------------------


def test_decision_space_size_nine():
    space = decision_space(two_object_env())
    # (2 loose + 1 container + 1 destination) GoTo + 2 Grab + 1 PutDown
    # + 1 OpenDoor + 1 Idle
    assert len(space) == 9
    kinds = [d.kind for d in space]
    assert kinds == [GOTO] * 4 + [GRAB] * 2 + [PUTDOWN] + [OPEN_DOOR] + ["idle"]
    assert space[-1] == IDLE_DECISION


def test_decision_space_empty_env_is_idle_only():
    env = Environment(locations=(), objects=(), containers=(), robot_start=())
    assert decision_space(env) == (IDLE_DECISION,)


def test_reference_profile_reaches_28_decisions():
    params = reference_distribution_params(3)
    for draw in range(5):
        s = sample_scenario(params, draw)
        assert len(decision_space(s.env)) == 28
        assert len({o.label for o in s.env.objects}) == 6
        assert len(s.env.objects) == 12
        assert len(s.skills) == 5


# --- sampling ----------------------------------------------------------------


def test_sampling_is_deterministic_per_draw_index():
    params = default_distribution_params(7)
    a = scenario_to_dict(sample_scenario(params, 4))
    b = scenario_to_dict(sample_scenario(params, 4))
    assert a == b
    # draw order does not matter: index keying, not stream sharing
    c = scenario_to_dict(sample_scenario(params, 2))
    _ = sample_scenario(params, 9)
    d = scenario_to_dict(sample_scenario(params, 2))
    assert c == d


def test_k_zero_missions_have_empty_oracle_and_slack_horizon():
    params = dataclasses.replace(
        default_distribution_params(1),
        n_subtasks=(0, 0),
        safety_prob=0.0,
        horizon_slack=3,
    )
    s = sample_scenario(params, 0)
    assert s.mission.subtasks == ()
    assert oracle_plan(s) == ()
    assert s.horizon == 3
    assert validate_scenario_plan(s, oracle_plan(s)).complete


def test_params_roundtrip_and_validation():
    params = reference_distribution_params(5)
    assert params_from_dict(params_to_dict(params)) == params
    with pytest.raises(ConfigError):
        params_from_dict(params_to_dict(dataclasses.replace(params, n_robots=(2, 1))))


def test_scenario_roundtrip():
    s = sample_scenario(default_distribution_params(11), 3)
    assert scenario_from_dict(scenario_to_dict(s)) == s


def test_equal_scenarios_hash_equal_and_hash_their_fields():
    s = sample_scenario(default_distribution_params(11), 3)
    first = hash(s)  # computed, then kept on the instance
    for other in (
        sample_scenario(default_distribution_params(11), 3),
        dataclasses.replace(s),
        dataclasses.replace(s, env=dataclasses.replace(s.env)),
        scenario_from_dict(scenario_to_dict(s)),
    ):
        assert other == s and other is not s
        assert hash(other) == hash(s) == first
        assert hash(other.env) == hash(s.env)
    fields = tuple(getattr(s, f.name) for f in dataclasses.fields(s))
    assert first == hash(fields)
    moved = dataclasses.replace(s, order_seed=s.order_seed + 1)
    assert moved != s and hash(moved) == hash(fields[:-1] + (s.order_seed + 1,))


def test_pickles_never_carry_the_cached_hash():
    s = sample_scenario(default_distribution_params(11), 3)
    hash(s)
    assert s.schedule == OrderSchedule(s.n_robots, s.order_seed)
    loaded = pickle.loads(pickle.dumps(s))
    assert "_hash" in vars(s) and "_hash" in vars(s.env)
    assert "_hash" not in vars(loaded) and "_hash" not in vars(loaded.env)
    assert "_oracle_plan" in vars(s) and "_oracle_plan" not in vars(loaded)
    assert "_schedule" in vars(s) and "_schedule" not in vars(loaded)
    assert loaded == s and hash(loaded) == hash(s)
    assert oracle_plan(loaded) == oracle_plan(s)
    assert loaded.schedule == s.schedule
    # a replaced copy derives its own schedule instead of inheriting the memo
    moved = dataclasses.replace(s, order_seed=s.order_seed + 1)
    assert moved.schedule == OrderSchedule(s.n_robots, s.order_seed + 1)
    assert dataclasses.replace(s, n_robots=3).schedule == OrderSchedule(3, s.order_seed)


def lookups_in_a_fresh_process(sent):
    """Runs in a spawned worker, whose str hashes are salted differently: the
    scenario sent over must hash, compare and resolve like one sampled here."""
    fresh = sample_scenario(default_distribution_params(11), 3)
    anchor = oracle_plan(sent)[0][0]
    return (
        hash(sent) == hash(fresh) and hash(sent.env) == hash(fresh.env),
        sent in {fresh} and sent.env in {fresh.env},
        oracle_plan(sent),
        decision_index(sent.env)[anchor],
    )


def test_scenario_with_a_cached_hash_resolves_in_a_spawned_worker():
    s = sample_scenario(default_distribution_params(11), 3)
    plan = oracle_plan(s)  # caches hash(s) and hash(s.env)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        same_hash, found, sent_plan, index = pool.submit(
            lookups_in_a_fresh_process, s
        ).result(timeout=120)
    assert same_hash and found
    assert sent_plan == plan
    assert index == decision_index(s.env)[plan[0][0]]


def test_sampled_horizon_is_oracle_length_plus_slack():
    params = dataclasses.replace(default_distribution_params(2), horizon_slack=2)
    for draw in range(6):
        s = sample_scenario(params, draw)
        assert s.horizon == len(oracle_plan(s)) + 2


# --- oracle plan ---------------------------------------------------------------


def fig_style_four_delivery_scenario():
    """Four loose objects to two destinations with a single robot."""
    env = Environment(
        locations=(
            Location("loc-obj-1", "tomato spot", OBJECT_SITE),
            Location("loc-obj-2", "apple spot", OBJECT_SITE),
            Location("loc-obj-3", "kettle spot", OBJECT_SITE),
            Location("loc-obj-4", "bread spot", OBJECT_SITE),
            Location("loc-sink", "sink", DESTINATION),
            Location("loc-table", "table", DESTINATION),
        ),
        objects=(
            SemanticObject("obj-1", "tomato", "loc-obj-1"),
            SemanticObject("obj-2", "apple", "loc-obj-2"),
            SemanticObject("obj-3", "kettle", "loc-obj-3"),
            SemanticObject("obj-4", "bread", "loc-obj-4"),
        ),
        containers=(),
        robot_start=("loc-sink",),
    )
    mission = Mission(
        (
            SubTask("tomato", ("loc-sink",)),
            SubTask("apple", ("loc-sink",)),
            SubTask("kettle", ("loc-table",)),
            SubTask("bread", ("loc-table",)),
        )
    )
    return make_scenario(env, mission, n_robots=1, horizon=16)


def test_oracle_four_deliveries_takes_sixteen_steps():
    s = fig_style_four_delivery_scenario()
    plan = oracle_plan(s)
    assert len(plan) == 16  # four sub-tasks, four decisions each
    assert validate_scenario_plan(s, plan).complete


def test_oracle_leaves_extra_robot_idle():
    env = two_object_env(n_robots=3)
    mission = Mission(
        (SubTask("apple", ("loc-dest-1",)), SubTask("bread", ("loc-dest-1",)))
    )
    s = make_scenario(env, mission, n_robots=3, horizon=6)
    plan = oracle_plan(s)
    assert all(jd[2] == IDLE_DECISION for jd in plan)
    assert validate_scenario_plan(s, plan).complete


def test_oracle_respects_safety_assignment():
    env = two_object_env(n_robots=2)
    mission = Mission(
        (SubTask("apple", ("loc-dest-1",)),),
        safety=world.SafetyConstraint(robot=0, forbidden_object="obj-1"),
    )
    s = make_scenario(env, mission, n_robots=2, horizon=5)
    plan = oracle_plan(s)
    assert all(
        not world.violates_safety(0, jd[0], mission.safety) for jd in plan
    )
    assert validate_scenario_plan(s, plan).complete


def test_enclosed_subtask_expands_to_five_steps():
    env = Environment(
        locations=(
            Location("loc-cont-1", "fridge spot", CONTAINER_SITE),
            Location("loc-dest-1", "table", DESTINATION),
        ),
        objects=(SemanticObject("obj-1", "tomato", "loc-cont-1", inside="cont-1"),),
        containers=(Container("cont-1", "fridge", "loc-cont-1"),),
        robot_start=("loc-dest-1",),
    )
    mission = Mission((SubTask("tomato", ("loc-dest-1",)),))
    s = make_scenario(env, mission, horizon=5)
    plan = oracle_plan(s)
    assert [jd[0].kind for jd in plan] == [GOTO, OPEN_DOOR, GRAB, GOTO, PUTDOWN]
    assert validate_scenario_plan(s, plan).complete


# --- feasibility ------------------------------------------------------------------


def test_feasible_with_no_subtasks_is_every_world_feasible_decision():
    env = two_object_env()
    s = make_scenario(env, Mission(()), horizon=2)
    result = feasible_next_decisions(s, ())
    assert result.mode == "exact"
    state = world.initial_state(env, 1)

    def executable(d):
        try:
            world.apply_decision(env, state, 0, d)
        except world.InfeasibleDecision:
            return False
        return True

    expected = tuple(d for d in decision_space(env) if executable(d))
    assert result.decisions == expected
    assert IDLE_DECISION in result.decisions


def test_feasible_under_tight_horizon_forces_the_door_open():
    env = Environment(
        locations=(
            Location("loc-cont-1", "fridge spot", CONTAINER_SITE),
            Location("loc-dest-1", "table", DESTINATION),
        ),
        objects=(SemanticObject("obj-1", "tomato", "loc-cont-1", inside="cont-1"),),
        containers=(Container("cont-1", "fridge", "loc-cont-1"),),
        robot_start=("loc-dest-1",),
    )
    mission = Mission((SubTask("tomato", ("loc-dest-1",)),))
    s = make_scenario(env, mission, horizon=5)  # exactly the oracle length
    history = (Decision(GOTO, "cont-1"),)
    result = feasible_next_decisions(s, history)
    assert result.mode == "exact"
    assert result.decisions == (Decision(OPEN_DOOR, "cont-1"),)


def test_idle_feasible_for_finished_robot_while_other_works():
    env = two_object_env(n_robots=2)
    mission = Mission((SubTask("apple", ("loc-dest-1",)),))
    s = make_scenario(env, mission, n_robots=2, horizon=5, order_seed=1)
    schedule = s.schedule
    index = FeasibilityIndex(s)
    # walk the teacher sequence one full step, then ask about the idle robot
    teacher = teacher_sequence(s)
    n = s.n_robots
    for k in range(n, 2 * n):
        result = index.feasible(teacher[:k])
        t, pos = divmod(k, n)
        robot = schedule.order_at(t)[pos]
        if anchor_decision(s, t, robot) == IDLE_DECISION:
            assert IDLE_DECISION in result.decisions
            break
    else:
        pytest.skip("no idle robot in this step")


def test_exact_feasible_always_contains_oracle_next_decision():
    params = default_distribution_params(23)
    checked = 0
    for draw in range(8):
        s = sample_scenario(params, draw)
        index = FeasibilityIndex(s)
        teacher = teacher_sequence(s)
        if not index.exact_at(0):
            continue
        for k in range(len(teacher)):
            result = index.feasible(teacher[:k])
            assert teacher[k] in result.decisions
            checked += 1
    assert checked > 0


def test_budget_fallback_reports_oracle_mode():
    s = fig_style_four_delivery_scenario()  # |S| = 13, T = 16: way past 10^3
    result = feasible_next_decisions(s, (), budget=1000)
    assert result.mode == "oracle"
    assert result.decisions == (teacher_sequence(s)[0],)


def brute_force_feasible(s, history):
    """Feasible set at len(history) by enumerating completions and judging
    each with world.validate_plan.

    Like the search, it asks the mission to hold at a step boundary after the
    current step: validate_plan alone also accepts a plan whose mission held
    earlier and was undone later.
    """
    n, horizon = s.n_robots, s.horizon
    space = decision_space(s.env)
    current = len(history) // n

    def completable(flat):
        plan = flat_to_plan(s, flat)
        trace = validate_scenario_plan(s, plan).trace
        if any(o.infeasible or o.safety_violations for o in trace):
            return False
        if any(o.satisfied_after for o in trace[current:]):
            return True
        return len(plan) < horizon and any(
            completable(flat + rest) for rest in itertools.product(space, repeat=n)
        )

    out = []
    for d in space:
        head = tuple(history) + (d,)
        fills = itertools.product(space, repeat=-len(head) % n)
        if any(completable(head + rest) for rest in fills):
            out.append(d)
    return tuple(out)


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


@pytest.mark.parametrize(
    "params",
    [
        dataclasses.replace(
            default_distribution_params(5),
            n_robots=(1, 1),
            n_subtasks=(1, 1),
            n_objects=(1, 2),
            n_destinations=(1, 1),
            safety_prob=0.5,
        ),
        MULTI_FEASIBLE,
        dataclasses.replace(
            default_distribution_params(6),
            n_robots=(2, 2),
            n_subtasks=(1, 1),
            n_objects=(1, 2),
            n_containers=(0, 0),
            n_destinations=(1, 1),
            safety_prob=1.0,
            horizon_slack=0,
        ),
    ],
    ids=["default", "multi-feasible", "two-robot"],
)
def test_feasible_matches_brute_force_completions(params):
    s = next(
        s
        for s in (sample_scenario(params, draw) for draw in range(12))
        if FeasibilityIndex(s).exact_at(0)
    )
    index = FeasibilityIndex(s)
    teacher = teacher_sequence(s)
    for k in range(len(teacher)):
        expected = brute_force_feasible(s, teacher[:k])
        assert index.feasible(teacher[:k]) == FeasibleResult(expected, "exact")
    # off the teacher: take the last feasible decision the teacher does not
    path: list[Decision] = []
    for k in range(len(teacher)):
        expected = brute_force_feasible(s, tuple(path))
        assert index.feasible(tuple(path)) == FeasibleResult(expected, "exact")
        off = [d for d in expected if d != teacher[k]]
        path.append(off[-1] if off else expected[0])
    assert tuple(path) != teacher


def satisfied_without_bound(index: FeasibilityIndex, state) -> int:
    """Reference: 0 when the mission holds (world.mission_satisfied on the
    compact state), else 1, so the search prunes only at `t < horizon`."""
    candidates = []
    for objects, dests in index._goals:
        ids = [i for i in objects if state[index.model.obj_at + i] in dests]
        if not ids:
            return 1
        candidates.append(ids)
    return 0 if world.distinct_match(candidates) else 1


LIFTED_BUDGET = 10**100  # every iteration of these profiles is searched exactly


@pytest.mark.parametrize(
    "params",
    [
        default_distribution_params(31),
        dataclasses.replace(default_distribution_params(32), n_robots=(2, 2)),
        dataclasses.replace(MULTI_FEASIBLE, rng_seed=33),
        # up to two sub-tasks keep the unpruned search short
        dataclasses.replace(reference_distribution_params(34), n_robots=(1, 1), n_subtasks=(1, 2)),
        dataclasses.replace(
            default_distribution_params(35), n_containers=(1, 1), enclosure_prob=1.0
        ),
    ],
    ids=["default", "two-robot-default", "criterion-9", "one-robot-reference", "containers"],
)
def test_the_bound_keeps_every_feasible_set(params):
    for draw in range(12):
        s = sample_scenario(params, draw)
        pruned = FeasibilityIndex(s, budget=LIFTED_BUDGET)
        unpruned = FeasibilityIndex(s, budget=LIFTED_BUDGET)
        unpruned._steps_left = types.MethodType(satisfied_without_bound, unpruned)
        teacher = teacher_sequence(s)
        rnd = random.Random(draw)
        for follow_teacher in (True, False):  # then a random feasible walk
            path: list[Decision] = []
            for k in range(len(teacher)):
                result = pruned.feasible(tuple(path))
                assert result.mode == "exact"
                assert result == unpruned.feasible(tuple(path)), (s.id, k)
                path.append(teacher[k] if follow_teacher else rnd.choice(result.decisions))
        assert len(pruned._memo) <= len(unpruned._memo)


def test_feasible_prefix_contract():
    env = two_object_env()
    mission = Mission((SubTask("apple", ("loc-dest-1",)),), SafetyConstraint(0, "obj-2"))
    s = make_scenario(env, mission, horizon=5)
    index = FeasibilityIndex(s)
    assert index.feasible((Decision(GOTO, "obj-1"),)).decisions
    # a prefix that violates safety leaves nothing feasible
    assert index.feasible((Decision(GOTO, "obj-2"),)) == FeasibleResult((), "exact")
    # a world-infeasible prefix raises, also when it extends a cached one
    with pytest.raises(ValueError):
        index.feasible((Decision(GRAB, "obj-1"),))
    with pytest.raises(ValueError):
        index.feasible((Decision(GOTO, "obj-1"), Decision(PUTDOWN, "loc-dest-1")))
    assert index.feasible((Decision(GOTO, "obj-1"), Decision(GRAB, "obj-1"))).decisions
    # duplicate and incomplete context histories raise
    go = Decision(GOTO, "obj-1")
    for history in (((0, 0, go), (0, 0, go)), ((1, 0, go),)):
        ctx = Context(scenario=s, history=history, cursor=(1, 0))
        with pytest.raises(ValueError):
            index.feasible_for_context(ctx)
    # two robots may not grab one object in the same step
    pair = make_scenario(
        two_object_env(n_robots=2), Mission(mission.subtasks), n_robots=2, horizon=4
    )
    grab = Decision(GRAB, "obj-1")
    ctx = Context(scenario=pair, history=((0, 0, go), (0, 1, go), (1, 0, grab)), cursor=(1, 1))
    result = FeasibilityIndex(pair).feasible_for_context(ctx)
    assert result.decisions and grab not in result.decisions


def test_labeling_computes_each_step_order_once(monkeypatch):
    s = next(
        s
        for s in (sample_scenario(MULTI_FEASIBLE, draw) for draw in range(12))
        if FeasibilityIndex(s).exact_at(0)
    )
    scorer = build_scorer(ScorerSpec())
    labels = label_sequence(s, scorer, label_mode="selector").decisions
    calls = []
    order_at = OrderSchedule.order_at

    def counted(self, t):
        calls.append(t)
        return order_at(self, t)

    monkeypatch.setattr(OrderSchedule, "order_at", counted)
    index = FeasibilityIndex(s)
    for k in range(len(labels)):
        assert labels[k] in index.feasible(labels[:k]).decisions
    assert len(calls) <= s.horizon


# --- selector and labels ------------------------------------------------------------


def test_selector_singleton_ignores_scores():
    env = two_object_env()
    only = (Decision(GOTO, "obj-2"),)
    raw = [0.0 if d == only[0] else 5.0 for d in decision_space(env)]
    scores = ScoreVector.from_raw(raw).scores
    assert argmax_feasible(scores, only, decision_index(env)) == only[0]


def test_selector_picks_highest_score_and_breaks_ties_by_index():
    env = two_object_env()
    space = decision_space(env)
    index = decision_index(env)
    raw = [0.0] * len(space)
    raw[1], raw[3] = 0.6, 0.3
    scores = ScoreVector.from_raw(raw).scores
    feas = (space[3], space[1])
    assert argmax_feasible(scores, feas, index) == space[1]
    # exact tie: lower decision-space index wins
    tie = ScoreVector.from_raw([0.0] * len(space)).scores
    assert argmax_feasible(tie, (space[5], space[2]), index) == space[2]
    with pytest.raises(NoFeasibleError):
        argmax_feasible(scores, (), index)


def test_label_sequence_k_zero_is_all_idle():
    params = dataclasses.replace(
        default_distribution_params(1), n_subtasks=(0, 0), safety_prob=0.0
    )
    s = sample_scenario(params, 0)
    scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
    lr = label_sequence(s, scorer, label_mode="selector")
    assert all(d == IDLE_DECISION for d in lr.decisions)
    assert len(lr.decisions) == s.n_robots * s.horizon


def test_label_with_oracle_indicator_scorer_follows_the_oracle():
    params = dataclasses.replace(default_distribution_params(9), horizon_slack=1)
    for draw in range(4):
        s = sample_scenario(params, draw)
        scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
        lr = label_sequence(s, scorer, label_mode="selector")
        assert lr.decisions == teacher_sequence(s)
        plan = flat_to_plan(s, lr.decisions)
        assert validate_scenario_plan(s, plan).complete


def test_label_forced_steps_match_oracle_when_feasible_sets_are_singletons():
    env = Environment(
        locations=(
            Location("loc-cont-1", "fridge spot", CONTAINER_SITE),
            Location("loc-dest-1", "table", DESTINATION),
        ),
        objects=(SemanticObject("obj-1", "tomato", "loc-cont-1", inside="cont-1"),),
        containers=(Container("cont-1", "fridge", "loc-cont-1"),),
        robot_start=("loc-dest-1",),
    )
    mission = Mission((SubTask("tomato", ("loc-dest-1",)),))
    s = make_scenario(env, mission, horizon=5)  # tight horizon: unique plan
    scorer = StubScorer()  # uniform scores: selector must rely on feasibility
    lr = label_sequence(s, scorer, label_mode="selector")
    assert lr.decisions == teacher_sequence(s)


def test_label_validates_complete_oracle_mode():
    params = default_distribution_params(31)
    for draw in range(6):
        s = sample_scenario(params, draw)
        scorer = build_scorer(ScorerSpec())  # default noisy-oracle
        lr = label_sequence(s, scorer, label_mode="oracle")
        assert len(lr.decisions) == s.n_robots * s.horizon
        assert len(lr.scores) == len(lr.decisions)
        assert all(0.0 <= v <= 1.0 for v in lr.scores)


def counted_validations(monkeypatch) -> list:
    """Arguments of every world.validate_plan call from now on."""
    calls = []
    validate = world.validate_plan

    def counting(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(world, "validate_plan", counting)
    return calls


def test_a_sampled_scenario_validates_its_canonical_plan_once(monkeypatch):
    params = default_distribution_params(8)
    oracle_plan_failure.cache_clear()
    calls = counted_validations(monkeypatch)
    s = sample_scenario(params, 0)
    assert len(calls) == 1 and calls[0][4] == oracle_plan(s)
    assert sample_scenario(params, 0) == s
    label_sequence(s, build_scorer(ScorerSpec()), label_mode="oracle")
    assert len(calls) == 1


@pytest.mark.parametrize("label_mode, validations", [("oracle", 0), ("selector", 1)])
def test_only_selector_labels_are_validated_again(monkeypatch, label_mode, validations):
    params = dataclasses.replace(default_distribution_params(8), n_robots=(1, 1))
    s = sample_scenario(params, 2)
    calls = counted_validations(monkeypatch)
    label_sequence(s, build_scorer(ScorerSpec()), label_mode=label_mode)
    assert len(calls) == validations


def short_horizon_scenario() -> Scenario:
    """A file-loaded scenario whose horizon is one step shorter than its
    canonical plan; loading does not check the plan."""
    s = sample_scenario(default_distribution_params(3), 1)
    data = scenario_to_dict(s)
    data["horizon"] = len(oracle_plan(s)) - 1
    return scenario_from_dict(data)


def test_a_loaded_scenario_keeps_its_oracle_label_check():
    loaded = short_horizon_scenario()
    # reference: the label sequence reassembled into a plan and validated
    labels = flat_to_plan(loaded, teacher_sequence(loaded))
    reason = validate_scenario_plan(loaded, labels).reason
    assert reason == "mission-unsatisfied"
    for _ in range(2):  # the memoised verdict fails the second labeling too
        with pytest.raises(OracleError) as exc:
            label_sequence(loaded, build_scorer(ScorerSpec()), label_mode="oracle")
        assert str(exc.value) == f"{loaded.id}: label sequence fails validation ({reason})"


def test_oracle_validates_on_a_hundred_scenarios():
    params = default_distribution_params(42)
    multi = dataclasses.replace(
        reference_distribution_params(43), n_robots=(1, 3), multi_destination_prob=0.5,
        n_destinations=(2, 2),
    )
    for profile, count in ((params, 70), (multi, 30)):
        for draw in range(count):
            s = sample_scenario(profile, draw)
            assert validate_scenario_plan(s, oracle_plan(s)).complete


def test_a_sampled_scenario_builds_its_canonical_plan_once(monkeypatch):
    built = []
    build = scenario_module._build_oracle

    def counted(env, mission, n_robots):
        built.append((env, mission, n_robots))
        return build(env, mission, n_robots)

    monkeypatch.setattr(scenario_module, "_build_oracle", counted)
    oracle_plan_failure.cache_clear()
    params = default_distribution_params(12)
    scenarios = [sample_scenario(params, draw) for draw in range(40)]
    scorer = build_scorer(ScorerSpec())
    for s in scenarios:
        label_sequence(s, scorer, label_mode="oracle")
    assert len(built) == len(scenarios)
    assert built == [(s.env, s.mission, s.n_robots) for s in scenarios]
    # a scenario that was not sampled builds its plan on first use, once
    loaded = scenario_from_dict(scenario_to_dict(scenarios[0]))
    assert oracle_plan(loaded) == oracle_plan(scenarios[0]) == oracle_plan(loaded)
    assert len(built) == len(scenarios) + 1


def test_generation_error_after_bounded_retries(monkeypatch):
    import confplan.scenario as scenario_module
    from confplan.errors import GenerationError, OracleError

    def always_fails(env, mission, n_robots):
        raise OracleError("forced failure")

    monkeypatch.setattr(scenario_module, "_build_oracle", always_fails)
    with pytest.raises(GenerationError):
        sample_scenario(default_distribution_params(0), 0)


def test_scenario_from_dict_validates_cross_references():
    s = sample_scenario(default_distribution_params(11), 3)
    data = scenario_to_dict(s)
    import copy

    bad = copy.deepcopy(data)
    bad["mission"]["subtasks"] = [{"object_label": "ghost", "destinations": ["loc-dest-1"]}]
    with pytest.raises(ConfigError):
        scenario_from_dict(bad)
    bad = copy.deepcopy(data)
    bad["mission"]["safety"] = {"robot": 99, "forbidden_object": "obj-1"}
    with pytest.raises(ConfigError):
        scenario_from_dict(bad)
    bad = copy.deepcopy(data)
    bad["n_robots"] = 0
    with pytest.raises(ConfigError):
        scenario_from_dict(bad)
