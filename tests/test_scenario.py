import dataclasses
import itertools
import multiprocessing
import pickle
import random
import runpy
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from confplan import scenario as scenario_module
from confplan import scoring, world
from confplan.context import Context, OrderSchedule, advance, initial_context, reset_step
from confplan.errors import BudgetError, ConfigError, NoFeasibleError, OracleError
from confplan.scenario import (
    DistributionParams,
    FeasibilityIndex,
    FeasibleResult,
    Scenario,
    anchor_decision,
    decision_index,
    decision_space,
    default_distribution_params,
    flat_to_plan,
    label_sequence,
    label_sequences,
    oracle_plan,
    oracle_plan_failure,
    params_from_dict,
    params_to_dict,
    reference_distribution_params,
    sample_scenario,
    scenario_from_dict,
    scenario_to_dict,
    search_structure,
    teacher_sequence,
    validate_params,
    validate_scenario_plan,
)
from confplan.conformal import build_calibration_set
from confplan.scoring import ScorerSpec, build_scorer, softmax
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
    """Fixed raw score rows keyed by iteration index; uniform elsewhere. A
    bare `score_all(ctx)`, with no score tables: a label's rows are scored on
    demand, one context per iteration."""

    def __init__(self, tables=None):
        self.tables = tables or {}

    def score_all(self, ctx):
        raw = self.tables.get(ctx.k)
        if raw is None:
            raw = [0.0] * len(decision_space(ctx.scenario.env))
        return tuple(softmax(raw).tolist())


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
    first = hash(s)
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


SCENARIO_MEMOS = ("_orders", "_oracle_plan", "_plan_failure")
ENVIRONMENT_MEMOS = ("_decision_space", "_decision_index", "_models")


def test_pickles_never_carry_a_memo():
    s = sample_scenario(default_distribution_params(11), 3)
    label_sequence(s, build_scorer(ScorerSpec()), label_mode="selector")  # derives every memo
    loaded = pickle.loads(pickle.dumps(s))
    for instance, copy, memos in ((s, loaded, SCENARIO_MEMOS), (s.env, loaded.env, ENVIRONMENT_MEMOS)):
        assert set(vars(instance)) == {f.name for f in dataclasses.fields(instance)} | set(memos)
        assert set(vars(copy)) == {f.name for f in dataclasses.fields(copy)}
    assert loaded == s and hash(loaded) == hash(s)
    # the copy derives each value again, equal to the original's
    assert oracle_plan(loaded) == oracle_plan(s)
    assert oracle_plan_failure(loaded) is None and "_plan_failure" in vars(loaded)
    assert loaded.orders == s.orders
    assert decision_index(loaded.env) == decision_index(s.env)
    n = s.n_robots
    assert world.compact_model(loaded.env, n).start == world.compact_model(s.env, n).start
    # a replaced copy derives its own orders instead of inheriting the memo
    moved = dataclasses.replace(s, order_seed=s.order_seed + 1)
    assert "_orders" not in vars(moved)
    schedule = OrderSchedule(s.n_robots, s.order_seed + 1)
    assert moved.orders == tuple(schedule.order_at(t) for t in range(s.horizon))
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
    plan = oracle_plan(s)
    index = decision_index(s.env)  # memoised on the environment before it is sent
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        same_hash, found, sent_plan, sent_index = pool.submit(
            lookups_in_a_fresh_process, s
        ).result(timeout=120)
    assert same_hash and found
    assert sent_plan == plan
    assert sent_index == index[plan[0][0]]


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
    result = FeasibilityIndex(s).feasible(())
    assert result.mode == "exact"
    model = world.compact_model(env, 1)

    expected = tuple(
        d for d in decision_space(env) if model.joint_writes(model.start, (d,)).__class__ is list
    )
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
    result = FeasibilityIndex(s).feasible(history)
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
    index = FeasibilityIndex(s, budget=1000)
    result = index.feasible(())
    assert result.mode == "oracle"
    assert result.decisions == (teacher_sequence(s)[0],)
    # a prefix that leaves the canonical path above the gate cannot be searched
    off_path = next(d for d in index.space if d != result.decisions[0])
    with pytest.raises(BudgetError):
        index.feasible((off_path,))


def test_the_gate_is_the_integer_rule():
    # |S| = 10: 10^6 <= 10^6 is exact, 10^7 is not
    s = sample_scenario(default_distribution_params(5), 24)
    index = FeasibilityIndex(s)
    assert (s.id, len(index.space)) == ("scn-5-24", 10)
    assert index.exact_at(index.total_iterations - 6)
    assert not index.exact_at(index.total_iterations - 7)


def brute_force_feasible(s, history):
    """Feasible set at len(history) by enumerating completions and running
    each on the world model (`world.compact_model`) step by step.

    Like the search, it asks the mission to hold at a step boundary after the
    current step: validate_plan alone also accepts a plan whose mission held
    earlier and was undone later.
    """
    n, horizon = s.n_robots, s.horizon
    space = decision_space(s.env)
    current = len(history) // n
    model = world.compact_model(s.env, n)
    goals = model.goals(s.mission)

    def completable(flat):
        plan = flat_to_plan(s, flat)
        state, held = model.start, False
        for t, jd in enumerate(plan):
            if any(world.violates_safety(r, d, s.mission.safety) for r, d in enumerate(jd)):
                return False
            writes = model.joint_writes(state, jd)
            if writes.__class__ is str:
                return False
            state = world.merge_writes(state, writes)
            held = held or (t >= current and model.satisfied(goals, state))
        if held:
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
    """Reference: 0 when the mission holds (the matching of
    `CompactModel.satisfied`), else 1, so the search prunes only at
    `t < horizon`."""
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
    # a world-infeasible prefix raises, also after a feasible query on the same index
    with pytest.raises(ValueError):
        index.feasible((Decision(GRAB, "obj-1"),))
    with pytest.raises(ValueError):
        index.feasible((Decision(GOTO, "obj-1"), Decision(PUTDOWN, "loc-dest-1")))
    assert index.feasible((Decision(GOTO, "obj-1"), Decision(GRAB, "obj-1"))).decisions
    # a duplicate, an incomplete and a skipped step in a context history raise
    go = Decision(GOTO, "obj-1")
    pair = make_scenario(
        two_object_env(n_robots=2), Mission(mission.subtasks), n_robots=2, horizon=4
    )
    for scn, history, cursor in (
        (s, ((0, 0, go), (0, 0, go)), (1, 0)),
        (s, ((1, 0, go),), (1, 0)),
        (pair, ((0, 0, go), (0, 1, go), (3, 0, go)), (3, 1)),
    ):
        ctx = Context(scenario=scn, history=history, cursor=cursor)
        with pytest.raises(ValueError):
            FeasibilityIndex(scn).feasible_for_context(ctx)
    # two robots may not grab one object in the same step
    grab = Decision(GRAB, "obj-1")
    ctx = Context(scenario=pair, history=((0, 0, go), (0, 1, go), (1, 0, grab)), cursor=(1, 1))
    result = FeasibilityIndex(pair).feasible_for_context(ctx)
    assert result.decisions and grab not in result.decisions
    # the cursor must follow the history: the step the fold reached, a robot
    # that has not decided in it
    history = ((0, 0, go), (0, 1, go), (1, 0, go))
    index = FeasibilityIndex(pair)
    result = index.feasible_for_context(Context(scenario=pair, history=history, cursor=(1, 1)))
    assert len(result.decisions) == 1 and result.mode == "exact"
    for cursor in ((1, 0), (3, 1)):
        with pytest.raises(ValueError):
            index.feasible_for_context(Context(scenario=pair, history=history, cursor=cursor))
    # above the exact-search gate a teacher history is folded as one below it
    # is: a repeated robot or a skipped step raises instead of being answered
    s = sample_scenario(dataclasses.replace(reference_distribution_params(), n_robots=(2, 2)), 0)
    index = FeasibilityIndex(s)
    assert not index.exact_at(3)
    order = s.orders[0]
    a = {(t, r): anchor_decision(s, t, r) for t in range(4) for r in range(2)}
    repeated = ((0, 0, a[0, 0]), (0, 0, a[0, 0]))
    skipped = ((0, order[0], a[0, order[0]]), (0, order[1], a[0, order[1]]), (3, 0, a[3, 0]))
    for history, cursor in ((repeated, (1, s.orders[1][0])), (skipped, (3, 1))):
        with pytest.raises(ValueError):
            index.feasible_for_context(Context(scenario=s, history=history, cursor=cursor))
    # the teacher's own prefix is still answered with the anchor at the cursor
    cursor = (1, s.orders[1][0])
    result = index.feasible_for_context(Context(scenario=s, history=skipped[:2], cursor=cursor))
    assert result == FeasibleResult((a[cursor],), "oracle")


BEST_PROFILES = {
    "default": default_distribution_params(41),
    "criterion-9": dataclasses.replace(MULTI_FEASIBLE, rng_seed=42),
    "two-robot-reference": dataclasses.replace(reference_distribution_params(43), n_robots=(2, 2)),
}


def outcome(call):
    """What a call returns, or the type of the search error it raises."""
    try:
        return call()
    except (BudgetError, NoFeasibleError, ValueError) as error:
        return type(error)


def best_of(row, fs, where):
    """The highest-scoring decision of a feasible set, a tie going to the
    lower space index, its score and the set's mode."""
    if not fs.decisions:
        raise NoFeasibleError("empty feasible set")
    d = max(fs.decisions, key=lambda d: (row[where[d]], -where[d]))
    return d, row[where[d]], fs.mode


def walk_against_argmax(s, rows, budget=scenario_module.EXACT_SEARCH_BUDGET):
    """Step `FeasibilityIndex.walk` over `rows` and assert that each step
    equals the best of the feasible set on the walk's own prefix, with its
    score and mode, the error type included. Returns the decisions, the modes
    and the error that ended the walk, if any."""
    reference = FeasibilityIndex(s, budget=budget)
    where = decision_index(s.env)
    walk = FeasibilityIndex(s, budget=budget).walk(rows)
    labeled: list[Decision] = []
    modes: list[str] = []
    for k, row in enumerate(rows):
        expected = outcome(lambda: best_of(row, reference.feasible(tuple(labeled)), where))
        assert outcome(lambda: next(walk)) == expected, (s.id, k)
        if not isinstance(expected, tuple):
            return labeled, modes, expected
        labeled.append(expected[0])
        modes.append(expected[2])
    return labeled, modes, None


@pytest.mark.parametrize("profile", sorted(BEST_PROFILES))
def test_the_walk_is_best_at_every_iteration(profile):
    seen, crossed = set(), 0
    for draw in range(4):
        s = sample_scenario(BEST_PROFILES[profile], draw)
        size, total = len(decision_space(s.env)), s.n_robots * s.horizon
        rnd = random.Random(draw)
        tables = (
            [[rnd.random() for _ in range(size)] for _ in range(total)],
            [[rnd.choice((0.25, 0.5)) for _ in range(size)] for _ in range(total)],  # ties
            [[0.5] * size] * total,
        )
        for rows in tables:
            _, modes, error = walk_against_argmax(s, rows)
            seen |= {*modes, error}
            crossed += {*modes} == {"oracle", "exact"}
    assert "exact" in seen
    if profile != "criterion-9":
        assert crossed  # labels that start above the gate and turn exact


def test_the_walk_is_best_on_hand_built_scenarios():
    # two robots with no step to spare: each must start on its own object at k = 0
    env = two_object_env(n_robots=2)
    mission = Mission((SubTask("apple", ("loc-dest-1",)), SubTask("bread", ("loc-dest-1",))))
    s = make_scenario(env, mission, n_robots=2, horizon=4)
    rows = [[0.5] * len(decision_space(env))] * 8
    labeled, modes, error = walk_against_argmax(s, rows, LIFTED_BUDGET)
    assert (len(labeled), modes[0], error) == (8, "exact", None)
    # one robot grabs the object it delivered, in a later step than the first grab
    env = two_object_env()
    s = make_scenario(env, Mission((SubTask("apple", ("loc-dest-1",)),)), horizon=6)
    space = decision_space(env)
    path = [
        Decision(GOTO, "obj-1"),
        Decision(GRAB, "obj-1"),
        Decision(GOTO, "loc-dest-1"),
        Decision(PUTDOWN, "loc-dest-1"),
        Decision(GRAB, "obj-1"),
        Decision(PUTDOWN, "loc-dest-1"),
    ]
    rows = [[float(d == want) for d in space] for want in path]
    assert walk_against_argmax(s, rows) == (path, ["exact"] * 6, None)


def test_the_walk_raises_where_best_raises():
    env = two_object_env()
    size = len(decision_space(env))
    rows = [[0.5] * size] * 5
    budget = size**4  # exact from k = 1
    mission = Mission((SubTask("apple", ("loc-dest-1",)),), SafetyConstraint(0, "obj-2"))
    s = make_scenario(env, mission, horizon=5)
    # a canonical prefix that breaks the safety constraint above the gate, though
    # the mission could still be accomplished after it
    object.__setattr__(s, "_oracle_plan", ((Decision(GOTO, "obj-2"),),))
    assert walk_against_argmax(s, rows, budget) == (
        [Decision(GOTO, "obj-2")], ["oracle"], NoFeasibleError
    )
    # a world-infeasible canonical prefix raises as its replay does
    object.__setattr__(s, "_oracle_plan", ((Decision(GRAB, "obj-1"),),))
    assert walk_against_argmax(s, rows, budget) == (
        [Decision(GRAB, "obj-1")], ["oracle"], ValueError
    )


def random_feasible_walk(index, prefix, length, rnd):
    """`prefix` extended by random feasible decisions up to `length`, or until
    nothing is feasible."""
    path = tuple(prefix)
    while len(path) < length:
        options = index.feasible(path).decisions
        if not options:
            break
        path += (rnd.choice(options),)
    return path


@pytest.mark.parametrize("profile", sorted(BEST_PROFILES))
def test_an_index_answers_from_the_prefix_alone(profile):
    seen = set()
    for draw in range(4):
        s = sample_scenario(BEST_PROFILES[profile], draw)
        probe = FeasibilityIndex(s)
        space, total = probe.space, probe.total_iterations
        first_exact = next(k for k in range(total) if probe.exact_at(k))
        rnd = random.Random(draw)
        first = random_feasible_walk(probe, teacher_sequence(s)[:first_exact], total - 1, rnd)
        # a sibling that leaves `first` at an exact iteration by a decision that
        # keeps its prefix executable, then goes on feasibly
        j = rnd.randrange(first_exact, len(first))
        turns = (
            first[:j] + (d,)
            for d in rnd.sample(space, len(space))
            if d != first[j]
            and outcome(lambda: probe.feasible(first[:j] + (d,))) is not ValueError
        )
        sibling = random_feasible_walk(probe, next(turns, first[: j + 1]), total - 1, rnd)
        # an extension of a prefix of `first` that the world cannot execute
        m = rnd.randrange(first_exact, len(first))
        infeasible = next(
            (
                first[:m] + (d,)
                for d in rnd.sample(space, len(space))
                if outcome(lambda: probe.feasible(first[:m] + (d,))) is ValueError
            ),
            first[:m],
        )
        # a prefix of `first` whose current step restarts under its reversed
        # order, with one decision taken under that order when one is feasible
        ctx = initial_context(s)
        for d in first[: rnd.randrange(first_exact, len(first) + 1)]:
            ctx = advance(ctx, d)
        t = ctx.cursor[0]
        order = tuple(reversed(s.orders[t]))
        restarted = reset_step(ctx, t, order)
        options = probe.feasible_for_context(restarted).decisions
        if options:
            restarted = advance(restarted, rnd.choice(options), order=order)
        queries = (
            lambda index: index.feasible(first),
            lambda index: index.feasible(sibling),
            lambda index: index.feasible(infeasible),
            lambda index: index.feasible(first),
            lambda index: index.feasible_for_context(restarted),
        )
        index = FeasibilityIndex(s)
        for step, query in enumerate(queries):
            answer = outcome(lambda: query(index))
            assert answer == outcome(lambda: query(FeasibilityIndex(s))), (s.id, step)
            seen.add(answer.mode if isinstance(answer, FeasibleResult) else answer)
    assert {"exact", ValueError} <= seen


@pytest.mark.parametrize(
    "params",
    [
        dataclasses.replace(default_distribution_params(47), n_robots=(2, 2)),
        BEST_PROFILES["two-robot-reference"],
    ],
    ids=["default", "reference"],
)
def test_a_query_does_not_depend_on_the_order_a_step_was_decided_in(params):
    answers = []
    for draw in range(6):
        s = sample_scenario(params, draw)
        probe = FeasibilityIndex(s)
        n, total = s.n_robots, probe.total_iterations
        first_exact = next(k for k in range(total) if probe.exact_at(k))
        rnd = random.Random(draw)
        path = random_feasible_walk(probe, teacher_sequence(s)[:first_exact], total, rnd)
        # each full exact step t with an iteration after it: the step decided under
        # the schedule, and the same decisions under the reversed order
        for t in range(-(-first_exact // n), len(path) // n):
            end = (t + 1) * n
            if end >= total:
                break
            before = initial_context(s)
            for d in path[: t * n]:
                before = advance(before, d)
            reversed_order = tuple(reversed(s.orders[t]))
            scheduled, redone = before, reset_step(before, t, reversed_order)
            for d in path[t * n : end]:
                scheduled = advance(scheduled, d)
            chosen = dict(zip(s.orders[t], path[t * n : end]))
            for robot in reversed_order:
                redone = advance(redone, chosen[robot], order=reversed_order)
            assert redone.history != scheduled.history and redone.cursor == scheduled.cursor
            answer = outcome(lambda: FeasibilityIndex(s).feasible(path[:end]))
            assert outcome(lambda: FeasibilityIndex(s).feasible_for_context(scheduled)) == answer
            assert outcome(lambda: FeasibilityIndex(s).feasible_for_context(redone)) == answer
            answers.append(answer)
    exact = [a for a in answers if isinstance(a, FeasibleResult) and a.mode == "exact"]
    assert len(exact) >= 6 and all(a.decisions for a in exact)


def test_labeling_computes_each_step_order_once(monkeypatch):
    s = next(
        s
        for s in (sample_scenario(MULTI_FEASIBLE, draw) for draw in range(12))
        if FeasibilityIndex(s).exact_at(0)
    )
    scorer = build_scorer(ScorerSpec())
    labels = label_sequence(s, scorer, label_mode="selector").decisions
    requests = []
    orders_of = scenario_module.step_orders

    def counted(batch):
        batch = list(batch)
        requests.append([(schedule, horizon) for schedule, horizon in batch])
        return orders_of(batch)

    monkeypatch.setattr(scenario_module, "step_orders", counted)
    copy = dataclasses.replace(s)  # a copy whose orders are not yet drawn
    index = FeasibilityIndex(copy)
    for k in range(len(labels)):
        assert labels[k] in index.feasible(labels[:k]).decisions
    # one batch of one, which draws steps 0..H-1 once each
    assert requests == [[(copy.schedule, s.horizon)]]
    assert copy.orders == s.orders


# --- a labeling batch shares its search structures ----------------------------------


def structure_env(door=world.DOOR_CLOSED, bread_inside=True, start="loc-dest-1", dest2=DESTINATION):
    """A loose apple, bread in a fridge, two destinations and two robot starts;
    each argument changes one search input."""
    return Environment(
        locations=(
            Location("loc-obj-1", "apple spot", OBJECT_SITE),
            Location("loc-obj-2", "bread spot", OBJECT_SITE),
            Location("loc-cont-1", "fridge spot", CONTAINER_SITE),
            Location("loc-dest-1", "table", DESTINATION),
            Location("loc-dest-2", "sink", dest2),
        ),
        objects=(
            SemanticObject("obj-1", "apple", "loc-obj-1"),
            SemanticObject("obj-2", "bread", "loc-cont-1", inside="cont-1")
            if bread_inside
            else SemanticObject("obj-2", "bread", "loc-obj-2"),
        ),
        containers=(Container("cont-1", "fridge", "loc-cont-1", door),),
        robot_start=(start, "loc-dest-1"),
    )


def relabelled(env):
    """`env` with every label changed: the same search structure."""
    return dataclasses.replace(
        env,
        locations=tuple(dataclasses.replace(loc, label=f"{loc.label}!") for loc in env.locations),
        objects=tuple(dataclasses.replace(o, label=f"{o.label}!") for o in env.objects),
        containers=tuple(dataclasses.replace(c, label=f"{c.label}!") for c in env.containers),
    )


TO_TABLE = Mission((SubTask("apple", ("loc-dest-1",)),))


def structure_of(s):
    return search_structure(s, world.compact_model(s.env, s.n_robots).goals(s.mission))


def structure_pairs():
    """Scenario pairs on one labelled-out environment that differ in exactly
    one search input, by name. The first of a pair is the base scenario with
    every label renamed."""
    base = make_scenario(structure_env(), TO_TABLE, horizon=6, sid="scn-base")
    renamed = dataclasses.replace(
        base,
        env=relabelled(base.env),
        mission=Mission((SubTask("apple!", ("loc-dest-1",)),)),
        id="scn-renamed",
    )
    assert structure_of(renamed) == structure_of(base)
    changes = {
        "goal-object": dict(mission=Mission((SubTask("bread", ("loc-dest-1",)),))),
        "destinations": dict(mission=Mission((SubTask("apple", ("loc-dest-2",)),))),
        "horizon": dict(horizon=4),
        "safety": dict(mission=Mission(TO_TABLE.subtasks, SafetyConstraint(0, "obj-2"))),
        "door": dict(env=structure_env(door=world.DOOR_OPEN)),
        "robot-count": dict(n_robots=2),
        "robot-start": dict(env=structure_env(start="loc-obj-1")),
        "object-placement": dict(env=structure_env(bread_inside=False)),
        "location-kind": dict(env=structure_env(dest2=OBJECT_SITE)),
    }
    return {
        name: (renamed, dataclasses.replace(base, id=f"scn-{name}", **change))
        for name, change in changes.items()
    }


class SeededRows:
    """Rows drawn from (seed, scenario id, k) alone, so a label's rows do not
    depend on its batch; no score tables."""

    def __init__(self, seed):
        self.seed = seed

    def score_all(self, ctx):
        rnd = random.Random(f"{self.seed}/{ctx.scenario.id}/{ctx.k}")
        return tuple(rnd.random() for _ in decision_space(ctx.scenario.env))


def label_bits(lr):
    return lr.decisions, [x.hex() for x in lr.scores], lr.modes


def assert_batch_labels_as_alone(scenarios, scorer):
    batch = label_sequences(scenarios, scorer, "selector")
    for s, lr in zip(scenarios, batch):
        assert label_bits(lr) == label_bits(label_sequence(s, scorer, "selector")), s.id


@pytest.mark.parametrize("change", sorted(structure_pairs()))
def test_sharing_cannot_change_a_label_of_a_hand_built_pair(change):
    renamed, changed = structure_pairs()[change]
    assert structure_of(changed) != structure_of(renamed)
    scorers = [SeededRows(seed) for seed in range(6)]
    scorers.append(build_scorer(ScorerSpec(noise=3.0, rng_seed=5)))
    for scorer in scorers:
        for pair in ((renamed, changed), (changed, renamed)):
            assert_batch_labels_as_alone(pair, scorer)


@pytest.mark.parametrize(
    "params, count",
    [(dataclasses.replace(MULTI_FEASIBLE, rng_seed=51), 60), (default_distribution_params(52), 30)],
    ids=["criterion-9", "default"],
)
def test_sharing_cannot_change_a_label_of_a_sampled_batch(params, count):
    scenarios = [sample_scenario(params, draw) for draw in range(count)]
    assert_batch_labels_as_alone(scenarios, build_scorer(ScorerSpec(noise=3.0, rng_seed=4)))


def test_a_batch_expands_fewer_states_than_its_labels_alone(monkeypatch):
    """30 criterion-9 draws expand 66 boundary states (`_steps_left` calls)
    as one selector batch and 495 labelled one at a time: the batch has 3
    search structures, so a boundary state is expanded once per structure,
    not once per label."""
    expanded = []
    steps_left = FeasibilityIndex._steps_left

    def counted(index, state):
        expanded.append(state)
        return steps_left(index, state)

    monkeypatch.setattr(FeasibilityIndex, "_steps_left", counted)
    scenarios = [sample_scenario(dataclasses.replace(MULTI_FEASIBLE, rng_seed=53), d) for d in range(30)]
    assert len({structure_of(s) for s in scenarios}) == 3
    scorer = build_scorer(ScorerSpec())
    label_sequences(scenarios, scorer, "selector")
    batch = len(expanded)
    expanded.clear()
    for s in scenarios:
        label_sequence(s, scorer, "selector")
    assert (batch, len(expanded)) == (66, 495)


# --- selector and labels ------------------------------------------------------------


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


ORACLE_LABEL_PROFILES = {
    "default": default_distribution_params(21),
    "reference": reference_distribution_params(22),
    "two-robot": dataclasses.replace(reference_distribution_params(23), n_robots=(2, 2)),
    "criterion-9": dataclasses.replace(MULTI_FEASIBLE, rng_seed=24),
}


@pytest.mark.parametrize("label_mode", ["oracle", "selector"])
@pytest.mark.parametrize("kind", ["noisy-oracle", "oracle-indicator"])
@pytest.mark.parametrize("profile", sorted(ORACLE_LABEL_PROFILES))
def test_oracle_labels_read_from_the_table_equal_the_walked_labels(kind, profile, label_mode):
    """Labels read from the score table equal those of a wrapper of the same
    scorer without tables, whose rows are `score_all` along the label, and
    so does each k's row of the batch's table, bit for bit."""
    scenarios = [sample_scenario(ORACLE_LABEL_PROFILES[profile], draw) for draw in range(4)]
    spec = ScorerSpec(kind=kind, rng_seed=3)
    scorer = build_scorer(spec)
    batch = label_sequences(scenarios, scorer, label_mode)
    walker = build_scorer(spec)
    bare = types.SimpleNamespace(score_all=walker.score_all)
    for s, lr, table in zip(scenarios, batch, scorer.score_tables(scenarios)):
        walked = label_sequence(s, bare, label_mode)
        assert lr.decisions == walked.decisions and lr.modes == walked.modes
        assert [x.hex() for x in lr.scores] == [x.hex() for x in walked.scores]
        ctx = initial_context(s)
        for d in walked.decisions:
            row, walked_row = table.vector(ctx.k, *ctx.cursor), walker.score_all(ctx)
            assert [x.hex() for x in row] == [x.hex() for x in walked_row]
            ctx = advance(ctx, d)
    if (profile, kind, label_mode) == ("criterion-9", "noisy-oracle", "selector"):
        assert any(lr.decisions != teacher_sequence(s) for s, lr in zip(scenarios, batch))
    # one at a time, through label_sequence, the same labels
    single = build_scorer(spec)
    for s, lr in zip(scenarios, batch):
        alone = label_sequence(s, single, label_mode)
        assert (alone.decisions, alone.scores, alone.modes) == (lr.decisions, lr.scores, lr.modes)


def reference_selector_label(s, scorer):
    """The selector label walked one `score_all` per k on the context the
    label reached, taking the best of each k's whole feasible set."""
    index, findex = decision_index(s.env), FeasibilityIndex(s)
    ctx, steps = initial_context(s), []
    for _ in range(findex.total_iterations):
        row = scorer.score_all(ctx)
        steps.append(best_of(row, findex.feasible(tuple(d for d, _, _ in steps)), index))
        ctx = advance(ctx, steps[-1][0])
    return tuple(zip(*steps))


@pytest.mark.parametrize("profile", sorted(ORACLE_LABEL_PROFILES))
def test_a_selector_label_without_tables_is_the_best_of_each_feasible_set(profile):
    scenarios = [sample_scenario(ORACLE_LABEL_PROFILES[profile], draw) for draw in range(4)]
    synthetic = build_scorer(ScorerSpec(rng_seed=3))
    contexts = []

    def score_all(ctx):
        contexts.append(ctx)
        return synthetic.score_all(ctx)

    left_the_teacher = False
    for s in scenarios:
        contexts.clear()
        lr = label_sequence(s, types.SimpleNamespace(score_all=score_all), "selector")
        decisions, scores, modes = reference_selector_label(s, synthetic)
        assert (lr.decisions, lr.modes) == (decisions, modes)
        assert [x.hex() for x in lr.scores] == [x.hex() for x in scores]
        # one call per iteration, each on the context the label reached
        reached = [initial_context(s)]
        for d in lr.decisions[:-1]:
            reached.append(advance(reached[-1], d))
        assert len(contexts) == s.n_robots * s.horizon and contexts == reached
        left_the_teacher |= lr.decisions != teacher_sequence(s)
    assert left_the_teacher or profile != "criterion-9"


def test_an_oracle_label_that_fails_its_verdict_scores_nothing():
    s = dataclasses.replace(sample_scenario(default_distribution_params(4), 0), horizon=1)
    uniform = StubScorer()
    contexts = []

    def score_all(ctx):
        contexts.append(ctx)
        return uniform.score_all(ctx)

    with pytest.raises(OracleError):
        label_sequence(s, types.SimpleNamespace(score_all=score_all), "oracle")
    assert contexts == []


@pytest.mark.parametrize(
    "label_mode, params",
    [("oracle", default_distribution_params(4)), ("selector", MULTI_FEASIBLE)],
    ids=["oracle", "selector"],
)
def test_a_calibration_draw_builds_no_score_vector(label_mode, params, monkeypatch):
    vectors = []
    vector = scoring._ScenarioTable.vector

    def counting(table, *key):
        vectors.append(key)
        return vector(table, *key)

    monkeypatch.setattr(scoring._ScenarioTable, "vector", counting)
    scorer = build_scorer(ScorerSpec())
    records = build_calibration_set(params, 30, scorer, label_mode=label_mode)
    assert len(records) == 30 and len(scorer._tables) == 30
    # labeling a test draw builds no vector either
    s = sample_scenario(params, 30)
    label_sequence(s, scorer, label_mode)
    assert vectors == []
    # the scheduled robot's vector at k is row k of the softmaxed table
    (table,) = scorer.score_tables([s])
    keys = [(k, k // s.n_robots, robot) for k, robot in enumerate(table.robots)]
    rows = [tuple(row) for row in table.probs.tolist()]
    assert len(rows) == s.n_robots * s.horizon
    assert [table.vector(*key) for key in keys] == rows
    assert vectors == keys


def counted_validations(monkeypatch) -> list:
    """Arguments of every world.validate_plan call from now on."""
    calls = []
    validate = world.validate_plan

    def counting(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(world, "validate_plan", counting)
    return calls


def test_only_scenarios_from_outside_validate_their_canonical_plan(monkeypatch):
    params = default_distribution_params(8)
    scorer = build_scorer(ScorerSpec())
    calls = counted_validations(monkeypatch)
    s = sample_scenario(params, 0)
    label_sequence(s, scorer, label_mode="oracle")
    assert calls == [] and oracle_plan_failure(s) is None  # valid by construction
    # an unpickled or loaded copy validates on its first oracle labeling, once
    for other in (pickle.loads(pickle.dumps(s)), scenario_from_dict(scenario_to_dict(s))):
        calls.clear()
        for _ in range(2):
            label_sequence(other, scorer, label_mode="oracle")
        assert len(calls) == 1 and calls[0][4] == oracle_plan(s)
        assert oracle_plan_failure(other) is None


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


def _benchmark_profiles() -> dict:
    """The profile of each workload in benchmarks/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    workloads = runpy.run_path(str(path))
    build = workloads["build"]
    return {f"benchmark-{name}": build(name, 0).cfg.params for name in workloads["WORKLOADS"]}


_DEFAULT = default_distribution_params()
_REFERENCE = reference_distribution_params()
_TINY = DistributionParams(  # tests/test_harness.py's tiny config
    n_robots=(1, 2),
    n_subtasks=(1, 1),
    n_objects=(2, 2),
    n_containers=(0, 1),
    n_destinations=(1, 1),
    enclosure_prob=0.3,
    safety_prob=0.0,
)
# two loose objects, an empty container and one destination: nine decisions
_NINE = dict(
    n_objects=(2, 2), n_containers=(1, 1), n_destinations=(1, 1),
    enclosure_prob=0.0, safety_prob=0.0,
)
# every profile the suite samples from, its seed aside
PROFILES_IN_USE = {
    "default": _DEFAULT,
    "default-one-robot": dataclasses.replace(_DEFAULT, n_robots=(1, 1)),
    "default-two-robots": dataclasses.replace(_DEFAULT, n_robots=(2, 2)),
    "default-two-robots-one-subtask": dataclasses.replace(
        _DEFAULT, n_robots=(2, 2), n_subtasks=(1, 1)
    ),
    "default-three-robots": dataclasses.replace(_DEFAULT, n_robots=(3, 3), n_subtasks=(2, 2)),
    "default-empty-missions": dataclasses.replace(
        _DEFAULT, n_subtasks=(0, 0), safety_prob=0.0, horizon_slack=3
    ),
    "default-criterion-10": dataclasses.replace(_DEFAULT, n_subtasks=(0, 1), safety_prob=0.4),
    "default-enclosed": dataclasses.replace(_DEFAULT, n_containers=(1, 1), enclosure_prob=1.0),
    "default-slack-2": dataclasses.replace(_DEFAULT, horizon_slack=2),
    "default-two-objects": dataclasses.replace(
        _DEFAULT, n_subtasks=(1, 1), n_objects=(2, 2), horizon_slack=1
    ),
    "default-unsafe-one-robot": dataclasses.replace(
        _DEFAULT, n_robots=(1, 1), n_subtasks=(1, 1), n_objects=(1, 2), n_destinations=(1, 1),
        safety_prob=0.5,
    ),
    "default-unsafe-two-robots": dataclasses.replace(
        _DEFAULT, n_robots=(2, 2), n_subtasks=(1, 1), n_objects=(1, 2), n_containers=(0, 0),
        n_destinations=(1, 1), safety_prob=1.0, horizon_slack=0,
    ),
    "nine-decisions": dataclasses.replace(_DEFAULT, n_robots=(1, 1), n_subtasks=(1, 1), **_NINE),
    "nine-decisions-any-mission": dataclasses.replace(_DEFAULT, n_robots=(1, 1), **_NINE),
    "nine-decisions-empty-mission": dataclasses.replace(
        _DEFAULT, n_robots=(1, 2), n_subtasks=(0, 0), horizon_slack=3, **_NINE
    ),
    "criterion-9": MULTI_FEASIBLE,
    "criterion-10-multi": dataclasses.replace(MULTI_FEASIBLE, n_robots=(1, 2), n_objects=(2, 3)),
    "tiny": _TINY,
    "tiny-one-robot": dataclasses.replace(_TINY, n_robots=(1, 1)),
    "tiny-two-robots": dataclasses.replace(
        _TINY, n_robots=(2, 2), n_containers=(1, 1), enclosure_prob=0.0
    ),
    "tiny-three-objects": dataclasses.replace(
        _TINY, n_objects=(3, 3), n_containers=(1, 1), enclosure_prob=0.0
    ),
    "tiny-multi-destination": dataclasses.replace(
        _TINY, n_destinations=(2, 2), multi_destination_prob=1.0
    ),
    "tiny-multi-feasible": dataclasses.replace(
        _TINY, n_robots=(1, 1), n_destinations=(2, 2), multi_destination_prob=1.0
    ),
    "reference": _REFERENCE,
    "reference-one-robot": dataclasses.replace(_REFERENCE, n_robots=(1, 1), n_subtasks=(1, 2)),
    "reference-multi-destination": dataclasses.replace(
        _REFERENCE, n_robots=(1, 3), n_destinations=(2, 2), multi_destination_prob=0.5
    ),
    **_benchmark_profiles(),
}


def assert_valid_by_construction(params: DistributionParams, draws) -> None:
    """What `sample_scenario` records without checking: the canonical plan
    builds, the environment is consistent and the plan, cut to the horizon,
    accomplishes the mission."""
    for draw in draws:
        s = sample_scenario(params, draw)
        plan = scenario_module._build_oracle(s.env, s.mission, s.n_robots)
        world.validate_environment(s.env)
        assert plan == oracle_plan(s) and len(plan) <= s.horizon
        result = world.validate_plan(s.env, s.mission, s.n_robots, s.horizon, plan[: s.horizon])
        assert result.complete, (params, draw, result.reason)


def _range(lo: int, hi: int):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(lambda r: tuple(sorted(r)))


@st.composite
def accepted_params(draw) -> DistributionParams:
    """`DistributionParams` that `validate_params` accepts: pools of one to
    three labels, 1-3 robots, 0-4 sub-tasks, up to four objects enclosed,
    all probabilities in [0, 1]."""
    labels = st.sampled_from(("apple", "fridge", "table"))
    pool = st.lists(labels, min_size=1, max_size=3, unique=True)
    subtasks = draw(_range(0, 4))
    params = DistributionParams(
        n_robots=draw(_range(1, 3)),
        n_subtasks=subtasks,
        n_objects=draw(_range(0, 6)),
        n_containers=draw(_range(0, 2)),
        n_destinations=draw(_range(1, 3)),
        enclosure_prob=draw(st.floats(0, 1)),
        n_enclosed=draw(st.none() | _range(0, 4)),
        safety_prob=draw(st.floats(0, 1)),
        multi_destination_prob=draw(st.floats(0, 1)),
        horizon_slack=draw(st.integers(1 if subtasks[0] == 0 else 0, 3)),
        object_labels=tuple(draw(pool)),
        container_labels=tuple(draw(pool)),
        destination_labels=tuple(draw(pool)),
        rng_seed=draw(st.integers(0, 2**40)),
    )
    validate_params(params)
    return params


@settings(max_examples=150, deadline=None)
@given(params=accepted_params(), first=st.integers(0, 10**6))
def test_sampled_scenarios_are_valid_by_construction(params, first):
    assert_valid_by_construction(params, range(first, first + 4))


@pytest.mark.parametrize("name", sorted(PROFILES_IN_USE))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**40), first=st.integers(0, 10**6))
def test_every_profile_in_use_samples_valid_scenarios(name, seed, first):
    params = dataclasses.replace(PROFILES_IN_USE[name], rng_seed=seed)
    assert_valid_by_construction(params, range(first, first + 8))


def test_a_sampled_scenario_builds_its_canonical_plan_once(monkeypatch):
    built = []
    build = scenario_module._build_oracle

    def counted(env, mission, n_robots):
        built.append((env, mission, n_robots))
        return build(env, mission, n_robots)

    monkeypatch.setattr(scenario_module, "_build_oracle", counted)
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
    # step orders are drawn from a seed key, which must be nonnegative
    with pytest.raises(ConfigError, match="order_seed"):
        scenario_from_dict({**data, "order_seed": -1})
