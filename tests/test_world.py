import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from confplan.world import (
    CONFLICT,
    CONTAINER_CLOSED,
    DESTINATION,
    CONTAINER_SITE,
    GOTO,
    GRAB,
    HANDS_EMPTY,
    HANDS_FULL,
    IDLE_DECISION,
    NOT_AT_TARGET,
    NO_SUCH_ENTITY,
    OBJECT_SITE,
    OPEN_DOOR,
    PUTDOWN,
    CompactModel,
    Container,
    Decision,
    Environment,
    InfeasibleDecision,
    Location,
    Mission,
    Refusal,
    SafetyConstraint,
    SemanticObject,
    SubTask,
    compact_model,
    merge_writes,
    validate_plan,
    validate_environment,
)


def kitchen_env(n_robots=1):
    """Apple loose on its own site, tomato inside a closed fridge, one table."""
    return Environment(
        locations=(
            Location("loc-apple", "apple spot", OBJECT_SITE),
            Location("loc-fridge", "fridge spot", CONTAINER_SITE),
            Location("loc-table", "table", DESTINATION),
        ),
        objects=(
            SemanticObject("apple", "apple", "loc-apple"),
            SemanticObject("tomato", "tomato", "loc-fridge", inside="fridge"),
        ),
        containers=(Container("fridge", "fridge", "loc-fridge"),),
        robot_start=("loc-table",) * n_robots,
    )


def test_environment_validates():
    validate_environment(kitchen_env())


def test_environment_rejects_inconsistent_enclosure():
    env = kitchen_env()
    bad = dataclasses.replace(
        env,
        objects=(
            env.objects[0],
            SemanticObject("tomato", "tomato", "loc-apple", inside="fridge"),
        ),
    )
    with pytest.raises(ValueError):
        validate_environment(bad)


def step(model, state, *decisions):
    """One synchronous joint step on the compact state; raises InfeasibleDecision."""
    return merge_writes(state, model.joint_writes(state, decisions))


def test_idle_is_identity():
    model = compact_model(kitchen_env(), 1)
    assert step(model, model.start, IDLE_DECISION) == model.start


def test_goto_always_succeeds_and_moves():
    model = compact_model(kitchen_env(), 1)
    moved = step(model, model.start, Decision(GOTO, "apple"))
    assert moved[0] == model.locs["loc-apple"]
    # goto a container resolves to its site
    moved = step(model, model.start, Decision(GOTO, "fridge"))
    assert moved[0] == model.locs["loc-fridge"]


def test_grab_from_closed_container_reports_container_closed():
    model = compact_model(kitchen_env(), 1)
    state = step(model, model.start, Decision(GOTO, "fridge"))
    with pytest.raises(InfeasibleDecision) as exc:
        step(model, state, Decision(GRAB, "tomato"))
    assert (exc.value.reason, exc.value.detail) == (CONTAINER_CLOSED, "fridge")


def test_grab_requires_colocation_and_free_hands():
    model = compact_model(kitchen_env(), 1)
    with pytest.raises(InfeasibleDecision) as exc:
        step(model, model.start, Decision(GRAB, "apple"))
    assert exc.value.reason == NOT_AT_TARGET
    state = step(model, model.start, Decision(GOTO, "apple"))
    state = step(model, state, Decision(GRAB, "apple"))
    assert state[model.n] == model.objs["apple"]
    with pytest.raises(InfeasibleDecision) as exc:
        step(model, state, Decision(GRAB, "apple"))
    # a held object is no longer an addressable site
    assert exc.value.reason in (HANDS_FULL, NO_SUCH_ENTITY)


def test_putdown_requires_holding_and_location_match():
    model = compact_model(kitchen_env(), 1)
    with pytest.raises(InfeasibleDecision) as exc:
        step(model, model.start, Decision(PUTDOWN, "loc-table"))
    assert exc.value.reason == HANDS_EMPTY
    state = step(model, model.start, Decision(GOTO, "apple"))
    state = step(model, state, Decision(GRAB, "apple"))
    with pytest.raises(InfeasibleDecision) as exc:
        step(model, state, Decision(PUTDOWN, "loc-table"))
    assert exc.value.reason == NOT_AT_TARGET


def test_fetch_sequence_delivers_object():
    # open the fridge, grab the tomato, carry it to the table
    model = compact_model(kitchen_env(), 1)
    state = model.start
    for d in (
        Decision(GOTO, "fridge"),
        Decision(OPEN_DOOR, "fridge"),
        Decision(GRAB, "tomato"),
        Decision(GOTO, "loc-table"),
        Decision(PUTDOWN, "loc-table"),
    ):
        state = step(model, state, d)
    tomato = model.objs["tomato"]
    assert state[model.obj_at + tomato] == model.locs["loc-table"]
    assert state[model.obj_in + tomato] == -1
    assert state[model.n] == -1


def test_open_door_requires_colocation_and_is_idempotent():
    model = compact_model(kitchen_env(), 1)
    with pytest.raises(InfeasibleDecision) as exc:
        step(model, model.start, Decision(OPEN_DOOR, "fridge"))
    assert exc.value.reason == NOT_AT_TARGET
    state = step(model, model.start, Decision(GOTO, "fridge"))
    state = step(model, state, Decision(OPEN_DOOR, "fridge"))
    assert state[model.door :] == (1,)
    assert step(model, state, Decision(OPEN_DOOR, "fridge")) == state


def test_unknown_entities_are_rejected():
    env = kitchen_env(n_robots=2)
    model = compact_model(env, 2)
    for d in (Decision(GOTO, "ghost"), Decision(GRAB, "ghost"), Decision(OPEN_DOOR, "ghost")):
        with pytest.raises(InfeasibleDecision) as exc:
            step(model, model.start, IDLE_DECISION, d)
        assert (exc.value.reason, exc.value.robot, exc.value.detail) == (
            NO_SUCH_ENTITY,
            1,
            "ghost",
        )
        # the plan validator reports the same refusal at the same robot
        (outcome,) = validate_plan(env, Mission(()), 2, 1, ((IDLE_DECISION, d),)).trace
        assert (outcome.infeasible, outcome.infeasible_robot) == (NO_SUCH_ENTITY, 1)
    # a GoTo to a held object names the robot that declared it
    state = step(model, model.start, Decision(GOTO, "apple"), IDLE_DECISION)
    state = step(model, state, Decision(GRAB, "apple"), IDLE_DECISION)
    with pytest.raises(InfeasibleDecision) as exc:
        step(model, state, IDLE_DECISION, Decision(GOTO, "apple"))
    assert (exc.value.reason, exc.value.robot, exc.value.detail) == (
        NO_SUCH_ENTITY,
        1,
        "apple is held",
    )


def test_all_idle_joint_only_advances_time():
    env = kitchen_env(n_robots=2)
    model = compact_model(env, 2)
    assert step(model, model.start, IDLE_DECISION, IDLE_DECISION) == model.start
    # time is the step index: the validator numbers each joint step once
    result = validate_plan(env, Mission(()), 2, 3, ((IDLE_DECISION, IDLE_DECISION),) * 3)
    assert [outcome.t for outcome in result.trace] == [0, 1, 2]


def test_same_step_duplicate_grab_is_a_conflict():
    model = compact_model(kitchen_env(n_robots=2), 2)
    state = step(model, model.start, Decision(GOTO, "apple"), Decision(GOTO, "apple"))
    with pytest.raises(InfeasibleDecision) as exc:
        step(model, state, Decision(GRAB, "apple"), Decision(GRAB, "apple"))
    assert exc.value.reason == CONFLICT
    assert exc.value.robot == 1


def test_grab_conflict_is_found_before_any_decision_is_checked():
    # by target id, so two Grabs of an unknown id conflict at robot 1 rather
    # than fail as no-such-entity at robot 0
    model = compact_model(kitchen_env(n_robots=2), 2)
    ghost = Decision(GRAB, "ghost")
    with pytest.raises(InfeasibleDecision) as exc:
        step(model, model.start, ghost, ghost)
    assert (exc.value.reason, exc.value.robot, exc.value.detail) == (
        CONFLICT,
        1,
        "ghost also grabbed by robot 0",
    )


def test_a_refusal_is_a_value_and_each_raise_is_fresh():
    model = compact_model(kitchen_env(), 1)
    check, bit = model.op(0, Decision(GRAB, "apple"))
    assert bit == 1 << 0
    assert check(model.start) == Refusal(NOT_AT_TARGET, "apple")
    raised = []
    for _ in range(2):
        with pytest.raises(InfeasibleDecision) as exc:
            step(model, model.start, Decision(GRAB, "apple"))
        raised.append(exc.value)
    assert raised[0] is not raised[1]


def test_joint_step_applies_distinct_targets():
    model = compact_model(kitchen_env(n_robots=3), 3)
    state = step(
        model, model.start, Decision(GOTO, "apple"), Decision(GOTO, "fridge"), IDLE_DECISION
    )
    state = step(
        model, state, Decision(GRAB, "apple"), Decision(OPEN_DOOR, "fridge"), IDLE_DECISION
    )
    assert state[model.n] == model.objs["apple"]
    assert state[model.door :] == (1,)
    assert state[2] == model.locs["loc-table"]


def test_joint_preconditions_use_step_start_snapshot():
    # same-step open + grab of the enclosed object must fail: the door was
    # closed when the step began
    model = compact_model(kitchen_env(n_robots=2), 2)
    state = step(model, model.start, Decision(GOTO, "fridge"), Decision(GOTO, "fridge"))
    with pytest.raises(InfeasibleDecision) as exc:
        step(model, state, Decision(OPEN_DOOR, "fridge"), Decision(GRAB, "tomato"))
    assert exc.value.reason == CONTAINER_CLOSED
    assert exc.value.robot == 1


def test_joint_reports_first_infeasible_robot():
    model = compact_model(kitchen_env(n_robots=2), 2)
    with pytest.raises(InfeasibleDecision) as exc:
        step(model, model.start, Decision(GRAB, "apple"), Decision(GRAB, "tomato"))
    assert exc.value.robot == 0


def test_mission_holds_empty_and_simple():
    model = compact_model(kitchen_env(), 1)
    state = model.start
    assert model.satisfied(model.goals(Mission(())), state)
    goals = model.goals(Mission((SubTask("apple", ("loc-table",)),)))
    assert not model.satisfied(goals, state)
    for d in (Decision(GOTO, "apple"), Decision(GRAB, "apple"),
              Decision(GOTO, "loc-table"), Decision(PUTDOWN, "loc-table")):
        state = step(model, state, d)
    assert model.satisfied(goals, state)


def test_mission_holds_matches_duplicate_labels_injectively():
    env = Environment(
        locations=(
            Location("l1", "spot", OBJECT_SITE),
            Location("l2", "spot", OBJECT_SITE),
            Location("d1", "table", DESTINATION),
            Location("d2", "sink", DESTINATION),
        ),
        objects=(
            SemanticObject("o1", "tomato", "d1"),
            SemanticObject("o2", "tomato", "l2"),
        ),
        containers=(),
        robot_start=("d1",),
    )
    model = compact_model(env, 1)
    one = Mission((SubTask("tomato", ("d1",)),))
    assert model.satisfied(model.goals(one), model.start)
    # two sub-tasks need two distinct tomatoes at destinations; only one is
    both = Mission((SubTask("tomato", ("d1",)), SubTask("tomato", ("d1", "d2"))))
    assert not model.satisfied(model.goals(both), model.start)


def test_validate_all_idle_empty_mission():
    env = kitchen_env(n_robots=2)
    plan = ((IDLE_DECISION, IDLE_DECISION),) * 3
    result = validate_plan(env, Mission(()), 2, 3, plan)
    assert result.complete
    assert result.steps_used == 0


def test_validate_flags_closed_container_grab():
    env = kitchen_env()
    plan = (
        (Decision(GOTO, "fridge"),),
        (Decision(GRAB, "tomato"),),
    )
    result = validate_plan(env, Mission((SubTask("tomato", ("loc-table",)),)), 1, 6, plan)
    assert not result.complete
    assert result.trace[-1].infeasible == CONTAINER_CLOSED


def test_validate_safety_violation_fails_but_keeps_simulating():
    env = kitchen_env()
    mission = Mission(
        (SubTask("apple", ("loc-table",)),),
        safety=SafetyConstraint(robot=0, forbidden_object="apple"),
    )
    plan = (
        (Decision(GOTO, "apple"),),
        (Decision(GRAB, "apple"),),
        (Decision(GOTO, "loc-table"),),
        (Decision(PUTDOWN, "loc-table"),),
    )
    result = validate_plan(env, mission, 1, 4, plan)
    assert not result.complete
    assert result.reason == "safety-violation"
    # the simulation ran to the end: the object did arrive
    assert len(result.trace) == 4 and result.trace[-1].satisfied_after


def test_validate_rejects_overlong_plan():
    env = kitchen_env()
    with pytest.raises(ValueError):
        validate_plan(env, Mission(()), 1, 1, ((IDLE_DECISION,),) * 2)


def _decision_strategy(env):
    targets = [o.id for o in env.objects] + [c.id for c in env.containers] + [
        loc.id for loc in env.locations
    ]
    return st.one_of(
        st.just(IDLE_DECISION),
        st.builds(
            Decision,
            kind=st.sampled_from((GOTO, GRAB, PUTDOWN, OPEN_DOOR)),
            target=st.sampled_from(targets),
        ),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_object_conservation_and_determinism(data):
    env = kitchen_env(n_robots=2)
    decisions = data.draw(
        st.lists(st.tuples(_decision_strategy(env), _decision_strategy(env)),
                 min_size=1, max_size=6)
    )
    # a second, separately compiled model of the same environment
    model_a, model_b = compact_model(env, 2), CompactModel(env, 2)
    state_a, state_b = model_a.start, model_b.start
    n = model_a.n
    for jd in decisions:
        try:
            next_a = step(model_a, state_a, *jd)
        except InfeasibleDecision as exc_a:
            with pytest.raises(InfeasibleDecision) as exc_b:
                step(model_b, state_b, *jd)
            assert exc_b.value.reason == exc_a.reason
            break
        state_a = next_a
        state_b = step(model_b, state_b, *jd)
        assert state_a == state_b  # same inputs, same value
        # every object is either placed somewhere or held by exactly one robot
        for i in range(len(env.objects)):
            holders = [r for r in range(n) if state_a[n + r] == i]
            placed = state_a[model_a.obj_at + i] >= 0
            assert len(holders) == (0 if placed else 1)
            assert placed or state_a[model_a.obj_in + i] == -1
        assert all(-1 <= state_a[n + r] < len(env.objects) for r in range(n))
