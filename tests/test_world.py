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
    apply_decision,
    apply_joint,
    compact_model,
    initial_state,
    mission_satisfied,
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


def test_idle_is_identity():
    env = kitchen_env()
    state = initial_state(env, 1)
    assert apply_decision(env, state, 0, IDLE_DECISION) == state


def test_goto_always_succeeds_and_moves():
    env = kitchen_env()
    state = initial_state(env, 1)
    moved = apply_decision(env, state, 0, Decision(GOTO, "apple"))
    assert moved.robots[0].at == "loc-apple"
    # goto a container resolves to its site
    moved = apply_decision(env, state, 0, Decision(GOTO, "fridge"))
    assert moved.robots[0].at == "loc-fridge"


def test_grab_from_closed_container_reports_container_closed():
    env = kitchen_env()
    state = initial_state(env, 1)
    state = apply_decision(env, state, 0, Decision(GOTO, "fridge"))
    with pytest.raises(InfeasibleDecision) as exc:
        apply_decision(env, state, 0, Decision(GRAB, "tomato"))
    assert exc.value.reason == CONTAINER_CLOSED


def test_grab_requires_colocation_and_free_hands():
    env = kitchen_env()
    state = initial_state(env, 1)
    with pytest.raises(InfeasibleDecision) as exc:
        apply_decision(env, state, 0, Decision(GRAB, "apple"))
    assert exc.value.reason == NOT_AT_TARGET
    state = apply_decision(env, state, 0, Decision(GOTO, "apple"))
    state = apply_decision(env, state, 0, Decision(GRAB, "apple"))
    assert state.robots[0].holding == "apple"
    with pytest.raises(InfeasibleDecision) as exc:
        apply_decision(env, state, 0, Decision(GRAB, "apple"))
    # a held object is no longer an addressable site
    assert exc.value.reason in (HANDS_FULL, NO_SUCH_ENTITY)


def test_putdown_requires_holding_and_location_match():
    env = kitchen_env()
    state = initial_state(env, 1)
    with pytest.raises(InfeasibleDecision) as exc:
        apply_decision(env, state, 0, Decision(PUTDOWN, "loc-table"))
    assert exc.value.reason == HANDS_EMPTY
    state = apply_decision(env, state, 0, Decision(GOTO, "apple"))
    state = apply_decision(env, state, 0, Decision(GRAB, "apple"))
    with pytest.raises(InfeasibleDecision) as exc:
        apply_decision(env, state, 0, Decision(PUTDOWN, "loc-table"))
    assert exc.value.reason == NOT_AT_TARGET


def test_fetch_sequence_delivers_object():
    # open the fridge, grab the tomato, carry it to the table
    env = kitchen_env()
    state = initial_state(env, 1)
    for d in (
        Decision(GOTO, "fridge"),
        Decision(OPEN_DOOR, "fridge"),
        Decision(GRAB, "tomato"),
        Decision(GOTO, "loc-table"),
        Decision(PUTDOWN, "loc-table"),
    ):
        state = apply_decision(env, state, 0, d)
    tomato = state.objects[1]
    assert tomato.at == "loc-table" and tomato.inside is None
    assert state.robots[0].holding is None


def test_open_door_requires_colocation_and_is_idempotent():
    env = kitchen_env()
    state = initial_state(env, 1)
    with pytest.raises(InfeasibleDecision) as exc:
        apply_decision(env, state, 0, Decision(OPEN_DOOR, "fridge"))
    assert exc.value.reason == NOT_AT_TARGET
    state = apply_decision(env, state, 0, Decision(GOTO, "fridge"))
    state = apply_decision(env, state, 0, Decision(OPEN_DOOR, "fridge"))
    assert state.doors_open == (True,)
    again = apply_decision(env, state, 0, Decision(OPEN_DOOR, "fridge"))
    assert again.doors_open == (True,)


def test_unknown_entities_are_rejected():
    env = kitchen_env(n_robots=2)
    state = initial_state(env, 2)
    for d in (Decision(GOTO, "ghost"), Decision(GRAB, "ghost"), Decision(OPEN_DOOR, "ghost")):
        for apply in (
            lambda: apply_decision(env, state, 1, d),
            lambda: apply_joint(env, state, (IDLE_DECISION, d)),
        ):
            with pytest.raises(InfeasibleDecision) as exc:
                apply()
            assert (exc.value.reason, exc.value.robot, exc.value.detail) == (
                NO_SUCH_ENTITY,
                1,
                "ghost",
            )
    # a GoTo to a held object names the robot that declared it
    state = apply_joint(env, state, (Decision(GOTO, "apple"), IDLE_DECISION))
    state = apply_joint(env, state, (Decision(GRAB, "apple"), IDLE_DECISION))
    with pytest.raises(InfeasibleDecision) as exc:
        apply_joint(env, state, (IDLE_DECISION, Decision(GOTO, "apple")))
    assert (exc.value.reason, exc.value.robot, exc.value.detail) == (
        NO_SUCH_ENTITY,
        1,
        "apple is held",
    )


def test_all_idle_joint_only_advances_time():
    env = kitchen_env(n_robots=2)
    state = initial_state(env, 2)
    stepped = apply_joint(env, state, (IDLE_DECISION, IDLE_DECISION))
    assert stepped.time == state.time + 1
    assert stepped.robots == state.robots
    assert stepped.objects == state.objects
    assert stepped.doors_open == state.doors_open


def test_same_step_duplicate_grab_is_a_conflict():
    env = kitchen_env(n_robots=2)
    state = initial_state(env, 2)
    state = apply_joint(env, state, (Decision(GOTO, "apple"), Decision(GOTO, "apple")))
    with pytest.raises(InfeasibleDecision) as exc:
        apply_joint(env, state, (Decision(GRAB, "apple"), Decision(GRAB, "apple")))
    assert exc.value.reason == CONFLICT
    assert exc.value.robot == 1


def test_grab_conflict_is_found_before_any_decision_is_checked():
    # by target id, so two Grabs of an unknown id conflict at robot 1 rather
    # than fail as no-such-entity at robot 0
    env = kitchen_env(n_robots=2)
    state = initial_state(env, 2)
    ghost = Decision(GRAB, "ghost")
    with pytest.raises(InfeasibleDecision) as exc:
        apply_joint(env, state, (ghost, ghost))
    assert (exc.value.reason, exc.value.robot, exc.value.detail) == (
        CONFLICT,
        1,
        "ghost also grabbed by robot 0",
    )


def test_a_refusal_is_a_value_and_each_raise_is_fresh():
    env = kitchen_env()
    state = initial_state(env, 1)
    check, bit = compact_model(env, 1).op(0, Decision(GRAB, "apple"))
    assert bit == 1 << 0
    assert check(compact_model(env, 1).encode(state)) == Refusal(NOT_AT_TARGET, "apple")
    raised = []
    for _ in range(2):
        with pytest.raises(InfeasibleDecision) as exc:
            apply_decision(env, state, 0, Decision(GRAB, "apple"))
        raised.append(exc.value)
    assert raised[0] is not raised[1]


def test_joint_step_applies_distinct_targets():
    env = kitchen_env(n_robots=3)
    state = initial_state(env, 3)
    state = apply_joint(
        env,
        state,
        (Decision(GOTO, "apple"), Decision(GOTO, "fridge"), IDLE_DECISION),
    )
    state = apply_joint(
        env,
        state,
        (Decision(GRAB, "apple"), Decision(OPEN_DOOR, "fridge"), IDLE_DECISION),
    )
    assert state.robots[0].holding == "apple"
    assert state.doors_open == (True,)
    assert state.robots[2].at == "loc-table"
    assert state.time == 2


def test_joint_preconditions_use_step_start_snapshot():
    # same-step open + grab of the enclosed object must fail: the door was
    # closed when the step began
    env = kitchen_env(n_robots=2)
    state = initial_state(env, 2)
    state = apply_joint(env, state, (Decision(GOTO, "fridge"), Decision(GOTO, "fridge")))
    with pytest.raises(InfeasibleDecision) as exc:
        apply_joint(env, state, (Decision(OPEN_DOOR, "fridge"), Decision(GRAB, "tomato")))
    assert exc.value.reason == CONTAINER_CLOSED
    assert exc.value.robot == 1


def test_joint_reports_first_infeasible_robot():
    env = kitchen_env(n_robots=2)
    state = initial_state(env, 2)
    with pytest.raises(InfeasibleDecision) as exc:
        apply_joint(env, state, (Decision(GRAB, "apple"), Decision(GRAB, "tomato")))
    assert exc.value.robot == 0


def test_mission_satisfied_empty_and_simple():
    env = kitchen_env()
    state = initial_state(env, 1)
    assert mission_satisfied(env, state, Mission(()))
    mission = Mission((SubTask("apple", ("loc-table",)),))
    assert not mission_satisfied(env, state, mission)
    for d in (Decision(GOTO, "apple"), Decision(GRAB, "apple"),
              Decision(GOTO, "loc-table"), Decision(PUTDOWN, "loc-table")):
        state = apply_decision(env, state, 0, d)
    assert mission_satisfied(env, state, mission)


def test_mission_satisfied_matches_duplicate_labels_injectively():
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
    state = initial_state(env, 1)
    one = Mission((SubTask("tomato", ("d1",)),))
    assert mission_satisfied(env, state, one)
    # two sub-tasks need two distinct tomatoes at destinations; only one is
    both = Mission((SubTask("tomato", ("d1",)), SubTask("tomato", ("d1", "d2"))))
    assert not mission_satisfied(env, state, both)


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
    state_a = initial_state(env, 2)
    state_b = initial_state(env, 2)
    for jd in decisions:
        try:
            next_a = apply_joint(env, state_a, jd)
        except InfeasibleDecision as exc_a:
            with pytest.raises(InfeasibleDecision) as exc_b:
                apply_joint(env, state_b, jd)
            assert exc_b.value.reason == exc_a.reason
            break
        state_a = next_a
        state_b = apply_joint(env, state_b, jd)
        assert state_a == state_b  # same inputs, same value
        placed = [os.at for os in state_a.objects if os.at is not None]
        held = [p.holding for p in state_a.robots if p.holding is not None]
        # every object is either placed somewhere or held by exactly one robot
        assert len(placed) + len(held) == len(env.objects)
        assert len(set(held)) == len(held)
