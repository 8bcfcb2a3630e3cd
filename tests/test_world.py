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
    Location,
    Mission,
    SafetyConstraint,
    SemanticObject,
    SubTask,
    compact_model,
    merge_writes,
    validate_plan,
    validate_environment,
    violates_safety,
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
    """One synchronous joint step on the compact state: the next state, or the
    reason string of the step's refusal."""
    writes = model.joint_writes(state, decisions)
    return writes if writes.__class__ is str else merge_writes(state, writes)


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
    assert step(model, state, Decision(GRAB, "tomato")) == CONTAINER_CLOSED


def test_grab_requires_colocation_and_free_hands():
    model = compact_model(kitchen_env(), 1)
    assert step(model, model.start, Decision(GRAB, "apple")) == NOT_AT_TARGET
    state = step(model, model.start, Decision(GOTO, "apple"))
    state = step(model, state, Decision(GRAB, "apple"))
    assert state[model.n] == model.objs["apple"]
    # a held object is no longer an addressable site
    assert step(model, state, Decision(GRAB, "apple")) in (HANDS_FULL, NO_SUCH_ENTITY)


def test_putdown_requires_holding_and_location_match():
    model = compact_model(kitchen_env(), 1)
    assert step(model, model.start, Decision(PUTDOWN, "loc-table")) == HANDS_EMPTY
    state = step(model, model.start, Decision(GOTO, "apple"))
    state = step(model, state, Decision(GRAB, "apple"))
    assert step(model, state, Decision(PUTDOWN, "loc-table")) == NOT_AT_TARGET


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
    assert step(model, model.start, Decision(OPEN_DOOR, "fridge")) == NOT_AT_TARGET
    state = step(model, model.start, Decision(GOTO, "fridge"))
    state = step(model, state, Decision(OPEN_DOOR, "fridge"))
    assert state[model.door :] == (1,)
    assert step(model, state, Decision(OPEN_DOOR, "fridge")) == state


def test_unknown_entities_are_rejected():
    env = kitchen_env(n_robots=2)
    model = compact_model(env, 2)
    for d in (Decision(GOTO, "ghost"), Decision(GRAB, "ghost"), Decision(OPEN_DOOR, "ghost")):
        assert step(model, model.start, IDLE_DECISION, d) == NO_SUCH_ENTITY
        # the plan validator reports the same refusal
        result = validate_plan(env, Mission(()), 2, 1, ((IDLE_DECISION, d),))
        assert (result.complete, result.reason) == (False, NO_SUCH_ENTITY)
    # so are an unknown action kind and a known kind with no target
    for d in (Decision("fly", "apple"), Decision(GRAB), Decision(PUTDOWN)):
        assert step(model, model.start, IDLE_DECISION, d) == NO_SUCH_ENTITY
    # and a GoTo to a held object
    state = step(model, model.start, Decision(GOTO, "apple"), IDLE_DECISION)
    state = step(model, state, Decision(GRAB, "apple"), IDLE_DECISION)
    assert step(model, state, IDLE_DECISION, Decision(GOTO, "apple")) == NO_SUCH_ENTITY


def test_all_idle_joint_only_advances_time():
    model = compact_model(kitchen_env(n_robots=2), 2)
    assert step(model, model.start, IDLE_DECISION, IDLE_DECISION) == model.start


def test_same_step_duplicate_grab_is_a_conflict():
    model = compact_model(kitchen_env(n_robots=2), 2)
    state = step(model, model.start, Decision(GOTO, "apple"), Decision(GOTO, "apple"))
    assert step(model, state, Decision(GRAB, "apple"), Decision(GRAB, "apple")) == CONFLICT


def test_grab_conflict_is_found_before_any_decision_is_checked():
    # by target id, so two Grabs of an unknown id are a conflict rather than
    # a no-such-entity refusal of robot 0
    model = compact_model(kitchen_env(n_robots=2), 2)
    ghost = Decision(GRAB, "ghost")
    assert step(model, model.start, ghost, ghost) == CONFLICT


def test_a_refusal_is_its_reason():
    model = compact_model(kitchen_env(), 1)
    check, bit = model.op(0, Decision(GRAB, "apple"))
    assert bit == 1 << 0
    assert check(model.start) == NOT_AT_TARGET
    assert model.joint_writes(model.start, (Decision(GRAB, "apple"),)) == NOT_AT_TARGET
    # only a joint decision of the wrong length raises
    with pytest.raises(ValueError):
        model.joint_writes(model.start, (IDLE_DECISION, IDLE_DECISION))


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
    jd = (Decision(OPEN_DOOR, "fridge"), Decision(GRAB, "tomato"))
    assert step(model, state, *jd) == CONTAINER_CLOSED


def test_joint_reports_first_infeasible_robot():
    # both robots stand at the table with empty hands, and each refuses for
    # its own reason: the step reports robot 0's
    model = compact_model(kitchen_env(n_robots=2), 2)
    away, empty = Decision(GRAB, "apple"), Decision(PUTDOWN, "loc-table")
    assert step(model, model.start, away, empty) == NOT_AT_TARGET
    assert step(model, model.start, empty, away) == HANDS_EMPTY


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
    assert result.reason == CONTAINER_CLOSED


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
    # the simulation ran to the end: the object did arrive, at boundary 4
    assert result.steps_used == 4


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
        state_a, state_b = step(model_a, state_a, *jd), step(model_b, state_b, *jd)
        assert state_a == state_b  # same inputs, same value or same reason
        if state_a.__class__ is str:
            break
        # every object is either placed somewhere or held by exactly one robot
        for i in range(len(env.objects)):
            holders = [r for r in range(n) if state_a[n + r] == i]
            placed = state_a[model_a.obj_at + i] >= 0
            assert len(holders) == (0 if placed else 1)
            assert placed or state_a[model_a.obj_in + i] == -1
        assert all(-1 <= state_a[n + r] < len(env.objects) for r in range(n))


def reference_verdict(env, mission, n_robots, plan):
    """(complete, steps_used, reason) from every step's facts on
    `compact_model`, with no early exit: each step's safety check, its
    refusal, and whether the mission holds at each boundary reached."""
    model = compact_model(env, n_robots)
    goals = model.goals(mission)
    state = model.start
    holds = [model.satisfied(goals, state)]
    unsafe, refusal = [], None
    for jd in plan:
        unsafe += [r for r, d in enumerate(jd) if violates_safety(r, d, mission.safety)]
        state = step(model, state, *jd)
        if state.__class__ is str:
            refusal = state
            break
        holds.append(model.satisfied(goals, state))
    steps_used = holds.index(True) if any(holds) else len(plan)
    if refusal is not None:
        return False, steps_used, refusal
    if unsafe:
        return False, steps_used, "safety-violation"
    if not any(holds):
        return False, steps_used, "mission-unsatisfied"
    return True, steps_used, None


def verdict(env, mission, n_robots, plan):
    result = validate_plan(env, mission, n_robots, len(plan), plan)
    return result.complete, result.steps_used, result.reason


DELIVER_APPLE = (
    (Decision(GOTO, "apple"),),
    (Decision(GRAB, "apple"),),
    (Decision(GOTO, "loc-table"),),
    (Decision(PUTDOWN, "loc-table"),),
)


def test_a_refusal_after_the_mission_held_is_the_verdict():
    env, mission = kitchen_env(), Mission((SubTask("apple", ("loc-table",)),))
    assert verdict(env, mission, 1, DELIVER_APPLE) == (True, 4, None)
    # the tomato is at the fridge and the robot at the table
    plan = DELIVER_APPLE + ((IDLE_DECISION,), (Decision(GRAB, "tomato"),))
    assert verdict(env, mission, 1, plan) == (False, 4, NOT_AT_TARGET)
    assert reference_verdict(env, mission, 1, plan) == (False, 4, NOT_AT_TARGET)


def test_an_unsafe_step_after_the_mission_held_is_the_verdict():
    mission = Mission(
        (SubTask("apple", ("loc-table",)),),
        safety=SafetyConstraint(robot=0, forbidden_object="tomato"),
    )
    env = kitchen_env()
    plan = DELIVER_APPLE + ((Decision(GOTO, "tomato"),), (IDLE_DECISION,))
    assert verdict(env, mission, 1, plan) == (False, 4, "safety-violation")
    assert reference_verdict(env, mission, 1, plan) == (False, 4, "safety-violation")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_verdict_equals_a_step_by_step_reference(data):
    n_robots = data.draw(st.integers(1, 2))
    env = kitchen_env(n_robots=n_robots)
    labels = st.sampled_from(("apple", "tomato", "pear"))
    destinations = st.lists(
        st.sampled_from([loc.id for loc in env.locations] + ["loc-ghost"]),
        min_size=1,
        max_size=2,
    ).map(tuple)
    safety = st.none() | st.builds(
        SafetyConstraint,
        robot=st.integers(0, n_robots - 1),
        forbidden_object=st.sampled_from(("apple", "tomato")),
    )
    mission = data.draw(
        st.builds(
            Mission,
            subtasks=st.lists(st.builds(SubTask, labels, destinations), max_size=2).map(tuple),
            safety=safety,
        )
    )
    # random steps, after the apple's delivery by robot 0 or not
    delivery = tuple(jd + (IDLE_DECISION,) * (n_robots - 1) for jd in DELIVER_APPLE)
    head = data.draw(st.sampled_from(((), delivery)))
    steps = st.tuples(*[_decision_strategy(env)] * n_robots)
    plan = head + tuple(data.draw(st.lists(steps, max_size=6)))
    assert verdict(env, mission, n_robots, plan) == reference_verdict(env, mission, n_robots, plan)
