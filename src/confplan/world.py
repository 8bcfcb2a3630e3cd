"""Symbolic household environment and executable decision semantics.

The environment is purely symbolic: locations carry no geometry, navigation
always succeeds, and all entities are known up front. A joint step executes
every robot's decision against the state at the *start* of the step
(synchronous execution); the only cross-robot rule is that two robots may not
grab the same object in the same step. Time advances by exactly one per joint
step.

All state values are immutable; every operation is a pure function and safe to
call from concurrent workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache

# Decision kinds. The tuple order is the canonical rendering order of the
# skill set and is relied on by the decision-space enumerator.
GOTO = "goto"
GRAB = "grab"
PUTDOWN = "putdown"
OPEN_DOOR = "open-door"
IDLE = "idle"
ACTION_KINDS = (GOTO, GRAB, PUTDOWN, OPEN_DOOR, IDLE)

SKILL_PHRASES = {
    GOTO: "go to",
    GRAB: "grab object",
    PUTDOWN: "put object down",
    OPEN_DOOR: "open door",
    IDLE: "remain idle",
}

# Location kinds.
OBJECT_SITE = "object-site"
CONTAINER_SITE = "container-site"
DESTINATION = "destination"

# Infeasibility reasons.
NOT_AT_TARGET = "not-at-target"
CONTAINER_CLOSED = "container-closed"
HANDS_FULL = "hands-full"
HANDS_EMPTY = "hands-empty"
NO_SUCH_ENTITY = "no-such-entity"
CONFLICT = "conflict"

DOOR_OPEN = "open"
DOOR_CLOSED = "closed"


class InfeasibleDecision(Exception):
    """A decision whose preconditions do not hold in the current state."""

    def __init__(self, reason: str, robot: int | None = None, detail: str = ""):
        self.reason = reason
        self.robot = robot
        self.detail = detail
        msg = reason if robot is None else f"robot {robot}: {reason}"
        super().__init__(f"{msg} ({detail})" if detail else msg)


@dataclass(frozen=True)
class Location:
    id: str
    label: str
    kind: str  # one of OBJECT_SITE, CONTAINER_SITE, DESTINATION


@dataclass(frozen=True)
class SemanticObject:
    """An object at its initial placement; `inside` names an enclosing container."""

    id: str
    label: str
    at: str
    inside: str | None = None


@dataclass(frozen=True)
class Container:
    id: str
    label: str
    at: str
    door: str = DOOR_CLOSED


def hash_once(self) -> int:
    """The dataclass field hash, computed once per instance.

    Used as `__hash__` by the frozen dataclasses that key the lookup caches
    (`Environment`, `Scenario`), which would otherwise re-hash every nested
    field on each lookup. The value is kept out of pickles (`state_without_hash`)
    because string hashes are salted per process.
    """
    try:
        return self._hash
    except AttributeError:
        value = hash(tuple(getattr(self, f.name) for f in fields(self)))
        object.__setattr__(self, "_hash", value)
        return value


def state_without_hash(self) -> dict:
    """Pickled state of a `hash_once` instance: its fields, never the hash or
    another value memoised on the instance (a scenario's canonical plan and
    order schedule)."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Environment:
    """Static description of a scene plus the initial robot placements."""

    locations: tuple[Location, ...]
    objects: tuple[SemanticObject, ...]
    containers: tuple[Container, ...]
    robot_start: tuple[str, ...]

    __hash__ = hash_once
    __getstate__ = state_without_hash


@dataclass(frozen=True)
class Decision:
    """A single-robot decision: an action kind plus its declared target id.

    GoTo targets a loose object, a container, or a destination location;
    Grab targets an object; PutDown targets a destination location; OpenDoor
    targets a container; Idle carries no target.
    """

    kind: str
    target: str | None = None

    def phrase(self) -> str:
        if self.kind == IDLE:
            return "remain idle"
        return f"{SKILL_PHRASES[self.kind]} {self.target}"


IDLE_DECISION = Decision(IDLE)

JointDecision = tuple[Decision, ...]
Plan = tuple[JointDecision, ...]


@dataclass(frozen=True)
class SubTask:
    """Move some object with this label to one of the allowed destinations."""

    object_label: str
    destinations: tuple[str, ...]


@dataclass(frozen=True)
class SafetyConstraint:
    """`robot` must never target `forbidden_object` with GoTo or Grab."""

    robot: int
    forbidden_object: str


@dataclass(frozen=True)
class Mission:
    subtasks: tuple[SubTask, ...]
    safety: SafetyConstraint | None = None


@dataclass(frozen=True)
class RobotPose:
    at: str
    holding: str | None = None


@dataclass(frozen=True)
class ObjectState:
    """Placement of one object; both fields are None while the object is held."""

    at: str | None
    inside: str | None = None


@dataclass(frozen=True)
class WorldState:
    time: int
    robots: tuple[RobotPose, ...]
    objects: tuple[ObjectState, ...]  # aligned with Environment.objects
    doors_open: tuple[bool, ...]  # aligned with Environment.containers


@lru_cache(maxsize=1024)
def _indexes(env: Environment) -> tuple[dict, dict, dict]:
    locs = {loc.id: loc for loc in env.locations}
    objs = {o.id: i for i, o in enumerate(env.objects)}
    conts = {c.id: i for i, c in enumerate(env.containers)}
    return locs, objs, conts


def validate_environment(env: Environment) -> None:
    """Check id uniqueness and referential consistency; raise ValueError."""
    ids: set[str] = set()
    for entity in (*env.locations, *env.objects, *env.containers):
        if entity.id in ids:
            raise ValueError(f"duplicate id {entity.id!r}")
        ids.add(entity.id)
    locs, _, conts = _indexes(env)
    for c in env.containers:
        if c.at not in locs:
            raise ValueError(f"container {c.id} at unknown location {c.at}")
    for o in env.objects:
        if o.at not in locs:
            raise ValueError(f"object {o.id} at unknown location {o.at}")
        if o.inside is not None:
            if o.inside not in conts:
                raise ValueError(f"object {o.id} inside unknown container {o.inside}")
            if env.containers[conts[o.inside]].at != o.at:
                raise ValueError(
                    f"object {o.id} inside {o.inside} but not at its location"
                )
    for at in env.robot_start:
        if at not in locs:
            raise ValueError(f"robot start at unknown location {at}")


def initial_state(env: Environment, n_robots: int) -> WorldState:
    if len(env.robot_start) < n_robots:
        raise ValueError("environment has fewer robot placements than robots")
    return WorldState(
        time=0,
        robots=tuple(RobotPose(at=env.robot_start[j]) for j in range(n_robots)),
        objects=tuple(ObjectState(at=o.at, inside=o.inside) for o in env.objects),
        doors_open=tuple(c.door == DOOR_OPEN for c in env.containers),
    )


def _resolve_goto(env: Environment, state: WorldState, robot: int, target: str) -> str:
    """Map `robot`'s GoTo target id to a concrete location id."""
    locs, objs, conts = _indexes(env)
    if target in locs:
        return target
    if target in conts:
        return env.containers[conts[target]].at
    if target in objs:
        at = state.objects[objs[target]].at
        if at is None:
            raise InfeasibleDecision(NO_SUCH_ENTITY, robot, f"{target} is held")
        return at
    raise InfeasibleDecision(NO_SUCH_ENTITY, robot, target)


def _plan_effect(env, state: WorldState, robot: int, d: Decision):
    """Check `d`'s preconditions against `state`; return an effect record.

    Effects are returned rather than applied so that apply_joint can check all
    robots against the same start-of-step snapshot before merging.
    """
    locs, objs, conts = _indexes(env)
    pose = state.robots[robot]
    if d.kind == IDLE:
        return ("idle",)
    if d.kind == GOTO:
        return ("move", robot, _resolve_goto(env, state, robot, d.target))
    if d.kind == GRAB:
        if d.target not in objs:
            raise InfeasibleDecision(NO_SUCH_ENTITY, robot, d.target or "")
        idx = objs[d.target]
        ostate = state.objects[idx]
        if ostate.at is None:
            raise InfeasibleDecision(NO_SUCH_ENTITY, robot, f"{d.target} is held")
        if pose.holding is not None:
            raise InfeasibleDecision(HANDS_FULL, robot)
        if pose.at != ostate.at:
            raise InfeasibleDecision(NOT_AT_TARGET, robot, d.target)
        if ostate.inside is not None:
            cidx = conts[ostate.inside]
            if not state.doors_open[cidx]:
                raise InfeasibleDecision(CONTAINER_CLOSED, robot, ostate.inside)
        return ("grab", robot, idx)
    if d.kind == PUTDOWN:
        if d.target not in locs:
            raise InfeasibleDecision(NO_SUCH_ENTITY, robot, d.target or "")
        if pose.holding is None:
            raise InfeasibleDecision(HANDS_EMPTY, robot)
        if pose.at != d.target:
            raise InfeasibleDecision(NOT_AT_TARGET, robot, d.target)
        return ("put", robot, objs[pose.holding], d.target)
    if d.kind == OPEN_DOOR:
        if d.target not in conts:
            raise InfeasibleDecision(NO_SUCH_ENTITY, robot, d.target or "")
        cidx = conts[d.target]
        if pose.at != env.containers[cidx].at:
            raise InfeasibleDecision(NOT_AT_TARGET, robot, d.target)
        return ("open", cidx)
    raise InfeasibleDecision(NO_SUCH_ENTITY, robot, f"unknown action {d.kind}")


def _merge(env: Environment, state: WorldState, effects, time: int) -> WorldState:
    robots = list(state.robots)
    objects = list(state.objects)
    doors = list(state.doors_open)
    for eff in effects:
        tag = eff[0]
        if tag == "idle":
            continue
        if tag == "move":
            _, robot, loc = eff
            robots[robot] = RobotPose(loc, robots[robot].holding)
        elif tag == "grab":
            _, robot, idx = eff
            robots[robot] = RobotPose(robots[robot].at, env.objects[idx].id)
            objects[idx] = ObjectState(at=None, inside=None)
        elif tag == "put":
            _, robot, idx, dest = eff
            robots[robot] = RobotPose(robots[robot].at, None)
            objects[idx] = ObjectState(at=dest, inside=None)
        elif tag == "open":
            doors[eff[1]] = True
    return WorldState(time, tuple(robots), tuple(objects), tuple(doors))


def apply_decision(
    env: Environment, state: WorldState, robot: int, d: Decision
) -> WorldState:
    """Apply one robot's decision; raises InfeasibleDecision. Time unchanged."""
    if robot < 0 or robot >= len(state.robots):
        raise ValueError(f"robot index {robot} out of range")
    return _merge(env, state, [_plan_effect(env, state, robot, d)], state.time)


def decision_feasible(env, state: WorldState, robot: int, d: Decision) -> bool:
    try:
        _plan_effect(env, state, robot, d)
    except InfeasibleDecision:
        return False
    return True


def apply_joint(env: Environment, state: WorldState, jd: JointDecision) -> WorldState:
    """Apply one synchronous joint step; time advances by one.

    All preconditions are checked against the start-of-step state, in robot
    index order, so the first failing robot is reported. Two robots grabbing
    the same object in one step is rejected as a conflict.
    """
    if len(jd) != len(state.robots):
        raise ValueError(f"joint decision length {len(jd)} != {len(state.robots)}")
    grabbed: dict[str, int] = {}
    for robot, d in enumerate(jd):
        if d.kind == GRAB and d.target is not None:
            if d.target in grabbed:
                raise InfeasibleDecision(
                    CONFLICT, robot, f"{d.target} also grabbed by robot {grabbed[d.target]}"
                )
            grabbed[d.target] = robot
    effects = [_plan_effect(env, state, robot, d) for robot, d in enumerate(jd)]
    return _merge(env, state, effects, state.time + 1)


def violates_safety(robot: int, d: Decision, safety: SafetyConstraint | None) -> bool:
    """Safety fires on Grab of the forbidden object and on GoTo declaring it."""
    return (
        safety is not None
        and robot == safety.robot
        and d.kind in (GOTO, GRAB)
        and d.target == safety.forbidden_object
    )


def mission_satisfied(env: Environment, state: WorldState, mission: Mission) -> bool:
    """True iff distinct objects can be matched one-per-subtask, each with the
    subtask's label and currently placed at one of its allowed destinations.

    Placement only; safety violations are tracked by the plan validator.
    """
    if not mission.subtasks:
        return True
    candidates: list[list[int]] = []
    for st in mission.subtasks:
        ids = [
            i
            for i, (o, os) in enumerate(zip(env.objects, state.objects))
            if o.label == st.object_label and os.at in st.destinations
        ]
        if not ids:
            return False
        candidates.append(ids)
    return distinct_match(candidates)


def distinct_match(candidates: list[list[int]]) -> bool:
    """True iff one distinct id can be picked from each candidate list:
    backtracking over the lists, shortest first."""
    if len(candidates) < 2:
        return all(candidates)
    candidates = sorted(candidates, key=len)
    used: set[int] = set()

    def assign(pos: int) -> bool:
        if pos == len(candidates):
            return True
        for i in candidates[pos]:
            if i not in used:
                used.add(i)
                if assign(pos + 1):
                    return True
                used.discard(i)
        return False

    return assign(0)


@dataclass(frozen=True)
class StepOutcome:
    t: int
    decisions: JointDecision
    infeasible: str | None  # reason, or None
    infeasible_robot: int | None
    safety_violations: tuple[int, ...]  # robot indices that violated safety
    satisfied_after: bool


@dataclass(frozen=True)
class ValidationResult:
    complete: bool
    steps_used: int
    trace: tuple[StepOutcome, ...]
    reason: str | None = None


def validate_plan(
    env: Environment,
    mission: Mission,
    n_robots: int,
    horizon: int,
    plan: Plan,
) -> ValidationResult:
    """Simulate `plan` from the initial state and judge mission completion.

    Complete iff every step is feasible, no safety violation occurs, and the
    mission is satisfied at some step boundary t <= horizon (trailing Idle
    steps after completion are fine). Simulation stops at the first infeasible
    step; safety violations are recorded but do not stop it.
    """
    if len(plan) > horizon:
        raise ValueError(f"plan length {len(plan)} exceeds horizon {horizon}")
    state = initial_state(env, n_robots)
    satisfied_at: int | None = 0 if mission_satisfied(env, state, mission) else None
    trace: list[StepOutcome] = []
    any_violation = False
    reason = None
    for t, jd in enumerate(plan):
        violations = tuple(
            j for j, d in enumerate(jd) if violates_safety(j, d, mission.safety)
        )
        any_violation = any_violation or bool(violations)
        try:
            state = apply_joint(env, state, jd)
        except InfeasibleDecision as exc:
            trace.append(
                StepOutcome(t, jd, exc.reason, exc.robot, violations, False)
            )
            reason = exc.reason
            break
        sat = mission_satisfied(env, state, mission)
        if sat and satisfied_at is None:
            satisfied_at = t + 1
        trace.append(StepOutcome(t, jd, None, None, violations, sat))
    complete = reason is None and not any_violation and satisfied_at is not None
    if reason is None and any_violation:
        reason = "safety-violation"
    if reason is None and satisfied_at is None:
        reason = "mission-unsatisfied"
    return ValidationResult(
        complete=complete,
        steps_used=satisfied_at if satisfied_at is not None else len(plan),
        trace=tuple(trace),
        reason=None if complete else reason,
    )


# --- serialization -----------------------------------------------------------

def environment_to_dict(env: Environment) -> dict:
    return {
        "schema_version": 1,
        "locations": [
            {"id": l.id, "label": l.label, "kind": l.kind} for l in env.locations
        ],
        "objects": [
            {"id": o.id, "label": o.label, "at": o.at, "inside": o.inside}
            for o in env.objects
        ],
        "containers": [
            {"id": c.id, "label": c.label, "at": c.at, "door": c.door}
            for c in env.containers
        ],
        "robot_start": list(env.robot_start),
    }


def environment_from_dict(data: dict) -> Environment:
    env = Environment(
        locations=tuple(
            Location(d["id"], d["label"], d["kind"]) for d in data["locations"]
        ),
        objects=tuple(
            SemanticObject(d["id"], d["label"], d["at"], d.get("inside"))
            for d in data["objects"]
        ),
        containers=tuple(
            Container(d["id"], d["label"], d["at"], d.get("door", DOOR_CLOSED))
            for d in data["containers"]
        ),
        robot_start=tuple(data["robot_start"]),
    )
    validate_environment(env)
    return env


def decision_to_dict(d: Decision) -> dict:
    return {"kind": d.kind, "target": d.target}


def plan_to_dict(plan: Plan) -> list:
    return [[decision_to_dict(d) for d in jd] for jd in plan]


def mission_to_dict(mission: Mission) -> dict:
    return {
        "subtasks": [
            {"object_label": st.object_label, "destinations": list(st.destinations)}
            for st in mission.subtasks
        ],
        "safety": (
            None
            if mission.safety is None
            else {
                "robot": mission.safety.robot,
                "forbidden_object": mission.safety.forbidden_object,
            }
        ),
    }


def mission_from_dict(data: dict) -> Mission:
    safety = data.get("safety")
    return Mission(
        subtasks=tuple(
            SubTask(st["object_label"], tuple(st["destinations"]))
            for st in data["subtasks"]
        ),
        safety=(
            None
            if safety is None
            else SafetyConstraint(safety["robot"], safety["forbidden_object"])
        ),
    )


def dump_json(data, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
