"""Symbolic household environment and executable decision semantics.

The environment is purely symbolic: locations carry no geometry, navigation
always succeeds, and all entities are known up front. A joint step executes
every robot's decision against the state at the *start* of the step
(synchronous execution); the only cross-robot rule is that two robots may not
grab the same object in the same step. Time advances by exactly one per joint
step.

These semantics are written once, in `CompactModel`: each decision is compiled
into a check on a compact int-tuple state, and the plan validator, the
`WorldState` operations and the feasibility search all run on those checks.

All state values are immutable; every operation is a pure function and safe to
call from concurrent workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError

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
    another value memoised on the instance (a scenario's canonical plan, its
    verdict and the order schedule)."""
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


def validate_environment(env: Environment) -> None:
    """Check id uniqueness and referential consistency; raise ValueError."""
    ids: set[str] = set()
    for entity in (*env.locations, *env.objects, *env.containers):
        if entity.id in ids:
            raise ValueError(f"duplicate id {entity.id!r}")
        ids.add(entity.id)
    locs = {loc.id for loc in env.locations}
    conts = {c.id: c for c in env.containers}
    for c in env.containers:
        if c.at not in locs:
            raise ValueError(f"container {c.id} at unknown location {c.at}")
    for o in env.objects:
        if o.at not in locs:
            raise ValueError(f"object {o.id} at unknown location {o.at}")
        if o.inside is not None:
            if o.inside not in conts:
                raise ValueError(f"object {o.id} inside unknown container {o.inside}")
            if conts[o.inside].at != o.at:
                raise ValueError(
                    f"object {o.id} inside {o.inside} but not at its location"
                )
    for at in env.robot_start:
        if at not in locs:
            raise ValueError(f"robot start at unknown location {at}")


# --- compiled semantics --------------------------------------------------------

@dataclass(slots=True)
class Refusal:
    """Why a decision is not executable: the reason and detail that
    `InfeasibleDecision` reports. Shared by every call of its check, so never
    modified; not frozen, as that triples the cost of compiling a check."""

    reason: str
    detail: str | None


_HANDS_FULL = Refusal(HANDS_FULL, "")
_HANDS_EMPTY = Refusal(HANDS_EMPTY, "")


def _constant(result):
    """A check whose result does not depend on the state."""
    return lambda state: result


_IDLE_OP = (_constant(()), 0)


class CompactModel:
    """The executable semantics of one (environment, robot count), compiled
    once and shared by the plan validator and the feasibility search.

    A compact state is a flat int tuple holding, in order, each robot's
    location and held object, each object's location and enclosing container,
    and each container's door (1 open, 0 closed). Entities are indexes into
    the environment's tuples, and -1 marks "none". `op(robot, d)` compiles a
    decision once into (check, grab bit): check(state) returns the slot writes
    of the decision's effect, a tuple of (slot, value) pairs, or a `Refusal`
    when a precondition fails. The grab bit is 1 << object index for a Grab of
    a known object, else 0. The environment must pass `validate_environment`.
    `start` is the initial state: robots at their start locations with empty
    hands, objects at their initial placements, doors as declared.
    """

    def __init__(self, env: Environment, n_robots: int):
        if len(env.robot_start) < n_robots:
            raise ValueError("environment has fewer robot placements than robots")
        self.env = env
        self.n = n = n_robots
        self.obj_at = 2 * n
        self.obj_in = 2 * n + len(env.objects)
        self.door = 2 * n + 2 * len(env.objects)
        self.locs = {loc.id: i for i, loc in enumerate(env.locations)}
        self.objs = {o.id: i for i, o in enumerate(env.objects)}
        self.conts = {c.id: i for i, c in enumerate(env.containers)}
        self._closed = tuple(Refusal(CONTAINER_CLOSED, c.id) for c in env.containers)
        self._ops: dict = {}
        locs, conts = self.locs, self.conts
        self.start = (
            *(locs[at] for at in env.robot_start[:n]),
            *(-1,) * n,
            *(locs[o.at] for o in env.objects),
            *(-1 if o.inside is None else conts[o.inside] for o in env.objects),
            *(int(c.door == DOOR_OPEN) for c in env.containers),
        )

    def encode(self, state: WorldState) -> tuple[int, ...]:
        locs, objs, conts = self.locs, self.objs, self.conts
        return (
            *(locs[p.at] for p in state.robots),
            *(-1 if p.holding is None else objs[p.holding] for p in state.robots),
            *(-1 if o.at is None else locs[o.at] for o in state.objects),
            *(-1 if o.inside is None else conts[o.inside] for o in state.objects),
            *(int(is_open) for is_open in state.doors_open),
        )

    def decode(self, state: tuple[int, ...], time: int) -> WorldState:
        env, n, obj_at, obj_in = self.env, self.n, self.obj_at, self.obj_in

        def name(entities, i):
            return None if i < 0 else entities[i].id

        return WorldState(
            time,
            tuple(
                RobotPose(name(env.locations, state[r]), name(env.objects, state[n + r]))
                for r in range(n)
            ),
            tuple(
                ObjectState(
                    name(env.locations, state[obj_at + i]),
                    name(env.containers, state[obj_in + i]),
                )
                for i in range(len(env.objects))
            ),
            tuple(v == 1 for v in state[self.door :]),
        )

    def op(self, robot: int, d: Decision):
        """(check, grab bit) of `d` for `robot`, compiled on first use."""
        key = (robot, d.kind, d.target)  # hashed in C, unlike a Decision
        op = self._ops.get(key)
        if op is None:
            op = self._ops[key] = self._make_op(robot, d)
        return op

    def _make_op(self, robot: int, d: Decision):
        target, at = d.target, robot  # slot `robot` holds the robot's location
        locs, objs, conts = self.locs, self.objs, self.conts
        if d.kind == IDLE:
            return _IDLE_OP
        if d.kind == GOTO:
            if target in locs:
                return _constant(((at, locs[target]),)), 0
            if target in conts:
                return _constant(((at, locs[self.env.containers[conts[target]].at]),)), 0
            if target not in objs:
                return _constant(Refusal(NO_SUCH_ENTITY, target)), 0
            slot = self.obj_at + objs[target]
            held = Refusal(NO_SUCH_ENTITY, f"{target} is held")
            return (lambda state: held if state[slot] < 0 else ((at, state[slot]),)), 0
        if d.kind == GRAB and target in objs:
            return self._grab(at, objs[target], target), 1 << objs[target]
        if d.kind == PUTDOWN and target in locs:
            return self._put(at, locs[target], target), 0
        if d.kind == OPEN_DOOR and target in conts:
            c = conts[target]
            site = locs[self.env.containers[c].at]
            effect = ((self.door + c, 1),)
            away = Refusal(NOT_AT_TARGET, target)
            return (lambda state: effect if state[at] == site else away), 0
        if d.kind in (GRAB, PUTDOWN, OPEN_DOOR):
            return _constant(Refusal(NO_SUCH_ENTITY, target or "")), 0
        return _constant(Refusal(NO_SUCH_ENTITY, f"unknown action {d.kind}")), 0

    def _grab(self, at: int, o: int, target: str):
        hold, place_slot, cont_slot, door = self.n + at, self.obj_at + o, self.obj_in + o, self.door
        effect = ((hold, o), (place_slot, -1), (cont_slot, -1))
        held = Refusal(NO_SUCH_ENTITY, f"{target} is held")
        away = Refusal(NOT_AT_TARGET, target)
        closed = self._closed

        def grab(state):
            place = state[place_slot]
            if place < 0:
                return held
            if state[hold] >= 0:
                return _HANDS_FULL
            if state[at] != place:
                return away
            cont = state[cont_slot]
            if cont >= 0 and not state[door + cont]:
                return closed[cont]
            return effect

        return grab

    def _put(self, at: int, dest: int, target: str):
        hold, obj_at, obj_in = self.n + at, self.obj_at, self.obj_in
        away = Refusal(NOT_AT_TARGET, target)

        def put(state):
            held = state[hold]
            if held < 0:
                return _HANDS_EMPTY
            if state[at] != dest:
                return away
            return ((hold, -1), (obj_at + held, dest), (obj_in + held, -1))

        return put

    def joint_writes(self, state: tuple[int, ...], jd: JointDecision) -> list:
        """The slot writes of one synchronous joint step.

        Two robots declaring a Grab of the same target id are a conflict,
        reported at the later robot before any decision is checked. Then every
        decision is checked against the start-of-step `state`, in robot index
        order, so the first refused robot is reported with its refusal.
        """
        if len(jd) != self.n:
            raise ValueError(f"joint decision length {len(jd)} != {self.n}")
        grabbed: dict[str, int] = {}
        for robot, d in enumerate(jd):
            if d.kind == GRAB and d.target is not None:
                if d.target in grabbed:
                    raise InfeasibleDecision(
                        CONFLICT, robot, f"{d.target} also grabbed by robot {grabbed[d.target]}"
                    )
                grabbed[d.target] = robot
        writes = []
        for robot, d in enumerate(jd):
            eff = self.op(robot, d)[0](state)
            if eff.__class__ is not tuple:
                raise InfeasibleDecision(eff.reason, robot, eff.detail)
            writes.append(eff)
        return writes

    def goals(self, mission: Mission) -> tuple:
        """Per sub-task: (indexes of the objects with its label, location
        indexes of its allowed destinations)."""
        locs = self.locs
        return tuple(
            (
                tuple(i for i, o in enumerate(self.env.objects) if o.label == st.object_label),
                frozenset(locs[dest] for dest in st.destinations if dest in locs),
            )
            for st in mission.subtasks
        )

    def satisfied(self, goals: tuple, state: tuple[int, ...]) -> bool:
        """True iff distinct objects can be matched one-per-sub-task of
        `goals`, each with the sub-task's label and placed at one of its
        allowed destinations in `state`."""
        obj_at = self.obj_at
        candidates = []
        for objects, dests in goals:
            ids = [o for o in objects if state[obj_at + o] in dests]
            if not ids:
                return False
            candidates.append(ids)
        return distinct_match(candidates)


@lru_cache(maxsize=8)
def compact_model(env: Environment, n_robots: int) -> CompactModel:
    """The shared model of (env, n_robots). The cache need only span the calls
    on one scenario; a model holds its compiled checks (tens of KB after a
    search), and long-lived checks add to the garbage collector's work."""
    return CompactModel(env, n_robots)


def initial_state(env: Environment, n_robots: int) -> WorldState:
    model = compact_model(env, n_robots)
    return model.decode(model.start, 0)


def merge_writes(state: tuple[int, ...], writes) -> tuple[int, ...]:
    """`state` with the slot writes of each decision in `writes` applied."""
    out = list(state)
    for effect in writes:
        for slot, value in effect:
            out[slot] = value
    return tuple(out)


def apply_decision(
    env: Environment, state: WorldState, robot: int, d: Decision
) -> WorldState:
    """Apply one robot's decision, as a joint step in which every other robot
    idles; raises InfeasibleDecision. Time unchanged."""
    n = len(state.robots)
    if robot < 0 or robot >= n:
        raise ValueError(f"robot index {robot} out of range")
    model = compact_model(env, n)
    compact = model.encode(state)
    jd = (IDLE_DECISION,) * robot + (d,) + (IDLE_DECISION,) * (n - robot - 1)
    return model.decode(merge_writes(compact, model.joint_writes(compact, jd)), state.time)


def apply_joint(env: Environment, state: WorldState, jd: JointDecision) -> WorldState:
    """Apply one synchronous joint step (`CompactModel.joint_writes`); raises
    InfeasibleDecision. Time advances by one."""
    model = compact_model(env, len(state.robots))
    compact = model.encode(state)
    return model.decode(merge_writes(compact, model.joint_writes(compact, jd)), state.time + 1)


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
    model = compact_model(env, len(state.robots))
    return model.satisfied(model.goals(mission), model.encode(state))


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
    step; safety violations are recorded but do not stop it. The simulation
    runs on the compact state of `compact_model`.
    """
    if len(plan) > horizon:
        raise ValueError(f"plan length {len(plan)} exceeds horizon {horizon}")
    model = compact_model(env, n_robots)
    goals = model.goals(mission)
    state = model.start
    satisfied_at: int | None = 0 if model.satisfied(goals, state) else None
    trace: list[StepOutcome] = []
    any_violation = False
    reason = None
    for t, jd in enumerate(plan):
        violations = tuple(
            j for j, d in enumerate(jd) if violates_safety(j, d, mission.safety)
        )
        any_violation = any_violation or bool(violations)
        try:
            state = merge_writes(state, model.joint_writes(state, jd))
        except InfeasibleDecision as exc:
            trace.append(
                StepOutcome(t, jd, exc.reason, exc.robot, violations, False)
            )
            reason = exc.reason
            break
        sat = model.satisfied(goals, state)
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

def to_data(value):
    """The JSON form of a document: a dataclass becomes a dict of its fields
    and a tuple a list, recursively. `from_data` reads it back."""
    if is_dataclass(value):
        return {f.name: to_data(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [to_data(v) for v in value]
    return value


def from_data(cls, data):
    """The `cls` dataclass that `to_data` wrote as `data`, decoded by its type
    hints: ints and floats are coerced, strings are checked, and `X | None`,
    `tuple[X, ...]`, fixed tuples and nested dataclasses are decoded. A
    missing key takes the field's default. A key that names no field raises
    ConfigError (`schema_version` is accepted everywhere); a value of the
    wrong shape, or a missing field with no default, raises TypeError."""
    if not isinstance(data, dict):
        raise TypeError(f"{cls.__name__} must be an object, not {type(data).__name__}")
    hints = get_type_hints(cls)
    unknown = sorted(set(data) - set(hints) - {"schema_version"})
    if unknown:
        raise ConfigError(f"{cls.__name__} has no field {', '.join(unknown)}")
    return cls(**{key: _decode(hints[key], value) for key, value in data.items() if key in hints})


def _decode(hint, value):
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # X | None
        return None if value is None else _decode(args[0], value)
    if origin is tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) != len(value):
            raise TypeError(f"expected {len(items)} items, got {value!r}")
        return tuple(_decode(a, v) for a, v in zip(items, value))
    if is_dataclass(hint):
        return from_data(hint, value)
    if hint in (int, float):
        return hint(value)
    if hint is str and not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def dump_json(data, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
