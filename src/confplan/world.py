"""Symbolic household environment and executable decision semantics.

The environment is purely symbolic: locations carry no geometry, navigation
always succeeds, and all entities are known up front. A joint step executes
every robot's decision against the state at the *start* of the step
(synchronous execution); the only cross-robot rule is that two robots may not
grab the same object in the same step. Time advances by exactly one per joint
step.

These semantics are written once, in `CompactModel`: each decision is compiled
into a check on a compact int-tuple state, the only world state there is, and
the plan validator and the feasibility search both run on those checks.
An environment's models (`compact_model`) are memoised on the environment,
as its decision space is; no module-level cache holds an environment.

All state values are immutable; every operation is a pure function and safe to
call from concurrent workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
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


def state_without_memos(self) -> dict:
    """Pickled state of an `Environment` or a `Scenario`: its fields, never a
    value memoised on it. Compiled checks are closures, which do not pickle,
    and a loaded scenario must derive its verdict again."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Environment:
    """Static description of a scene plus the initial robot placements."""

    locations: tuple[Location, ...]
    objects: tuple[SemanticObject, ...]
    containers: tuple[Container, ...]
    robot_start: tuple[str, ...]

    __getstate__ = state_without_memos


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
    of the decision's effect, a tuple of (slot, value) pairs, or the reason
    string of the first precondition that fails. The grab bit is 1 << object
    index for a Grab of a known object, else 0. The environment must pass
    `validate_environment`. `start` is the initial state: robots at their
    start locations with empty hands, objects at their initial placements,
    doors as declared.
    """

    def __init__(self, env: Environment, n_robots: int):
        if len(env.robot_start) < n_robots:
            raise ValueError("environment has fewer robot placements than robots")
        # the entities, not `env`: the model is memoised on `env`, and a reference
        # back would make a cycle that only the garbage collector frees
        self.objects, self.containers = env.objects, env.containers
        self.n = n = n_robots
        self.obj_at = 2 * n
        self.obj_in = 2 * n + len(env.objects)
        self.door = 2 * n + 2 * len(env.objects)
        self.locs = {loc.id: i for i, loc in enumerate(env.locations)}
        self.objs = {o.id: i for i, o in enumerate(env.objects)}
        self.conts = {c.id: i for i, c in enumerate(env.containers)}
        self._ops: dict = {}
        locs, conts = self.locs, self.conts
        self.start = (
            *(locs[at] for at in env.robot_start[:n]),
            *(-1,) * n,
            *(locs[o.at] for o in env.objects),
            *(-1 if o.inside is None else conts[o.inside] for o in env.objects),
            *(int(c.door == DOOR_OPEN) for c in env.containers),
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
                return _constant(((at, locs[self.containers[conts[target]].at]),)), 0
            if target in objs:
                slot = self.obj_at + objs[target]
                return (lambda s: NO_SUCH_ENTITY if s[slot] < 0 else ((at, s[slot]),)), 0
        if d.kind == GRAB and target in objs:
            return self._grab(at, objs[target]), 1 << objs[target]
        if d.kind == PUTDOWN and target in locs:
            return self._put(at, locs[target]), 0
        if d.kind == OPEN_DOOR and target in conts:
            c = conts[target]
            site = locs[self.containers[c].at]
            effect = ((self.door + c, 1),)
            return (lambda state: effect if state[at] == site else NOT_AT_TARGET), 0
        return _constant(NO_SUCH_ENTITY), 0

    def _grab(self, at: int, o: int):
        hold, place_slot, cont_slot, door = self.n + at, self.obj_at + o, self.obj_in + o, self.door
        effect = ((hold, o), (place_slot, -1), (cont_slot, -1))

        def grab(state):
            place = state[place_slot]
            if place < 0:
                return NO_SUCH_ENTITY  # held objects are not addressable
            if state[hold] >= 0:
                return HANDS_FULL
            if state[at] != place:
                return NOT_AT_TARGET
            cont = state[cont_slot]
            if cont >= 0 and not state[door + cont]:
                return CONTAINER_CLOSED
            return effect

        return grab

    def _put(self, at: int, dest: int):
        hold, obj_at, obj_in = self.n + at, self.obj_at, self.obj_in

        def put(state):
            held = state[hold]
            if held < 0:
                return HANDS_EMPTY
            if state[at] != dest:
                return NOT_AT_TARGET
            return ((hold, -1), (obj_at + held, dest), (obj_in + held, -1))

        return put

    def joint_writes(self, state: tuple[int, ...], jd: JointDecision) -> list | str:
        """The slot writes of one synchronous joint step, or its refusal's
        reason: CONFLICT if two robots declare a Grab of one target id, found
        before any decision is checked; else the first refused robot's, each
        checked against the start-of-step `state` in robot index order.
        Raises ValueError only for a joint decision of the wrong length."""
        if len(jd) != self.n:
            raise ValueError(f"joint decision length {len(jd)} != {self.n}")
        grabbed = set()
        for d in jd:
            if d.kind == GRAB and d.target is not None:
                if d.target in grabbed:
                    return CONFLICT
                grabbed.add(d.target)
        writes = []
        for robot, d in enumerate(jd):
            eff = self.op(robot, d)[0](state)
            if eff.__class__ is str:
                return eff
            writes.append(eff)
        return writes

    def goals(self, mission: Mission) -> tuple:
        """Per sub-task: (indexes of the objects with its label, location
        indexes of its allowed destinations)."""
        locs = self.locs
        return tuple(
            (
                tuple(i for i, o in enumerate(self.objects) if o.label == st.object_label),
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


def compact_model(env: Environment, n_robots: int) -> CompactModel:
    """The shared model of (env, n_robots), memoised on the environment in a
    dict keyed by robot count and kept out of its pickles."""
    try:
        models = env._models
    except AttributeError:
        models = {}
        object.__setattr__(env, "_models", models)
    model = models.get(n_robots)
    if model is None:
        model = models[n_robots] = CompactModel(env, n_robots)
    return model


def merge_writes(state: tuple[int, ...], writes) -> tuple[int, ...]:
    """`state` with the slot writes of each decision in `writes` applied."""
    out = list(state)
    for effect in writes:
        for slot, value in effect:
            out[slot] = value
    return tuple(out)


def violates_safety(robot: int, d: Decision, safety: SafetyConstraint | None) -> bool:
    """Safety fires on Grab of the forbidden object and on GoTo declaring it."""
    return (
        safety is not None
        and robot == safety.robot
        and d.kind in (GOTO, GRAB)
        and d.target == safety.forbidden_object
    )


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
class ValidationResult:
    """The verdict on a plan: `complete`; `steps_used`, the first step
    boundary at which the mission holds, or the plan's length if it never
    does; and `reason`, None when complete, else the first refused step's
    reason, then "safety-violation", then "mission-unsatisfied"."""

    complete: bool
    steps_used: int
    reason: str | None


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
    steps after completion are fine). Simulation stops at the first refused
    step; a safety violation does not stop it, as a later refusal's reason
    wins. Once the mission has held it is not tested again, and once a
    violation is seen safety is not checked again: neither can change the
    verdict. The simulation runs on the compact state of `compact_model`.
    """
    if len(plan) > horizon:
        raise ValueError(f"plan length {len(plan)} exceeds horizon {horizon}")
    model = compact_model(env, n_robots)
    goals = model.goals(mission)
    state = model.start
    held_at = 0 if model.satisfied(goals, state) else None
    unsafe = False
    reason = None
    for t, jd in enumerate(plan):
        unsafe = unsafe or any(violates_safety(j, d, mission.safety) for j, d in enumerate(jd))
        writes = model.joint_writes(state, jd)
        if writes.__class__ is str:
            reason = writes
            break
        state = merge_writes(state, writes)
        if held_at is None and model.satisfied(goals, state):
            held_at = t + 1
    if reason is None and unsafe:
        reason = "safety-violation"
    if reason is None and held_at is None:
        reason = "mission-unsatisfied"
    return ValidationResult(reason is None, len(plan) if held_at is None else held_at, reason)


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
    hints: ints and floats are coerced (a boolean, or a fractional float for
    an int, is refused), strings are checked, and `X | None`,
    `tuple[X, ...]`, fixed tuples and nested dataclasses are decoded. A
    missing key takes the field's default. A key that names no field, or a
    `schema_version` (any object may carry one) other than 1, raises
    ConfigError; a value of the wrong shape, or a missing field with no
    default, raises TypeError."""
    if not isinstance(data, dict):
        raise TypeError(f"{cls.__name__} must be an object, not {type(data).__name__}")
    check_schema_version(data)
    hints = get_type_hints(cls)
    unknown = sorted(set(data) - set(hints) - {"schema_version"})
    if unknown:
        raise ConfigError(f"{cls.__name__} has no field {', '.join(unknown)}")
    return cls(**{key: _decode(hints[key], value) for key, value in data.items() if key in hints})


def check_schema_version(data: dict) -> None:
    """Refuse a `schema_version` (an int field, 1 when absent) other than 1."""
    if _decode(int, data.get("schema_version", 1)) != 1:
        raise ConfigError(f"schema_version {data['schema_version']!r} is not 1")


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
        # int() and float() would truncate 2.7 to 2 and read true as 1
        if isinstance(value, bool) or (
            hint is int and isinstance(value, float) and not value.is_integer()
        ):
            raise TypeError(f"expected {hint.__name__}, got {value!r}")
        return hint(value)
    if hint is str and not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def dump_json(data, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
