"""Scenario distribution and labeling: sampling, decision space, canonical
plans, feasible-decision enumeration, and auto-regressive label selection.

A scenario bundles the robot count, skill set, mission, horizon, and
environment, plus a seed for its per-step robot-order schedule. Sampling is a
pure function of (params, draw index), so experiments can key independent
streams per trial without sharing state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import world
from .context import (
    Context,
    OrderSchedule,
    advance,
    initial_context,
    keyed_rng,
    seed_words,
    step_orders,
)
from .errors import BudgetError, ConfigError, NoFeasibleError, OracleError
from .world import (
    ACTION_KINDS,
    CONTAINER_SITE,
    DESTINATION,
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
    Plan,
    SafetyConstraint,
    SemanticObject,
    SubTask,
    merge_writes,
    validate_environment,
    violates_safety,
)

DEFAULT_OBJECT_LABELS = ("apple", "kettle", "tomato", "bread", "potato", "knife")
DEFAULT_CONTAINER_LABELS = ("fridge", "drawer", "cabinet")
DEFAULT_DESTINATION_LABELS = ("table", "sink", "counter", "shelf", "stove")

EXACT_SEARCH_BUDGET = 10**6


@dataclass(frozen=True)
class DistributionParams:
    """Knobs of the scenario distribution; all ranges are inclusive.

    `n_enclosed`, when set, encloses exactly that many objects (needed for
    profiles that must pin the decision-space size); otherwise each object is
    enclosed independently with `enclosure_prob`.
    """

    n_robots: tuple[int, int] = (1, 2)
    n_subtasks: tuple[int, int] = (1, 2)
    n_objects: tuple[int, int] = (2, 3)
    n_containers: tuple[int, int] = (0, 1)
    n_destinations: tuple[int, int] = (1, 2)
    enclosure_prob: float = 0.35
    n_enclosed: tuple[int, int] | None = None
    safety_prob: float = 0.25
    multi_destination_prob: float = 0.0
    horizon_slack: int = 1
    object_labels: tuple[str, ...] = DEFAULT_OBJECT_LABELS
    container_labels: tuple[str, ...] = DEFAULT_CONTAINER_LABELS
    destination_labels: tuple[str, ...] = DEFAULT_DESTINATION_LABELS
    rng_seed: int = 0
    schema_version: int = 1


def validate_params(params: DistributionParams) -> None:
    def check_range(name: str, rng: tuple[int, int], lo_min: int) -> None:
        lo, hi = rng
        if lo > hi or lo < lo_min:
            raise ConfigError(f"{name} range {rng} is empty or below {lo_min}")

    check_range("n_robots", params.n_robots, 1)
    check_range("n_subtasks", params.n_subtasks, 0)
    check_range("n_objects", params.n_objects, 0)
    check_range("n_containers", params.n_containers, 0)
    check_range("n_destinations", params.n_destinations, 1)
    if params.n_enclosed is not None:
        check_range("n_enclosed", params.n_enclosed, 0)
    for name in ("enclosure_prob", "safety_prob", "multi_destination_prob"):
        p = getattr(params, name)
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"{name} must be in [0, 1], got {p}")
    if params.horizon_slack < 0:
        raise ConfigError("horizon_slack must be >= 0")
    if params.n_subtasks[0] == 0 and params.horizon_slack < 1:
        raise ConfigError("horizon_slack must be >= 1 when missions may be empty")
    if not params.object_labels or not params.destination_labels:
        raise ConfigError("label pools must be nonempty")
    if params.n_containers[1] > 0 and not params.container_labels:
        raise ConfigError("container label pool must be nonempty")
    if params.rng_seed < 0:
        raise ConfigError("rng_seed must be nonnegative")


@dataclass(frozen=True)
class Scenario:
    """One sampled planning problem; immutable and hashable.

    Its step orders (`orders`), canonical plan (`oracle_plan`) and the plan's
    verdict (`oracle_plan_failure`) are memoised on the instance and kept out
    of its pickles, as the environment's decision space and models are. (Not
    `functools.cached_property`: it writes through `__dict__`, which on
    CPython 3.11 slows every later attribute load on the instance.)"""

    id: str
    n_robots: int
    skills: tuple[str, ...]
    mission: Mission
    horizon: int
    env: Environment
    order_seed: int

    __getstate__ = world.state_without_memos

    @property
    def schedule(self) -> OrderSchedule:
        """The schedule that draws the step orders and the reorders."""
        return OrderSchedule(self.n_robots, self.order_seed)

    @property
    def orders(self) -> tuple[tuple[int, ...], ...]:
        """The scheduled robot order of each step t < horizon, drawn once:
        `schedule.order_at(t)` for each t, as the batch of one `draw_orders`
        (labeling draws a whole batch's orders in one seeding pass)."""
        try:
            return self._orders
        except AttributeError:
            draw_orders((self,))
            return self._orders


def draw_orders(scenarios) -> None:
    """Draw and memoise the step orders of each scenario of a batch that has
    none yet, in one seeding pass (`context.step_orders`)."""
    fresh = [s for s in scenarios if "_orders" not in s.__dict__]
    for s, orders in zip(fresh, step_orders((s.schedule, s.horizon) for s in fresh)):
        object.__setattr__(s, "_orders", orders)


# --- decision space ----------------------------------------------------------

def decision_space(env: Environment) -> tuple[Decision, ...]:
    """The ordered set of all decisions any robot can declare in `env`.

    Order: GoTo over loose objects, containers, then destinations; Grab over
    objects; PutDown over destinations; OpenDoor over containers; Idle last.
    Objects that start inside a container are reached via the container's GoTo
    entry, so they add no GoTo decision of their own. Memoised on the
    environment.
    """
    try:
        return env._decision_space
    except AttributeError:
        destinations = [loc for loc in env.locations if loc.kind == DESTINATION]
        space: list[Decision] = []
        space.extend(Decision(GOTO, o.id) for o in env.objects if o.inside is None)
        space.extend(Decision(GOTO, c.id) for c in env.containers)
        space.extend(Decision(GOTO, loc.id) for loc in destinations)
        space.extend(Decision(GRAB, o.id) for o in env.objects)
        space.extend(Decision(PUTDOWN, loc.id) for loc in destinations)
        space.extend(Decision(OPEN_DOOR, c.id) for c in env.containers)
        space.append(IDLE_DECISION)
        object.__setattr__(env, "_decision_space", tuple(space))
        return env._decision_space


def decision_index(env: Environment) -> dict[Decision, int]:
    """Each decision's position in `decision_space(env)`; memoised likewise."""
    try:
        return env._decision_index
    except AttributeError:
        index = {d: i for i, d in enumerate(decision_space(env))}
        object.__setattr__(env, "_decision_index", index)
        return index


# --- sampling ----------------------------------------------------------------

def _randint(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    lo, hi = bounds
    return int(rng.integers(lo, hi + 1))


def _cycled(rng: np.random.Generator, pool: tuple[str, ...], count: int) -> list[str]:
    shuffled = list(pool)
    rng.shuffle(shuffled)
    return [shuffled[i % len(shuffled)] for i in range(count)]


def _draw_scene(params: DistributionParams, rng: np.random.Generator):
    n_robots = _randint(rng, params.n_robots)
    k = _randint(rng, params.n_subtasks)
    n_obj = max(_randint(rng, params.n_objects), k)
    n_cont = _randint(rng, params.n_containers)
    n_dest = _randint(rng, params.n_destinations)

    obj_labels = _cycled(rng, params.object_labels, n_obj)
    cont_labels = _cycled(rng, params.container_labels, n_cont) if n_cont else []
    dest_labels = _cycled(rng, params.destination_labels, n_dest)

    if n_cont and n_obj:
        if params.n_enclosed is not None:
            count = min(_randint(rng, params.n_enclosed), n_obj)
            enclosed = sorted(int(i) for i in rng.choice(n_obj, size=count, replace=False))
        else:
            enclosed = [i for i in range(n_obj) if rng.random() < params.enclosure_prob]
        container_of = {i: int(rng.integers(n_cont)) for i in enclosed}
    else:
        container_of = {}

    dest_locs = tuple(
        Location(f"loc-dest-{i + 1}", dest_labels[i], DESTINATION) for i in range(n_dest)
    )
    cont_locs = tuple(
        Location(f"loc-cont-{i + 1}", f"{cont_labels[i]} spot", CONTAINER_SITE)
        for i in range(n_cont)
    )
    containers = tuple(
        Container(f"cont-{i + 1}", cont_labels[i], cont_locs[i].id) for i in range(n_cont)
    )
    obj_locs: list[Location] = []
    objects: list[SemanticObject] = []
    for i in range(n_obj):
        oid = f"obj-{i + 1}"
        if i in container_of:
            c = containers[container_of[i]]
            objects.append(SemanticObject(oid, obj_labels[i], c.at, inside=c.id))
        else:
            site = Location(f"loc-obj-{i + 1}", f"{obj_labels[i]} spot", OBJECT_SITE)
            obj_locs.append(site)
            objects.append(SemanticObject(oid, obj_labels[i], site.id))
    env = Environment(
        locations=tuple(obj_locs) + cont_locs + dest_locs,
        objects=tuple(objects),
        containers=containers,
        robot_start=(dest_locs[0].id,) * n_robots,
    )
    validate_environment(env)

    chosen = [int(i) for i in rng.choice(n_obj, size=k, replace=False)] if k else []
    subtasks = []
    for i in chosen:
        multi = n_dest >= 2 and rng.random() < params.multi_destination_prob
        if multi:
            count = _randint(rng, (2, n_dest))
            picks = [int(j) for j in rng.choice(n_dest, size=count, replace=False)]
        else:
            picks = [int(rng.integers(n_dest))]
        subtasks.append(
            SubTask(obj_labels[i], tuple(dest_locs[j].id for j in picks))
        )

    safety = None
    if n_obj and rng.random() < params.safety_prob:
        subtask_labels = {obj_labels[i] for i in chosen}
        if n_robots == 1:
            candidates = [i for i in range(n_obj) if obj_labels[i] not in subtask_labels]
        else:
            candidates = list(range(n_obj))
        if candidates:
            safety = SafetyConstraint(
                robot=int(rng.integers(n_robots)),
                forbidden_object=f"obj-{candidates[int(rng.integers(len(candidates)))] + 1}",
            )

    return env, Mission(tuple(subtasks), safety), n_robots


def sample_scenario(params: DistributionParams, draw_index: int) -> Scenario:
    """Sample the `draw_index`-th scenario of the distribution.

    Deterministic: identical (params, draw_index) always yields the identical
    scenario. Draws are keyed independently, so trial workers can sample
    disjoint index ranges without coordination.

    Drawn once, never resampled. The scenario keeps its canonical plan and the
    plan's verdict (`oracle_plan_failure`), None by construction:
    - distinct objects are bound to sub-tasks;
    - a safety-forbidden robot is never chosen for its object, and with one
      robot the forbidden object is never a sub-task object;
    - a door is opened before a Grab, and opening an open door is harmless;
    - the horizon is at least the plan length.
    """
    validate_params(params)
    rng = keyed_rng(np.random.SeedSequence(seed_words(params.rng_seed, draw_index)))
    env, mission, n_robots = _draw_scene(params, rng)
    plan = _build_oracle(env, mission, n_robots)
    scenario = Scenario(
        id=f"scn-{params.rng_seed}-{draw_index}",
        n_robots=n_robots,
        skills=ACTION_KINDS,
        mission=mission,
        horizon=max(1, len(plan) + params.horizon_slack),
        env=env,
        order_seed=int(rng.integers(2**31)),
    )
    object.__setattr__(scenario, "_oracle_plan", plan)
    object.__setattr__(scenario, "_plan_failure", None)
    return scenario


def default_distribution_params(seed: int = 0) -> DistributionParams:
    """Desk-scale profile: |S| around 9-13, one or two robots, short missions."""
    return DistributionParams(rng_seed=seed)


def reference_distribution_params(seed: int = 0) -> DistributionParams:
    """Household reference profile: 12 objects over 6 labels, one closed
    container holding exactly one of them, one destination. Its decision space
    has exactly 28 entries."""
    return DistributionParams(
        n_robots=(1, 3),
        n_subtasks=(1, 4),
        n_objects=(12, 12),
        n_containers=(1, 1),
        n_destinations=(1, 1),
        n_enclosed=(1, 1),
        safety_prob=0.25,
        multi_destination_prob=0.0,
        horizon_slack=2,
        rng_seed=seed,
    )


# --- canonical plan ----------------------------------------------------------

def _subtask_bindings(env: Environment, mission: Mission) -> list[int]:
    """Bind each sub-task to a distinct object index, in mission order."""
    used: set[int] = set()
    bindings = []
    for st in mission.subtasks:
        idx = next(
            (
                i
                for i, o in enumerate(env.objects)
                if o.label == st.object_label and i not in used
            ),
            None,
        )
        if idx is None:
            raise OracleError(f"no unbound object labelled {st.object_label!r}")
        used.add(idx)
        bindings.append(idx)
    return bindings


def _expansion(env: Environment, obj_idx: int, dest: str) -> list[Decision]:
    obj = env.objects[obj_idx]
    if obj.inside is not None:
        return [
            Decision(GOTO, obj.inside),
            Decision(OPEN_DOOR, obj.inside),
            Decision(GRAB, obj.id),
            Decision(GOTO, dest),
            Decision(PUTDOWN, dest),
        ]
    return [
        Decision(GOTO, obj.id),
        Decision(GRAB, obj.id),
        Decision(GOTO, dest),
        Decision(PUTDOWN, dest),
    ]


def _build_oracle(env: Environment, mission: Mission, n_robots: int) -> Plan:
    """Deterministic canonical plan: sub-tasks assigned greedily in mission
    order to the eligible robot with the shortest timeline; each expands to
    fetch-and-deliver steps with the first allowed destination; robots pad
    with Idle."""
    timelines: list[list[Decision]] = [[] for _ in range(n_robots)]
    safety = mission.safety
    for st, obj_idx in zip(mission.subtasks, _subtask_bindings(env, mission)):
        obj_id = env.objects[obj_idx].id
        eligible = [
            r
            for r in range(n_robots)
            if not (safety is not None and safety.robot == r and safety.forbidden_object == obj_id)
        ]
        if not eligible:
            raise OracleError(f"no robot may handle {obj_id}")
        robot = min(eligible, key=lambda r: (len(timelines[r]), r))
        timelines[robot].extend(_expansion(env, obj_idx, st.destinations[0]))
    length = max((len(tl) for tl in timelines), default=0)
    return tuple(
        tuple(
            timelines[r][t] if t < len(timelines[r]) else IDLE_DECISION
            for r in range(n_robots)
        )
        for t in range(length)
    )


def oracle_plan(scenario: Scenario) -> Plan:
    """Canonical ground-truth plan; independent of the robot-order schedule
    (the schedule only affects how the plan is flattened into a sequence).

    Memoised on the scenario instance and kept out of its pickles.
    `sample_scenario` leaves there the plan it built to size the horizon, so
    a sampled scenario's plan is built once.
    """
    try:
        return scenario._oracle_plan
    except AttributeError:
        plan = _build_oracle(scenario.env, scenario.mission, scenario.n_robots)
        object.__setattr__(scenario, "_oracle_plan", plan)
        return plan


def oracle_plan_failure(scenario: Scenario) -> str | None:
    """Why the canonical plan, cut to the horizon, fails validation; None when
    it accomplishes the mission. An oracle-mode `label_sequence` reads it: its
    labels reassemble into this plan Idle-padded to the horizon, and Idle
    steps never change the verdict. Memoised on the instance and kept out of
    pickles, like the plan: a sampled scenario records None (see
    `sample_scenario`), a loaded or unpickled one validates on first use."""
    try:
        return scenario._plan_failure
    except AttributeError:
        plan = oracle_plan(scenario)
        reason = validate_scenario_plan(scenario, plan[: scenario.horizon]).reason
        object.__setattr__(scenario, "_plan_failure", reason)
        return reason


def anchor_decision(scenario: Scenario, t: int, robot: int) -> Decision:
    """The canonical plan's decision for (t, robot); Idle beyond its length."""
    plan = oracle_plan(scenario)
    if 0 <= t < len(plan):
        return plan[t][robot]
    return IDLE_DECISION


def teacher_sequence(scenario: Scenario) -> tuple[Decision, ...]:
    """The canonical plan flattened along the schedule, Idle-padded to N*H."""
    return tuple(
        anchor_decision(scenario, t, robot)
        for t, order in enumerate(scenario.orders)
        for robot in order
    )


def scheduled_entries(scenario: Scenario, flat) -> tuple[tuple[int, int, Decision], ...]:
    """A flat iteration-ordered prefix laid out along the scenario's schedule,
    as (t, robot, decision) entries."""
    n, orders = scenario.n_robots, scenario.orders
    return tuple((i // n, orders[i // n][i % n], d) for i, d in enumerate(flat))


def entries_to_plan(scenario: Scenario, entries) -> Plan:
    """Per-step joint decisions from (t, robot, decision) entries, one step
    for each t that has an entry; a robot with no entry at a step idles."""
    steps: dict[int, dict[int, Decision]] = {}
    for t, robot, d in entries:
        steps.setdefault(t, {})[robot] = d
    robots = range(scenario.n_robots)
    return tuple(tuple(steps[t].get(r, IDLE_DECISION) for r in robots) for t in sorted(steps))


def flat_to_plan(scenario: Scenario, flat: tuple[Decision, ...]) -> Plan:
    """Reassemble a flat iteration-ordered sequence, laid out along the
    scenario's schedule, into per-step joint decisions."""
    if len(flat) % scenario.n_robots:
        raise ValueError("sequence length is not a multiple of the robot count")
    return entries_to_plan(scenario, scheduled_entries(scenario, flat))


def validate_scenario_plan(scenario: Scenario, plan: Plan) -> world.ValidationResult:
    return world.validate_plan(
        scenario.env, scenario.mission, scenario.n_robots, scenario.horizon, plan
    )


# --- feasible-decision enumeration -------------------------------------------

@dataclass(frozen=True)
class FeasibleResult:
    decisions: tuple[Decision, ...]
    mode: str  # "exact" | "oracle"


def search_structure(scenario: Scenario, goals: tuple) -> tuple:
    """The inputs of `scenario`'s feasibility search with its labels removed.
    `goals` is `CompactModel.goals` of its mission, resolved on its own labels.

    Scenarios of equal structure have equal compiled moves and the same
    answer at every (step, state) of the memo, so a labeling batch shares both:
    - `decision_space` reads only the entity ids in order, the location kinds
      and which objects start in a container, so equal moves name equal
      decisions at equal space indexes;
    - of the environment, `CompactModel` reads only those ids, the objects'
      placement and containment, the containers' sites and doors, the robot
      starts and, in `goals` alone, the object labels, so the slot layout,
      the start state and every compiled check are equal;
    - the goals fix `satisfied` and the bound of `_steps_left`, the safety
      constraint fixes which moves are left out, and the robot count and the
      horizon fix a step's options and the cut `t + left <= horizon`.
    Nothing else enters `_exists_from_step`. The step orders do not: the
    memo is keyed at step boundaries, and whether a step can be completed
    does not depend on the order its robots decide in.
    """
    env = scenario.env
    return (
        scenario.n_robots,
        scenario.horizon,
        tuple((loc.id, loc.kind) for loc in env.locations),
        tuple((o.id, o.at, o.inside) for o in env.objects),
        tuple((c.id, c.at, c.door) for c in env.containers),
        env.robot_start,
        goals,
        scenario.mission.safety,
    )


class FeasibilityIndex:
    """Mission-aware feasibility search for one scenario.

    A decision is feasible at iteration k when it is executable in the current
    state and some completion of the remaining iterations accomplishes the
    mission within the horizon. Small instances are decided by exhaustive
    depth-limited search, memoized on step-boundary states; beyond the budget
    the enumerator falls back to following the canonical plan only, and the
    mode is reported so experiments can restrict themselves to exact instances.

    The search runs on the world model's compact state and compiled decision
    checks (`world.CompactModel`), the same semantics the plan validator runs
    on. A label is built in one `walk`, which carries the search state across
    iterations. A query folds its prefix from the start state every time, with
    the fold the walk starts from (`_frontier`); the index keeps only the
    model, the compiled moves and the memo, keyed by (step, state), so an
    answer depends on the prefix alone. Indexes built
    with one `structures` dict share those three among scenarios of equal
    `search_structure` (one labeling batch does so); otherwise they are the
    index's own.
    """

    def __init__(
        self, scenario: Scenario, budget: int = EXACT_SEARCH_BUDGET, structures: dict | None = None
    ):
        self.scenario = scenario
        self.n = n = scenario.n_robots
        self.space = decision_space(scenario.env)
        model = world.compact_model(scenario.env, n)
        self._goals = model.goals(scenario.mission)
        structures = {} if structures is None else structures
        key = search_structure(scenario, self._goals)
        shared = structures.get(key)
        if shared is None:
            safety = scenario.mission.safety
            # per robot: (space index, decision, check, grab bit) in space order,
            # unsafe ones left out
            moves = tuple(
                tuple(
                    (i, d, *model.op(r, d))
                    for i, d in enumerate(self.space)
                    if not violates_safety(r, d, safety)
                )
                for r in range(n)
            )
            shared = structures[key] = (model, moves, {})
        self.model, self._moves, self._memo = shared
        # the largest `remaining` with |S|^remaining <= budget, in exact integers
        size, depth, reach = max(len(self.space), 2), -1, 1
        while reach <= budget:
            depth, reach = depth + 1, reach * size
        self._first_exact = self.total_iterations - depth

    @property
    def total_iterations(self) -> int:
        return self.n * self.scenario.horizon

    def exact_at(self, k: int) -> bool:
        """Whether iteration k is searched exactly: |S|^(N·H − k) <= budget."""
        return k >= self._first_exact

    def feasible(self, history: tuple[Decision, ...]) -> FeasibleResult:
        """`feasible_for_context` of the context a flat prefix reaches along
        the scenario's own order schedule."""
        k = len(history)
        if k >= self.total_iterations:
            raise ValueError("sequence already complete")
        s, (t, pos) = self.scenario, divmod(k, self.n)
        ctx = Context(s, scheduled_entries(s, history), (t, s.orders[t][pos]))
        return self.feasible_for_context(ctx)

    def walk(self, rows):
        """Yield, for each score row in turn, the highest-scoring feasible
        decision after the decisions yielded so far, a tie going to the lower
        space index, its score in the row and the search mode: the best of
        `fs.decisions` and `fs.mode` for `fs = feasible(prefix)`. Row k is
        asked for only after decision k - 1 is yielded, so rows may be scored
        on demand. A selector label is built in one pass, with no prefix
        replayed per iteration.

        Above the gate the prefix is the teacher's, because exactness only
        grows with k, so each decision is the anchor, in mode "oracle". At the
        first exact iteration `_frontier` folds that prefix once, in the
        scheduled order. From there the boundary state, the step's effects and
        grab bits and the options of the robots still to decide are carried,
        each decision folded as `_frontier` folds an entry, and each iteration
        takes the first of the scheduled robot's moves, best-first, that
        `_completable` yields, and applies that move's own check, so a walk
        on shared moves runs on one model. Raises NoFeasibleError where that
        feasible set is empty, and ValueError where the teacher's prefix is
        infeasible."""
        scenario, n, orders = self.scenario, self.n, self.scenario.orders
        index = decision_index(scenario.env)
        state = None  # the boundary state of step t, once exact
        for k, row in enumerate(rows):
            t, pos = divmod(k, n)
            order = orders[t]
            robot = order[pos]
            if state is None:
                if not self.exact_at(k):
                    d = anchor_decision(scenario, t, robot)
                    yield d, row[index[d]], "oracle"
                    continue
                entries = scheduled_entries(scenario, teacher_sequence(scenario)[:k])
                frontier = self._frontier(entries, (t, robot), order)
                if frontier is None:
                    raise NoFeasibleError(f"{scenario.id}: no feasible decision at k={k}")
                state, _, effects, grabbed, others = frontier
            elif pos == 0:
                others = [self._options(state, r) for r in order[1:]]
            moves = sorted(self._moves[robot], key=lambda move: -row[move[0]])
            move = next(self._completable(state, t, effects, grabbed, others, moves), None)
            if move is None:
                raise NoFeasibleError(f"{scenario.id}: no feasible decision at k={k}")
            i, d, check, bit = move
            effects, grabbed, others = effects + (check(state),), grabbed | bit, others[1:]
            if pos == n - 1:
                state, effects, grabbed = merge_writes(state, effects), (), 0
            yield d, row[i], "exact"

    def feasible_for_context(self, ctx: Context) -> FeasibleResult:
        """The cursor robot's feasible decisions and the search mode: the one
        query. The history, in step order but with step orders that reorders
        may have changed, is folded first (`_frontier`, which raises
        ValueError), above the exact-search gate too, so the answer does not
        depend on the order a step's robots decided in. Above the gate a prefix
        off the canonical path raises BudgetError, else the anchor answers."""
        if ctx.cursor is None:
            raise ValueError("sequence already complete")
        scenario, (t, robot) = self.scenario, ctx.cursor
        frontier = self._frontier(ctx.history, ctx.cursor, range(self.n))
        if not self.exact_at(ctx.k):
            if any(d != anchor_decision(scenario, s, r) for s, r, d in ctx.history):
                raise BudgetError(f"{scenario.id}: search budget exceeded off the canonical path")
            return FeasibleResult((anchor_decision(scenario, t, robot),), "oracle")
        if frontier is None:
            return FeasibleResult((), "exact")
        found = self._completable(*frontier, self._moves[robot])
        return FeasibleResult(tuple(move[1] for move in found), "exact")

    def _completable(self, state, t, effects, grabbed, others, moves):
        """Yield, in the given order, each of `moves` that is executable after
        the step's `effects` and leaves the mission completable."""
        for move in moves:
            _, _, check, bit = move
            if bit & grabbed:
                continue
            eff = check(state)
            if eff.__class__ is tuple and self._exists_step(
                state, t, effects + (eff,), grabbed | bit, others
            ):
                yield move

    def _steps_left(self, state) -> int | float:
        """0 when the mission holds in `state` (`CompactModel.satisfied`);
        otherwise a lower bound, at least 1, on the joint steps before it can
        hold.

        The bound is the largest, over sub-tasks, of the cheapest candidate
        object's cost (inf for a sub-task with no candidate):
        - 0 when the object is at an allowed destination;
        - 1 when a robot holds it at an allowed destination (put down), else
          2 (go there, then put down);
        - otherwise 3 (grab, go to a destination, put down), plus 1 when no
          robot is at the object's location (a GoTo must come first), plus 1
          when the object is inside a closed container (an OpenDoor must
          come before the grab, and after that GoTo).
        Each counted step can only come after the one before it: a robot
        takes one decision per step, and preconditions are checked against
        the state at the start of the step. So no plan delivers that object
        sooner. The mission needs every sub-task delivered, so the largest
        cost bounds it; ignoring that sub-tasks need distinct objects only
        lowers the bound. It never overestimates, so pruning by it keeps
        every feasible decision.
        """
        n, model = self.n, self.model
        obj_at, obj_in, door = model.obj_at, model.obj_in, model.door
        robots_at = state[:n]
        worst = 0
        for objects, dests in self._goals:
            best = math.inf
            for o in objects:
                place = state[obj_at + o]
                if place in dests:
                    best = 0
                    break
                if place < 0:  # held
                    cost = 1 if state[state.index(o, n, 2 * n) - n] in dests else 2
                else:
                    cost = 3 + (place not in robots_at)
                    cont = state[obj_in + o]
                    if cont >= 0 and not state[door + cont]:
                        cost += 1
                if cost < best:
                    best = cost
            if best > worst:
                worst = best
        if worst:
            return worst
        return 0 if model.satisfied(self._goals, state) else 1

    def _frontier(self, entries, cursor, robots):
        """Fold (t, robot, decision) `entries`, in step order, from the start
        state as `walk` folds its decisions: each checked against its step's
        start state, a taken grab bit refused, a step merged once N robots
        decided. Returns the walk's carried state: the boundary state, the
        step, its effects and grab bits, and the options of the robots of
        `robots` still to decide other than the cursor's; None where an entry
        violates safety. Raises ValueError on a prefix that repeats a robot in
        a step, skips a step, leaves one incomplete or cannot be executed, or
        that `cursor` does not follow (another step, or a robot that decided)."""
        n, model, safety = self.n, self.model, self.scenario.mission.safety
        state, step, effects, grabbed, decided, violated = model.start, 0, (), 0, set(), False
        for t, r, d in entries:
            if t != step:
                raise ValueError(f"history entry at step {t} where step {step} is next")
            if r in decided:
                raise ValueError(f"robot {r} decided twice at step {t}")
            violated = violated or violates_safety(r, d, safety)
            check, bit = model.op(r, d)
            eff = check(state)
            if bit & grabbed or eff.__class__ is not tuple:
                raise ValueError(f"history prefix is infeasible: robot {r}, {d}")
            effects, grabbed = effects + (eff,), grabbed | bit
            decided.add(r)
            if len(decided) == n:
                state, effects, grabbed, decided = merge_writes(state, effects), (), 0, set()
                step += 1
        if cursor[0] != step or cursor[1] in decided:
            raise ValueError(f"cursor {cursor} does not follow the history; step {step} is next")
        if violated:
            return None
        others = [self._options(state, r) for r in robots if r not in decided and r != cursor[1]]
        return state, step, effects, grabbed, others

    # --- search ----------------------------------------------------------------

    def _options(self, state, robot: int) -> list:
        """(grab bit, effect) of every decision `robot` may execute in `state`."""
        out = []
        for _, _, check, bit in self._moves[robot]:
            eff = check(state)
            if eff.__class__ is tuple:
                out.append((bit, eff))
        return out

    def _exists_step(self, state, t, effects, grabbed, options) -> bool:
        """Whether the robots still to decide at step t can pick one option
        each (no object grabbed twice) so that the mission stays completable."""
        if not options:
            return self._exists_from_step(merge_writes(state, effects), t + 1)
        for bit, eff in options[0]:
            if bit & grabbed:
                continue
            if self._exists_step(state, t, effects + (eff,), grabbed | bit, options[1:]):
                return True
        return False

    def _exists_from_step(self, state, t) -> bool:
        key = (t, state)
        result = self._memo.get(key)
        if result is None:
            left = self._steps_left(state)
            result = left == 0 or (
                t + left <= self.scenario.horizon
                and self._exists_step(
                    state, t, (), 0, [self._options(state, r) for r in range(self.n)]
                )
            )
            self._memo[key] = result
        return result


# --- label selection ----------------------------------------------------------

@dataclass(frozen=True)
class LabelResult:
    """Ground-truth label sequence, the score of each labeled decision (they
    back calibration and decide a test label's coverage) and how each
    iteration's decision was found."""

    decisions: tuple[Decision, ...]
    scores: tuple[float, ...]  # normalized score of each labeled decision
    modes: tuple[str, ...]

    @property
    def mode(self) -> str:
        return "exact" if all(m == "exact" for m in self.modes) else "oracle"


def label_sequence(scenario: Scenario, scorer, label_mode: str) -> LabelResult:
    """Build the calibration label auto-regressively and score each step.

    In "selector" mode each iteration takes the scorer's highest-scoring
    feasible decision, a tie going to the lower space index (one
    `FeasibilityIndex.walk` over the label's score rows), and the produced
    sequence is validated through the world model. In "oracle" mode the label
    is the canonical plan flattened along the schedule (the unique-solution
    shortcut), judged by the scenario's `oracle_plan_failure` verdict, None
    for a sampled scenario, before anything is scored. Either way a label
    that fails validation raises OracleError. A batch of one
    `label_sequences`.
    """
    return label_sequences((scenario,), scorer, label_mode)[0]


def label_sequences(scenarios, scorer, label_mode: str) -> list[LabelResult]:
    """Label each scenario of a sequence as `label_sequence` does.

    A scorer that keeps score tables (`score_tables`: the synthetic
    scorers) draws the whole batch's tables first, in one seeding pass, and
    labels are read from their matrices: no label calls the table's
    `vector`, so none builds a row's score tuple. An oracle label's scores
    are one fancy index. For a scorer without tables (the external one), row
    k is `score_all` of the context the label's first k decisions reach,
    scored only when it is read (`_context_rows`): N·H contexts per label.
    Every selector label is one `FeasibilityIndex.walk` over its rows: it
    tries the scheduled robot's moves best-first, stops at the first with a
    completion, and replays no prefix. The batch's labels of equal
    `search_structure` share one compiled move table and one (step, state)
    memo, which live only as long as this call. Either way the batch's step
    orders are drawn first, in one seeding pass (`draw_orders`).
    """
    if label_mode not in ("selector", "oracle"):
        raise ConfigError(f"unknown label mode {label_mode!r}")
    draw_orders(scenarios)
    tables = scorer.score_tables(scenarios) if hasattr(scorer, "score_tables") else None
    structures: dict = {}  # the batch's searches, by `search_structure`
    results = []
    for s, table in zip(scenarios, tables or [None] * len(scenarios)):
        if label_mode == "oracle":
            _check_label(s, oracle_plan_failure(s))
            if table is not None:
                decisions, scores = table.teacher, table.teacher_scores()
            else:
                index, decisions = decision_index(s.env), teacher_sequence(s)
                rows = zip(_context_rows(s, scorer, decisions), decisions)
                scores = tuple(row[index[d]] for row, d in rows)
            results.append(LabelResult(decisions, scores, ("oracle",) * len(decisions)))
            continue
        labeled: list[Decision] = []
        rows = table.probs.tolist() if table is not None else _context_rows(s, scorer, labeled)
        steps = []
        for step in FeasibilityIndex(s, structures=structures).walk(rows):
            labeled.append(step[0])
            steps.append(step)
        decisions, scores, modes = zip(*steps)
        _check_label(s, validate_scenario_plan(s, flat_to_plan(s, decisions)).reason)
        results.append(LabelResult(decisions, scores, modes))
    return results


def _context_rows(scenario: Scenario, scorer, labeled):
    """Yield, for k < N·H, `scorer.score_all` of the context reached by the
    first k decisions of `labeled`, which may grow while this runs."""
    ctx = initial_context(scenario)
    for k in range(scenario.n_robots * scenario.horizon):
        if k:
            ctx = advance(ctx, labeled[k - 1])
        yield scorer.score_all(ctx)


def _check_label(scenario: Scenario, reason: str | None) -> None:
    if reason is not None:
        raise OracleError(f"{scenario.id}: label sequence fails validation ({reason})")


# --- serialization ------------------------------------------------------------

def params_to_dict(params: DistributionParams) -> dict:
    return world.to_data(params)


def params_from_dict(data: dict) -> DistributionParams:
    params = world.from_data(DistributionParams, data)
    validate_params(params)
    return params


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        **world.to_data(scenario),
        "schema_version": 1,
        "env": {**world.to_data(scenario.env), "schema_version": 1},
        "decision_space_size": len(decision_space(scenario.env)),
    }


def validate_scenario(scenario: Scenario) -> None:
    """Cross-reference checks for externally loaded scenarios."""
    validate_environment(scenario.env)
    if scenario.n_robots < 1:
        raise ConfigError("scenario needs at least one robot")
    if scenario.horizon < 1:
        raise ConfigError("scenario horizon must be >= 1")
    if scenario.order_seed < 0:
        raise ConfigError("order_seed must be nonnegative")
    if len(scenario.env.robot_start) < scenario.n_robots:
        raise ConfigError("environment places fewer robots than the scenario uses")
    kinds = sorted(ACTION_KINDS)
    if sorted(scenario.skills) != kinds:  # the planners plan with every kind
        raise ConfigError(f"skills must list each of {kinds} once, got {list(scenario.skills)}")
    labels = {o.label for o in scenario.env.objects}
    locations = {loc.id for loc in scenario.env.locations}
    for st in scenario.mission.subtasks:
        if not st.destinations:
            raise ConfigError(f"sub-task for {st.object_label!r} has no destinations")
        if st.object_label not in labels:
            raise ConfigError(f"no object labelled {st.object_label!r} in the environment")
        missing = set(st.destinations) - locations
        if missing:
            raise ConfigError(f"unknown destinations {sorted(missing)}")
    safety = scenario.mission.safety
    if safety is not None:
        if not 0 <= safety.robot < scenario.n_robots:
            raise ConfigError(f"safety constraint names robot {safety.robot}")
        if safety.forbidden_object not in {o.id for o in scenario.env.objects}:
            raise ConfigError(f"unknown forbidden object {safety.forbidden_object!r}")


def scenario_from_dict(data: dict) -> Scenario:
    """The scenario `scenario_to_dict` wrote; the derived `decision_space_size`
    is not read."""
    data = {key: value for key, value in data.items() if key != "decision_space_size"}
    scenario = world.from_data(Scenario, data)
    validate_scenario(scenario)
    return scenario


def write_scenarios(scenarios, path) -> None:
    world.dump_json([scenario_to_dict(s) for s in scenarios], path)


def read_scenarios(path) -> list[Scenario]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = [data]
    return [scenario_from_dict(d) for d in data]
