"""Planning loops over calibrated prediction sets.

Three modes share one trace format:

  * distributed: robots decide one at a time along the step's robot order;
    a non-singleton (or empty) local set triggers help, first by redrawing the
    step's order (up to the reorder bound, without replacement from the order
    family), then from the user;
  * centralized: the team is treated as one decision maker over the joint
    decision space S^N with a jointly calibrated quantile (reference
    implementation, budget-bounded);
  * argmax: per-iteration argmax with no uncertainty handling (ablation).

The distributed and centralized planners resolve user help through one rule,
`_help`, which reads the help policy; neither planner branches on it.

Planning is open-loop: the full plan is produced before any execution.

Each planner counts its own logical scorer queries (`PlanTrace.scorer_calls`):
one per decision scored, |S| per `score_all` in the distributed and argmax
modes and |S|^N per step in the centralized one, whether or not the scorer
caches, so the complexity laws do not depend on the scorer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .conformal import Quantile, joint_scores, local_prediction_set
from .context import Context, advance, initial_context, reset_step
from .errors import BudgetError, ConfigError, PlanningAborted
from .scenario import (
    FeasibilityIndex,
    Scenario,
    anchor_decision,
    decision_index,
    decision_space,
    entries_to_plan,
)
from .world import Decision, Plan, to_data

DISTRIBUTED = "distributed"
CENTRALIZED = "centralized"
ARGMAX = "argmax"

ORACLE_USER = "oracle-user"
INTERACTIVE_USER = "interactive-user"
FAIL_ON_HELP = "fail-on-help"


@dataclass(frozen=True)
class PlannerConfig:
    """Settings the planners read; the mode is chosen by calling a planner,
    and the level is carried by its quantile."""

    reorder_bound: int = 0  # W: reorder attempts per step before user help
    help_policy: str = ORACLE_USER
    centralized_budget: int = 4096

    def validate(self) -> None:
        if self.help_policy not in (ORACLE_USER, INTERACTIVE_USER, FAIL_ON_HELP):
            raise ConfigError(f"unknown help policy {self.help_policy!r}")
        if self.reorder_bound < 0:
            raise ConfigError("reorder bound must be >= 0")
        if self.centralized_budget < 1:
            raise ConfigError("centralized budget must be >= 1")


@dataclass(frozen=True)
class HelpEvent:
    kind: str  # "reorder" | "user"
    t: int
    robot: int | None
    presented_indices: tuple[int, ...] = ()
    presented_scores: tuple[float, ...] = ()
    full_set: bool = False
    resolution_index: int | None = None
    coverage_miss: bool = False
    unresolved: bool = False  # fail-on-help converted this into a failure


@dataclass(frozen=True)
class IterationRecord:
    """One distributed iteration: the set a robot saw and what happened."""

    k: int
    t: int
    robot: int
    order: tuple[int, ...]
    set_indices: tuple[int, ...]
    set_full: bool
    chosen_index: int | None  # None for reorder / failure records
    help: tuple[HelpEvent, ...] = ()

    @property
    def set_size(self) -> int:
        return len(self.set_indices)


@dataclass(frozen=True)
class CentralStepRecord:
    """One centralized step: the joint prediction set over S^N."""

    t: int
    set_tuples: tuple[tuple[int, ...], ...]
    set_full: bool
    chosen_tuple: tuple[int, ...] | None
    help: tuple[HelpEvent, ...] = ()

    @property
    def set_size(self) -> int:
        return len(self.set_tuples)


@dataclass
class PlanTrace:
    scenario_id: str
    mode: str
    plan: Plan
    records: tuple
    scorer_calls: int
    quantile: Quantile | None
    failed: bool = False

    @property
    def n_user_help(self) -> int:
        return sum(1 for r in self.records for h in r.help if h.kind == "user")

    @property
    def n_reorder(self) -> int:
        return sum(1 for r in self.records for h in r.help if h.kind == "reorder")

    @property
    def coverage_misses(self) -> int:
        return sum(1 for r in self.records for h in r.help if h.coverage_miss)

    def set_size_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for r in self.records:
            hist[r.set_size] = hist.get(r.set_size, 0) + 1
        return hist


# --- feasible-set providers for user help ---------------------------------------

def teacher_feasible_provider(scenario: Scenario):
    """Unique-solution mode: the only acceptable decision is the canonical one."""

    def provide(ctx: Context) -> tuple[Decision, ...]:
        t, robot = ctx.cursor
        return (anchor_decision(scenario, t, robot),)

    return provide


def search_feasible_provider(scenario: Scenario):
    """Multi-feasible mode: enumerate mission-preserving decisions on demand.

    A world-infeasible prefix (ValueError: the planner diverged, or a loaded
    scenario's canonical plan cannot be executed), or one off the canonical
    path beyond the exact-search budget (BudgetError), gets an empty feasible
    set back; user help then falls back to the presented set.
    """
    index = FeasibilityIndex(scenario)

    def provide(ctx: Context) -> tuple[Decision, ...]:
        try:
            return index.feasible_for_context(ctx).decisions
        except (ValueError, BudgetError):
            return ()

    return provide


# --- user help -------------------------------------------------------------------

def _best(options, scores):
    """The highest-scoring option; a tie goes to the smallest option."""
    return max(sorted(options), key=scores.__getitem__)


def _ask_user(what: str, options, describe, io):
    """Print the options by `describe`, numbered from 1, and return the one
    the user picks; three invalid selections abort the run."""
    out = io.write if io else sys.stdout.write
    readline = io.readline if io else sys.stdin.readline
    out(f"help needed; pick one {what}:\n")
    for n, option in enumerate(options, start=1):
        out(f"  [{n}] {describe(option)}\n")
    for _ in range(3):
        out("selection: ")
        raw = readline().strip()
        if raw.isdigit() and 1 <= int(raw) <= len(options):
            return options[int(raw) - 1]
        out("invalid selection\n")
    raise PlanningAborted("three invalid selections; aborting")


def _help(cfg: PlannerConfig, presented, members, scores, feasible, what, describe, io):
    """The one help rule of both planners: resolve a non-singleton (or empty)
    set by `cfg.help_policy`. Returns (chosen option, coverage_miss), or
    (None, False) under fail-on-help.

    oracle-user: the best member of the set among `feasible()`; if no
    feasible option is in the set, the best feasible option, or else (nothing
    feasible, only reachable after an uncovered divergence) the best
    presented one, and a coverage miss is flagged. interactive-user: the
    presented options are printed by `describe` and the user picks one (three
    invalid entries abort the run). Only oracle-user calls `feasible`.
    """
    if cfg.help_policy == FAIL_ON_HELP:
        return None, False
    if cfg.help_policy == INTERACTIVE_USER:
        return _ask_user(what, presented, describe, io), False
    options = feasible()
    inter = [o for o in options if o in members]
    if inter:
        return _best(inter, scores), False
    return _best(options or presented, scores), True


# --- distributed mode --------------------------------------------------------------

def plan_distributed(
    scenario: Scenario,
    scorer,
    quantile: Quantile,
    cfg: PlannerConfig,
    feasible_provider=None,
    io=None,
) -> PlanTrace:
    """Coordinate-descent planning with local prediction sets and help-seeking.

    At each step the robots decide in the scheduled order; a robot whose local
    set is not a singleton (empty counts as needing help) first redraws the
    step's order up to `cfg.reorder_bound` times (without replacement from the
    order family; step restarts from scratch), then asks for help by `_help`.
    An empty set presents the whole decision space. The feasible decisions
    come from `feasible_provider` (the canonical one when None), read only
    under oracle-user; under fail-on-help the plan stops at the first request.
    """
    cfg.validate()
    space = decision_space(scenario.env)
    index = decision_index(scenario.env)
    provider = feasible_provider or teacher_feasible_provider(scenario)
    ctx = initial_context(scenario)
    records: list[IterationRecord] = []
    failed = False
    t = 0
    while t < scenario.horizon and not failed:
        order = scenario.orders[t]
        used = [order]
        w = 0
        pos = 0
        while pos < scenario.n_robots:
            robot = order[pos]
            vec = scorer.score_all(ctx)
            ps = local_prediction_set(vec, quantile)
            base = dict(
                k=ctx.k,
                t=t,
                robot=robot,
                order=order,
                set_indices=ps.indices,
                set_full=ps.full_set,
            )
            if ps.is_singleton:
                chosen = ps.indices[0]
                records.append(IterationRecord(**base, chosen_index=chosen))
            else:
                w += 1
                if w <= cfg.reorder_bound:
                    new_order = scenario.schedule.reorder(t, attempt=w, used=used)
                    if new_order is not None:
                        records.append(
                            IterationRecord(
                                **base,
                                chosen_index=None,
                                help=(HelpEvent("reorder", t, robot),),
                            )
                        )
                        used.append(new_order)
                        order = new_order
                        ctx = reset_step(ctx, t, new_order)
                        pos = 0
                        continue
                # an empty set presents the whole space (user events always
                # carry a nonempty presented set)
                presented = ps.indices or tuple(range(len(space)))
                chosen, miss = _help(
                    cfg,
                    presented,
                    ps,
                    vec,
                    lambda: tuple(index[d] for d in provider(ctx)),
                    "decision",
                    lambda i: f"{space[i].phrase()} (score {vec[i]:.4f})",
                    io,
                )
                event = HelpEvent(
                    "user",
                    t,
                    robot,
                    presented_indices=presented,
                    presented_scores=tuple(vec[i] for i in ps.indices) or vec,
                    full_set=ps.full_set,
                    resolution_index=chosen,
                    coverage_miss=miss,
                    unresolved=chosen is None,
                )
                records.append(IterationRecord(**base, chosen_index=chosen, help=(event,)))
                if chosen is None:  # fail-on-help
                    failed = True
                    break
            ctx = advance(ctx, space[chosen], order=order)
            pos += 1
        t += 1
    return PlanTrace(
        scenario_id=scenario.id,
        mode=DISTRIBUTED,
        plan=entries_to_plan(scenario, ctx.history),
        records=tuple(records),
        scorer_calls=len(records) * len(space),  # one record per score_all
        quantile=quantile,
        failed=failed,
    )


# --- argmax ablation ---------------------------------------------------------------

def plan_argmax(scenario: Scenario, scorer) -> PlanTrace:
    """Per-iteration argmax; never asks for help and needs no quantile."""
    space = decision_space(scenario.env)
    ctx = initial_context(scenario)
    records = []
    for _ in range(scenario.n_robots * scenario.horizon):
        t, robot = ctx.cursor
        vec = scorer.score_all(ctx)
        chosen = vec.index(max(vec))  # the first maximum
        records.append(
            IterationRecord(
                k=ctx.k,
                t=t,
                robot=robot,
                order=scenario.orders[t],
                set_indices=(chosen,),
                set_full=False,
                chosen_index=chosen,
            )
        )
        ctx = advance(ctx, space[chosen])
    return PlanTrace(
        scenario_id=scenario.id,
        mode=ARGMAX,
        plan=entries_to_plan(scenario, ctx.history),
        records=tuple(records),
        scorer_calls=len(records) * len(space),
        quantile=None,
    )


# --- centralized baseline ------------------------------------------------------------

def plan_centralized(
    scenario: Scenario,
    scorer,
    quantile: Quantile,
    cfg: PlannerConfig,
    io=None,
) -> PlanTrace:
    """Whole-team baseline: one MCQA over the S^N joint decisions per step.

    A step's scores are one N-axis array (`joint_scores`: the product of the
    robots' scores given the step-start context, no within-step
    conditioning), and its set is the tuples whose entry clears the
    threshold, in lexicographic order; an empty set presents every tuple.
    The logical query count grows by |S|^N per step. Non-singleton joint sets
    flag the whole team, not a specific robot, and ask for help by `_help`,
    whose one feasible option is the canonical tuple; the reorder mechanism
    does not apply.
    """
    cfg.validate()
    space = decision_space(scenario.env)
    index = decision_index(scenario.env)
    n = scenario.n_robots
    joint_count = len(space) ** n
    if joint_count > cfg.centralized_budget:
        raise BudgetError(
            f"|S|^N = {joint_count} exceeds the centralized budget {cfg.centralized_budget}"
        )
    history: tuple = ()
    records: list[CentralStepRecord] = []
    failed = False
    for t in range(scenario.horizon):
        joint = joint_scores(scenario, scorer, history, t)
        full = quantile.full_set
        # argwhere reads C order, the lexicographic order of the tuples
        tuples = tuple(map(tuple, np.argwhere(joint > quantile.threshold).tolist()))
        help_events = ()
        if len(tuples) == 1:
            chosen = tuples[0]
        else:
            # unique-solution mode: the canonical tuple is the only feasible one
            chosen, miss = _help(
                cfg,
                tuples or tuple(np.ndindex(joint.shape)),
                set(tuples),
                joint,
                lambda: (tuple(index[anchor_decision(scenario, t, r)] for r in range(n)),),
                "joint decision",
                lambda c: f"{'; '.join(space[i].phrase() for i in c)} (score {joint[c]:.6f})",
                io,
            )
            help_events = (
                HelpEvent(
                    "user",
                    t,
                    None,
                    full_set=full,
                    coverage_miss=miss,
                    unresolved=chosen is None,
                ),
            )
        records.append(
            CentralStepRecord(
                t=t,
                set_tuples=tuples,
                set_full=full,
                chosen_tuple=chosen,
                help=help_events,
            )
        )
        if chosen is None:  # fail-on-help
            failed = True
            break
        history = history + tuple((t, r, space[chosen[r]]) for r in scenario.orders[t])
    return PlanTrace(
        scenario_id=scenario.id,
        mode=CENTRALIZED,
        plan=entries_to_plan(scenario, history),
        records=tuple(records),
        scorer_calls=len(records) * joint_count,
        quantile=quantile,
        failed=failed,
    )


# --- trace serialization ---------------------------------------------------------------

def trace_to_dict(trace: PlanTrace) -> dict:
    records = []
    for r in trace.records:
        data = {**to_data(r), "set_size": r.set_size}
        data.pop("set_tuples", None)  # a centralized record leaves out its joint set
        records.append(data)
    quantile = None
    if trace.quantile is not None:
        quantile = "FULL_SET" if trace.quantile.full_set else trace.quantile.value
    return {
        "schema_version": 1,
        "scenario_id": trace.scenario_id,
        "mode": trace.mode,
        "failed": trace.failed,
        "quantile": quantile,
        "scorer_calls": trace.scorer_calls,
        "plan": to_data(trace.plan),
        "records": records,
    }
