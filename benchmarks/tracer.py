"""Spans around confplan's public functions, recorded from outside the package.

`install` wraps each layer's public functions and replaces every reference to
them: the class attribute for methods, and for plain functions every module
of the package that imported the name directly (harness, conformal, scenario
and planner all do). Spans stay in memory as
(name, start, end, parent index, note) and the worker writes them out after
its harness call. `layer_metrics` turns the spans of one or more traced calls
into the per-layer metrics that BENCHMARK.json declares.

This module imports nothing from confplan at module level, so its arithmetic
can be tested without the package.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import time
import weakref
from collections import defaultdict

# (metric, unit, better): the per-layer metrics of a traced run, in report order.
PER_LAYER = (
    ("scenario.feasible.calls", "count", "lower"),
    ("scenario.feasible.self_s", "s", "lower"),
    ("scenario.feasible.exact_frac", "ratio", "higher"),
    ("scenario.feasible.mean_size", "count", "lower"),
    ("scenario.label_sequence.calls", "count", "lower"),
    ("scenario.label_sequence.self_s", "s", "lower"),
    ("scenario.label_sequence.exact_frac", "ratio", "higher"),
    ("scenario.sample_scenario.calls", "count", "lower"),
    ("scenario.sample_scenario.self_s", "s", "lower"),
    ("scoring.score_all.calls", "count", "lower"),
    ("scoring.score_all.self_s", "s", "lower"),
    ("scoring.score_all.memo_hit_frac", "ratio", "higher"),
    ("context.order_at.calls", "count", "lower"),
    ("context.order_at.self_s", "s", "lower"),
    ("context.advance.calls", "count", "lower"),
    ("context.advance.self_s", "s", "lower"),
    ("world.validate_plan.calls", "count", "lower"),
    ("world.validate_plan.self_s", "s", "lower"),
    ("conformal.score_label_sequence.calls", "count", "lower"),
    ("conformal.score_label_sequence.self_s", "s", "lower"),
    ("conformal.calibrate.calls", "count", "lower"),
    ("conformal.calibrate.self_s", "s", "lower"),
    ("conformal.local_prediction_set.calls", "count", "lower"),
    ("conformal.local_prediction_set.self_s", "s", "lower"),
    ("conformal.score_joint_label_sequence.calls", "count", "lower"),
    ("conformal.score_joint_label_sequence.self_s", "s", "lower"),
    ("planner.plan_distributed.calls", "count", "lower"),
    ("planner.plan_distributed.self_s", "s", "lower"),
    ("planner.plan_distributed.p50_ms", "ms", "lower"),
    ("planner.plan_distributed.p90_ms", "ms", "lower"),
    ("planner.plan_distributed.user_help_per_plan", "count", "lower"),
    ("planner.plan_distributed.reorders_per_plan", "count", "lower"),
    ("planner.plan_centralized.calls", "count", "lower"),
    ("planner.plan_centralized.self_s", "s", "lower"),
    ("planner.plan_centralized.p50_ms", "ms", "lower"),
    ("harness.run.self_s", "s", "lower"),
    ("harness.checkpoint_bytes", "bytes", "lower"),
    ("harness.write_metrics.self_s", "s", "lower"),
    ("harness.traced_calls", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """Wrap `fn` so that each call records a span named `name`, parented to
        the innermost open span. `note(args, result)` adds a value read from a
        call that returned."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            returned = False
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                value = note(args, result) if returned and note is not None else None
                spans[index] = (name, start, end, parent, value)

        return traced


def _feasible_note(args, result):
    return [result.mode == "exact", len(result.decisions)]


def _memo_key_note():
    """Note each score_all call with its memo key (scorer, scenario id, k,
    robot). Scorers get a token, since an id() can be reused once a trial's
    scorer is collected."""
    tokens = weakref.WeakKeyDictionary()
    counter = itertools.count()

    def note(args, result):
        scorer, ctx = args[0], args[1]
        if scorer not in tokens:
            tokens[scorer] = next(counter)
        return [tokens[scorer], ctx.scenario.id, ctx.k, ctx.cursor[1]]

    return note


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each layer and replace every reference."""
    from confplan import conformal, context, harness, planner, scenario, scoring, world

    targets = (
        ("scenario.feasible", scenario.FeasibilityIndex, "feasible", _feasible_note),
        ("scenario.feasible", scenario.FeasibilityIndex, "feasible_for_context", _feasible_note),
        ("scenario.label_sequence", scenario, "label_sequence", lambda a, r: r.mode == "exact"),
        ("scenario.sample_scenario", scenario, "sample_scenario", None),
        ("scoring.score_all", scoring.SyntheticScorer, "score_all", _memo_key_note()),
        ("context.order_at", context.OrderSchedule, "order_at", None),
        ("context.advance", context, "advance", None),
        ("world.validate_plan", world, "validate_plan", None),
        ("conformal.score_label_sequence", conformal, "score_label_sequence", None),
        ("conformal.calibrate", conformal, "calibrate", None),
        ("conformal.local_prediction_set", conformal, "local_prediction_set", None),
        ("conformal.score_joint_label_sequence", conformal, "score_joint_label_sequence", None),
        (
            "planner.plan_distributed",
            planner,
            "plan_distributed",
            lambda a, r: [r.n_user_help, r.n_reorder],
        ),
        ("planner.plan_centralized", planner, "plan_centralized", None),
        ("harness.run", harness, "run_coverage_experiment", None),
        ("harness.run", harness, "run_comparison", None),
        ("harness.run", harness, "run_dataset_conditional", None),
        ("harness.write_metrics", harness, "write_metrics", None),
    )
    modules = [
        m for name, m in sys.modules.items() if name == "confplan" or name.startswith("confplan.")
    ]
    for layer, owner, attr, note in targets:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(layer, original, note)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, wrapped)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], cursor)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(runs, checkpoint_bytes: float, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics over traced harness calls.

    `runs` yields one span list per traced call. Counts and self times are per
    traced call (totals divided by the number of calls); fractions and
    percentiles pool every span of the layer.
    """
    n_runs = 0
    calls = defaultdict(int)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    notes = defaultdict(list)
    distinct_memo_keys = 0
    for spans in runs:
        n_runs += 1
        memo_keys = set()
        for span, own in zip(spans, self_times(spans)):
            name, start, end, _, note = span
            calls[name] += 1
            self_s[name] += own
            durations[name].append(end - start)
            if name == "scoring.score_all":
                if note is not None:
                    memo_keys.add(tuple(note))
            elif note is not None:
                notes[name].append(note)
        distinct_memo_keys += len(memo_keys)

    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = _ratio(calls[layer], n_runs)
        elif stat == "self_s":
            out[name] = _ratio(self_s[layer], n_runs)

    feasible = notes["scenario.feasible"]
    out["scenario.feasible.exact_frac"] = _ratio(sum(e for e, _ in feasible), len(feasible))
    out["scenario.feasible.mean_size"] = _ratio(sum(s for _, s in feasible), len(feasible))
    labels = notes["scenario.label_sequence"]
    out["scenario.label_sequence.exact_frac"] = _ratio(sum(labels), len(labels))
    score_calls = calls["scoring.score_all"]
    out["scoring.score_all.memo_hit_frac"] = (
        1.0 - distinct_memo_keys / score_calls if score_calls else 0.0
    )
    plans = notes["planner.plan_distributed"]
    out["planner.plan_distributed.p50_ms"] = 1e3 * percentile(
        durations["planner.plan_distributed"], 0.5
    )
    out["planner.plan_distributed.p90_ms"] = 1e3 * percentile(
        durations["planner.plan_distributed"], 0.9
    )
    out["planner.plan_distributed.user_help_per_plan"] = _ratio(
        sum(h for h, _ in plans), len(plans)
    )
    out["planner.plan_distributed.reorders_per_plan"] = _ratio(
        sum(r for _, r in plans), len(plans)
    )
    out["planner.plan_centralized.p50_ms"] = 1e3 * percentile(
        durations["planner.plan_centralized"], 0.5
    )
    out["harness.checkpoint_bytes"] = checkpoint_bytes
    out["harness.traced_calls"] = n_runs
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name, _, _ in PER_LAYER}
