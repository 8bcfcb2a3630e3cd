"""Tests of the benchmark's own logic: span arithmetic, memo-key counting,
digest checks and the consistency of BENCHMARK.json with the code.

Run from the root of a checkout: python3 -m pytest -q benchmarks/tests
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def span(name, start, end, parent=-1, note=None):
    return (name, start, end, parent, note)


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        span("harness.run", 0.0, 10.0),  # 0
        span("scenario.label_sequence", 1.0, 4.0, parent=0),  # 1
        span("scoring.score_all", 2.0, 3.0, parent=1),  # 2: grandchild of 0
        span("planner.plan_distributed", 5.0, 9.0, parent=0),  # 3: sibling of 1
        span("context.order_at", 6.0, 6.5, parent=3),  # 4
        span("context.order_at", 7.0, 7.25, parent=3),  # 5: sibling of 4
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.25, 0.5, 0.25])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 2.0, 6.0, parent=0),
        span("c", 4.0, 8.0, parent=0),
        span("d", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_sum_self_time_per_layer_per_call():
    first = [
        span("harness.run", 0.0, 10.0),
        span("context.order_at", 1.0, 2.0, parent=0),
        span("context.order_at", 3.0, 5.0, parent=0),
    ]
    second = [span("harness.run", 0.0, 4.0), span("context.order_at", 1.0, 2.0, parent=0)]
    m = tracer.layer_metrics([first, second], checkpoint_bytes=0, overhead_frac=0.0)
    assert m["context.order_at.calls"] == 1.5
    assert m["context.order_at.self_s"] == pytest.approx(2.0)
    assert m["harness.run.self_s"] == pytest.approx((7.0 + 3.0) / 2)
    assert m["harness.traced_calls"] == 2


def test_memo_hit_frac_counts_distinct_keys_per_call():
    score = "scoring.score_all"
    first = [
        span(score, 0, 1, note=[0, "scn-1-0", 0, 0]),
        span(score, 1, 2, note=[0, "scn-1-0", 0, 0]),  # hit
        span(score, 2, 3, note=[0, "scn-1-0", 1, 1]),
        span(score, 3, 4, note=[1, "scn-1-0", 0, 0]),  # another scorer: a miss
    ]
    # scorer tokens restart in every traced process, so an equal key in
    # another call is a different key
    second = [span(score, 0, 1, note=[0, "scn-1-0", 0, 0])]
    m = tracer.layer_metrics([first, second], checkpoint_bytes=0, overhead_frac=0.0)
    assert m["scoring.score_all.calls"] == 2.5
    assert m["scoring.score_all.memo_hit_frac"] == pytest.approx(1.0 - 4 / 5)


def test_layer_metrics_read_feasible_and_plan_notes():
    spans = [
        span("scenario.feasible", 0, 1, note=[True, 3]),
        span("scenario.feasible", 1, 2, note=[False, 1]),
        span("planner.plan_distributed", 2, 3, note=[2, 1]),
        span("planner.plan_distributed", 3, 5, note=[0, 0]),
    ]
    m = tracer.layer_metrics([spans], checkpoint_bytes=10, overhead_frac=0.3)
    assert m["scenario.feasible.exact_frac"] == 0.5
    assert m["scenario.feasible.mean_size"] == 2.0
    assert m["planner.plan_distributed.user_help_per_plan"] == 1.0
    assert m["planner.plan_distributed.reorders_per_plan"] == 0.5
    assert m["planner.plan_distributed.p50_ms"] == pytest.approx(1000.0)
    assert m["planner.plan_distributed.p90_ms"] == pytest.approx(2000.0)
    assert m["scenario.label_sequence.exact_frac"] == 0.0  # no calls
    assert m["harness.checkpoint_bytes"] == 10
    assert m["trace.overhead_frac"] == 0.3


def test_wrap_records_parents_and_failed_calls():
    t = tracer.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x * 2

    traced_inner = t.wrap("inner", inner, note=lambda args, result: result)
    outer = t.wrap("outer", lambda x: traced_inner(x) + traced_inner(x + 1))
    assert outer(1) == 6
    with pytest.raises(ValueError):
        traced_inner(-1)
    names = [(s[0], s[3], s[4]) for s in t.spans]
    assert names == [("outer", -1, None), ("inner", 0, 2), ("inner", 0, 4), ("inner", -1, None)]
    assert all(s[1] <= s[2] for s in t.spans)


def _sampler(ends, loops):
    sampler = hostspeed.Sampler()
    sampler.ends, sampler.loops = list(ends), list(loops)
    return sampler


def test_nominal_rescales_each_stretch_by_the_sample_that_ends_it():
    nominal = hostspeed.NOMINAL_S
    # samples end at 1, 2 and 3; the loop took the nominal time, then twice it
    sampler = _sampler([1.0, 2.0, 3.0], [nominal, 2 * nominal, 2 * nominal])
    # [0.5, 1]: 0.5 s less the first sample, at nominal speed; [1, 2] and
    # [2, 2.5] at half speed, less the second sample
    expected = (0.5 - nominal) + (1.0 - 2 * nominal) / 2 + 0.5 / 2
    assert sampler.nominal(0.5, 2.5) == pytest.approx(expected)


def test_nominal_extends_the_first_and_last_sample_speeds():
    nominal = hostspeed.NOMINAL_S
    sampler = _sampler([1.0, 2.0], [2 * nominal, 4 * nominal])
    # before the first sample: its half speed; after the last: its quarter speed
    assert sampler.nominal(0.0, 0.5) == pytest.approx(0.25)
    assert sampler.nominal(3.0, 5.0) == pytest.approx(0.5)
    # a uniformly slower host halves every interval
    uniform = _sampler([1.0, 2.0, 3.0], [2 * nominal] * 3)
    assert uniform.nominal(1.0, 3.0) == pytest.approx((2.0 - 4 * nominal) / 2)


def test_sampler_times_the_loop_while_started():
    sampler = hostspeed.Sampler()
    sampler.start()
    began = time.monotonic()
    while time.monotonic() - began < 4 * hostspeed.INTERVAL_S:
        pass
    sampler.stop()
    assert len(sampler.ends) >= 3  # start, at least one alarm, stop
    assert sampler.ends == sorted(sampler.ends)
    assert all(loop > 0 for loop in sampler.loops)


def _call(master_seed, digest="d0", **extra):
    result = {
        "master_seed": master_seed,
        "digest": digest,
        "wall": 1.0,
        "wall_nominal": 2.0,
        "trials": 10,
        "setup": 0.4,
        "setup_nominal": 0.5,
        "peak_rss_mb": 60.0,
    }
    result.update(extra)
    return result


def test_digest_mismatch_counts_as_failed_call():
    expected = {"3": "d0", "5": "d1"}
    results = [_call(3), _call(5, digest="changed")]
    assert run.passed(results[0], expected)
    assert not run.passed(results[1], expected)
    metrics = run.end_to_end(results, expected)
    assert metrics["ok_frac"] == 0.5
    assert metrics["trials_per_s"] == 5.0  # from the passing call, at nominal speed
    assert metrics["setup_s"] == 0.5
    line = run.report(metrics, dict(run.END_TO_END), results, expected)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)


def test_worker_error_and_unrecorded_seed_count_as_failed():
    expected = {"3": "d0"}
    results = [{"master_seed": 3, "error": "worker exited with 1"}, _call(7)]
    line = run.report({}, {}, results, expected)
    assert (line["correct"], line["failed"]) == (False, 2)


def test_master_seeds_follow_the_seed():
    assert run.master_seeds("coverage-selector", 1) == run.master_seeds("coverage-selector", 1)
    assert run.master_seeds("coverage-selector", 1) != run.master_seeds("coverage-selector", 2)
    assert sorted(run.master_seeds("coverage-selector", 1)) == list(range(run.POOL_SIZE))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(digests)
    assert all(len(digests[n]) == run.POOL_SIZE for n in names)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracer.PER_LAYER
    )
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    assert sorted(workloads.WORKLOADS) == sorted(names)
