import dataclasses
import gc
import hashlib
import json
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from confplan import harness
from confplan.harness import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    run_comparison,
    run_coverage_experiment,
    run_dataset_conditional,
)
from confplan.conformal import (
    Quantile,
    calibrate,
    calibration_records,
    local_prediction_set,
    product_set,
    score_label_sequence,
)
from confplan.context import advance, initial_context
from confplan.errors import ConfigError
from confplan.scenario import DistributionParams, decision_space, sample_scenario
from confplan.scoring import ScorerSpec, build_scorer


def tiny_config(**overrides) -> ExperimentConfig:
    params = DistributionParams(
        n_robots=(1, 2),
        n_subtasks=(1, 1),
        n_objects=(2, 2),
        n_containers=(0, 1),
        n_destinations=(1, 1),
        enclosure_prob=0.3,
        safety_prob=0.0,
        horizon_slack=1,
        rng_seed=100,
    )
    base = dict(
        params=params,
        scorer=ScorerSpec(kind="noisy-oracle", sharpness=4.0, noise=1.0, confusion=0.15, rng_seed=7),
        alphas=(0.1, 0.3),
        m_calibration=10,
        n_trials=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def label_rows(scenario, scorer, record) -> list:
    """The scorer's row at each k of a labeled record, read through
    `score_all` along the label."""
    space = decision_space(scenario.env)
    ctx = initial_context(scenario)
    rows = []
    for i in record.decision_indices:
        rows.append(scorer.score_all(ctx))
        ctx = advance(ctx, space[i])
    return rows


def test_config_roundtrip_and_validation():
    cfg = tiny_config(master_seed=5)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    with pytest.raises(ConfigError):
        config_from_dict(config_to_dict(dataclasses.replace(cfg, alphas=(1.5,))))
    # the planner settings are checked at load too, by PlannerConfig's own
    # rule, and an experiment refuses interactive help
    bads = (
        {"help_policy": "bogus"},
        {"help_policy": "interactive-user"},
        {"reorder_bound": -3},
        {"centralized_budget": 0},
        {"centralized_budget": -1},
    )
    for bad in bads:
        with pytest.raises(ConfigError):
            config_from_dict({**config_to_dict(cfg), **bad})
    assert config_from_dict({**config_to_dict(cfg), "centralized_budget": 1}).centralized_budget == 1


@pytest.mark.parametrize("label_mode", ["oracle", "selector"])
def test_the_covered_flag_is_the_label_in_the_product_of_the_local_sets(label_mode):
    """The reference rebuilds each trial's local sets from the scorer's rows
    along the test label and asks whether the label is in their product.
    Alpha 0.05 is below what M = 10 can calibrate (the FULL-SET sentinel),
    and alpha 0.5 leaves some labels uncovered."""
    cfg = tiny_config(label_mode=label_mode, alphas=(0.05, 0.3, 0.5), n_trials=6)
    params, spec = cfg.effective()
    seen = set()
    for row in run_coverage_experiment(cfg)["trials"]:
        scorer = build_scorer(spec)
        base = row["trial"] * (cfg.m_calibration + 1)
        draws = range(base, base + cfg.m_calibration)
        records = calibration_records([sample_scenario(params, d) for d in draws], scorer, label_mode)
        test = sample_scenario(params, base + cfg.m_calibration)
        record = score_label_sequence(test, scorer, label_mode)
        rows = label_rows(test, scorer, record)
        for alpha in cfg.alphas:
            quantile = calibrate(records, alpha)
            covered = record.decision_indices in product_set(
                local_prediction_set(r, quantile) for r in rows
            )
            assert row["alphas"][f"{alpha:g}"]["covered"] == covered
            seen.add((quantile.full_set, covered))
    assert seen == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("alphas", [(0.1, 0.1), (0.1, 0.3, 0.1000001)])
def test_alphas_that_share_a_row_key_are_refused(alphas):
    with pytest.raises(ConfigError):
        run_coverage_experiment(tiny_config(alphas=alphas, n_trials=1))


def test_a_finished_run_keeps_no_sampled_environment_alive(monkeypatch):
    """What is derived from a scenario lives on the scenario or its
    environment, so nothing outlives the run that sampled them."""
    sampled = []
    sample = harness.sample_scenario

    def recording(params, draw_index):
        s = sample(params, draw_index)
        sampled.append((weakref.ref(s), weakref.ref(s.env)))
        return s

    monkeypatch.setattr(harness, "sample_scenario", recording)
    result = run_coverage_experiment(tiny_config(n_trials=2, label_mode="selector"))
    gc.collect()
    assert result["metrics"] and len(sampled) == 2 * 11
    assert [(s(), env()) for s, env in sampled] == [(None, None)] * len(sampled)


def test_dataset_conditional_keeps_no_finished_test_draw_alive(monkeypatch):
    """Each test draw is scored by its own scorer, so its table and
    environment go when its trial ends: the live environments stay flat over
    the run, where one scorer for the run kept every test draw alive."""
    sampled = []
    sample, trial_row = harness.sample_scenario, harness._trial_row
    live = []

    def recording(params, draw_index):
        s = sample(params, draw_index)
        sampled.append(weakref.ref(s.env))
        return s

    def counting(*args):
        gc.collect()
        live.append(sum(env() is not None for env in sampled))
        return trial_row(*args)

    monkeypatch.setattr(harness, "sample_scenario", recording)
    monkeypatch.setattr(harness, "_trial_row", counting)
    run_dataset_conditional(tiny_config(n_trials=60, m_calibration=99), delta=0.2)
    assert len(sampled) == 99 + 60
    assert live == [1] * 60  # the draw under test only


def test_coverage_run_shapes_and_invariants(tmp_path):
    cfg = tiny_config()
    result = run_coverage_experiment(cfg, out_dir=tmp_path / "run")
    metrics = result["metrics"]
    assert [m.alpha for m in metrics] == [0.1, 0.3]
    for m in metrics:
        assert m.trials == cfg.n_trials
        assert 0.0 <= m.coverage <= 1.0
        assert 0.0 <= m.help_rate <= 1.0
        assert abs((m.singleton_rate + m.help_rate) - 1.0) < 1e-12  # W = 0
        assert m.extra["coverage_le_success"]  # oracle-user help never breaks covered trials
        assert m.success_rate >= m.coverage - 1e-12
    assert (tmp_path / "run" / "coverage.csv").exists()
    assert (tmp_path / "run" / "coverage.json").exists()
    assert (tmp_path / "run" / "trials.jsonl").exists()


def test_a_cells_coverage_is_the_share_of_covered_trials():
    """Coverage is marginal over trials: a trial counts once, however many
    decisions its plan took. Weighted by decisions these rows read 0.9."""
    rows = [
        {"covered": covered, "success": covered, "set_hist": {"1": n}, "scorer_calls": 0}
        for covered, n in ((True, 9), (False, 1))
    ]
    cell = harness._cell(0.1, "distributed", rows)
    assert (cell.trials, cell.n_decisions, cell.coverage) == (2, 10, 0.5)


def test_coverage_metrics_files_are_reproducible(tmp_path):
    cfg = tiny_config(n_trials=5)
    run_coverage_experiment(cfg, out_dir=tmp_path / "a")
    run_coverage_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("coverage.json", "coverage.csv", "trials.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _with_derived_counts(line: str) -> str:
    """A checkpoint row as it was written when rows also carried the set
    counts that their set-size histogram holds."""
    row = json.loads(line)
    for cell in row["alphas"].values():
        n_sets = sum(cell["set_hist"].values())
        n_singleton = cell["set_hist"].get("1", 0)
        cell.update(n_sets=n_sets, n_singleton=n_singleton, n_help_slots=n_sets - n_singleton)
    return json.dumps(row, sort_keys=True)


def test_coverage_checkpoint_resume(tmp_path):
    cfg_small = tiny_config(n_trials=3)
    cfg_full = tiny_config(n_trials=6)
    fresh = run_coverage_experiment(cfg_full, out_dir=tmp_path / "fresh")
    # the second checkpoint's rows carry the set counts rows once repeated
    for derived_counts in (False, True):
        out = tmp_path / f"resume-{derived_counts}"
        run_coverage_experiment(cfg_small, out_dir=out)
        lines_before = (out / "trials.jsonl").read_text().strip().splitlines()
        assert len(lines_before) == 3
        if derived_counts:
            lines_before = [_with_derived_counts(line) for line in lines_before]
            (out / "trials.jsonl").write_text("".join(line + "\n" for line in lines_before))
        resumed = run_coverage_experiment(cfg_full, out_dir=out)
        assert [m.__dict__ for m in resumed["metrics"]] == [m.__dict__ for m in fresh["metrics"]]
        lines_after = (out / "trials.jsonl").read_text().strip().splitlines()
        assert len(lines_after) == 6
        assert lines_after[:3] == lines_before  # earlier trials were not recomputed


def test_coverage_resume_drops_a_torn_last_line(tmp_path):
    out = tmp_path / "torn"
    run_coverage_experiment(tiny_config(n_trials=3), out_dir=out)
    checkpoint = out / "trials.jsonl"
    complete = checkpoint.read_text()
    with open(checkpoint, "a", encoding="utf-8") as fh:
        fh.write('{"alphas": {"0.1": {"covered"')  # killed mid-write
    cfg_full = tiny_config(n_trials=6)
    resumed = run_coverage_experiment(cfg_full, out_dir=out)
    fresh = run_coverage_experiment(cfg_full, out_dir=tmp_path / "fresh")
    assert [m.__dict__ for m in resumed["metrics"]] == [m.__dict__ for m in fresh["metrics"]]
    text = checkpoint.read_text()
    assert text.startswith(complete)
    assert text == (tmp_path / "fresh" / "trials.jsonl").read_text()
    # the repaired checkpoint resumes again
    again = run_coverage_experiment(cfg_full, out_dir=out)
    assert [m.__dict__ for m in again["metrics"]] == [m.__dict__ for m in fresh["metrics"]]


def test_coverage_resume_refuses_a_torn_line_before_the_last(tmp_path):
    out = tmp_path / "corrupt"
    run_coverage_experiment(tiny_config(n_trials=3), out_dir=out)
    checkpoint = out / "trials.jsonl"
    lines = checkpoint.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:20] + "\n"
    checkpoint.write_text("".join(lines))
    with pytest.raises(json.JSONDecodeError):
        run_coverage_experiment(tiny_config(n_trials=6), out_dir=out)


@pytest.mark.parametrize(
    "change", [{"master_seed": 2}, {"alphas": (0.1, 0.2)}], ids=["master_seed", "alphas"]
)
def test_coverage_resume_refuses_a_checkpoint_of_another_config(tmp_path, change):
    out = tmp_path / "run"
    run_coverage_experiment(tiny_config(n_trials=2, master_seed=1), out_dir=out)
    before = (out / "trials.jsonl").read_bytes()
    with pytest.raises(ConfigError):
        cfg = tiny_config(n_trials=4, **{"master_seed": 1, **change})
        run_coverage_experiment(cfg, out_dir=out)
    assert (out / "trials.jsonl").read_bytes() == before


def test_coverage_resume_refuses_rows_without_a_config_stamp(tmp_path):
    out = tmp_path / "run"
    run_coverage_experiment(tiny_config(n_trials=2), out_dir=out)
    checkpoint = out / "trials.jsonl"
    rows = [json.loads(line) for line in checkpoint.read_text().splitlines()]
    for row in rows:
        del row["config_sha256"]
    checkpoint.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ConfigError):
        run_coverage_experiment(tiny_config(n_trials=4), out_dir=out)


def test_trial_rows_are_seed_isolated():
    few = run_coverage_experiment(tiny_config(n_trials=3))
    more = run_coverage_experiment(tiny_config(n_trials=5))
    assert few["trials"] == more["trials"][:3]


def test_master_seed_changes_draws_but_keeps_determinism():
    a = run_coverage_experiment(tiny_config(n_trials=3, master_seed=1))
    b = run_coverage_experiment(tiny_config(n_trials=3, master_seed=1))
    c = run_coverage_experiment(tiny_config(n_trials=3, master_seed=2))
    assert a["trials"] == b["trials"]
    assert a["trials"] != c["trials"]


def test_help_rate_grows_as_alpha_shrinks():
    cfg = tiny_config(alphas=(0.05, 0.1, 0.3), n_trials=12, m_calibration=30)
    result = run_coverage_experiment(cfg)
    by_alpha = {m.alpha: m for m in result["metrics"]}
    assert by_alpha[0.05].help_rate >= by_alpha[0.1].help_rate - 1e-12
    assert by_alpha[0.1].help_rate >= by_alpha[0.3].help_rate - 1e-12


def test_comparison_runs_and_matches_for_single_robot(tmp_path):
    cfg = tiny_config(
        params=dataclasses.replace(tiny_config().params, n_robots=(1, 1)),
        alphas=(0.2,),
        m_calibration=6,
        n_trials=3,
    )
    result = run_comparison(cfg, out_dir=tmp_path)
    by_mode = {m.mode: m for m in result["metrics"]}
    dist, cent = by_mode["distributed"], by_mode["centralized"]
    assert dist.scorer_calls == cent.scorer_calls
    assert dist.success_rate == cent.success_rate
    assert dist.help_rate == cent.help_rate
    assert (tmp_path / "compare.csv").exists()


def test_comparison_two_robot_call_counts():
    params = DistributionParams(
        n_robots=(2, 2),
        n_subtasks=(1, 1),
        n_objects=(2, 2),
        n_containers=(1, 1),
        n_destinations=(1, 1),
        enclosure_prob=0.0,
        safety_prob=0.0,
        horizon_slack=1,
        rng_seed=55,
    )
    cfg = tiny_config(params=params, alphas=(0.2,), m_calibration=6, n_trials=2)
    result = run_comparison(cfg)
    by_mode = {m.mode: m for m in result["metrics"]}
    # |S| = 9, H = 5: distributed 2*9*5 = 90, centralized 81*5 = 405 per trial
    assert by_mode["distributed"].scorer_calls == 2 * 9 * 5 * cfg.n_trials
    assert by_mode["centralized"].scorer_calls == 81 * 5 * cfg.n_trials


def test_comparison_under_fail_on_help_counts_stopped_plans_as_failures(monkeypatch):
    recorded = []

    def recording(trace, covered, success):
        recorded.append((trace.failed, success))
        return trace_row(trace, covered, success)

    trace_row = harness._trace_row
    monkeypatch.setattr(harness, "_trace_row", recording)
    cfg = tiny_config(help_policy="fail-on-help", n_trials=3)
    result = run_comparison(cfg)
    by_cell = {(m.alpha, m.mode): m for m in result["metrics"]}
    assert sorted(by_cell) == [
        (0.1, "centralized"),
        (0.1, "distributed"),
        (0.3, "centralized"),
        (0.3, "distributed"),
    ]
    assert all(m.trials == cfg.n_trials for m in by_cell.values())
    # 2 planners x 2 alphas x 3 trials, each plan that stopped at a help
    # request counted as a failure
    assert len(recorded) == 12
    assert any(failed for failed, _ in recorded)
    assert all(not success for failed, success in recorded if failed)
    assert sum(m.success_rate * m.trials for m in by_cell.values()) == pytest.approx(
        sum(success for _, success in recorded)
    )
    # the stopped plans are failures, not breaches of the call-count law
    assert by_cell[(0.1, "distributed")].success_rate < 1.0


def test_dataset_conditional_mode_runs_once_and_reports_adjustment():
    cfg = tiny_config(alphas=(0.2,), m_calibration=30, n_trials=10)
    result = run_dataset_conditional(cfg, delta=0.2)
    (m,) = result["metrics"]
    assert m.mode == "dataset-conditional"
    assert m.extra["alpha_adjusted"] <= 0.2
    assert m.extra["target_coverage"] == pytest.approx(0.8)
    assert 0.0 <= m.coverage <= 1.0


def test_dataset_conditional_calibrates_at_the_adjusted_levels(monkeypatch):
    """Each cell's quantile comes from its adjusted level, never its alpha."""
    levels = []
    calibrate_at = harness.calibrate

    def spy(records, level):
        levels.append(level)
        return calibrate_at(records, level)

    monkeypatch.setattr(harness, "calibrate", spy)
    cfg = tiny_config(alphas=(0.2, 0.3), m_calibration=30, n_trials=2)
    metrics = run_dataset_conditional(cfg, delta=0.2)["metrics"]
    assert levels == [m.extra["alpha_adjusted"] for m in metrics]
    assert not set(levels) & set(cfg.alphas)


@pytest.mark.parametrize(
    "run, n_draws",
    [
        pytest.param(
            run_coverage_experiment,
            lambda cfg: cfg.n_trials * (cfg.m_calibration + 1),
            id="coverage",
        ),
        pytest.param(
            run_comparison, lambda cfg: cfg.n_trials * (cfg.m_calibration + 1), id="compare"
        ),
        pytest.param(
            lambda cfg: run_dataset_conditional(cfg, delta=0.2),
            lambda cfg: cfg.m_calibration + cfg.n_trials,
            id="dataset-conditional",
        ),
    ],
)
def test_each_experiment_labels_each_draw_once(monkeypatch, run, n_draws):
    """No draw is labeled twice: a trial's test draw is none of its
    calibration draws, and no two trials share a draw."""
    labeled = []

    def counting(scenario, *args, **kwargs):
        labeled.append(scenario.id)
        return score_label_sequence(scenario, *args, **kwargs)

    def counting_batch(scenarios, *args, **kwargs):
        labeled.extend(s.id for s in scenarios)
        return calibration_records(scenarios, *args, **kwargs)

    monkeypatch.setattr(harness, "score_label_sequence", counting)
    monkeypatch.setattr(harness, "calibration_records", counting_batch)
    cfg = tiny_config(alphas=(0.3, 0.2, 0.1), m_calibration=30, n_trials=4)
    run(cfg)
    assert len(labeled) == n_draws(cfg)
    assert len(set(labeled)) == len(labeled)


def count_plans(monkeypatch, name: str) -> list:
    """Spy on the harness's planner `name`: the returned list gains one
    entry, the quantile, per plan."""
    plan = getattr(harness, name)
    quantiles = []

    def counting(scenario, scorer, quantile, *args, **kwargs):
        quantiles.append(quantile)
        return plan(scenario, scorer, quantile, *args, **kwargs)

    monkeypatch.setattr(harness, name, counting)
    return quantiles


def test_alphas_at_one_dataset_conditional_level_share_one_plan(monkeypatch):
    """At M = 20 and delta = 0.2 the three alphas calibrate at one level, so
    each test draw is planned once; each alpha's cell is the one a run of
    that alpha alone reports."""
    cfg = tiny_config(alphas=(0.1, 0.2, 0.3), m_calibration=20, n_trials=4)
    planned = count_plans(monkeypatch, "plan_distributed")
    metrics = run_dataset_conditional(cfg, delta=0.2)["metrics"]
    assert len({m.extra["alpha_adjusted"] for m in metrics}) == 1
    assert len(planned) == cfg.n_trials
    for m in metrics:
        alone = run_dataset_conditional(dataclasses.replace(cfg, alphas=(m.alpha,)), delta=0.2)
        assert alone["metrics"] == [m]


def test_alphas_at_distinct_thresholds_each_plan(monkeypatch):
    cfg = tiny_config(n_trials=4)
    planned = count_plans(monkeypatch, "plan_distributed")
    run_coverage_experiment(cfg)
    assert len(planned) == cfg.n_trials * len(cfg.alphas)
    for trial in range(cfg.n_trials):
        per_alpha = planned[trial * len(cfg.alphas) : (trial + 1) * len(cfg.alphas)]
        assert len({q.threshold for q in per_alpha}) == len(cfg.alphas)


def test_a_shared_distributed_threshold_with_distinct_joint_ones_plans_both(monkeypatch):
    """Two pairs whose distributed thresholds are equal but whose joint ones
    differ are two plans for each planner, and each alpha's cells are those
    of a row planned for that alpha alone."""
    cfg = tiny_config(params=dataclasses.replace(tiny_config().params, n_robots=(2, 2)))
    scorer = build_scorer(cfg.scorer)
    test = sample_scenario(cfg.params, 0)
    quantiles = [
        (Quantile(0.7, 10, alpha), Quantile(joint, 10, alpha))
        for alpha, joint in zip(cfg.alphas, (0.5, 0.9))
    ]
    distributed = count_plans(monkeypatch, "plan_distributed")
    centralized = count_plans(monkeypatch, "plan_centralized")
    row = harness._trial_row(cfg, scorer, quantiles, 0, test)
    assert [q.threshold for q in distributed] == [quantiles[0][0].threshold] * 2
    assert [q.threshold for q in centralized] == [q_joint.threshold for _, q_joint in quantiles]
    for alpha, pair in zip(cfg.alphas, quantiles):
        alone = harness._trial_row(
            dataclasses.replace(cfg, alphas=(alpha,)), scorer, [pair], 0, test
        )
        for planner in ("alphas", "centralized"):
            assert row[planner][f"{alpha:g}"] == alone[planner][f"{alpha:g}"]


def test_alphas_that_all_fall_to_the_full_set_share_one_plan(monkeypatch):
    """M = 10 is below the minimal calibration size of both alphas, so both
    quantiles are the FULL-SET sentinel: one plan per trial, and the two
    cells differ only in their alpha."""
    cfg = tiny_config(alphas=(0.02, 0.05), n_trials=3)
    planned = count_plans(monkeypatch, "plan_distributed")
    first, second = run_coverage_experiment(cfg)["metrics"]
    assert len(planned) == cfg.n_trials and all(q.full_set for q in planned)
    assert first.extra["full_set_trials"] == cfg.n_trials
    assert dataclasses.replace(first, alpha=second.alpha) == second


def test_metric_order_with_unsorted_alphas():
    cfg = tiny_config(alphas=(0.3, 0.1), m_calibration=30, n_trials=2)
    assert [m.alpha for m in run_coverage_experiment(cfg)["metrics"]] == [0.3, 0.1]
    assert [m.alpha for m in run_dataset_conditional(cfg, delta=0.2)["metrics"]] == [0.3, 0.1]
    assert [(m.alpha, m.mode) for m in run_comparison(cfg)["metrics"]] == [
        (0.1, "centralized"),
        (0.1, "distributed"),
        (0.3, "centralized"),
        (0.3, "distributed"),
    ]


MULTI_FEASIBLE = dataclasses.replace(
    tiny_config().params, n_robots=(1, 1), n_destinations=(2, 2), multi_destination_prob=1.0
)
SELECTOR_W1 = dict(
    params=MULTI_FEASIBLE, alphas=(0.3, 0.1), label_mode="selector", reorder_bound=1
)


# sha256 of the metrics JSON of tiny configs the benchmark does not cover,
# recorded before the three experiments were folded into one kernel; compare
# runs under selector labels and W = 1 to pin that it ignores both.
@pytest.mark.parametrize(
    "stem, digest, run",
    [
        pytest.param(
            "coverage",
            "7a544342bda2258ab75ff348daa0e73525680c93e7ea5873f3bc82abada50878",
            lambda out: run_coverage_experiment(
                tiny_config(**SELECTOR_W1, n_trials=6), out_dir=out, jobs=2
            ),
            id="coverage-selector-W1-jobs2",
        ),
        pytest.param(
            "compare",
            "8230c0603727d35da7ab679ea7f44d25e2373055e8423ca5d8e834b0dec72c22",
            lambda out: run_comparison(
                tiny_config(
                    alphas=(0.3, 0.1),
                    label_mode="selector",
                    reorder_bound=1,
                    m_calibration=8,
                    n_trials=4,
                ),
                out_dir=out,
            ),
            id="compare",
        ),
        pytest.param(
            "dataset_conditional",
            "404237c75a212474cc2c0b5229b6cf9eba3c48036fc931f129e4a5284adef2dd",
            lambda out: run_dataset_conditional(
                tiny_config(**SELECTOR_W1, m_calibration=30, n_trials=6), delta=0.1, out_dir=out
            ),
            id="dataset-conditional-selector",
        ),
    ],
)
def test_metrics_files_match_recorded_digests(tmp_path, stem, digest, run):
    run(tmp_path)
    assert hashlib.sha256((tmp_path / f"{stem}.json").read_bytes()).hexdigest() == digest


def test_the_benchmark_tracer_finds_every_function_it_wraps():
    """benchmarks/tracer.py wraps confplan functions by name, so a rename
    would otherwise break only traced benchmark runs."""
    root = Path(__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path[:0] = [{str(root / 'benchmarks')!r}, {str(root / 'src')!r}]\n"
        "import tracer; tracer.install(tracer.Tracer())"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_parallel_jobs_match_serial(tmp_path):
    cfg = tiny_config(n_trials=6)
    serial = run_coverage_experiment(cfg, out_dir=tmp_path / "serial")
    parallel = run_coverage_experiment(cfg, out_dir=tmp_path / "parallel", jobs=2)
    assert serial["trials"] == parallel["trials"]
    assert (tmp_path / "serial" / "coverage.json").read_bytes() == (
        tmp_path / "parallel" / "coverage.json"
    ).read_bytes()


@pytest.mark.parametrize("jobs", [0, -3])
def test_a_worker_count_below_one_is_refused(tmp_path, jobs):
    """Refused before any trial runs or any output is written."""
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        run_coverage_experiment(tiny_config(n_trials=2), out_dir=tmp_path / "out", jobs=jobs)
    assert not (tmp_path / "out").exists()


def test_indicator_scorer_coverage_is_total_once_the_threshold_clears():
    """With the indicator scorer every label is the unique argmax at the
    maximal score, so as soon as the calibrated threshold sits strictly below
    the test's top score (here: calibration over a strictly larger decision
    space), every trial is covered with zero help."""
    import dataclasses as _dc

    from confplan.conformal import build_calibration_set
    from confplan.planner import PlannerConfig, plan_distributed, teacher_feasible_provider
    from confplan.scenario import validate_scenario_plan

    base = tiny_config().params
    calib_params = _dc.replace(base, n_objects=(3, 3), n_containers=(1, 1), enclosure_prob=0.0)
    test_params = _dc.replace(base, n_objects=(2, 2), n_containers=(1, 1), enclosure_prob=0.0)
    scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
    records = build_calibration_set(calib_params, 20, scorer)
    for alpha in (0.1, 0.3):
        quantile = calibrate(records, alpha)
        assert not quantile.full_set
        covered = helps = trials = 0
        for draw in range(6):
            test = sample_scenario(test_params, 100 + draw)
            record = score_label_sequence(test, scorer)
            sets = [local_prediction_set(v, quantile) for v in label_rows(test, scorer, record)]
            covered += tuple(record.decision_indices) in product_set(sets)
            trace = plan_distributed(
                test,
                scorer,
                quantile,
                PlannerConfig(),
                feasible_provider=teacher_feasible_provider(test),
            )
            helps += trace.n_user_help + trace.n_reorder
            assert validate_scenario_plan(test, trace.plan).complete
            trials += 1
        assert covered == trials  # coverage 1.0
        assert helps == 0  # help rate 0


def test_covered_trials_reproduce_the_label_plan_in_selector_mode():
    """On covered trials the planner with simulated-user help reconstructs the
    labeled plan decision for decision (the per-trial mechanism behind
    success >= coverage)."""
    import dataclasses as _dc

    from confplan.conformal import build_calibration_set
    from confplan.planner import PlannerConfig, plan_distributed, search_feasible_provider
    from confplan.scenario import flat_to_plan

    params = _dc.replace(
        tiny_config().params,
        n_destinations=(2, 2),
        multi_destination_prob=1.0,
        rng_seed=321,
    )
    scorer = build_scorer(ScorerSpec(rng_seed=5))
    records = build_calibration_set(params, 15, scorer, label_mode="selector")
    quantile = calibrate(records, 0.2)
    covered_seen = 0
    for draw in range(100, 110):
        test = sample_scenario(params, draw)
        record = score_label_sequence(test, scorer, label_mode="selector")
        sets = [local_prediction_set(v, quantile) for v in label_rows(test, scorer, record)]
        if tuple(record.decision_indices) not in product_set(sets):
            continue
        covered_seen += 1
        trace = plan_distributed(
            test,
            scorer,
            quantile,
            PlannerConfig(),
            feasible_provider=search_feasible_provider(test),
        )
        space = decision_space(test.env)
        assert trace.plan == flat_to_plan(test, tuple(space[i] for i in record.decision_indices))
    assert covered_seen >= 5


def test_selector_trial_survives_a_budget_error_in_user_help():
    """Oracle-user help off the canonical path of a scenario beyond the exact
    search budget falls back to the presented set instead of aborting the run
    (master seed 5, trial 12, where the alpha 0.2 plan leaves the path)."""
    from confplan.scenario import default_distribution_params

    cfg = ExperimentConfig(
        params=dataclasses.replace(default_distribution_params(), n_robots=(2, 2)),
        scorer=ScorerSpec(),
        m_calibration=30,
        n_trials=20,
        label_mode="selector",
        master_seed=5,
    )
    row = harness._fresh_calibration_trial(cfg, False, 12)
    cell = row["alphas"]["0.2"]
    assert not cell["covered"] and not cell["success"]
    assert cell["coverage_misses"] == 5
