import io
import json
import os
import subprocess
import sys

import pytest

import confplan
from confplan import harness
from confplan.cli import main
from confplan.conformal import CalibrationRecord, record_to_dict
from confplan.harness import config_to_dict
from confplan.scenario import DistributionParams, params_to_dict, sample_scenario, scenario_to_dict
from tests.test_harness import tiny_config


def write_config(tmp_path, **overrides):
    cfg = tiny_config(**overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return path


def write_params(tmp_path):
    params = DistributionParams(
        n_robots=(1, 1),
        n_subtasks=(1, 1),
        n_objects=(2, 2),
        n_containers=(1, 1),
        n_destinations=(1, 1),
        enclosure_prob=0.0,
        safety_prob=0.0,
        rng_seed=12,
    )
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params_to_dict(params)))
    return path


def test_gen_scenarios_writes_file(tmp_path, capsys):
    params = write_params(tmp_path)
    out = tmp_path / "scenarios.json"
    assert main(["gen-scenarios", "--params", str(params), "--count", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data) == 3
    assert all(d["decision_space_size"] == 9 for d in data)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gen_scenarios_refuses_a_count_below_one(tmp_path, capsys, count):
    """A file of no scenario is one that `plan` and `calibrate --scenarios`
    both refuse, so it is not written."""
    params = write_params(tmp_path)
    out = tmp_path / "scenarios.json"
    argv = ["gen-scenarios", "--params", str(params), "--count", count, "--out", str(out)]
    assert main(argv) == 2
    assert "--count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_gen_scenarios_refuses_a_start_below_zero(tmp_path, capsys):
    params = write_params(tmp_path)
    out = tmp_path / "scenarios.json"
    argv = ["gen-scenarios", "--params", str(params), "--start", "-1", "--count", "1", "--out", str(out)]
    assert main(argv) == 2
    assert "--start must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_warns_on_full_set_sentinel(tmp_path, capsys):
    params = write_params(tmp_path)
    out = tmp_path / "cal"
    code = main(
        [
            "calibrate",
            "--params",
            str(params),
            "--m",
            "4",
            "--alpha",
            "0.05",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "FULL-SET" in err and "minimal calibration size 19" in err
    summary = json.loads((out / "quantile.json").read_text())
    assert summary["quantile"] == "FULL_SET"
    assert (out / "calibration.jsonl").exists()


def test_plan_with_calibration_and_trace_output(tmp_path):
    params = write_params(tmp_path)
    scen_path = tmp_path / "scenarios.json"
    assert main(["gen-scenarios", "--params", str(params), "--count", "1", "--out", str(scen_path)]) == 0
    cal_dir = tmp_path / "cal"
    assert main(["calibrate", "--params", str(params), "--m", "20", "--alpha", "0.2", "--out", str(cal_dir)]) == 0
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "plan",
            "--scenario",
            str(scen_path),
            "--calibration",
            str(cal_dir / "calibration.jsonl"),
            "--alpha",
            "0.2",
            "--out",
            str(trace_path),
        ]
    )
    assert code == 0
    payload = json.loads(trace_path.read_text())
    assert payload["mode"] == "distributed"
    assert payload["validation"]["complete"] in (True, False)


def test_plan_argmax_needs_no_quantile(tmp_path):
    params = write_params(tmp_path)
    scen_path = tmp_path / "scenarios.json"
    main(["gen-scenarios", "--params", str(params), "--count", "1", "--out", str(scen_path)])
    code = main(
        [
            "plan",
            "--scenario",
            str(scen_path),
            "--mode",
            "argmax",
            "--scorer",
            "oracle-indicator",
            "--out",
            str(tmp_path / "trace.json"),
        ]
    )
    assert code == 0


def test_plan_interactive_reads_stdin(tmp_path, monkeypatch):
    params = write_params(tmp_path)
    scen_path = tmp_path / "scenarios.json"
    main(["gen-scenarios", "--params", str(params), "--count", "1", "--out", str(scen_path)])
    answers = io.StringIO("1\n" * 64)
    monkeypatch.setattr("sys.stdin", answers)
    code = main(
        [
            "plan",
            "--scenario",
            str(scen_path),
            "--quantile",
            "0.99",
            "--scorer",
            "noisy-oracle:beta=0.5,sigma=0.1,eps=0",
            "--help-policy",
            "interactive-user",
            "--out",
            str(tmp_path / "trace.json"),
        ]
    )
    assert code == 0
    assert answers.tell() > 0  # the help prompts read the answers


def test_plan_runs_on_a_loaded_scenario_its_canonical_plan_overruns(tmp_path):
    from confplan.scenario import write_scenarios
    from tests.test_scenario import short_horizon_scenario

    scen_path = tmp_path / "scenarios.json"
    write_scenarios([short_horizon_scenario()], scen_path)
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "plan",
            "--scenario",
            str(scen_path),
            "--mode",
            "argmax",
            "--scorer",
            "oracle-indicator",
            "--out",
            str(trace_path),
        ]
    )
    assert code == 0
    validation = json.loads(trace_path.read_text())["validation"]
    assert validation == {"complete": False, "steps_used": 3, "reason": "mission-unsatisfied"}


def test_plan_without_quantile_is_a_config_error(tmp_path):
    params = write_params(tmp_path)
    scen_path = tmp_path / "scenarios.json"
    main(["gen-scenarios", "--params", str(params), "--count", "1", "--out", str(scen_path)])
    assert main(["plan", "--scenario", str(scen_path)]) == 2


@pytest.mark.parametrize("mode", ["distributed", "centralized"])
def test_plan_with_alpha_outside_the_unit_interval_is_a_config_error(tmp_path, mode):
    params = write_params(tmp_path)
    scen_path = tmp_path / "scenarios.json"
    main(["gen-scenarios", "--params", str(params), "--count", "1", "--out", str(scen_path)])
    argv = ["plan", "--scenario", str(scen_path), "--mode", mode, "--alpha", "1.5", "--quantile", "0.9"]
    assert main([*argv, "--out", str(tmp_path / "trace.json")]) == 2
    assert not (tmp_path / "trace.json").exists()


def _renamed(record, old, new):
    return {new if key == old else key: value for key, value in record.items()}


def _with_entry(record, i, **changes):
    entries = list(record["decisions"])
    entries[i] = {**entries[i], **changes}
    return {**record, "decisions": entries}


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(
            lambda r: {**_renamed(r, "label_mode", "labl_mode"), "sequence_ncs": 0.5},
            id="misspelled-label-mode-and-made-up-ncs",
        ),
        pytest.param(lambda r: _renamed(r, "search_mode", "search"), id="unknown-record-key"),
        pytest.param(lambda r: _with_entry(r, 0, scroe=0.5), id="unknown-entry-key"),
        pytest.param(lambda r: _with_entry(r, 1, k=0), id="entry-k-not-its-position"),
        pytest.param(lambda r: {**r, "sequence_ncs": r["sequence_ncs"] / 2}, id="wrong-ncs"),
    ],
)
def test_plan_refuses_a_calibration_file_its_writer_could_not_have_written(tmp_path, corrupt):
    """Every line of a written calibration file is corrupted the same way;
    planning with it exits 2 before any output is written."""
    params = write_params(tmp_path)
    scen_path, cal_dir = tmp_path / "scenarios.json", tmp_path / "cal"
    main(["gen-scenarios", "--params", str(params), "--count", "1", "--out", str(scen_path)])
    main(["calibrate", "--params", str(params), "--m", "10", "--alpha", "0.2", "--out", str(cal_dir)])
    calibration = cal_dir / "calibration.jsonl"
    records = [json.loads(line) for line in calibration.read_text().splitlines()]
    assert all(len(r["decisions"]) >= 2 and r["sequence_ncs"] > 0 for r in records)
    calibration.write_text("".join(json.dumps(corrupt(r)) + "\n" for r in records))
    argv = ["plan", "--scenario", str(scen_path), "--calibration", str(calibration), "--alpha", "0.2"]
    assert main([*argv, "--out", str(tmp_path / "trace.json")]) == 2
    assert not (tmp_path / "trace.json").exists()


def test_missing_config_file_exits_2(tmp_path):
    assert main(["coverage", "--config", str(tmp_path / "missing.json")]) == 2


def _config(**changes):
    return {**config_to_dict(tiny_config()), **changes}


SCENARIO = scenario_to_dict(sample_scenario(DistributionParams(), 0))
ONE_ROBOT = scenario_to_dict(sample_scenario(DistributionParams(n_robots=(1, 1)), 0))
CALIBRATION_RECORD = record_to_dict(
    CalibrationRecord("scn", 9, "oracle", "oracle", (("idle", None),), (8,), (0.9,))
)

# "DOC" is replaced by the document's path, "OUT" by an output path and
# "SCN" by the path of a file holding SCENARIO
COVERAGE = ["coverage", "--config", "DOC", "--out", "OUT"]
PLAN = ["plan", "--scenario", "DOC", "--quantile", "0.9", "--out", "OUT"]
ARGMAX = ["plan", "--scenario", "DOC", "--mode", "argmax", "--out", "OUT"]
CENTRALIZED = ["plan", "--scenario", "DOC", "--mode", "centralized", "--quantile", "0.9", "--out", "OUT"]


@pytest.mark.parametrize(
    "document, argv",
    [
        pytest.param(_config(params={"n_robots": 2}), COVERAGE, id="scalar-pair"),
        pytest.param(_config(params={"n_robots": [1]}), COVERAGE, id="short-pair"),
        pytest.param(_config(params=[1, 2]), COVERAGE, id="list-params"),
        pytest.param(_config(params={"object_labels": 5}), COVERAGE, id="scalar-labels"),
        pytest.param(_config(alphas=0.1), COVERAGE, id="scalar-alphas"),
        pytest.param(
            _config(
                scorer={
                    "kind": "external",
                    "endpoint": {"base_url": "http://localhost:9", "model": "m", "retries": 3},
                }
            ),
            COVERAGE,
            id="unknown-endpoint-key",
        ),
        pytest.param(_config(params={"n_robot": [3, 3]}), COVERAGE, id="misspelled-params-key"),
        pytest.param(_config(reorder_bund=2), COVERAGE, id="misspelled-config-key"),
        pytest.param(_config(master_seed="three"), COVERAGE, id="text-master-seed"),
        pytest.param(_config(master_seed=-4), COVERAGE, id="negative-master-seed"),
        # int() would run 2 trials
        pytest.param(_config(n_trials=2.5), COVERAGE, id="fractional-trials"),
        pytest.param(_config(), [*COVERAGE, "--seed", "-1"], id="negative-seed-flag"),
        # an experiment's metrics are a function of its config, not of a user's answers
        pytest.param(_config(help_policy="interactive-user"), COVERAGE, id="interactive-help"),
        # version 1 is the only schema this code reads
        pytest.param(_config(schema_version=99), COVERAGE, id="config-schema-version"),
        pytest.param(
            {**SCENARIO, "env": {**SCENARIO["env"], "schema_version": "banana"}},
            PLAN,
            id="env-schema-version",
        ),
        pytest.param(
            {**CALIBRATION_RECORD, "schema_version": 3},
            ["plan", "--scenario", "SCN", "--calibration", "DOC", "--out", "OUT"],
            id="calibration-schema-version",
        ),
        pytest.param(
            {"kind": "noisy-oracle", "sigma": 0.0},  # the alias holds only in the CLI string
            ["calibrate", "--m", "2", "--scorer", "DOC", "--out", "OUT"],
            id="alias-in-scorer-json",
        ),
        pytest.param({**SCENARIO, "id": 5}, PLAN, id="number-scenario-id"),
        pytest.param(
            {**SCENARIO, "env": {**SCENARIO["env"], "colour": "red"}}, PLAN, id="unknown-env-key"
        ),
        pytest.param([], PLAN, id="empty-scenario-file"),  # a file holding no scenario
        # one robot draws no step order, so only loading can refuse the seed
        pytest.param({**ONE_ROBOT, "order_seed": -1}, PLAN, id="negative-order-seed"),
        # a synthetic scorer never renders the prompt, so only loading can refuse it
        pytest.param({**SCENARIO, "skills": ["Fly"]}, PLAN, id="unknown-skill"),
        # the planners plan with every action kind, so skills must name them all
        pytest.param({**SCENARIO, "skills": ["goto"]}, PLAN, id="skills-subset"),
        *(
            pytest.param(
                SCENARIO, ["plan", "--scenario", "DOC", f"--quantile={q}", "--out", "OUT"], id=f"quantile-{q}"
            )
            for q in ("-3", "nan", "7")
        ),
        # argmax mode plans without a quantile: it refuses one, a calibration
        # file and an alpha outside (0, 1)
        pytest.param(SCENARIO, [*ARGMAX, "--quantile", "0.9"], id="argmax-quantile"),
        pytest.param(SCENARIO, [*ARGMAX, "--calibration", "DOC"], id="argmax-calibration"),
        pytest.param(SCENARIO, [*ARGMAX, "--alpha", "7"], id="argmax-alpha"),
        # plan refuses an option its mode never reads: an explicit quantile
        # leaves a calibration unread, only the distributed planner reorders
        # and searches for help options, and the argmax ablation asks no help
        pytest.param(SCENARIO, [*PLAN, "--calibration", "DOC"], id="quantile-and-calibration"),
        pytest.param(SCENARIO, [*CENTRALIZED, "--feasible", "search"], id="centralized-search"),
        pytest.param(SCENARIO, [*CENTRALIZED, "--reorders", "3"], id="centralized-reorders"),
        pytest.param(SCENARIO, [*ARGMAX, "--feasible", "search"], id="argmax-search"),
        pytest.param(SCENARIO, [*ARGMAX, "--reorders", "2"], id="argmax-reorders"),
        pytest.param(
            SCENARIO, [*ARGMAX, "--help-policy", "interactive-user"], id="argmax-interactive"
        ),
        pytest.param(SCENARIO, [*ARGMAX, "--help-policy", "fail-on-help"], id="argmax-help-policy"),
        # a scenario file calibrates on every scenario it holds
        pytest.param(
            [SCENARIO, SCENARIO], ["calibrate", "--scenarios", "DOC", "--m", "1", "--out", "OUT"],
            id="calibrate-scenarios-m",
        ),
    ],
)
def test_a_malformed_document_is_a_config_error(tmp_path, document, argv):
    """Refused with exit 2 before any output is written."""
    doc, out, scn = tmp_path / "doc.json", tmp_path / "out", tmp_path / "scenario.json"
    doc.write_text(json.dumps(document))
    scn.write_text(json.dumps(SCENARIO))
    paths = {"DOC": str(doc), "OUT": str(out), "SCN": str(scn)}
    assert main([paths.get(a, a) for a in argv]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["plan", "--scenario", "DOC", "--quantile", "0.9", "--out", "DIR"], id="plan-out"),
        pytest.param(["plan", "--scenario", "DIR", "--quantile", "0.9", "--out", "OUT"], id="plan-scenario"),
        pytest.param(["gen-scenarios", "--count", "1", "--out", "DIR"], id="gen-scenarios-out"),
    ],
)
def test_a_path_naming_a_directory_is_a_config_error(tmp_path, capsys, argv):
    """An OSError on a path exits 2 with a message, not 1 with a traceback."""
    doc, out, folder = tmp_path / "doc.json", tmp_path / "out", tmp_path / "dir"
    doc.write_text(json.dumps(SCENARIO))
    folder.mkdir()
    paths = {"DOC": str(doc), "OUT": str(out), "DIR": str(folder)}
    assert main([paths.get(a, a) for a in argv]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() and not any(folder.iterdir())


@pytest.mark.parametrize(
    "argv, answers",
    [
        pytest.param([*PLAN, "--help-policy", "fail-on-help"], None, id="distributed-fail-on-help"),
        pytest.param([*CENTRALIZED, "--help-policy", "fail-on-help"], None, id="centralized-fail-on-help"),
        pytest.param([*PLAN, "--help-policy", "interactive-user"], "x\n0\n99\n", id="aborted-interactive"),
    ],
)
def test_a_planning_failure_exits_1(tmp_path, monkeypatch, argv, answers):
    """fail-on-help writes the failed trace, its last help event unresolved;
    an interactive session aborted by three invalid answers writes none."""
    doc, out = tmp_path / "doc.json", tmp_path / "out"
    doc.write_text(json.dumps(SCENARIO))
    monkeypatch.setattr("sys.stdin", io.StringIO(answers or ""))
    assert main([{"DOC": str(doc), "OUT": str(out)}.get(a, a) for a in argv]) == 1
    if answers:
        assert not out.exists()
    else:
        trace = json.loads(out.read_text())
        assert trace["failed"] is True
        assert trace["records"][-1]["help"][0]["unresolved"] is True


def test_coverage_cli_writes_metrics_and_is_deterministic(tmp_path, capsys):
    config = write_config(tmp_path, n_trials=4)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["coverage", "--config", str(config), "--out", str(out_a)]) == 0
    first = capsys.readouterr().out
    assert main(["coverage", "--config", str(config), "--out", str(out_b)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert (out_a / "coverage.csv").read_bytes() == (out_b / "coverage.csv").read_bytes()
    rows = json.loads(first)
    assert {r["alpha"] for r in rows} == {0.1, 0.3}


def test_coverage_cli_refuses_a_checkpoint_of_another_config(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path, n_trials=2)
    assert main(["coverage", "--config", str(config), "--out", str(out)]) == 0
    other = write_config(tmp_path, n_trials=2, alphas=(0.2,))
    assert main(["coverage", "--config", str(other), "--out", str(out)]) == 2
    assert "another experiment config" in capsys.readouterr().err


def test_coverage_cli_refuses_a_checkpoint_of_another_law_version(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    config = write_config(tmp_path, n_trials=2)
    assert main(["coverage", "--config", str(config), "--out", str(out)]) == 0
    before = (out / "trials.jsonl").read_bytes()
    monkeypatch.setattr(harness, "LAW_VERSION", harness.LAW_VERSION + 1)
    more = write_config(tmp_path, n_trials=3)
    assert main(["coverage", "--config", str(more), "--out", str(out)]) == 2
    assert "another experiment config" in capsys.readouterr().err
    assert (out / "trials.jsonl").read_bytes() == before


def test_coverage_cli_csv_format(tmp_path, capsys):
    config = write_config(tmp_path, n_trials=2, alphas=(0.2,))
    assert main(["coverage", "--config", str(config), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("alpha,mode,trials,coverage")


def test_csv_on_stdout_is_the_metrics_file(tmp_path, capsys):
    config = write_config(tmp_path, n_trials=2, alphas=(0.1, 0.2))
    out = tmp_path / "out"
    assert main(["coverage", "--config", str(config), "--format", "csv", "--out", str(out)]) == 0
    assert capsys.readouterr().out.encode() == (out / "coverage.csv").read_bytes()


@pytest.mark.parametrize("command", ["coverage", "compare", "dataset-conditional"])
def test_zero_trials_on_the_command_line_is_a_config_error(tmp_path, capsys, command):
    """--trials 0 overrides the config's n_trials, and is then refused."""
    config = write_config(tmp_path, n_trials=2)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--trials", "0", "--out", str(out)]) == 2
    assert "n_trials and m_calibration must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_coverage_cli_refuses_a_worker_count_below_one(tmp_path, capsys, jobs):
    config = write_config(tmp_path, n_trials=2)
    out = tmp_path / "out"
    assert main(["coverage", "--config", str(config), "--jobs", jobs, "--out", str(out)]) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-scenarios", "--count", "1"],
        ["calibrate", "--m", "2"],
        ["plan", "--scenario", "scenarios.json", "--quantile", "0.9"],
    ],
    ids=lambda argv: argv[0],
)
def test_only_the_experiment_commands_take_a_format(tmp_path, capsys, argv):
    """--format sets how an experiment prints its metrics; the other
    commands print none, and refuse it as argparse does any unknown flag."""
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--format", "csv", "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_cli_budget_error(tmp_path):
    config = write_config(
        tmp_path,
        n_trials=1,
        alphas=(0.2,),
        m_calibration=5,
        centralized_budget=3,
        params=tiny_config().params.__class__(
            n_robots=(2, 2),
            n_subtasks=(1, 1),
            n_objects=(2, 2),
            n_containers=(0, 0),
            n_destinations=(1, 1),
            safety_prob=0.0,
            rng_seed=9,
        ),
    )
    assert main(["compare", "--config", str(config)]) == 4


@pytest.mark.parametrize("budget", [0, -4])
def test_compare_cli_refuses_a_centralized_budget_below_one(tmp_path, capsys, budget):
    """A config error (exit 2) at load, not a budget error after calibrating."""
    config = write_config(tmp_path, centralized_budget=budget)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 2
    assert "centralized budget must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_compare_cli_under_fail_on_help_exits_0(tmp_path, capsys):
    config = write_config(tmp_path, n_trials=3, help_policy="fail-on-help")
    assert main(["compare", "--config", str(config)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {(r["alpha"], r["mode"]) for r in rows} == {
        (a, m) for a in (0.1, 0.3) for m in ("centralized", "distributed")
    }
    assert min(r["success_rate"] for r in rows) < 1.0


def test_dataset_conditional_cli(tmp_path, capsys):
    config = write_config(tmp_path, n_trials=4, alphas=(0.2,), m_calibration=20)
    assert main(["dataset-conditional", "--config", str(config), "--delta", "0.2"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["mode"] == "dataset-conditional"


def test_external_scorer_without_key_exits_3(tmp_path, monkeypatch):
    monkeypatch.delenv("CONFPLAN_API_KEY", raising=False)
    params = write_params(tmp_path)
    scen_path = tmp_path / "scenarios.json"
    main(["gen-scenarios", "--params", str(params), "--count", "1", "--out", str(scen_path)])
    code = main(
        [
            "plan",
            "--scenario",
            str(scen_path),
            "--quantile",
            "0.9",
            "--scorer",
            "external:base_url=http://localhost:9,model=m",
        ]
    )
    assert code == 3


@pytest.mark.parametrize("scorer", ["noisy-oracle:beta=nan", "noisy-oracle:sigma=inf", "json"])
def test_plan_refuses_a_non_finite_scorer_parameter(tmp_path, capsys, scorer):
    """At the parent `beta=nan` planned on NaN scores and `sigma=inf` on NaN
    after a RuntimeWarning, both with exit 0 and a trace written."""
    params = write_params(tmp_path)
    scen_path = tmp_path / "scenarios.json"
    main(["gen-scenarios", "--params", str(params), "--count", "1", "--out", str(scen_path)])
    if scorer == "json":
        scorer = str(tmp_path / "scorer.json")
        (tmp_path / "scorer.json").write_text('{"kind": "noisy-oracle", "sharpness": NaN}')
    out = tmp_path / "trace.json"
    argv = ["plan", "--scenario", str(scen_path), "--quantile", "0.9", "--scorer", scorer]
    assert main(argv + ["--out", str(out)]) == 2
    assert "scorer parameters out of range" in capsys.readouterr().err
    assert not out.exists()


def test_importing_the_cli_loads_no_executor():
    """A serial run needs no worker processes or threads: `multiprocessing`
    (with `socket` and `subprocess`) loads only for `--jobs` above 1, and a
    thread pool only for the external scorer."""
    src = os.path.dirname(os.path.dirname(confplan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, confplan.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_plan_refuses_a_misspelt_extraction_before_any_request(tmp_path, monkeypatch, capsys):
    """The endpoint has one extraction rule and no field to choose it, so an
    `extraction` key, whatever its value, is an unknown field at load."""
    import requests

    monkeypatch.setenv("CONFPLAN_API_KEY", "token")
    posted = []
    monkeypatch.setattr(requests, "post", lambda *args, **kwargs: posted.append(args))
    params = write_params(tmp_path)
    scen_path = tmp_path / "scenarios.json"
    main(["gen-scenarios", "--params", str(params), "--count", "1", "--out", str(scen_path)])
    code = main(
        [
            "plan",
            "--scenario",
            str(scen_path),
            "--quantile",
            "0.9",
            "--scorer",
            "external:base_url=http://localhost:9,model=m,extraction=token-logprob",
        ]
    )
    assert code == 2 and posted == []
    assert "no field extraction" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
def test_calibrate_refuses_alpha_before_any_request(tmp_path, monkeypatch, capsys, alpha):
    """The alpha check comes before labeling. Made after it, every label of
    the calibration set paid its scorer requests before the refusal."""
    import requests

    monkeypatch.setenv("CONFPLAN_API_KEY", "token")
    posted = []

    def post(url, headers=None, json=None, timeout=None):
        posted.append(json)
        resp = requests.models.Response()
        resp.status_code = 200
        resp._content = b'{"choices": [{"logprobs": {"content": [{"logprob": -1.0}]}}]}'
        return resp

    monkeypatch.setattr(requests, "post", post)
    out = tmp_path / "cal"
    scorer = "external:base_url=http://localhost:9,model=m,max_concurrency=1"
    argv = ["calibrate", "--params", str(write_params(tmp_path)), "--m", "30", "--alpha", alpha]
    assert main(argv + ["--scorer", scorer, "--out", str(out)]) == 2
    assert posted == [] and not out.exists()
    assert "alpha must be in (0, 1)" in capsys.readouterr().err


def test_external_http_error_with_html_body_exits_3(tmp_path, monkeypatch):
    from tests.test_scoring import fake_requests_post

    monkeypatch.setenv("CONFPLAN_API_KEY", "token")
    fake_requests_post(monkeypatch, 502, b"<html><body>502 Bad Gateway</body></html>")
    params = write_params(tmp_path)
    scen_path = tmp_path / "scenarios.json"
    main(["gen-scenarios", "--params", str(params), "--count", "1", "--out", str(scen_path)])
    code = main(
        [
            "plan",
            "--scenario",
            str(scen_path),
            "--quantile",
            "0.9",
            "--scorer",
            "external:base_url=http://localhost:9,model=m",
        ]
    )
    assert code == 3
