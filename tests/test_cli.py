import io
import json

import pytest

from confplan.cli import main
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
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n" * 64))
    code = main(
        [
            "plan",
            "--scenario",
            str(scen_path),
            "--quantile",
            "0.99",
            "--scorer",
            "noisy-oracle:beta=0.5,sigma=0.1,eps=0",
            "--interactive",
            "--out",
            str(tmp_path / "trace.json"),
        ]
    )
    assert code == 0


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


def test_missing_config_file_exits_2(tmp_path):
    assert main(["coverage", "--config", str(tmp_path / "missing.json")]) == 2


def _config(**changes):
    return {**config_to_dict(tiny_config()), **changes}


SCENARIO = scenario_to_dict(sample_scenario(DistributionParams(), 0))

# "DOC" is replaced by the document's path and "OUT" by an output path
COVERAGE = ["coverage", "--config", "DOC", "--out", "OUT"]
PLAN = ["plan", "--scenario", "DOC", "--quantile", "0.9", "--out", "OUT"]


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
        pytest.param(_config(), [*COVERAGE, "--seed", "-1"], id="negative-seed-flag"),
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
    ],
)
def test_a_malformed_document_is_a_config_error(tmp_path, document, argv):
    """Refused with exit 2 before any output is written."""
    doc, out = tmp_path / "doc.json", tmp_path / "out"
    doc.write_text(json.dumps(document))
    assert main([{"DOC": str(doc), "OUT": str(out)}.get(a, a) for a in argv]) == 2
    assert not out.exists()


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


def test_coverage_cli_csv_format(tmp_path, capsys):
    config = write_config(tmp_path, n_trials=2, alphas=(0.2,))
    assert main(["coverage", "--config", str(config), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("alpha,mode,trials,coverage")


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
