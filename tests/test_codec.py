"""The dataclass codec (`world.to_data` / `world.from_data`) against the
hand-written encoders it replaced, kept here as the reference: every document
must serialize to the same dict, so files and checkpoint stamps stay
byte-identical, and decode back to an equal object."""

import dataclasses
import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.workloads import WORKLOADS
from confplan.conformal import Quantile
from confplan.errors import ConfigError
from confplan.harness import (
    LAW_VERSION,
    ExperimentConfig,
    _config_stamp,
    config_from_dict,
    config_to_dict,
)
from confplan.planner import (
    IterationRecord,
    PlannerConfig,
    plan_centralized,
    plan_distributed,
    trace_to_dict,
)
from confplan.scenario import (
    DistributionParams,
    decision_space,
    default_distribution_params,
    params_from_dict,
    params_to_dict,
    reference_distribution_params,
    sample_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from confplan.scoring import (
    EndpointConfig,
    ScorerSpec,
    build_scorer,
    parse_scorer_spec,
    scorer_spec_from_dict,
    scorer_spec_to_dict,
)
from confplan.world import from_data
from tests.test_scenario import accepted_params

# --- reference encoders: the hand-written pairs the codec replaced ----------------


def ref_params_to_dict(params):
    return {
        "schema_version": params.schema_version,
        "n_robots": list(params.n_robots),
        "n_subtasks": list(params.n_subtasks),
        "n_objects": list(params.n_objects),
        "n_containers": list(params.n_containers),
        "n_destinations": list(params.n_destinations),
        "enclosure_prob": params.enclosure_prob,
        "n_enclosed": None if params.n_enclosed is None else list(params.n_enclosed),
        "safety_prob": params.safety_prob,
        "multi_destination_prob": params.multi_destination_prob,
        "horizon_slack": params.horizon_slack,
        "object_labels": list(params.object_labels),
        "container_labels": list(params.container_labels),
        "destination_labels": list(params.destination_labels),
        "rng_seed": params.rng_seed,
    }


def ref_scorer_spec_to_dict(spec):
    data = {
        "kind": spec.kind,
        "sharpness": spec.sharpness,
        "noise": spec.noise,
        "confusion": spec.confusion,
        "rng_seed": spec.rng_seed,
    }
    if spec.endpoint is not None:
        data["endpoint"] = {
            "base_url": spec.endpoint.base_url,
            "model": spec.endpoint.model,
            "api_key_env": spec.endpoint.api_key_env,
            "timeout": spec.endpoint.timeout,
            "max_concurrency": spec.endpoint.max_concurrency,
            "extraction": spec.endpoint.extraction,
        }
    return data


def ref_config_to_dict(cfg):
    return {
        "schema_version": 1,
        "params": ref_params_to_dict(cfg.params),
        "scorer": ref_scorer_spec_to_dict(cfg.scorer),
        "alphas": list(cfg.alphas),
        "m_calibration": cfg.m_calibration,
        "n_trials": cfg.n_trials,
        "reorder_bound": cfg.reorder_bound,
        "help_policy": cfg.help_policy,
        "label_mode": cfg.label_mode,
        "master_seed": cfg.master_seed,
        "centralized_budget": cfg.centralized_budget,
    }


def ref_environment_to_dict(env):
    return {
        "schema_version": 1,
        "locations": [{"id": l.id, "label": l.label, "kind": l.kind} for l in env.locations],
        "objects": [
            {"id": o.id, "label": o.label, "at": o.at, "inside": o.inside} for o in env.objects
        ],
        "containers": [
            {"id": c.id, "label": c.label, "at": c.at, "door": c.door} for c in env.containers
        ],
        "robot_start": list(env.robot_start),
    }


def ref_mission_to_dict(mission):
    return {
        "subtasks": [
            {"object_label": sub.object_label, "destinations": list(sub.destinations)}
            for sub in mission.subtasks
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


def ref_scenario_to_dict(scenario):
    return {
        "schema_version": 1,
        "id": scenario.id,
        "n_robots": scenario.n_robots,
        "skills": list(scenario.skills),
        "mission": ref_mission_to_dict(scenario.mission),
        "horizon": scenario.horizon,
        "env": ref_environment_to_dict(scenario.env),
        "order_seed": scenario.order_seed,
        "decision_space_size": len(decision_space(scenario.env)),
    }


def ref_plan_to_dict(plan):
    return [[{"kind": d.kind, "target": d.target} for d in jd] for jd in plan]


def ref_help_to_dict(h):
    return {
        "kind": h.kind,
        "t": h.t,
        "robot": h.robot,
        "presented_indices": list(h.presented_indices),
        "presented_scores": list(h.presented_scores),
        "full_set": h.full_set,
        "resolution_index": h.resolution_index,
        "coverage_miss": h.coverage_miss,
        "unresolved": h.unresolved,
    }


def ref_trace_to_dict(trace):
    records = []
    for r in trace.records:
        if isinstance(r, IterationRecord):
            records.append(
                {
                    "k": r.k,
                    "t": r.t,
                    "robot": r.robot,
                    "order": list(r.order),
                    "set_indices": list(r.set_indices),
                    "set_size": r.set_size,
                    "set_full": r.set_full,
                    "chosen_index": r.chosen_index,
                    "help": [ref_help_to_dict(h) for h in r.help],
                }
            )
        else:
            records.append(
                {
                    "t": r.t,
                    "set_size": r.set_size,
                    "set_full": r.set_full,
                    "chosen_tuple": None if r.chosen_tuple is None else list(r.chosen_tuple),
                    "help": [ref_help_to_dict(h) for h in r.help],
                }
            )
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
        "plan": ref_plan_to_dict(trace.plan),
        "records": records,
    }


# --- strategies ---------------------------------------------------------------------

names = st.text("abcxyz-", min_size=1, max_size=8)

endpoints = st.builds(
    EndpointConfig,
    base_url=names.map(lambda s: f"http://localhost:9/{s}"),
    model=names,
    api_key_env=names,
    timeout=st.floats(0.1, 100),
    max_concurrency=st.integers(1, 8),
    extraction=st.sampled_from(("token-logprob", "numeric-answer")),
)

scorer_specs = st.one_of(
    st.builds(
        ScorerSpec,
        kind=st.sampled_from(("noisy-oracle", "oracle-indicator")),
        sharpness=st.floats(0, 10),
        noise=st.floats(0, 3),
        confusion=st.floats(0, 0.99),
        rng_seed=st.integers(0, 2**40),
    ),
    st.builds(ScorerSpec, kind=st.just("external"), endpoint=endpoints),
)

configs = st.builds(
    ExperimentConfig,
    params=accepted_params(),
    scorer=scorer_specs,
    alphas=st.lists(st.sampled_from((0.05, 0.1, 0.2, 0.3)), min_size=1, unique=True).map(tuple),
    m_calibration=st.integers(1, 200),
    n_trials=st.integers(1, 500),
    reorder_bound=st.integers(0, 3),
    help_policy=st.sampled_from(("oracle-user", "fail-on-help")),
    label_mode=st.sampled_from(("oracle", "selector")),
    master_seed=st.none() | st.integers(0, 2**40),
    centralized_budget=st.integers(1, 10**5),
)


# --- parity -------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(params=accepted_params())
def test_params_dict_matches_the_reference(params):
    assert params_to_dict(params) == ref_params_to_dict(params)
    assert params_from_dict(params_to_dict(params)) == params


@settings(max_examples=60, deadline=None)
@given(spec=scorer_specs)
def test_scorer_spec_dict_matches_the_reference(spec):
    assert scorer_spec_to_dict(spec) == ref_scorer_spec_to_dict(spec)
    assert scorer_spec_from_dict(scorer_spec_to_dict(spec)) == spec


@settings(max_examples=60, deadline=None)
@given(cfg=configs)
def test_config_dict_matches_the_reference(cfg):
    assert config_to_dict(cfg) == ref_config_to_dict(cfg)
    assert config_from_dict(config_to_dict(cfg)) == cfg


@pytest.mark.parametrize("profile", [default_distribution_params, reference_distribution_params])
def test_scenario_dict_matches_the_reference(profile):
    for draw in range(12):
        s = sample_scenario(profile(5), draw)
        assert scenario_to_dict(s) == ref_scenario_to_dict(s)
        assert scenario_from_dict(scenario_to_dict(s)) == s


def test_trace_dicts_match_the_reference():
    params = dataclasses.replace(default_distribution_params(3), n_robots=(2, 2))
    scenario = sample_scenario(params, 1)
    scorer = build_scorer(ScorerSpec())
    cfg = PlannerConfig(reorder_bound=1)
    distributed = plan_distributed(scenario, scorer, Quantile(0.9, 19, 0.1), cfg)
    centralized = plan_centralized(scenario, scorer, Quantile(0.5, 19, 0.1), cfg)
    assert any(r.help for r in distributed.records)
    assert any(r.set_tuples for r in centralized.records)
    for trace in (distributed, centralized):
        assert trace_to_dict(trace) == ref_trace_to_dict(trace)


# --- checkpoint stamps, as written since LAW_VERSION entered them --------------------

EXTERNAL = ScorerSpec(
    kind="external", endpoint=EndpointConfig("http://localhost:9/v1", "m", max_concurrency=2)
)

STAMPS = {
    "coverage-oracle": "fc8244a8bfd9f17497978103e0557ed65745728ceb963a3c20e7ce5404c5e84c",
    "coverage-selector": "f3d5423d89a729dc59e6ff8513c3e7098ff64c94e62699f45d80ef840e3f8f3c",
    "compare-reference": "dcd8969ac31c84a18ce4101fabe9dd9d0323dcb92dd2f0ad36404585ccb257d2",
    "dataset-conditional": "0df043939b4159fb1da0aff1e9d4ea7df9e84a0495b39e2e83ef0364bdc0a181",
    "external": "8744f2b84636cd3f6671bcbfb3ab15c6fffc9017bdf8980264c8aa11b258bbed",
}

# The law version and the sha256 of the digests recorded under it. A change that
# re-records a digest bumps LAW_VERSION, so no checkpoint resumes across it, and
# re-pins this pair.
LAW = (1, "93d98d048a477ebf8a4bd4a262198528f89bcc81b9a003a4bbb584ef5a380c5f")


@pytest.mark.parametrize("name", sorted(STAMPS))
def test_config_stamps_are_unchanged(name):
    if name == "external":
        base = WORKLOADS["coverage-oracle"](7).cfg
        cfg = dataclasses.replace(base, master_seed=None, scorer=EXTERNAL)
    else:
        cfg = WORKLOADS[name](7).cfg
    assert _config_stamp(cfg) == STAMPS[name]


def test_the_law_version_moves_with_the_recorded_digests():
    digests = Path(__file__).resolve().parent.parent / "benchmarks" / "digests.json"
    assert (LAW_VERSION, hashlib.sha256(digests.read_bytes()).hexdigest()) == LAW


# --- decoding rule ------------------------------------------------------------------

MINIMAL = {"params": {}, "scorer": {}}


def test_a_partial_document_takes_the_dataclass_defaults():
    cfg = config_from_dict({"params": {"n_robots": [1, 1]}, "scorer": {"noise": 0}})
    assert cfg == ExperimentConfig(
        params=DistributionParams(n_robots=(1, 1)), scorer=ScorerSpec(noise=0.0)
    )
    assert isinstance(cfg.scorer.noise, float)


@pytest.mark.parametrize(
    "cls, data, error",
    [
        (DistributionParams, {"n_robot": [3, 3]}, ConfigError),
        (ExperimentConfig, {"params": {}}, TypeError),  # no scorer, which has no default
        (DistributionParams, [1, 2], TypeError),
        (DistributionParams, {"n_robots": [1, 2, 3]}, TypeError),
        (DistributionParams, {"object_labels": "apple"}, TypeError),
        (DistributionParams, {"rng_seed": "three"}, ValueError),
        # int() and float() would truncate a fraction and read a boolean as 0 or 1
        (ExperimentConfig, {**MINIMAL, "n_trials": 2.7}, TypeError),
        (ExperimentConfig, {**MINIMAL, "m_calibration": 30.9}, TypeError),
        (DistributionParams, {"n_robots": [1.9, 2.2]}, TypeError),
        (ExperimentConfig, {**MINIMAL, "master_seed": True}, TypeError),
        (ExperimentConfig, {**MINIMAL, "alphas": [0.1, False]}, TypeError),
        (ScorerSpec, {"noise": True}, TypeError),
        (ScorerSpec, {"rng_seed": False}, TypeError),
        # version 1 is the only one this code reads, at any depth
        (ExperimentConfig, {**MINIMAL, "schema_version": 2}, ConfigError),
        (ExperimentConfig, {**MINIMAL, "params": {"schema_version": 42}}, ConfigError),
        (ExperimentConfig, {**MINIMAL, "schema_version": True}, TypeError),
        (ScorerSpec, {"schema_version": 1.5}, TypeError),
    ],
)
def test_from_data_refuses_what_it_cannot_decode(cls, data, error):
    with pytest.raises(error):
        from_data(cls, data)


def test_integral_numbers_and_numeric_strings_still_decode():
    cfg = from_data(
        ExperimentConfig, {**MINIMAL, "n_trials": 3.0, "master_seed": 2, "schema_version": 1.0}
    )
    assert (cfg.n_trials, cfg.master_seed) == (3, 2) and isinstance(cfg.n_trials, int)
    assert from_data(ScorerSpec, {"noise": 1, "rng_seed": "7"}) == ScorerSpec(noise=1.0, rng_seed=7)
    # the CLI's scorer string passes every value as text
    assert parse_scorer_spec("noisy-oracle:seed=7,sigma=0.5") == ScorerSpec(noise=0.5, rng_seed=7)
