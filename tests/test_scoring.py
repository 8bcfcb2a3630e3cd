import dataclasses
import json
import math
import pickle
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confplan import scoring
from confplan.context import advance, initial_context, render_text
from confplan.errors import AuthError, ConfigError, MalformedResponseError, TransportError
from confplan.scenario import (
    Scenario,
    decision_index,
    decision_space,
    default_distribution_params,
    reference_distribution_params,
    sample_scenario,
    anchor_decision,
)
from confplan.scoring import (
    EndpointConfig,
    ExternalScorer,
    ScorerSpec,
    _scenario_key,
    build_scorer,
    parse_scorer_spec,
    scorer_spec_from_dict,
    scorer_spec_to_dict,
    softmax,
)
from confplan.world import (
    ACTION_KINDS,
    IDLE_DECISION,
    Environment,
    Location,
    Mission,
    OBJECT_SITE,
    SemanticObject,
)


@pytest.fixture(scope="module")
def nine_scenario():
    params = dataclasses.replace(
        default_distribution_params(17),
        n_robots=(1, 1),
        n_subtasks=(1, 1),
        n_objects=(2, 2),
        n_containers=(1, 1),
        n_destinations=(1, 1),
        enclosure_prob=0.0,
        safety_prob=0.0,
    )
    s = sample_scenario(params, 0)
    assert len(decision_space(s.env)) == 9
    return s


def test_softmax_shift_invariance():
    raw = np.array([0.3, -1.2, 4.0, 0.0])
    a = softmax(raw)
    b = softmax(raw + 123.456)
    assert np.max(np.abs(a - b)) < 1e-12
    assert abs(a.sum() - 1.0) < 1e-12


def hexes(values) -> list[str]:
    return [float(x).hex() for x in values]


def external_scenario(size: int):
    """A scenario whose decision space has `size` entries (3, 5, 9 or 28)."""
    if size == 28:
        return sample_scenario(reference_distribution_params(5), 0)
    return loose_object_scenario((size - 1) // 2)


@pytest.mark.parametrize(
    "raw",
    [
        np.random.default_rng(3).normal(size=9),
        np.random.default_rng(4).normal(0.0, 50.0, size=28),
        [0.0, -0.0, 5e-324, 1e300, -1e300],
        [1, 2, 3],
    ],
)
def test_external_scores_are_bitwise_the_softmax_of_the_logprobs(monkeypatch, raw):
    monkeypatch.setenv("CONFPLAN_API_KEY", "token")
    replies = iter(raw)

    def transport(url, headers, payload, timeout):
        return 200, {"choices": [{"logprobs": {"content": [{"logprob": next(replies)}]}}]}

    s = external_scenario(len(raw))
    assert len(decision_space(s.env)) == len(raw)
    scores = ExternalScorer(_external_spec(), transport=transport).score_all(initial_context(s))
    want = softmax(np.asarray(raw, dtype=np.float64))
    assert type(scores) is tuple and all(type(x) is float for x in scores)
    assert hexes(scores) == hexes(want)


def method_softmax(raw) -> np.ndarray:
    """Reference: softmax through the `.max()` and `.sum()` methods."""
    arr = np.asarray(raw, dtype=np.float64)
    exp = np.exp(arr - arr.max())
    return exp / exp.sum()


def test_softmax_is_bitwise_the_method_reductions():
    rng = np.random.default_rng(20261018)
    cases = [rng.normal(0.0, scale, size=n) for n in range(1, 61) for scale in (1.0, 40.0)]
    cases += [rng.integers(-3, 4, size=n).astype(float) for n in range(1, 61)]  # ties
    cases += [[2.5] * 7, [1e300, -1e300, 0.0], [1e308, 1e308], [-745.0, 0.0, 709.0], [5e-324]]
    cases += [rng.normal(0.0, 1.0, size=28) + offset for offset in (1e6, -1e12, 1e15)]
    for raw in cases:
        got, want = softmax(raw), method_softmax(raw)
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]


def test_uniform_raw_scores_normalize_uniformly():
    assert all(abs(s - 1 / 7) < 1e-12 for s in softmax([2.5] * 7))


def test_oracle_indicator_softmax_closed_form(nine_scenario):
    scorer = build_scorer(ScorerSpec(kind="oracle-indicator"))
    ctx = initial_context(nine_scenario)
    vec = scorer.score_all(ctx)
    top = math.e / (math.e + 8)
    rest = 1 / (math.e + 8)
    anchor = anchor_decision(nine_scenario, 0, ctx.cursor[1])
    aidx = decision_index(nine_scenario.env)[anchor]
    assert abs(vec[aidx] - top) < 1e-12
    assert all(abs(vec[i] - rest) < 1e-12 for i in range(9) if i != aidx)
    # the values the closed form evaluates to
    assert abs(top - 0.2534) < 3e-4 and abs(rest - 0.0933) < 1e-4
    assert abs(sum(vec) - 1.0) < 1e-9


def table_raw(table) -> np.ndarray:
    """The raw matrix a table's `probs` are the softmax of, rebuilt from the
    draws it keeps."""
    return scoring._raw_rows(table.spec, table.anchors, table.positions, table.noise, table.size)


def test_noisy_oracle_noise_free_raw_is_indicator_times_sharpness(nine_scenario):
    scorer = build_scorer(ScorerSpec(kind="noisy-oracle", sharpness=4.0, noise=0.0, confusion=0.0))
    (table,) = scorer.score_tables([nine_scenario])
    assert sorted(table_raw(table)[0].tolist()) == [0.0] * 8 + [4.0]


def test_noisy_oracle_sharpness_limit_approaches_one_hot(nine_scenario):
    scorer = build_scorer(ScorerSpec(kind="noisy-oracle", sharpness=60.0, noise=0.0, confusion=0.0))
    vec = scorer.score_all(initial_context(nine_scenario))
    assert max(vec) > 1.0 - 1e-12


def test_noisy_oracle_seeds_exactly_one_distractor(nine_scenario):
    spec = ScorerSpec(kind="noisy-oracle", sharpness=4.0, noise=0.0, confusion=0.15)
    (table,) = build_scorer(spec).score_tables([nine_scenario])
    raw = table_raw(table)[0].tolist()
    expected = 4.0 + math.log(0.15)
    boosted = [r for r in raw if abs(r - expected) < 1e-12]
    assert len(boosted) == 1
    assert sorted(raw)[-1] == 4.0  # the truth still outranks the distractor


def test_noise_streams_are_keyed_by_iteration(nine_scenario):
    spec = ScorerSpec(kind="noisy-oracle", sharpness=0.0, noise=1.0, confusion=0.0, rng_seed=3)
    scorer = build_scorer(spec)
    ctx0 = initial_context(nine_scenario)
    ctx1 = advance(ctx0, IDLE_DECISION)
    (table,) = scorer.score_tables([nine_scenario])
    assert (ctx0.k, ctx1.k) == (0, 1)
    raw = table_raw(table)
    assert raw[0].tolist() != raw[1].tolist()
    assert scorer.score_all(ctx0) != scorer.score_all(ctx1)


def tuple_seeded_raw(spec: ScorerSpec, ctx, space) -> np.ndarray:
    """Reference: the noisy-oracle raw vector with its draws seeded from the
    key tuple (rng_seed, scenario key, k)."""
    t, robot = ctx.cursor
    anchor_idx = decision_index(ctx.scenario.env)[anchor_decision(ctx.scenario, t, robot)]
    raw = np.zeros(len(space), dtype=np.float64)
    raw[anchor_idx] = spec.sharpness
    rng = np.random.default_rng(
        np.random.SeedSequence((spec.rng_seed, _scenario_key(ctx.scenario.id), ctx.k))
    )
    if len(space) > 1:
        pos = int(rng.integers(len(space) - 1))
        distractor = pos if pos < anchor_idx else pos + 1
        if spec.confusion > 0.0:
            raw[distractor] += spec.sharpness + math.log(spec.confusion)
    if spec.noise > 0.0:
        raw += rng.normal(0.0, spec.noise, size=len(space))
    return raw


@pytest.mark.parametrize("rng_seed", [0, 11, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 3])
def test_score_vectors_are_bitwise_the_tuple_seeded_ones(rng_seed):
    spec = ScorerSpec(kind="noisy-oracle", rng_seed=rng_seed)
    scorer = build_scorer(spec)
    for params in (default_distribution_params(4), reference_distribution_params(5)):
        for draw in range(3):
            s = sample_scenario(params, draw)
            space = decision_space(s.env)
            ctx = initial_context(s)
            while ctx.cursor is not None:
                vec = scorer.score_all(ctx)
                ref = tuple_seeded_raw(spec, ctx, space)
                (table,) = scorer.score_tables([s])
                assert hexes(table_raw(table)[ctx.k]) == hexes(ref)
                assert hexes(vec) == hexes(softmax(ref))
                t, robot = ctx.cursor
                ctx = advance(ctx, anchor_decision(s, t, robot))


def scheduled_contexts(s):
    """Each iteration k's context on the scheduled path, cursor on the
    scheduled robot."""
    contexts = []
    ctx = initial_context(s)
    while ctx.cursor is not None:
        contexts.append(ctx)
        t, robot = ctx.cursor
        ctx = advance(ctx, anchor_decision(s, t, robot))
    return contexts


def every_key(s):
    """Per iteration k, a context for every robot at k, the scheduled robot
    first: the keys reorders and step-start joint scoring reach too."""
    out = []
    for ctx in scheduled_contexts(s):
        t, scheduled = ctx.cursor
        others = [r for r in range(s.n_robots) if r != scheduled]
        out.append([dataclasses.replace(ctx, cursor=(t, r)) for r in [scheduled, *others]])
    return out


def assert_tuple_seeded(scorer, spec, ctx):
    """The scores of ctx are bitwise the softmax of the tuple-seeded raw
    vector. The raw rows of the schedule's own robots, built from the table's
    draws, must be bitwise the reference too; any other robot's row is built
    from row k's draws, which must be the tuple-seeded ones."""
    space = decision_space(ctx.scenario.env)
    ref = tuple_seeded_raw(spec, ctx, space)
    assert hexes(scorer.score_all(ctx)) == hexes(softmax(ref))
    (table,) = scorer.score_tables([ctx.scenario])
    t, robot = ctx.cursor
    if table.robots[ctx.k] == robot:
        assert hexes(table_raw(table)[ctx.k]) == hexes(ref)
    rng = np.random.default_rng(
        np.random.SeedSequence((spec.rng_seed, _scenario_key(ctx.scenario.id), ctx.k))
    )
    if len(space) > 1:
        assert table.positions[ctx.k] == int(rng.integers(len(space) - 1))
    if spec.noise > 0.0:
        assert hexes(table.noise[ctx.k]) == hexes(rng.normal(0.0, spec.noise, size=len(space)))


@pytest.mark.parametrize("rng_seed", [0, 2**64 - 1])
@pytest.mark.parametrize("profile", ["default", "reference"])
def test_every_key_in_any_order_is_bitwise_the_tuple_seeded_one(rng_seed, profile):
    params = (
        default_distribution_params(4) if profile == "default" else reference_distribution_params(5)
    )
    spec = ScorerSpec(kind="noisy-oracle", rng_seed=rng_seed)
    scenarios = [sample_scenario(params, draw) for draw in range(4)]
    assert any(s.n_robots > 1 for s in scenarios)
    for s in scenarios:
        keys = every_key(s)
        # the schedule's order, then k reversed, each on a fresh scorer
        for order in (keys, keys[::-1]):
            scorer = build_scorer(spec)
            for step in order:
                for ctx in step:
                    assert_tuple_seeded(scorer, spec, ctx)
    # off-schedule robots first, two scenarios interleaved on one scorer
    for a, b in zip(scenarios[::2], scenarios[1::2]):
        scorer = build_scorer(spec)
        steps_a, steps_b = every_key(a), every_key(b)
        for k in range(max(len(steps_a), len(steps_b))):
            for steps in (steps_a, steps_b):
                if k < len(steps):
                    scheduled, *others = steps[k]
                    for ctx in [*others, scheduled]:
                        assert_tuple_seeded(scorer, spec, ctx)


def rows_with_edges(rng, size: int) -> np.ndarray:
    rows = [rng.normal(0.0, scale, size=size) for scale in (1.0, 40.0, 1e-3)]
    rows.append(rng.integers(-3, 4, size=size).astype(float))  # ties
    edges = [-0.0, 1e300, -1e300, 0.0, 2.5, 2.5]
    for shift in range(len(edges)):
        rows.append(np.resize(np.roll(edges, shift), size))
    equal_max = rng.normal(0.0, 1.0, size=size)
    equal_max[::3] = 7.0  # equal maxima
    rows.append(equal_max)
    rows.append(np.full(size, -0.0))
    return np.array(rows)


@pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 16, 28, 127, 128, 129, 257])
def test_row_wise_softmax_is_bitwise_the_1d_softmax(size):
    raw = rows_with_edges(np.random.default_rng(size), size)
    got = softmax(raw).tolist()
    for row, want in zip(raw, got):
        assert [x.hex() for x in want] == [x.hex() for x in softmax(row).tolist()]


def test_a_scorer_refuses_a_second_scenario_under_one_id():
    spec = ScorerSpec(kind="noisy-oracle", rng_seed=7)
    params = dataclasses.replace(default_distribution_params(4), n_robots=(1, 1))
    a = sample_scenario(params, 0)
    scorer = build_scorer(spec)
    for ctx in scheduled_contexts(a):
        assert_tuple_seeded(scorer, spec, ctx)
    # one robot each, so every k's vector would be keyed by robot 0
    for other in (
        dataclasses.replace(sample_scenario(params, 1), id=a.id),
        dataclasses.replace(a, horizon=a.horizon + 2),
    ):
        with pytest.raises(ValueError, match="two different scenarios"):
            scorer.score_all(initial_context(other))
        assert_tuple_seeded(build_scorer(spec), spec, initial_context(other))
        # within one batch too, before any of the batch's tables is drawn
        fresh = build_scorer(spec)
        b = sample_scenario(params, 2)
        with pytest.raises(ValueError, match="two different scenarios"):
            fresh.score_tables([b, a, other])
        assert fresh._tables == {}
    # an equal copy, as a reloaded or unpickled scenario is, shares the table
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and copy is not a
    assert scorer.score_tables([copy])[0] is scorer.score_tables([a])[0]
    for ctx in scheduled_contexts(a):
        twin = dataclasses.replace(ctx, scenario=copy)
        assert scorer.score_all(twin) == scorer.score_all(ctx)


def test_scorer_determinism_across_instances(nine_scenario):
    spec = ScorerSpec(kind="noisy-oracle", rng_seed=11)
    ctx = initial_context(nine_scenario)
    a = build_scorer(spec).score_all(ctx)
    b = build_scorer(spec).score_all(ctx)
    assert a == b


# scenarios of every profile the scorer meets, and an equal copy of the first
BATCH_POOL = [
    sample_scenario(params, draw)
    for params in (
        default_distribution_params(4),
        reference_distribution_params(5),
        dataclasses.replace(reference_distribution_params(6), n_robots=(2, 2)),
    )
    for draw in range(3)
]
BATCH_POOL.append(pickle.loads(pickle.dumps(BATCH_POOL[0])))


def table_bits(table) -> list:
    """Everything a table holds that a vector is built from, floats as hex."""
    floats = [table.probs] + ([] if table.noise is None else [table.noise])
    hexes = [[x.hex() for x in m.ravel().tolist()] for m in floats]
    return [table.positions, table.anchors, *hexes]


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["noisy-oracle", "oracle-indicator"]),
    rng_seed=st.sampled_from([0, 2**32 + 1, 2**64 - 1]),
    batch=st.lists(st.integers(0, len(BATCH_POOL) - 1), min_size=1, max_size=8),
    scored=st.lists(st.integers(0, len(BATCH_POOL) - 1), max_size=3),
)
def test_a_batched_table_is_the_table_built_alone(kind, rng_seed, batch, scored):
    """In any batch order and composition (repeats, equal copies, scenarios
    the scorer has already scored alone), each table is bit for bit the one
    a fresh scorer draws for its scenario alone."""
    spec = ScorerSpec(kind=kind, rng_seed=rng_seed)
    scorer = build_scorer(spec)
    for i in scored:
        s = BATCH_POOL[i]
        scorer.score_all(initial_context(s))
    tables = scorer.score_tables([BATCH_POOL[i] for i in batch])
    for i, table in zip(batch, tables):
        (alone,) = build_scorer(spec).score_tables([BATCH_POOL[i]])
        assert table_bits(table) == table_bits(alone)
        n = table.scenario.n_robots
        keys = [(k, k // n, robot) for k, robot in enumerate(table.robots)]
        assert [table.vector(*key) for key in keys] == [alone.vector(*key) for key in keys]


@pytest.mark.parametrize("rng_seed", [0, 2**32 + 5])
def test_keyed_draws_group_the_batch_by_entropy_word_count(monkeypatch, rng_seed):
    """Scenario keys of one and two words, in one batch, each draw the stream
    seeded from their key tuple; with rng_seed >= 2**32 a row has 5 words."""
    keys = {"one-word": 7, "edge": 2**32 - 1, "two-word": 2**32, "wide": 2**64 - 1}
    monkeypatch.setattr(scoring, "_scenario_key", keys.__getitem__)
    spec = ScorerSpec(kind="noisy-oracle", rng_seed=rng_seed)
    requests = [
        ("two-word", range(5), 9),
        ("one-word", range(3), 4),
        ("edge", [0, 7], 1),
        ("wide", range(4), 12),
        ("one-word", [2], 4),
    ]
    for (sid, ks, size), (positions, noise) in zip(requests, scoring._keyed_draws(spec, requests)):
        for row, k in enumerate(ks):
            rng = np.random.default_rng(np.random.SeedSequence((rng_seed, keys[sid], k)))
            assert positions[row] == (int(rng.integers(size - 1)) if size > 1 else 0)
            want = rng.normal(0.0, spec.noise, size=size).tolist()
            assert [x.hex() for x in noise[row].tolist()] == [x.hex() for x in want]


def test_scorer_spec_validation_and_parsing():
    with pytest.raises(ConfigError):
        ScorerSpec(kind="nope").validate()
    with pytest.raises(ConfigError):
        ScorerSpec(confusion=1.0).validate()
    spec = parse_scorer_spec("noisy-oracle:beta=4,sigma=1,eps=0.15,seed=9")
    assert spec == ScorerSpec(kind="noisy-oracle", sharpness=4.0, noise=1.0, confusion=0.15, rng_seed=9)
    assert scorer_spec_from_dict(scorer_spec_to_dict(spec)) == spec
    ext = parse_scorer_spec("external:base_url=http://x,model=m,max_concurrency=2")
    assert ext.endpoint.max_concurrency == 2
    # the smallest bounds load
    ext = parse_scorer_spec("external:base_url=http://x,model=m,max_concurrency=1,timeout=0.5")
    assert (ext.endpoint.max_concurrency, ext.endpoint.timeout) == (1, 0.5)
    assert scorer_spec_from_dict(scorer_spec_to_dict(ext)) == ext
    # endpoint keys are kept on any kind, as in a JSON spec, never dropped
    assert parse_scorer_spec("noisy-oracle:base_url=http://x,model=m").endpoint == EndpointConfig(
        "http://x", "m"
    )


@pytest.mark.parametrize(
    "text", ["beta=nan", "beta=inf", "sigma=nan", "sigma=inf", "sigma=-inf", "eps=nan"]
)
def test_a_non_finite_scorer_parameter_is_refused_at_load(text):
    """NaN slips past a `< 0` check and infinity has no upper one: `beta=nan`
    scored every decision NaN, `sigma=nan` ran noise-free and `sigma=inf`
    softmaxed infinities into NaN."""
    with pytest.raises(ConfigError):
        parse_scorer_spec(f"noisy-oracle:{text}")


@pytest.mark.parametrize("field", ["sharpness", "noise"])
@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_a_json_scorer_with_a_non_finite_parameter_is_refused(field, value):
    """Python's json reads the NaN and Infinity tokens as floats."""
    data = json.loads(f'{{"kind": "noisy-oracle", "{field}": {value}}}')
    assert not math.isfinite(data[field])
    with pytest.raises(ConfigError):
        scorer_spec_from_dict(data)


@pytest.mark.parametrize(
    "endpoint",
    [
        {"extraction": "numeric"},
        {"extraction": "Token-Logprob"},
        {"max_concurrency": 0},
        {"max_concurrency": -3},
        {"timeout": 0},
        {"timeout": -1},
        {"timeout": "nan"},
        {"base_url": ""},
        {"model": ""},
        {"api_key_env": ""},
    ],
)
def test_an_endpoint_out_of_range_is_refused_at_load(endpoint):
    items = ",".join(f"{key}={value}" for key, value in endpoint.items())
    with pytest.raises(ConfigError):
        parse_scorer_spec(f"external:base_url=http://x,model=m,{items}")
    data = {"kind": "external", "endpoint": {"base_url": "http://x", "model": "m", **endpoint}}
    with pytest.raises(ConfigError):
        scorer_spec_from_dict(data)


# --- external endpoint ----------------------------------------------------------


def loose_object_scenario(n_objects: int = 1):
    """One robot and `n_objects` loose objects at one site: 2 * n_objects + 1
    decisions (a go-to and a grab per object, and idle)."""
    labels = ("apple", "banana", "cup", "book")[:n_objects]
    env = Environment(
        locations=(Location("loc-1", "spot", OBJECT_SITE),),
        objects=tuple(
            SemanticObject(f"obj-{i}", label, "loc-1") for i, label in enumerate(labels, 1)
        ),
        containers=(),
        robot_start=("loc-1",),
    )
    assert len(decision_space(env)) == 2 * n_objects + 1
    return Scenario(
        id=f"scn-ext-{n_objects}",
        n_robots=1,
        skills=ACTION_KINDS,
        mission=Mission(()),
        horizon=1,
        env=env,
        order_seed=0,
    )


def _external_spec(**kwargs):
    endpoint = EndpointConfig(
        base_url="http://mock", model="test-model", max_concurrency=1, **kwargs
    )
    return ScorerSpec(kind="external", endpoint=endpoint)


def test_external_scorer_softmaxes_logprobs(monkeypatch):
    monkeypatch.setenv("CONFPLAN_API_KEY", "token")
    logits = [-1.0, -2.0, -3.0]
    calls = []

    def transport(url, headers, payload, timeout):
        calls.append(payload)
        value = logits[len(calls) - 1]
        return 200, {"choices": [{"logprobs": {"content": [{"logprob": value}]}}]}

    s = loose_object_scenario()
    scorer = ExternalScorer(_external_spec(), transport=transport)
    ctx = initial_context(s)
    vec = scorer.score_all(ctx)
    assert len(calls) == 3
    expected = (0.6652, 0.2447, 0.0900)
    for got, want in zip(vec, expected):
        assert abs(got - want) < 5e-5


def test_external_missing_key_fails_before_any_request(monkeypatch):
    monkeypatch.delenv("CONFPLAN_API_KEY", raising=False)
    calls = []

    def transport(url, headers, payload, timeout):
        calls.append(payload)
        return 200, {}

    s = loose_object_scenario()
    scorer = ExternalScorer(_external_spec(), transport=transport)
    ctx = initial_context(s)
    with pytest.raises(AuthError):
        scorer.score_all(ctx)
    assert calls == []


def test_external_timeout_is_all_or_nothing(monkeypatch):
    monkeypatch.setenv("CONFPLAN_API_KEY", "token")
    calls = []

    def transport(url, headers, payload, timeout):
        calls.append(payload)
        if len(calls) == 2:
            raise TransportError("timeout after 30s")
        return 200, {"choices": [{"logprobs": {"content": [{"logprob": -1.0}]}}]}

    s = loose_object_scenario()
    scorer = ExternalScorer(_external_spec(), transport=transport)
    ctx = initial_context(s)
    with pytest.raises(TransportError):
        scorer.score_all(ctx)


def test_external_auth_and_malformed_responses(monkeypatch):
    monkeypatch.setenv("CONFPLAN_API_KEY", "token")
    s = loose_object_scenario()
    ctx = initial_context(s)

    scorer = ExternalScorer(_external_spec(), transport=lambda *a: (401, {}))
    with pytest.raises(AuthError):
        scorer.score_all(ctx)

    scorer = ExternalScorer(_external_spec(), transport=lambda *a: (200, {"nope": 1}))
    with pytest.raises(MalformedResponseError):
        scorer.score_all(ctx)


def fake_requests_post(monkeypatch, status, body: bytes):
    """Route requests.post to a canned response; nothing goes on the wire."""
    import requests

    def post(url, headers=None, json=None, timeout=None):
        resp = requests.models.Response()
        resp.status_code = status
        resp._content = body
        return resp

    monkeypatch.setattr(requests, "post", post)


def test_external_http_error_with_html_body_is_a_transport_error(monkeypatch):
    monkeypatch.setenv("CONFPLAN_API_KEY", "token")
    fake_requests_post(monkeypatch, 502, b"<html><body>502 Bad Gateway</body></html>")
    s = loose_object_scenario()
    scorer = ExternalScorer(_external_spec())
    ctx = initial_context(s)
    with pytest.raises(TransportError, match="HTTP 502"):
        scorer.score_all(ctx)


def test_external_non_json_body_is_malformed(monkeypatch):
    monkeypatch.setenv("CONFPLAN_API_KEY", "token")
    fake_requests_post(monkeypatch, 200, b"<html><body>maintenance</body></html>")
    s = loose_object_scenario()
    scorer = ExternalScorer(_external_spec())
    ctx = initial_context(s)
    with pytest.raises(MalformedResponseError, match="not JSON"):
        scorer.score_all(ctx)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_external_non_finite_score_is_malformed(monkeypatch, value):
    monkeypatch.setenv("CONFPLAN_API_KEY", "token")

    def transport(url, headers, payload, timeout):
        return 200, {"choices": [{"logprobs": {"content": [{"logprob": float(value)}]}}]}

    scorer = ExternalScorer(_external_spec(), transport=transport)
    with pytest.raises(MalformedResponseError, match="non-finite"):
        scorer.score_all(initial_context(loose_object_scenario()))


def test_external_scorer_sends_the_bearer_key_to_chat_completions(monkeypatch):
    monkeypatch.setenv("CONFPLAN_API_KEY", "token")
    replies = iter([-0.5, -1.5, -2.5])

    def transport(url, headers, payload, timeout):
        assert headers["Authorization"] == "Bearer token"
        assert "chat/completions" in url
        return 200, {"choices": [{"logprobs": {"content": [{"logprob": next(replies)}]}}]}

    scorer = ExternalScorer(_external_spec(), transport=transport)
    vec = scorer.score_all(initial_context(loose_object_scenario()))
    assert vec.index(max(vec)) == 0 and abs(sum(vec) - 1.0) < 1e-9


def readme_request() -> dict:
    """The request body shown under README's "External scorer wire format"."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## External scorer wire format", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def test_external_requests_follow_the_readme_wire_format(monkeypatch):
    monkeypatch.setenv("MY_KEY", "secret")
    calls = []

    def transport(url, headers, payload, timeout):
        calls.append((url, headers, payload, timeout))
        return 200, {"choices": [{"logprobs": {"content": [{"logprob": -1.0}]}}]}

    endpoint = EndpointConfig(
        "http://mock/v1/", "test-model", api_key_env="MY_KEY", timeout=12.5, max_concurrency=1
    )
    s = loose_object_scenario(4)
    ctx = initial_context(s)
    scorer = ExternalScorer(ScorerSpec(kind="external", endpoint=endpoint), transport=transport)
    scorer.score_all(ctx)
    template = readme_request()
    (message,) = template["messages"]
    want = []
    for d in decision_space(s.env):
        content = message["content"].replace("<rendered context>", render_text(ctx))
        content = content.replace("<decision phrase>", d.phrase())
        messages = [{**message, "content": content}]
        want.append({**template, "model": "test-model", "messages": messages})
    assert [payload for _, _, payload, _ in calls] == want
    assert {url for url, _, _, _ in calls} == {"http://mock/v1/chat/completions"}
    assert all(headers == {"Authorization": "Bearer secret"} for _, headers, _, _ in calls)
    assert {timeout for _, _, _, timeout in calls} == {12.5}


def test_concurrent_requests_give_the_serial_vector(monkeypatch):
    monkeypatch.setenv("CONFPLAN_API_KEY", "token")
    s = external_scenario(28)
    ctx = initial_context(s)
    phrases = [d.phrase() for d in decision_space(s.env)]
    logprobs = dict(zip(phrases, np.random.default_rng(5).normal(0.0, 3.0, size=len(phrases))))
    threads = []

    def transport(url, headers, payload, timeout):
        threads.append(threading.get_ident())
        option = payload["messages"][0]["content"].rsplit("\nOption: ", 1)[1][: -len("\nAnswer:")]
        if option == failing:
            raise TransportError("timeout after 30s")
        return 200, {"choices": [{"logprobs": {"content": [{"logprob": logprobs[option]}]}}]}

    def scorer(max_concurrency):
        spec = ScorerSpec(
            kind="external",
            endpoint=EndpointConfig("http://mock", "m", max_concurrency=max_concurrency),
        )
        return ExternalScorer(spec, transport=transport)

    failing = None
    serial = scorer(1).score_all(ctx)
    assert hexes(serial) == hexes(softmax([logprobs[p] for p in phrases]))
    threads.clear()
    assert hexes(scorer(4).score_all(ctx)) == hexes(serial)
    assert len(threads) == len(phrases) and threading.get_ident() not in threads
    failing = phrases[len(phrases) // 2]
    with pytest.raises(TransportError, match="timeout"):
        scorer(4).score_all(ctx)
