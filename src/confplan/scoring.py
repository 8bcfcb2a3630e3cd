"""Decision scorers: per-decision confidence over the decision space.

A scorer maps (context, decision space) to a softmax-normalized confidence
vector. Synthetic scorers (oracle indicator, noisy oracle) stand in for a
language model at desk scale: they are pure functions of (spec seed, scenario
id, iteration index), so calibration and test scoring are exchangeable by
construction. The external scorer talks to a chat-completion style endpoint
that returns log-probabilities.

Call accounting is logical: one query per decision, even when an
implementation batches or caches, so complexity assertions are
implementation-independent.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .context import Context, keyed_rngs, render_text, seed_words
from .errors import AuthError, ConfigError, MalformedResponseError, TransportError
from .scenario import anchor_decision, decision_index, decision_space, oracle_plan
from .world import IDLE_DECISION, from_data, to_data

ORACLE_INDICATOR = "oracle-indicator"
NOISY_ORACLE = "noisy-oracle"
EXTERNAL = "external"


def softmax(raw) -> np.ndarray:
    """Numerically stable softmax with fixed-order float64 summation."""
    arr = np.asarray(raw, dtype=np.float64)
    # the ufunc reductions behind .max() and .sum(), without their wrappers
    exp = np.exp(arr - np.maximum.reduce(arr))
    return exp / np.add.reduce(exp)


@dataclass(frozen=True)
class ScoreVector:
    """Raw scores and their softmax normalization, in decision-space order."""

    raw: tuple[float, ...]
    scores: tuple[float, ...]

    @property
    def argmax(self) -> int:
        return int(np.argmax(self.scores))

    @staticmethod
    def from_raw(raw) -> "ScoreVector":
        arr = np.asarray(raw, dtype=np.float64)
        return ScoreVector(raw=tuple(arr.tolist()), scores=tuple(softmax(arr).tolist()))


class CallCounter:
    """Monotone counter of logical scorer queries."""

    def __init__(self):
        self.total = 0
        self._lock = threading.Lock()

    def add(self, n: int) -> None:
        if n < 0:
            raise ValueError("call counts only grow")
        with self._lock:
            self.total += n

    def snapshot(self) -> int:
        return self.total


@dataclass(frozen=True)
class EndpointConfig:
    """External completion endpoint; the API key is read from the environment."""

    base_url: str
    model: str
    api_key_env: str = "CONFPLAN_API_KEY"
    timeout: float = 30.0
    max_concurrency: int = 4
    extraction: str = "token-logprob"  # or "numeric-answer"


@dataclass(frozen=True)
class ScorerSpec:
    """Serializable description of a scorer.

    noisy-oracle parameters: `sharpness` (raw bonus on the ground-truth
    decision), `noise` (Gaussian sigma added to every raw score), `confusion`
    (one seeded distractor per step receives sharpness + log(confusion), i.e.
    roughly a `confusion` fraction of the truth's softmax mass).
    """

    kind: str = NOISY_ORACLE
    sharpness: float = 4.0
    noise: float = 1.0
    confusion: float = 0.15
    rng_seed: int = 0
    endpoint: EndpointConfig | None = None

    def validate(self) -> None:
        if self.kind not in (ORACLE_INDICATOR, NOISY_ORACLE, EXTERNAL):
            raise ConfigError(f"unknown scorer kind {self.kind!r}")
        if self.sharpness < 0 or self.noise < 0 or not 0.0 <= self.confusion < 1.0:
            raise ConfigError("scorer parameters out of range")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be nonnegative")
        if self.kind == EXTERNAL and self.endpoint is None:
            raise ConfigError("external scorer needs an endpoint config")


def _scenario_key(scenario_id: str) -> int:
    digest = hashlib.sha256(scenario_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _keyed_draws(spec: ScorerSpec, scenario_id: str, ks, size: int):
    """The noisy oracle's draws for each iteration k in `ks`, from its own
    keyed stream on (spec.rng_seed, scenario key, k): the distractor position
    among the size - 1 non-anchor slots (drawn when size > 1), then the noise
    row (when spec.noise > 0; else None). The pool-to-state hash of all the
    streams runs as one batch (`keyed_rngs`)."""
    key = _scenario_key(scenario_id)
    pools = np.array(
        [np.random.SeedSequence(seed_words(spec.rng_seed, key, k)).pool for k in ks]
    )
    positions = []
    noise = np.empty((len(pools), size)) if spec.noise > 0.0 else None
    for i, rng in enumerate(keyed_rngs(pools)):
        positions.append(int(rng.integers(size - 1)) if size > 1 else 0)
        if noise is not None:
            noise[i] = rng.normal(0.0, spec.noise, size=size)
    return positions, noise


def _raw_rows(spec: ScorerSpec, anchors, positions, noise, size: int) -> np.ndarray:
    """Raw score rows, one per anchor index: `spec.sharpness` on the anchor,
    the confusion bonus on the drawn distractor, plus the noise row. The
    oracle indicator puts 1.0 on the anchor and draws nothing. (A few scalar
    writes per row cost less than fancy indexing on tables of N·H rows.)"""
    raw = np.zeros((len(anchors), size), dtype=np.float64)
    if spec.kind == ORACLE_INDICATOR:
        for i, anchor in enumerate(anchors):
            raw[i, anchor] = 1.0
        return raw
    # one seeded distractor per step carries extra mass when confusion > 0:
    # the drawn position, shifted past the anchor
    bonus = None
    if spec.confusion > 0.0 and size > 1:
        bonus = spec.sharpness + math.log(spec.confusion)
    for i, anchor in enumerate(anchors):
        raw[i, anchor] = spec.sharpness
        if bonus is not None:
            pos = positions[i]
            raw[i, pos if pos < anchor else pos + 1] += bonus
    if noise is not None:
        raw += noise
    return raw


def softmax_rows(raw: np.ndarray) -> np.ndarray:
    """`softmax` of each row of a 2-D array, bit for bit, as one matrix."""
    exp = np.exp(raw - np.maximum.reduce(raw, axis=1, keepdims=True))
    return exp / np.add.reduce(exp, axis=1, keepdims=True)


def _anchor_index(scenario, t: int, robot: int) -> int:
    return decision_index(scenario.env)[anchor_decision(scenario, t, robot)]


class _ScenarioTable:
    """One scenario's synthetic score vectors under one spec.

    Built on the scenario's first query: the keyed draws of every iteration
    k < N·H, and the vectors of the schedule's own (k, robot) pairs, built as
    one raw matrix and softmaxed as one. Any other robot at k (a reordered
    step, a step-start joint score) gets its vector from row k's draws, on
    first query. The step is k // N, as in every context `advance` and
    `reset_step` build.
    """

    __slots__ = ("spec", "scenario", "size", "positions", "noise", "robots", "vectors", "others")

    def __init__(self, spec: ScorerSpec, scenario, size: int):
        plan = oracle_plan(scenario)
        index = decision_index(scenario.env)
        robots, anchors = [], []
        for t in range(scenario.horizon):
            for robot in scenario.schedule.order_at(t):
                robots.append(robot)
                anchors.append(index[plan[t][robot] if t < len(plan) else IDLE_DECISION])
        if spec.kind == NOISY_ORACLE:
            positions, noise = _keyed_draws(spec, scenario.id, range(len(robots)), size)
        else:
            positions, noise = None, None
        raw = _raw_rows(spec, anchors, positions, noise, size)
        self.spec, self.scenario, self.size = spec, scenario, size
        self.positions, self.noise = positions, noise
        self.robots = robots
        self.vectors = [
            ScoreVector(raw=tuple(r), scores=tuple(p))
            for r, p in zip(raw.tolist(), softmax_rows(raw).tolist())
        ]
        self.others: dict[tuple[int, int], ScoreVector] = {}

    def vector(self, k: int, t: int, robot: int) -> ScoreVector:
        if self.robots[k] == robot:
            return self.vectors[k]
        vec = self.others.get((k, robot))
        if vec is None:
            raw = _raw_rows(
                self.spec,
                [_anchor_index(self.scenario, t, robot)],
                None if self.positions is None else self.positions[k : k + 1],
                None if self.noise is None else self.noise[k : k + 1],
                self.size,
            )
            vec = self.others[(k, robot)] = ScoreVector.from_raw(raw[0])
        return vec


class SyntheticScorer:
    """Ground-truth-aware scorer; deterministic per (seed, scenario, k).

    The unit of determinism is one keyed stream per (seed, scenario id, k),
    drawn per scenario as a table on the scenario's first query (see
    `_ScenarioTable`). The id keys the streams, so a scorer refuses a second,
    different scenario under an id it has scored (ValueError); equal copies,
    such as a reloaded or unpickled scenario, share the table.
    """

    def __init__(self, spec: ScorerSpec, counter: CallCounter | None = None):
        spec.validate()
        self.spec = spec
        self.counter = counter or CallCounter()
        self._tables: dict[str, _ScenarioTable] = {}

    def score_all(self, ctx: Context, space, count: bool = True) -> ScoreVector:
        if ctx.cursor is None:
            raise ValueError("context cursor is not set")
        t, robot = ctx.cursor
        if count:
            self.counter.add(len(space))
        scenario = ctx.scenario
        table = self._tables.get(scenario.id)
        if table is None:
            table = _ScenarioTable(self.spec, scenario, len(space))
            self._tables[scenario.id] = table
        elif table.scenario is not scenario and table.scenario != scenario:
            raise ValueError(f"scenario id {scenario.id!r} names two different scenarios")
        return table.vector(ctx.k, t, robot)


def noisy_oracle_raw(spec: ScorerSpec, ctx: Context, decision) -> float:
    """Raw (pre-softmax) noisy-oracle score of one decision under `ctx`.

    The unit of determinism is one keyed stream per (seed, scenario id, k);
    a scorer draws a scenario's streams as a table on first query. This
    draws iteration k's stream alone, with the same row-draw function, and
    indexes into its raw vector.
    """
    if spec.kind != NOISY_ORACLE:
        raise ConfigError("noisy_oracle_raw needs a noisy-oracle spec")
    if ctx.cursor is None:
        raise ValueError("context cursor is not set")
    scenario = ctx.scenario
    size = len(decision_space(scenario.env))
    positions, noise = _keyed_draws(spec, scenario.id, [ctx.k], size)
    raw = _raw_rows(spec, [_anchor_index(scenario, *ctx.cursor)], positions, noise, size)
    return float(raw[0, decision_index(scenario.env)[decision]])


def _requests_transport(url: str, headers: dict, payload: dict, timeout: float):
    import requests

    try:
        resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
    except requests.Timeout as exc:
        raise TransportError(f"timeout after {timeout}s: {exc}") from exc
    except requests.RequestException as exc:
        raise TransportError(str(exc)) from exc
    if resp.status_code != 200 or not resp.content:
        return resp.status_code, {}
    try:
        return resp.status_code, resp.json()
    except ValueError as exc:
        raise MalformedResponseError(f"response body is not JSON: {exc}") from exc


def _completion_payload(endpoint: EndpointConfig, text: str, option: str) -> dict:
    return {
        "model": endpoint.model,
        "messages": [
            {"role": "user", "content": f"{text}\nOption: {option}\nAnswer:"}
        ],
        "max_tokens": 1,
        "temperature": 0,
        "logprobs": True,
    }


def _extract_score(endpoint: EndpointConfig, body: dict) -> float:
    try:
        choice = body["choices"][0]
        if endpoint.extraction == "numeric-answer":
            score = float(choice["message"]["content"].strip())
        else:
            score = float(choice["logprobs"]["content"][0]["logprob"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise MalformedResponseError(f"no score in response: {exc}") from exc
    if not math.isfinite(score):
        raise MalformedResponseError(f"non-finite score in response: {score}")
    return score


def _score_one(endpoint: EndpointConfig, transport, headers, text, option) -> float:
    status, body = transport(
        f"{endpoint.base_url.rstrip('/')}/chat/completions",
        headers,
        _completion_payload(endpoint, text, option),
        endpoint.timeout,
    )
    if status in (401, 403):
        raise AuthError(f"endpoint rejected credentials (HTTP {status})")
    if status != 200:
        raise TransportError(f"HTTP {status}")
    return _extract_score(endpoint, body)


def external_score_all(
    endpoint: EndpointConfig, text: str, space, transport=None
) -> ScoreVector:
    """Score every decision in `space` against the rendered context `text`.

    One request per decision, possibly concurrent up to the endpoint's bound;
    all-or-nothing (no partial vector is ever normalized). Credentials come
    from the configured environment variable and are checked before any
    request goes out.
    """
    key = os.environ.get(endpoint.api_key_env)
    if not key:
        raise AuthError(f"missing API key: set {endpoint.api_key_env} in the environment")
    transport = transport or _requests_transport
    headers = {"Authorization": f"Bearer {key}"}
    options = [d.phrase() for d in space]
    if endpoint.max_concurrency > 1 and len(options) > 1:
        with ThreadPoolExecutor(endpoint.max_concurrency) as pool:
            raws = list(
                pool.map(
                    lambda opt: _score_one(endpoint, transport, headers, text, opt),
                    options,
                )
            )
    else:
        raws = [_score_one(endpoint, transport, headers, text, opt) for opt in options]
    return ScoreVector.from_raw(raws)


class ExternalScorer:
    """Client for a log-probability-returning completion endpoint.

    One request per decision; the batch for a context either fully succeeds or
    raises (partial results are never normalized). Requests may be issued
    concurrently up to the configured bound.
    """

    def __init__(
        self,
        spec: ScorerSpec,
        counter: CallCounter | None = None,
        transport=None,
    ):
        spec.validate()
        if spec.endpoint is None:
            raise ConfigError("external scorer needs an endpoint config")
        self.spec = spec
        self.endpoint = spec.endpoint
        self.counter = counter or CallCounter()
        self._transport = transport or _requests_transport

    def score_all(self, ctx: Context, space, count: bool = True) -> ScoreVector:
        if ctx.cursor is None:
            raise ValueError("context cursor is not set")
        if count:
            self.counter.add(len(space))
        return external_score_all(
            self.endpoint, render_text(ctx), space, transport=self._transport
        )


def build_scorer(spec: ScorerSpec, counter: CallCounter | None = None, transport=None):
    spec.validate()
    if spec.kind == EXTERNAL:
        return ExternalScorer(spec, counter, transport)
    return SyntheticScorer(spec, counter)


# --- CLI / config parsing -----------------------------------------------------

_PARAM_ALIASES = {
    "beta": "sharpness",
    "sigma": "noise",
    "eps": "confusion",
    "seed": "rng_seed",
}
_ENDPOINT_KEYS = {f.name for f in fields(EndpointConfig)}


def parse_scorer_spec(text: str) -> ScorerSpec:
    """Parse 'kind' or 'kind:key=value,...'; e.g. noisy-oracle:beta=4,sigma=1.
    Keys are `ScorerSpec` fields or their aliases; `EndpointConfig` fields go
    into the endpoint, which an external scorer needs."""
    kind, _, rest = text.partition(":")
    data: dict = {"kind": kind.strip()}
    endpoint: dict = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ConfigError(f"bad scorer parameter {item!r}")
            key = _PARAM_ALIASES.get(key.strip(), key.strip())
            (endpoint if key in _ENDPOINT_KEYS else data)[key] = value.strip()
    if endpoint or data["kind"] == EXTERNAL:
        data["endpoint"] = endpoint
    spec = from_data(ScorerSpec, data)
    spec.validate()
    return spec


def scorer_spec_to_dict(spec: ScorerSpec) -> dict:
    data = to_data(spec)
    if spec.endpoint is None:
        del data["endpoint"]
    return data


def scorer_spec_from_dict(data: dict) -> ScorerSpec:
    spec = from_data(ScorerSpec, data)
    spec.validate()
    return spec
