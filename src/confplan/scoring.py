"""Decision scorers: per-decision confidence over the decision space.

A scorer is one call, `score_all(ctx)`: the softmax-normalized confidence of
each decision in the context's decision space, as a tuple in space order.
Synthetic scorers (oracle indicator, noisy oracle) stand in for a language
model at desk scale: they are pure functions of (spec seed, scenario id,
iteration index), so calibration and test scoring are exchangeable by
construction. The external scorer talks to a chat-completion style endpoint
that returns log-probabilities. The planners count their own queries (see
`planner`).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .context import Context, keyed_rngs, render_text, seed_words
from .errors import AuthError, ConfigError, MalformedResponseError, TransportError
from .scenario import (
    Scenario,
    anchor_decision,
    decision_index,
    decision_space,
    teacher_sequence,
)
from .world import from_data, to_data

ORACLE_INDICATOR = "oracle-indicator"
NOISY_ORACLE = "noisy-oracle"
EXTERNAL = "external"


def softmax(raw) -> np.ndarray:
    """Numerically stable softmax over the last axis, with fixed-order float64
    summation: one score vector, or each row of a score table as one matrix."""
    arr = np.asarray(raw, dtype=np.float64)
    # the ufunc reductions behind .max() and .sum(), without their wrappers
    exp = np.exp(arr - np.maximum.reduce(arr, axis=-1, keepdims=True))
    return exp / np.add.reduce(exp, axis=-1, keepdims=True)


@dataclass(frozen=True)
class EndpointConfig:
    """External completion endpoint; the API key is read from the environment."""

    base_url: str
    model: str
    api_key_env: str = "CONFPLAN_API_KEY"
    timeout: float = 30.0
    max_concurrency: int = 4

    def validate(self) -> None:
        for name in ("base_url", "model", "api_key_env"):
            if not getattr(self, name):
                raise ConfigError(f"endpoint {name} must not be empty")
        if self.max_concurrency < 1 or not self.timeout > 0:
            raise ConfigError("endpoint needs max_concurrency >= 1 and timeout > 0")


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
        finite = math.isfinite(self.sharpness) and math.isfinite(self.noise)
        if not finite or self.sharpness < 0 or self.noise < 0 or not 0.0 <= self.confusion < 1.0:
            raise ConfigError("scorer parameters out of range")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be nonnegative")
        if self.kind == EXTERNAL and self.endpoint is None:
            raise ConfigError("external scorer needs an endpoint config")
        if self.endpoint is not None:
            self.endpoint.validate()


def _scenario_key(scenario_id: str) -> int:
    digest = hashlib.sha256(scenario_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _keyed_draws(spec: ScorerSpec, requests) -> list:
    """The noisy oracle's draws for each (scenario id, iterations ks, space
    size) request: per k, from its own keyed stream on (spec.rng_seed,
    scenario key, k), the distractor position among the size - 1 non-anchor
    slots (drawn when size > 1), then the noise row (when spec.noise > 0;
    else None). One (positions, noise) pair per request. Every stream of
    every request is seeded in one batch (`keyed_rngs`)."""
    blocks = []
    for scenario_id, ks, _ in requests:
        prefix = seed_words(spec.rng_seed, _scenario_key(scenario_id))
        block = np.empty((len(ks), len(prefix) + 1), dtype=np.uint32)
        block[:, :-1] = prefix
        block[:, -1] = ks  # k < N·H, one word
        blocks.append(block)
    rngs = keyed_rngs(blocks)
    out = []
    for _, ks, size in requests:
        positions = []
        noise = np.empty((len(ks), size)) if spec.noise > 0.0 else None
        for row in range(len(ks)):
            rng = next(rngs)
            positions.append(int(rng.integers(size - 1)) if size > 1 else 0)
            if noise is not None:
                noise[row] = rng.normal(0.0, spec.noise, size=size)
        out.append((positions, noise))
    return out


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


def _anchor_index(scenario, t: int, robot: int) -> int:
    return decision_index(scenario.env)[anchor_decision(scenario, t, robot)]


class _ScenarioTable:
    """One scenario's synthetic scores under one spec: `vector` gives the
    score tuple of any robot at iteration k < N·H.

    Drawn in a scorer's batch (`SyntheticScorer.score_tables`): the keyed
    draws of every k, and the schedule's (k, robot) rows as one raw matrix,
    softmaxed as one. Labels read the table without building a score tuple:
    oracle labels read `teacher` and `teacher_scores`, selector labels the
    rows of `probs`, joint labels `joint_label_scores`. The scheduled
    robot's tuple at k is `probs[k]`, built on each query and not kept:
    keeping it would spare a repeat one `tolist()` of at most 28 floats,
    under 1 µs. Any other robot at k (a reordered step, a centralized
    planner's step start) gets its scores from row k's draws, kept in
    `others`, where a repeat is spared a raw row and a softmax; most of
    `dataset-conditional`'s off-schedule queries repeat. The step is k // N,
    as in every context `advance` and `reset_step` build.
    """

    __slots__ = (
        "spec", "scenario", "size", "positions", "noise", "robots", "teacher", "anchors",
        "probs", "others",
    )

    def __init__(self, spec: ScorerSpec, scenario, size: int, positions, noise):
        index = decision_index(scenario.env)
        self.spec, self.scenario, self.size = spec, scenario, size
        self.positions, self.noise = positions, noise
        self.robots = [robot for order in scenario.orders for robot in order]
        self.teacher = teacher_sequence(scenario)
        self.anchors = [index[d] for d in self.teacher]
        self.probs = softmax(_raw_rows(spec, self.anchors, positions, noise, size))
        self.others: dict[tuple[int, int], tuple[float, ...]] = {}

    def teacher_scores(self) -> tuple[float, ...]:
        """The softmax score of each k's teacher label, in one fancy index."""
        return tuple(self.probs[np.arange(len(self.anchors)), self.anchors].tolist())

    def joint_label_scores(self) -> tuple[float, ...]:
        """Each step's joint score of the canonical team decision: the product
        ((1.0 * s_0) * s_1) * ... in robot-index order, where s_r is robot
        r's score of `anchor_decision(t, r)` against the step-start row
        k = t * N. The scheduled robot's s_r is `probs[k, anchors[k]]`. The
        other robots' rows, H * (N - 1) of them, are built from row k's draws
        as one raw matrix, softmaxed as one and read in one fancy index; they
        are neither read from nor kept in `others`."""
        n, horizon = self.scenario.n_robots, self.scenario.horizon
        starts = range(0, n * horizon, n)
        scheduled = [self.robots[k] for k in starts]
        off = [(t, r) for t in range(horizon) for r in range(n) if r != scheduled[t]]
        ks = [t * n for t, _ in off]
        anchors = [_anchor_index(self.scenario, t, r) for t, r in off]
        raw = _raw_rows(
            self.spec,
            anchors,
            None if self.positions is None else [self.positions[k] for k in ks],
            None if self.noise is None else self.noise[ks],
            self.size,
        )
        scores = np.empty((horizon, n))
        scores[range(horizon), scheduled] = self.probs[starts, [self.anchors[k] for k in starts]]
        scores[[t for t, _ in off], [r for _, r in off]] = softmax(raw)[range(len(off)), anchors]
        return tuple(math.prod(row) for row in scores.tolist())

    def vector(self, k: int, t: int, robot: int) -> tuple[float, ...]:
        if self.robots[k] == robot:
            return tuple(self.probs[k].tolist())
        vec = self.others.get((k, robot))
        if vec is None:
            raw = _raw_rows(
                self.spec,
                [_anchor_index(self.scenario, t, robot)],
                None if self.positions is None else self.positions[k : k + 1],
                None if self.noise is None else self.noise[k : k + 1],
                self.size,
            )
            vec = self.others[(k, robot)] = tuple(softmax(raw[0]).tolist())
        return vec


class SyntheticScorer:
    """Ground-truth-aware scorer; deterministic per (seed, scenario, k).

    The unit of determinism is one keyed stream per (seed, scenario id, k),
    drawn per scenario as a table on the scenario's first query, or for a
    batch of scenarios in one seeding pass (`score_tables`). The id keys the
    streams, so a scorer refuses a second, different scenario under an id it
    has scored (ValueError); equal copies, such as a reloaded or unpickled
    scenario, share the table.
    """

    def __init__(self, spec: ScorerSpec):
        spec.validate()
        self.spec = spec
        self._tables: dict[str, _ScenarioTable] = {}

    def score_tables(self, scenarios) -> list[_ScenarioTable]:
        """The table of each scenario. Those of the scenarios not scored yet
        are drawn as one batch (`_keyed_draws`); a single scenario is a batch
        of one. Raises ValueError, before drawing, when an id names two
        different scenarios, one scored or both in the batch."""
        fresh: dict[str, Scenario] = {}
        for s in scenarios:
            table = self._tables.get(s.id)
            first = fresh.setdefault(s.id, s) if table is None else table.scenario
            if first is not s and first != s:
                raise ValueError(f"scenario id {s.id!r} names two different scenarios")
        if fresh:
            sizes = [len(decision_space(s.env)) for s in fresh.values()]
            if self.spec.kind == NOISY_ORACLE:
                requests = [
                    (s.id, range(s.n_robots * s.horizon), size)
                    for s, size in zip(fresh.values(), sizes)
                ]
                draws = _keyed_draws(self.spec, requests)
            else:
                draws = [(None, None)] * len(sizes)
            for s, size, (positions, noise) in zip(fresh.values(), sizes, draws):
                self._tables[s.id] = _ScenarioTable(self.spec, s, size, positions, noise)
        return [self._tables[s.id] for s in scenarios]

    def score_all(self, ctx: Context) -> tuple[float, ...]:
        if ctx.cursor is None:
            raise ValueError("context cursor is not set")
        t, robot = ctx.cursor
        scenario = ctx.scenario
        table = self._tables.get(scenario.id)
        if table is None or (table.scenario is not scenario and table.scenario != scenario):
            (table,) = self.score_tables((scenario,))
        return table.vector(ctx.k, t, robot)


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


class ExternalScorer:
    """Client for a log-probability-returning completion endpoint.

    One request per decision in the context's space, in space order: the
    rendered context, then "Option: <phrase>\nAnswer:". An option's raw score
    is `choices[0].logprobs.content[0].logprob`. Credentials come from the
    configured environment variable and are checked before any request goes
    out. Requests may be issued concurrently up to the endpoint's bound; the
    batch for a context either fully succeeds or raises (partial results are
    never normalized).
    """

    def __init__(self, spec: ScorerSpec, transport=None):
        spec.validate()
        if spec.endpoint is None:
            raise ConfigError("external scorer needs an endpoint config")
        self.spec = spec
        self.endpoint = spec.endpoint
        self._transport = transport or _requests_transport

    def score_all(self, ctx: Context) -> tuple[float, ...]:
        if ctx.cursor is None:
            raise ValueError("context cursor is not set")
        endpoint = self.endpoint
        key = os.environ.get(endpoint.api_key_env)
        if not key:
            raise AuthError(f"missing API key: set {endpoint.api_key_env} in the environment")
        url = f"{endpoint.base_url.rstrip('/')}/chat/completions"
        headers = {"Authorization": f"Bearer {key}"}
        text = render_text(ctx)

        def score(option: str) -> float:
            payload = {
                "model": endpoint.model,
                "messages": [{"role": "user", "content": f"{text}\nOption: {option}\nAnswer:"}],
                "max_tokens": 1,
                "temperature": 0,
                "logprobs": True,
            }
            status, body = self._transport(url, headers, payload, endpoint.timeout)
            if status in (401, 403):
                raise AuthError(f"endpoint rejected credentials (HTTP {status})")
            if status != 200:
                raise TransportError(f"HTTP {status}")
            try:
                raw = float(body["choices"][0]["logprobs"]["content"][0]["logprob"])
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise MalformedResponseError(f"no score in response: {exc}") from exc
            if not math.isfinite(raw):
                raise MalformedResponseError(f"non-finite score in response: {raw}")
            return raw

        options = [d.phrase() for d in decision_space(ctx.scenario.env)]
        if endpoint.max_concurrency > 1 and len(options) > 1:
            from concurrent.futures import ThreadPoolExecutor  # only the external scorer needs it

            with ThreadPoolExecutor(endpoint.max_concurrency) as pool:
                raws = list(pool.map(score, options))
        else:
            raws = [score(option) for option in options]
        return tuple(softmax(raws).tolist())


def build_scorer(spec: ScorerSpec, transport=None):
    spec.validate()
    if spec.kind == EXTERNAL:
        return ExternalScorer(spec, transport)
    return SyntheticScorer(spec)


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
