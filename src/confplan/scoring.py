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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .context import Context, keyed_rng, render_text, seed_words
from .errors import AuthError, ConfigError, MalformedResponseError, TransportError
from .scenario import anchor_decision, decision_index

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


@lru_cache(maxsize=4096)
def _scenario_key(scenario_id: str) -> int:
    digest = hashlib.sha256(scenario_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SyntheticScorer:
    """Ground-truth-aware scorer; deterministic per (seed, scenario id, k)."""

    def __init__(self, spec: ScorerSpec, counter: CallCounter | None = None):
        spec.validate()
        self.spec = spec
        self.counter = counter or CallCounter()
        self._memo: dict[tuple[str, int, int], ScoreVector] = {}

    def score_all(self, ctx: Context, space, count: bool = True) -> ScoreVector:
        if ctx.cursor is None:
            raise ValueError("context cursor is not set")
        t, robot = ctx.cursor
        if count:
            self.counter.add(len(space))
        key = (ctx.scenario.id, ctx.k, robot)
        vec = self._memo.get(key)
        if vec is None:
            vec = self._compute(ctx, space, t, robot)
            self._memo[key] = vec
        return vec

    def _compute(self, ctx: Context, space, t: int, robot: int) -> ScoreVector:
        anchor = anchor_decision(ctx.scenario, t, robot)
        anchor_idx = decision_index(ctx.scenario.env)[anchor]
        raw = np.zeros(len(space), dtype=np.float64)
        spec = self.spec
        if spec.kind == ORACLE_INDICATOR:
            raw[anchor_idx] = 1.0
            return ScoreVector.from_raw(raw)
        raw[anchor_idx] = spec.sharpness
        words = seed_words(spec.rng_seed, _scenario_key(ctx.scenario.id), ctx.k)
        rng = keyed_rng(np.random.SeedSequence(words))
        if len(space) > 1:
            # one seeded distractor per step carries extra mass when confusion > 0
            pos = int(rng.integers(len(space) - 1))
            distractor = pos if pos < anchor_idx else pos + 1
            if spec.confusion > 0.0:
                raw[distractor] += spec.sharpness + math.log(spec.confusion)
        if spec.noise > 0.0:
            raw += rng.normal(0.0, spec.noise, size=len(space))
        return ScoreVector.from_raw(raw)


def noisy_oracle_raw(spec: ScorerSpec, ctx: Context, decision) -> float:
    """Raw (pre-softmax) noisy-oracle score of one decision under `ctx`.

    The full per-context vector is the unit of determinism (the seeded
    distractor and the noise draws are keyed by (seed, scenario id, k)), so
    this simply indexes into it.
    """
    if spec.kind != NOISY_ORACLE:
        raise ConfigError("noisy_oracle_raw needs a noisy-oracle spec")
    from .scenario import decision_space

    space = decision_space(ctx.scenario.env)
    scorer = SyntheticScorer(spec)
    vec = scorer.score_all(ctx, space, count=False)
    return vec.raw[decision_index(ctx.scenario.env)[decision]]


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


def parse_scorer_spec(text: str) -> ScorerSpec:
    """Parse 'kind' or 'kind:key=value,...'; e.g. noisy-oracle:beta=4,sigma=1."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    kwargs: dict = {}
    endpoint_kwargs: dict = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not _:
                raise ConfigError(f"bad scorer parameter {item!r}")
            key = _PARAM_ALIASES.get(key.strip(), key.strip())
            value = value.strip()
            if key in ("sharpness", "noise", "confusion"):
                kwargs[key] = float(value)
            elif key == "rng_seed":
                kwargs[key] = int(value)
            elif key in ("base_url", "model", "api_key_env", "extraction"):
                endpoint_kwargs[key] = value
            elif key in ("timeout",):
                endpoint_kwargs[key] = float(value)
            elif key in ("max_concurrency",):
                endpoint_kwargs[key] = int(value)
            else:
                raise ConfigError(f"unknown scorer parameter {key!r}")
    if kind == EXTERNAL:
        if "base_url" not in endpoint_kwargs or "model" not in endpoint_kwargs:
            raise ConfigError("external scorer needs base_url and model")
        kwargs["endpoint"] = EndpointConfig(**endpoint_kwargs)
    spec = ScorerSpec(kind=kind, **kwargs)
    spec.validate()
    return spec


def scorer_spec_to_dict(spec: ScorerSpec) -> dict:
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


def scorer_spec_from_dict(data: dict) -> ScorerSpec:
    endpoint = None
    if data.get("endpoint"):
        endpoint = EndpointConfig(**data["endpoint"])
    base = ScorerSpec()
    spec = ScorerSpec(
        kind=data.get("kind", base.kind),
        sharpness=float(data.get("sharpness", base.sharpness)),
        noise=float(data.get("noise", base.noise)),
        confusion=float(data.get("confusion", base.confusion)),
        rng_seed=int(data.get("rng_seed", base.rng_seed)),
        endpoint=endpoint,
    )
    spec.validate()
    return spec
