"""Per-robot decision contexts and the ordered-set machinery.

A context is a structured value: the static scenario description, the history
of committed decisions ordered by (step, position in the step's robot order),
and a cursor naming the robot whose decision comes next. Text is a projection
of the structure (`render_text`), used verbatim by external scorers; synthetic
scorers read the structured fields directly.

Robot orders are drawn per step from a small fixed family of permutations
(identity, rotations, reversal) keyed by the scenario's order seed, so the
calibration and test sequences share the same order-generating distribution.
`OrderSchedule.order_at` is the one-step law. Each scenario draws its H step
orders once (`Scenario.orders`), and a labeled batch draws all of its
scenarios' step orders in one seeding pass (`step_orders`), each equal to
`order_at` bit for bit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .world import Decision, SKILL_PHRASES

if TYPE_CHECKING:
    from .scenario import Scenario


def seed_words(*keys: int) -> np.ndarray:
    """The uint32 words `np.random.SeedSequence(keys)` derives from a tuple of
    nonnegative ints: each int split into little-endian 32-bit words, 0 giving
    one zero word.

    SeedSequence takes such an array as it is, which skips its slower coercion
    of a tuple; the entropy pool, and so every stream seeded from it, is the
    same. Keyed draws pass `seed_words(...)` where they would pass the tuple.
    """
    words = []
    for key in keys:
        if key < 0:
            raise ValueError(f"seed keys must be nonnegative, got {key}")
        words.append(key & 0xFFFFFFFF)
        while key > 0xFFFFFFFF:
            key >>= 32
            words.append(key & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


@lru_cache(maxsize=1)
def _keyed_seed_type() -> type:
    """The `ISeedSequence` that keyed draws hand to PCG64, built on first use
    so that importing confplan does not load `numpy.random`."""
    from numpy.random.bit_generator import ISeedSequence

    # SeedSequence.generate_state hashes its pool cycled to the words asked
    # for: word i is mixed with INIT_B·MULT_B^i, then multiplied by
    # INIT_B·MULT_B^(i+1), both mod 2^32. PCG64 asks for 4 uint64 = 8 words,
    # paired little-endian: uint64 j = word 2j | word 2j+1 << 32. Word i goes
    # to slot i, or on a big-endian host to its pair's other slot, so that
    # the native uint64 view of the slots reads that pairing on either host.
    init_b, mult_b = 0x8B51F9DD, 0x58F38DED
    powers = [init_b * pow(mult_b, i, 2**32) % 2**32 for i in range(9)]
    words_at = range(8) if sys.byteorder == "little" else (1, 0, 3, 2, 5, 4, 7, 6)
    cycle = np.array([i % 4 for i in words_at])
    xor = np.array([powers[i] for i in words_at], dtype=np.uint32)
    mul = np.array([powers[i + 1] for i in words_at], dtype=np.uint32)

    class KeyedSeed(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        @staticmethod
        def hash(pools: np.ndarray) -> np.ndarray:
            """`generate_state(4, np.uint64)` of each 4-word pool along the
            last axis: (..., 4) uint32 pools give (..., 4) uint64 states."""
            words = pools.take(cycle, axis=-1)
            words ^= xor
            words *= mul  # uint32 array arithmetic wraps mod 2^32 without a warning
            words ^= words >> 16
            return words.view(np.uint64)

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise NotImplementedError("only PCG64's 4 uint64 words are provided")
            return self.state

    return KeyedSeed


# SeedSequence's entropy-mixing constants (numpy's bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@lru_cache(maxsize=8)
def _hash_constants(n_words: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (xor, multiplier) columns of SeedSequence's hashmix calls on an
    entropy of n_words words, one pair per vectorised call: the 4 pool words,
    then per source word of the all-pairs mixing its 3 targets, then per
    entropy word past the 4th its 4 targets. Scalar call j xors with
    INIT_A·MULT_A^j and multiplies by INIT_A·MULT_A^(j+1), both mod 2^32."""
    powers = [_INIT_A]
    for _ in range(16 + 4 * max(0, n_words - 4)):
        powers.append(powers[-1] * _MULT_A % 2**32)
    pairs, j = [], 0
    for count in [4, 3, 3, 3, 3] + [4] * max(0, n_words - 4):
        xor, mul = (np.array(powers[i : i + count], dtype=np.uint32)[:, None] for i in (j, j + 1))
        pairs.append((xor, mul))
        j += count
    return tuple(pairs)


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    out = words ^ xor
    out *= mul  # uint32 array arithmetic wraps mod 2^32 without a warning
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> 16
    return out


def entropy_pools(entropy: np.ndarray) -> np.ndarray:
    """`np.random.SeedSequence(row).pool` of each row of an (R, W) uint32
    entropy matrix, as one pass of uint32 array operations over all R rows.

    This is SeedSequence's entropy mixing, stream-stable under NEP 19 as the
    pool-to-state hash in `_keyed_seed_type` is: each of the pool's 4 words
    hashes an entropy word (0 past the entropy's end), every pool word is
    mixed into every other, then each entropy word past the 4th is mixed
    into all 4. The hash constants run on with every call, so a row's pool
    depends on its word count: rows of different counts go in separate
    calls, never zero-padded to one width.
    """
    n_rows, n_words = entropy.shape
    constants = iter(_hash_constants(n_words))
    words = np.zeros((4, n_rows), dtype=np.uint32)
    words[: min(n_words, 4)] = entropy.T[:4]
    pool = _hashmix(words, *next(constants))
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(constants)))
    for src in range(4, n_words):
        pool = _mix(pool, _hashmix(entropy[:, src], *next(constants)))
    return pool.T


def keyed_rngs(blocks) -> Iterator["np.random.Generator"]:
    """One generator per row of each block, in order: a block is an
    (R, W) uint32 matrix whose rows are keyed entropy words (`seed_words`),
    and each generator equals `np.random.default_rng` of its row's
    SeedSequence bit for bit. The states are computed up front; each
    generator is built as the iterator reaches it, so a batch never holds
    all of its generators at once.

    The rows of all blocks of one word count W are mixed into pools in one
    pass (`entropy_pools`); a row's pool depends on W, so blocks of other
    counts go in passes of their own, never zero-padded to one width. PCG64
    is seeded from `seq.generate_state(4, np.uint64)`, which numpy computes
    with a per-word Python loop per sequence; here the same hash runs once
    over each pass's pool matrix, in a few uint32 array operations.
    SeedSequence's output is stream-stable under NEP 19, and `ISeedSequence`
    is numpy's public interface for it.
    """
    seed = _keyed_seed_type()
    states: list = [None] * len(blocks)
    by_width: dict[int, list[int]] = {}
    for i, block in enumerate(blocks):
        by_width.setdefault(block.shape[1], []).append(i)
    for members in by_width.values():
        hashed = seed.hash(entropy_pools(np.concatenate([blocks[i] for i in members])))
        at = 0
        for i in members:
            states[i] = hashed[at : at + len(blocks[i])]
            at += len(blocks[i])
    return (np.random.Generator(np.random.PCG64(seed(state))) for part in states for state in part)


def keyed_rng(seq: "np.random.SeedSequence") -> "np.random.Generator":
    """A generator equal to `np.random.default_rng(seq)` bit for bit, seeded
    through the same pool-to-state hash as `keyed_rngs`."""
    seed = _keyed_seed_type()
    return np.random.Generator(np.random.PCG64(seed(seed.hash(seq.pool))))


@lru_cache(maxsize=16)
def order_family(n_robots: int) -> tuple[tuple[int, ...], ...]:
    """The finite family of robot orders: identity, rotations, reversal."""
    if n_robots < 1:
        raise ValueError("need at least one robot")
    identity = tuple(range(n_robots))
    family = [identity]
    for shift in range(1, n_robots):
        rotation = identity[shift:] + identity[:shift]
        if rotation not in family:
            family.append(rotation)
    reverse = tuple(reversed(identity))
    if reverse not in family:
        family.append(reverse)
    return tuple(family)


@dataclass(frozen=True)
class OrderSchedule:
    """Deterministic per-step order draws from the family, keyed by a seed."""

    n_robots: int
    seed: int

    def order_at(self, t: int) -> tuple[int, ...]:
        """The order at step t: attempt 0 of the reorder law, with no order
        used. This is the one-step law: a scenario's orders come from
        `step_orders`, which seeds a batch's steps in one pass and draws this
        order for each."""
        return self.reorder(t, 0, ())

    def reorder(self, t: int, attempt: int, used) -> tuple[int, ...] | None:
        """Draw a fresh order for step t, without replacement against `used`.

        Returns None once the family is exhausted (the caller falls through to
        user help early).
        """
        used = set(used)
        remaining = [o for o in order_family(self.n_robots) if o not in used]
        if not remaining:
            return None
        rng = keyed_rng(np.random.SeedSequence(seed_words(self.seed, t, attempt)))
        return remaining[int(rng.integers(len(remaining)))]


def step_orders(requests) -> list[tuple[tuple[int, ...], ...]]:
    """The step orders `schedule.order_at(t)`, t < horizon, of each
    (schedule, horizon) request, with every drawn step of the batch seeded
    in one `keyed_rngs` pass. Step t is keyed `seed_words(seed, t, 0)`, as
    `order_at` keys it, so each order is the one-step law's bit for bit; a
    seed of more than one word widens its rows, which `keyed_rngs` then
    mixes in a pass of their own. A one-order family draws nothing."""
    requests = list(requests)
    blocks = []
    for schedule, horizon in requests:
        if len(order_family(schedule.n_robots)) > 1 and horizon > 0:
            prefix = seed_words(schedule.seed)
            block = np.zeros((horizon, len(prefix) + 2), dtype=np.uint32)
            block[:, :-2] = prefix
            block[:, -2] = range(horizon)  # t < horizon, one word
            blocks.append(block)
    rngs = keyed_rngs(blocks)
    out = []
    for schedule, horizon in requests:
        family = order_family(schedule.n_robots)
        if len(family) == 1:
            out.append(family * horizon)
        else:
            out.append(tuple(family[int(next(rngs).integers(len(family)))] for _ in range(horizon)))
    return out


@dataclass(frozen=True)
class Context:
    """Structured prompt state for one scenario at one point in the sequence."""

    scenario: "Scenario"
    history: tuple[tuple[int, int, Decision], ...] = ()  # (t, robot, decision)
    cursor: tuple[int, int] | None = None  # (t, robot) of the next decision

    @property
    def k(self) -> int:
        """Flat iteration index of the cursor (== number of decisions made)."""
        return len(self.history)


def initial_context(scenario: "Scenario") -> Context:
    """Context with empty history, cursor on the first robot of step 0."""
    if scenario.horizon < 1:
        return Context(scenario=scenario, cursor=None)
    return Context(scenario=scenario, cursor=(0, scenario.orders[0][0]))


def advance(ctx: Context, chosen: Decision, *, order: tuple[int, ...] | None = None) -> Context:
    """Append the chosen decision and move the cursor along the step's order.

    `order` overrides the scenario's scheduled order for the current step
    (used while a step is being redone under a redrawn order); the next step
    always starts from the schedule's own draw.
    """
    if ctx.cursor is None:
        raise ValueError("context is exhausted")
    t, robot = ctx.cursor
    position = sum(1 for (ht, _, _) in ctx.history if ht == t)
    history = ctx.history + ((t, robot, chosen),)
    scenario = ctx.scenario
    if position + 1 < scenario.n_robots:
        step_order = order if order is not None else scenario.orders[t]
        cursor = (t, step_order[position + 1])
    elif t + 1 < scenario.horizon:
        cursor = (t + 1, scenario.orders[t + 1][0])
    else:
        cursor = None
    return Context(scenario=scenario, history=history, cursor=cursor)


def reset_step(ctx: Context, t: int, new_order: tuple[int, ...]) -> Context:
    """Drop every history entry of step t and restart it under `new_order`."""
    if ctx.cursor is not None and ctx.cursor[0] != t:
        raise ValueError(f"cursor is at step {ctx.cursor[0]}, not {t}")
    history = tuple(entry for entry in ctx.history if entry[0] != t)
    return Context(scenario=ctx.scenario, history=history, cursor=(t, new_order[0]))


@lru_cache(maxsize=1)
def _template() -> str:
    return (
        resources.files("confplan.templates").joinpath("context.txt").read_text("utf-8")
    )


def _render_environment(scenario: "Scenario") -> str:
    env = scenario.env
    lines = []
    for loc in env.locations:
        lines.append(f"- location {loc.id} ({loc.label}, {loc.kind})")
    for c in env.containers:
        lines.append(f"- container {c.id} ({c.label}) at {c.at}, door {c.door}")
    for o in env.objects:
        where = f"inside {o.inside}" if o.inside else f"at {o.at}"
        lines.append(f"- object {o.id} ({o.label}) {where}")
    starts = ", ".join(
        f"robot {j + 1} at {at}" for j, at in enumerate(env.robot_start[: scenario.n_robots])
    )
    lines.append(f"- robots: {starts}")
    return "\n".join(lines)


def _render_task(scenario: "Scenario") -> str:
    mission = scenario.mission
    if not mission.subtasks:
        lines = ["No sub-tasks; the robots may remain idle."]
    else:
        lines = [
            f"- move one {st.object_label} to {' or '.join(st.destinations)}"
            for st in mission.subtasks
        ]
    if mission.safety is not None:
        lines.append(
            f"- safety: robot {mission.safety.robot + 1} must never approach or grab "
            f"{mission.safety.forbidden_object}"
        )
    return "\n".join(lines)


RESPONSE_EXEMPLAR = (
    "Answer with exactly one option from the decision list, e.g. "
    '"grab object obj-1".'
)


def render_text(ctx: Context) -> str:
    """Render the context as canonical text; deterministic per structure.

    The template is the packaged confplan/templates/context.txt.
    """
    scenario = ctx.scenario
    if ctx.history:
        history = "\n".join(
            f"robot {robot + 1} at step {t + 1}: {d.phrase()}"
            for (t, robot, d) in ctx.history
        )
    else:
        history = "(no actions yet)"
    if ctx.cursor is None:
        cursor = "(sequence complete)"
    else:
        t, robot = ctx.cursor
        cursor = f"current step {t + 1}; choose the next decision for robot {robot + 1}"
    return _template().format(
        scenario_id=scenario.id,
        n_robots=scenario.n_robots,
        horizon=scenario.horizon,
        skills=", ".join(SKILL_PHRASES[kind] for kind in scenario.skills),
        environment=_render_environment(scenario),
        task=_render_task(scenario),
        response=RESPONSE_EXEMPLAR,
        history=history,
        cursor=cursor,
    )
