import dataclasses
import os
import random
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confplan import context
from confplan.context import (
    Context,
    OrderSchedule,
    advance,
    entropy_pools,
    initial_context,
    keyed_rng,
    keyed_rngs,
    order_family,
    render_text,
    reset_step,
    seed_words,
    step_orders,
)
from confplan import scenario as scenario_module
from confplan.conformal import calibration_records
from confplan.scenario import (
    default_distribution_params,
    label_sequence,
    sample_scenario,
)
from confplan.scoring import ScorerSpec, build_scorer
from confplan.world import Decision, GRAB, IDLE_DECISION


@pytest.fixture(scope="module")
def scenario():
    return sample_scenario(default_distribution_params(5), 0)


def sample_trio():
    params = dataclasses.replace(
        default_distribution_params(6), n_robots=(3, 3), n_subtasks=(2, 2)
    )
    return sample_scenario(params, 0)


@pytest.fixture(scope="module")
def trio_scenario():
    return sample_trio()


def test_order_family_shapes():
    assert order_family(1) == ((0,),)
    assert order_family(2) == ((0, 1), (1, 0))
    fam3 = order_family(3)
    assert (0, 1, 2) in fam3 and (2, 1, 0) in fam3
    assert len(fam3) == 4
    for order in fam3:
        assert sorted(order) == [0, 1, 2]


def test_schedule_is_deterministic_and_reorder_draws_without_replacement():
    schedule = OrderSchedule(n_robots=3, seed=99)
    assert schedule.order_at(2) == schedule.order_at(2)
    family = set(order_family(3))
    used = [schedule.order_at(0)]
    for attempt in range(1, len(family)):
        fresh = schedule.reorder(0, attempt, used)
        assert fresh in family and fresh not in used
        used.append(fresh)
    assert schedule.reorder(0, len(family), used) is None


def per_call_order(n_robots: int, seed: int, t: int) -> tuple[int, ...]:
    """Reference: a fresh draw from the family on every call."""
    family = order_family(n_robots)
    rng = np.random.default_rng(np.random.SeedSequence((seed, t, 0)))
    return family[int(rng.integers(len(family)))]


@pytest.mark.parametrize("n_robots", [1, 2, 3, 4])
def test_order_at_equals_the_per_call_draw(n_robots):
    for seed in (0, 1, 17, 123456789, 2**31 - 1):
        schedule = OrderSchedule(n_robots=n_robots, seed=seed)
        for t in range(31):
            assert schedule.order_at(t) == per_call_order(n_robots, seed, t)


def tuple_seeded_state(keys) -> dict:
    """Reference: the PCG64 state of the tuple-seeded SeedSequence."""
    return np.random.PCG64(np.random.SeedSequence(tuple(keys))).state


SEED_EDGES = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**100 + 12345)


def test_seed_words_split_ints_into_little_endian_uint32_words():
    assert seed_words(0).tolist() == [0]
    assert seed_words(0, 0).tolist() == [0, 0]
    assert seed_words(2**32 - 1).tolist() == [2**32 - 1]
    assert seed_words(2**32).tolist() == [0, 1]
    assert seed_words(2**64 - 1, 7).tolist() == [2**32 - 1, 2**32 - 1, 7]
    assert seed_words(2**64).tolist() == [0, 0, 1]
    assert seed_words(5, 2**32 + 3).dtype == np.uint32
    with pytest.raises(ValueError):
        seed_words(3, -1)  # SeedSequence((3, -1)) raises ValueError too


def assert_keyed_states_equal(keys) -> None:
    """The words seed the tuple's state, and `keyed_rng` seeds the state of
    numpy's own `default_rng` from them (the reference)."""
    seq = np.random.SeedSequence(seed_words(*keys))
    assert np.random.PCG64(seq).state == tuple_seeded_state(keys)
    assert keyed_rng(seq).bit_generator.state == np.random.default_rng(seq).bit_generator.state


@pytest.mark.parametrize("edge", SEED_EDGES)
def test_seed_words_give_the_tuple_seeded_state_at_the_edges(edge):
    for keys in ((edge,), (edge, 0), (7, edge, 3), (edge, edge, edge)):
        assert_keyed_states_equal(keys)


def test_seed_words_give_the_tuple_seeded_state_on_random_keys():
    rnd = random.Random(20261017)
    for _ in range(3000):
        keys = [rnd.getrandbits(rnd.choice((1, 8, 31, 32, 33, 63, 64, 65, 96)))
                for _ in range(rnd.randint(1, 4))]
        assert_keyed_states_equal(keys)


def test_keyed_rng_draws_equal_default_rng_draws():
    for keys in ((0,), (3, 2**40, 1), (2**64 - 1, 17)):
        draws = []
        for make in (keyed_rng, np.random.default_rng):
            rng = make(np.random.SeedSequence(seed_words(*keys)))
            deck = list(range(20))
            rng.shuffle(deck)
            draws.append((
                rng.integers(1000, size=5).tolist(),
                [x.hex() for x in rng.normal(0.0, 1.0, size=7).tolist()],
                deck,
                rng.choice(30, size=4, replace=False).tolist(),
                int(rng.integers(2**63)),
            ))
        assert draws[0] == draws[1]


def test_keyed_rng_seed_provides_only_pcg64s_request():
    seed = keyed_rng(np.random.SeedSequence(seed_words(5, 6))).bit_generator.seed_seq
    assert seed.generate_state(4, np.uint64).dtype == np.uint64
    for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.float64)):
        with pytest.raises(NotImplementedError):
            seed.generate_state(n_words, dtype)


def test_keyed_rng_pairs_words_as_seed_sequence_does_on_a_big_endian_host(monkeypatch):
    monkeypatch.setattr(context, "sys", types.SimpleNamespace(byteorder="big"))
    context._keyed_seed_type.cache_clear()
    try:
        seq = np.random.SeedSequence(seed_words(9, 2**40))
        state = context._keyed_seed_type().hash(seq.pool)
    finally:
        context._keyed_seed_type.cache_clear()
    slots = state.view(np.uint32).tolist()
    # what a big-endian host reads from these slots as native uint64
    big_endian = [slots[2 * j] << 32 | slots[2 * j + 1] for j in range(4)]
    assert big_endian == seq.generate_state(4, np.uint64).tolist()


KEY_EDGES = st.sampled_from((0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64))
# a scorer's keys: (rng_seed, scenario key, k), the scenario key 1 or 2 words
SCORER_KEYS = st.tuples(
    KEY_EDGES | st.integers(0, 2**70),
    st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1),
    st.integers(0, 60),
)


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(
        SCORER_KEYS | st.lists(KEY_EDGES, min_size=1, max_size=4).map(tuple),
        min_size=1,
        max_size=12,
    )
)
def test_entropy_pools_are_seed_sequence_pools_at_every_word_count(keys):
    """Rows of mixed word counts, grouped by count as `keyed_rngs` groups
    them, give the pool SeedSequence computes for each row alone, and seed
    the generator `default_rng` seeds from it."""
    rows = [seed_words(*k) for k in keys]
    for width in {len(r) for r in rows}:
        group = [r for r in rows if len(r) == width]
        got = entropy_pools(np.array(group, dtype=np.uint32))
        assert got.tolist() == [np.random.SeedSequence(r).pool.tolist() for r in group]
    # interleaved one-row blocks, and the same rows as blocks of 1-3 rows
    blocks = [r[None, :] for r in rows]
    blocks += [np.array([r] * (1 + i % 3), dtype=np.uint32) for i, r in enumerate(rows)]
    want = rows + [r for i, r in enumerate(rows) for _ in range(1 + i % 3)]
    got = list(keyed_rngs(blocks))
    assert len(got) == len(want)
    for rng, words in zip(got, want):
        reference = np.random.default_rng(np.random.SeedSequence(words))
        assert rng.bit_generator.state == reference.bit_generator.state


def loads_numpy_random(statement: str) -> bool:
    """Whether `statement` leaves `numpy.random` in sys.modules."""
    src = os.path.dirname(os.path.dirname(context.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys; {statement}; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


def test_importing_confplan_leaves_numpy_random_unloaded():
    numpy_alone = loads_numpy_random("import numpy")
    with_confplan = loads_numpy_random("import confplan.harness")
    assert with_confplan <= numpy_alone


def per_call_reorder(n_robots: int, seed: int, t: int, attempt: int, used):
    """Reference: the reorder draw seeded from the key tuple."""
    remaining = [o for o in order_family(n_robots) if o not in set(used)]
    if not remaining:
        return None
    rng = np.random.default_rng(np.random.SeedSequence((seed, t, attempt)))
    return remaining[int(rng.integers(len(remaining)))]


@pytest.mark.parametrize("n_robots", [2, 3, 4])
def test_reorder_equals_the_tuple_seeded_draw(n_robots):
    for seed in (0, 1, 17, 2**31 - 1, 2**32, 2**40 + 5):
        schedule = OrderSchedule(n_robots=n_robots, seed=seed)
        for t in range(12):
            used = [schedule.order_at(t)]
            for attempt in range(1, len(order_family(n_robots)) + 1):
                fresh = schedule.reorder(t, attempt, used)
                assert fresh == per_call_reorder(n_robots, seed, t, attempt, used)
                if fresh is None:
                    break
                used.append(fresh)


def test_sampled_scenarios_equal_the_tuple_seeded_samples(monkeypatch):
    params = [default_distribution_params(seed) for seed in (0, 9, 2**33 + 1)]
    draws = [(p, i) for p in params for i in (0, 1, 2, 2**32 + 7)]
    fast = [sample_scenario(p, i) for p, i in draws]
    # the reference: sample_scenario seeded as SeedSequence((rng_seed, draw_index))
    monkeypatch.setattr(scenario_module, "seed_words", lambda *keys: keys)
    assert [sample_scenario(p, i) for p, i in draws] == fast


def seed_sequences_built_while_labeling(monkeypatch, scenario, label_mode) -> list[str]:
    """Modules that built a SeedSequence while `scenario`, a fresh instance
    whose step orders are not yet drawn, was labeled."""
    built = []
    seed_sequence = np.random.SeedSequence

    def recording(*args, **kwargs):
        built.append(sys._getframe(1).f_globals["__name__"])
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", recording)
    label_sequence(scenario, build_scorer(ScorerSpec()), label_mode=label_mode)
    monkeypatch.undo()
    return built


@pytest.mark.parametrize("label_mode", ["oracle", "selector"])
def test_labeling_a_one_robot_scenario_draws_no_order(monkeypatch, label_mode):
    params = dataclasses.replace(default_distribution_params(5), n_robots=(1, 1))
    s = sample_scenario(params, 0)
    built = seed_sequences_built_while_labeling(monkeypatch, s, label_mode)
    # the scorer's pools come from `entropy_pools`, without a SeedSequence; the
    # next test shows that order draws are recorded
    assert built == []


def record_order_passes(monkeypatch) -> list[list]:
    """Record the row words of each `keyed_rngs` pass made inside
    `confplan.context`, where only step orders call it (the scorer calls its
    own import of the name): one list of rows per pass."""
    passes = []
    keyed = context.keyed_rngs

    def recording(blocks):
        passes.append([row for block in blocks for row in block.tolist()])
        return keyed(blocks)

    monkeypatch.setattr(context, "keyed_rngs", recording)
    return passes


def test_labeling_draws_each_step_order_once(monkeypatch):
    """A fresh multi-robot scenario's step orders are seeded in one keyed
    pass, with no SeedSequence, one row `seed_words(order_seed, t, 0)` per
    step t, each t exactly once."""
    trio = sample_trio()
    passes = record_order_passes(monkeypatch)
    built = seed_sequences_built_while_labeling(monkeypatch, trio, "oracle")
    assert "confplan.context" not in built
    rows = [seed_words(trio.order_seed, t, 0).tolist() for t in range(trio.horizon)]
    assert passes == [rows]


def test_a_calibration_batch_draws_its_orders_in_one_pass(monkeypatch):
    params = dataclasses.replace(default_distribution_params(8), n_robots=(2, 2))
    scenarios = [sample_scenario(params, draw) for draw in range(30)]
    passes = record_order_passes(monkeypatch)
    calibration_records(scenarios, build_scorer(ScorerSpec()), label_mode="oracle")
    monkeypatch.undo()
    (rows,) = passes
    assert sorted(rows) == sorted(
        seed_words(s.order_seed, t, 0).tolist() for s in scenarios for t in range(s.horizon)
    )
    for s in scenarios:
        assert s.orders == tuple(map(s.schedule.order_at, range(s.horizon)))


def test_batch_orders_are_the_one_step_law_bit_for_bit():
    """Every robot count, horizons from 1, and one- to three-word seeds mixed
    in one batch: each step's order is `order_at`'s and the tuple-seeded
    draw's."""
    rnd = random.Random(20261017)
    requests = [
        (OrderSchedule(n_robots, seed), horizon)
        for n_robots in (1, 2, 3, 4)
        for seed in (0, 1, 17, 2**31 - 1, 2**32, 2**32 + 1, 2**40 + 5, 2**64 + 3)
        for horizon in (1, 2, 7, 19)
    ]
    rnd.shuffle(requests)
    got = step_orders(requests)
    assert len(got) == len(requests)
    for (schedule, horizon), orders in zip(requests, got):
        assert orders == tuple(schedule.order_at(t) for t in range(horizon))
        assert orders == tuple(
            per_call_order(schedule.n_robots, schedule.seed, t) for t in range(horizon)
        )
    assert step_orders([]) == [] and step_orders([(OrderSchedule(3, 5), 0)]) == [()]


def test_a_scenario_with_a_wide_order_seed_draws_the_one_step_law():
    """A loaded scenario's order seed may pass 2^32; in a batch with narrow
    ones its rows are mixed in a pass of their own."""
    params = dataclasses.replace(default_distribution_params(6), n_robots=(2, 3))
    narrow = [sample_scenario(params, draw) for draw in range(3)]
    wide = [dataclasses.replace(s, order_seed=2**40 + i) for i, s in enumerate(narrow)]
    scenario_module.draw_orders(narrow + wide)
    for s in narrow + wide:
        assert s.orders == tuple(map(s.schedule.order_at, range(s.horizon)))


def test_initial_context_empty_history(scenario):
    schedule = scenario.schedule
    ctx = initial_context(scenario)
    assert ctx.history == ()
    assert ctx.cursor == (0, schedule.order_at(0)[0])
    assert render_text(ctx) == render_text(initial_context(scenario))


def test_rendered_text_lists_the_skill_set(scenario):
    text = render_text(initial_context(scenario))
    assert "go to, grab object, put object down, open door, remain idle" in text
    assert "(no actions yet)" in text


def test_advance_walks_single_robot_steps(scenario):
    assert scenario.n_robots in (1, 2)
    solo = dataclasses.replace(scenario, n_robots=1)
    ctx = initial_context(solo)
    ctx = advance(ctx, IDLE_DECISION)
    assert ctx.cursor == (1, 0)


def test_advance_follows_a_permuted_order(trio_scenario):
    order = (1, 0, 2)
    ctx = Context(scenario=trio_scenario, history=(), cursor=(0, order[0]))
    ctx = advance(ctx, IDLE_DECISION, order=order)
    assert ctx.cursor == (0, 0)
    ctx = advance(ctx, IDLE_DECISION, order=order)
    assert ctx.cursor == (0, 2)


def test_advancing_t_times_exhausts_the_context(trio_scenario):
    total = trio_scenario.n_robots * trio_scenario.horizon
    ctx = initial_context(trio_scenario)
    for _ in range(total):
        ctx = advance(ctx, IDLE_DECISION)
    assert ctx.cursor is None
    assert len(ctx.history) == total
    with pytest.raises(ValueError):
        advance(ctx, IDLE_DECISION)


def test_reset_step_at_zero_matches_initial(trio_scenario):
    schedule = trio_scenario.schedule
    order = schedule.order_at(0)
    ctx = initial_context(trio_scenario)
    walked = advance(advance(ctx, IDLE_DECISION), IDLE_DECISION)
    assert reset_step(walked, 0, order) == ctx


def test_reset_step_preserves_earlier_steps(trio_scenario):
    schedule = trio_scenario.schedule
    n = trio_scenario.n_robots
    ctx = initial_context(trio_scenario)
    for _ in range(n + 1):  # one full step plus one decision of step 1
        ctx = advance(ctx, IDLE_DECISION)
    fresh = reset_step(ctx, 1, schedule.order_at(1))
    assert all(t == 0 for (t, _, _) in fresh.history)
    assert len(fresh.history) == n
    assert fresh.cursor == (1, schedule.order_at(1)[0])
    with pytest.raises(ValueError):
        reset_step(ctx, 0, schedule.order_at(0))


def test_advance_rebuilds_stored_contexts(scenario):
    ctx = initial_context(scenario)
    snapshots = [ctx]
    for _ in range(scenario.n_robots * scenario.horizon):
        ctx = advance(ctx, IDLE_DECISION)
        snapshots.append(ctx)
    rebuilt = initial_context(scenario)
    for snap in snapshots[1:]:
        rebuilt = advance(rebuilt, IDLE_DECISION)
        assert rebuilt == snap  # folding advance over the prefix reproduces it


def test_history_lines_render_action_phrases(scenario):
    ctx = initial_context(scenario)
    robot = ctx.cursor[1]
    obj = scenario.env.objects[0].id
    ctx = advance(ctx, Decision(GRAB, obj))
    text = render_text(ctx)
    assert f"robot {robot + 1} at step 1: grab object {obj}" in text


def test_rendering_is_injective_on_a_small_corpus():
    params = default_distribution_params(12)
    seen = {}
    for draw in range(4):
        s = sample_scenario(params, draw)
        ctx = initial_context(s)
        while True:
            text = render_text(ctx)
            key = (s.id, ctx.history, ctx.cursor)
            assert text not in seen or seen[text] == key
            seen[text] = key
            if ctx.cursor is None:
                break
            ctx = advance(ctx, IDLE_DECISION)
    assert len(seen) > 10
