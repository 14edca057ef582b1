"""The exact synthesis fast paths against the code they replaced.

Each fast path must consume the same RNG draws in the same order as its
oracle in ``_synthesis_oracle.py``, so the comparisons are exact: equal
thread states, equal event arrays, equal authors.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _synthesis_oracle import (
    ScanningFourchan,
    WeightsPopulation,
    naive_simulate_branching,
)
from repro.core.hawkes.model import HawkesParams
from repro.core.hawkes.simulation import (
    choice_cdf,
    draw_index,
    simulate_branching,
)
from repro.platforms.fourchan import (
    ARCHIVE_RETENTION,
    FourchanError,
    FourchanPlatform,
)
from repro.synthesis.users import REDDIT_SHAPE, UserPopulation


# ---------------------------------------------------------------------------
# (a) 4chan live-thread index vs full rescans
# ---------------------------------------------------------------------------

_BOARDS = ("pol", "b")

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("thread"), st.sampled_from(_BOARDS)),
        st.tuples(st.just("reply"), st.integers(0, 40), st.booleans()),
        st.tuples(st.just("expire"), st.integers(0, 3)),
    ),
    min_size=10, max_size=80)


def _snapshot(platform):
    threads = {tid: (t.last_bumped_at, t.purged_at, t.deleted,
                     len(t.posts))
               for tid, t in platform.threads.items()}
    catalogs = {b: [t.thread_id for t in platform.catalog(b)]
                for b in _BOARDS}
    positions = {tid: platform.bump_position(tid)
                 for tid in platform.threads}
    purged = {tid for tid, t in platform.threads.items()
              if t.purged_at is not None}
    visible = {b: [t.thread_id for t in platform.visible_threads(b)]
               for b in _BOARDS}
    return threads, catalogs, positions, purged, visible


def _apply(platform, op, now):
    """Run one op; returns its result or the error it raised."""
    try:
        if op[0] == "thread":
            return platform.create_thread(op[1], "op", now).thread_id
        if op[0] == "reply":
            ids = sorted(platform.threads)
            if not ids:
                return None
            tid = ids[op[1] % len(ids)]
            return platform.reply(tid, "re", now, sage=op[2]).post_number
        # Jump past the archive window now and then so deletions happen.
        return platform.expire_archives(now + op[1] * ARCHIVE_RETENTION // 2)
    except FourchanError as exc:
        return repr(exc)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, capacity=st.integers(1, 3), bump_limit=st.integers(0, 3))
def test_fourchan_index_matches_full_scan(ops, capacity, bump_limit):
    fast, scan = FourchanPlatform(), ScanningFourchan()
    for platform in (fast, scan):
        for board in _BOARDS:
            platform.create_board(board, thread_capacity=capacity,
                                  bump_limit=bump_limit)
    for step, op in enumerate(ops):
        # Coarse clock: many equal bump times exercise the tie order.
        now = 10 * (step // 3)
        assert _apply(fast, op, now) == _apply(scan, op, now)
        assert _snapshot(fast) == _snapshot(scan)


# ---------------------------------------------------------------------------
# (b) branching sampler vs per-event Generator.choice
# ---------------------------------------------------------------------------

def _random_params(k, max_lag, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=(k, k))
    weights *= rng.uniform(0.3, 0.9) / np.max(
        np.abs(np.linalg.eigvals(weights)))
    impulse = rng.dirichlet(np.full(max_lag, 0.7), size=(k, k))
    background = rng.uniform(0.002, 0.03, size=k)
    return HawkesParams(background=background, weights=weights,
                        impulse=impulse)


@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("seed", range(4))
def test_branching_matches_per_event_choice(k, seed):
    params = _random_params(k, max_lag=5 + 7 * seed, seed=100 * k + seed)
    n_bins = 1500
    fast = simulate_branching(params, n_bins, np.random.default_rng(seed))
    naive = naive_simulate_branching(params, n_bins,
                                     np.random.default_rng(seed))
    assert fast.total_events > 0
    np.testing.assert_array_equal(fast.bins, naive.bins)
    np.testing.assert_array_equal(fast.processes, naive.processes)
    np.testing.assert_array_equal(fast.counts, naive.counts)


def test_draw_index_matches_generator_choice():
    probs = [np.array([0.33, 0.22, 0.045, 0.397, 0.008]),
             np.array([0.2, 0.5, 0.3]),
             np.array([1.0]),
             np.random.default_rng(3).dirichlet(np.ones(40))]
    fast_rng, choice_rng = (np.random.default_rng(9),
                            np.random.default_rng(9))
    cdfs = [choice_cdf(p) for p in probs]
    for step in range(4000):
        i = step % len(probs)
        if step % 3:
            assert (draw_index(cdfs[i], fast_rng)
                    == int(choice_rng.choice(len(probs[i]), p=probs[i])))
        else:
            n = step % 7 + 1
            np.testing.assert_array_equal(
                cdfs[i].searchsorted(fast_rng.random(n), side="right"),
                choice_rng.choice(len(probs[i]), size=n, p=probs[i]))
    assert fast_rng.random() == choice_rng.random()


@pytest.mark.parametrize("p", [[0.5, np.nan, 0.5], [1.5, -0.5], [0.5, 0.4]])
def test_choice_cdf_rejects_what_choice_rejects(p):
    with pytest.raises(ValueError) as expected:
        np.random.default_rng(0).choice(len(p), p=p)
    with pytest.raises(ValueError) as got:
        choice_cdf(p)
    assert str(expected.value).startswith(str(got.value))


# ---------------------------------------------------------------------------
# (c) author draws vs raw weights=
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [None, REDDIT_SHAPE])
def test_sample_author_matches_weights_draw(shape):
    fast = UserPopulation("u", 400, shape, seed=21)
    oracle = WeightsPopulation("u", 400, shape, seed=21)
    pattern = np.random.default_rng(4).random(3000) < 0.3
    for alternative in pattern.tolist():
        assert (fast.sample_author(alternative).name
                == oracle.sample_author(alternative).name)

