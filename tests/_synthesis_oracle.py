"""Historical world-synthesis code, kept as the oracle of the fast paths.

Straight transcriptions of the implementations the exact synthesis fast
paths replaced: the 4chan board views that rescanned every thread a
board ever had, the branching sampler that rebuilt the impulse PMF for
every parent event with ``Generator.choice``, and author draws that
handed raw ``weights=`` to ``random.choices``.  The fast paths
consume the same RNG draws in the same order, so each must agree with
its oracle exactly (``tests/test_synthesis_oracles.py``).
"""

from collections import deque

import numpy as np

from repro.core.events import DiscreteEvents
from repro.platforms.fourchan import ARCHIVE_RETENTION, FourchanPlatform
from repro.synthesis.users import UserArchetype, UserPopulation

_MAX_EVENTS = 5_000_000


class ScanningFourchan(FourchanPlatform):
    """4chan whose views rescan ``board.thread_ids`` on every call."""

    def _enforce_capacity(self, board, now):
        live = [tid for tid in board.thread_ids
                if self.threads[tid].is_live]
        excess = len(live) - board.thread_capacity
        if excess <= 0:
            return
        by_bump = sorted(live, key=lambda tid: self.threads[tid].last_bumped_at)
        for tid in by_bump[:excess]:
            self.threads[tid].purged_at = now

    def expire_archives(self, now):
        deleted = 0
        for thread in self.threads.values():
            if (thread.purged_at is not None and not thread.deleted
                    and now - thread.purged_at >= ARCHIVE_RETENTION):
                thread.deleted = True
                deleted += 1
        return deleted

    def catalog(self, board):
        board_obj = self._require_board(board)
        live = [self.threads[tid] for tid in board_obj.thread_ids
                if self.threads[tid].is_live]
        return sorted(live, key=lambda t: t.last_bumped_at, reverse=True)


def naive_simulate_branching(params, n_bins, rng):
    """The per-parent-event ``rng.choice(lags, p=...)`` branching loop."""
    k_procs = params.n_processes
    queue = deque()
    for k in range(k_procs):
        total = rng.poisson(params.background[k] * n_bins)
        if total:
            for t in rng.integers(0, n_bins, size=total):
                queue.append((int(t), k))

    all_events = []
    lags = np.arange(1, params.max_lag + 1)
    produced = 0
    while queue:
        t, k = queue.popleft()
        all_events.append((t, k))
        produced += 1
        if produced > _MAX_EVENTS:
            raise RuntimeError("event budget exceeded")
        for dst in range(k_procs):
            n_children = rng.poisson(params.weights[k, dst])
            if not n_children:
                continue
            child_lags = rng.choice(lags, size=n_children,
                                    p=params.impulse[k, dst])
            for lag in child_lags:
                child_t = t + int(lag)
                if child_t < n_bins:
                    queue.append((child_t, dst))

    return DiscreteEvents.from_pairs(all_events, n_bins=n_bins,
                                     n_processes=k_procs)


class WeightsPopulation(UserPopulation):
    """Author draws with raw ``weights=``, accumulated on every draw."""

    def _index_pools(self):
        self._pool = {}
        for alternative in (False, True):
            members, weights = [], []
            for profile in self.profiles:
                if alternative:
                    if profile.archetype == UserArchetype.MAINSTREAM_ONLY:
                        continue
                    affinity = (1.0 if profile.archetype
                                == UserArchetype.ALTERNATIVE_ONLY
                                else profile.alt_preference)
                else:
                    if profile.archetype == UserArchetype.ALTERNATIVE_ONLY:
                        continue
                    affinity = (1.0 if profile.archetype
                                == UserArchetype.MAINSTREAM_ONLY
                                else 1.0 - profile.alt_preference)
                if affinity <= 0:
                    continue
                members.append(profile)
                weights.append(profile.activity * affinity)
            if not members:
                members = list(self.profiles)
                weights = [p.activity for p in self.profiles]
            self._pool[alternative] = (members, weights)

    def sample_author(self, alternative):
        members, weights = self._pool[alternative]
        return self._rng.choices(members, weights=weights, k=1)[0]

