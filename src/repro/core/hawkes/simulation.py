"""Forward sampling of the discrete Hawkes model.

Two samplers are provided:

* :func:`simulate_branching` uses the exact cluster (branching)
  representation — background events arrive as a homogeneous Poisson
  process and every event independently spawns Poisson-distributed
  children at lags drawn from the impulse PMF.  This is the production
  sampler: cost scales with the number of events, not with ``T``.
* :func:`simulate_stepwise` walks the bins one at a time, drawing
  ``Poisson(lambda[t, k])`` counts from the accumulated rate.  It is
  O(T·K·D) and exists as an independent cross-check of the branching
  construction (the two agree in distribution; tested on moments).

:func:`simulate_branching` rejects a super-critical ``W`` (spectral
radius >= 1) before drawing anything: such a cascade need not die out,
and within a long window it grows until the event budget stops it.  The
event budget stays only as a backstop.

:func:`choice_cdf` and :func:`draw_index` make fixed-``p`` categorical
draws that equal ``Generator.choice(..., p=p)`` without rebuilding the
CDF on every call.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..events import DiscreteEvents
from .model import HawkesParams

#: Backstop against runaway cascades; a super-critical ``W`` is
#: rejected before simulating, so only an enormous window can reach it.
_MAX_EVENTS = 5_000_000

#: ``Generator.choice``'s tolerance on ``sum(p) - 1``.
_PMF_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def choice_cdf(p) -> np.ndarray:
    """The CDF ``Generator.choice(..., p=p)`` builds, over the last axis.

    ``p`` may stack several PMFs (e.g. a ``(K, K, D)`` impulse array);
    each is accumulated and normalized exactly as ``choice`` does, and
    rejected with ``choice``'s ``ValueError`` where ``choice`` would
    reject it.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.isnan(p).any():
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if (np.abs(p.sum(axis=-1) - 1.0) > _PMF_ATOL).any():
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def draw_index(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One draw of ``rng.choice(len(p), p=p)`` given ``cdf = choice_cdf(p)``."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def simulate_branching(params: HawkesParams, n_bins: int,
                       rng: np.random.Generator | None = None,
                       ) -> DiscreteEvents:
    """Draw one realization of the model over ``n_bins`` bins.

    Raises ``RuntimeError`` before any draw if ``W`` is super-critical
    (spectral radius >= 1), and as a backstop if the cascade exceeds an
    internal event budget.
    """
    return _simulate_branching(params, n_bins, rng,
                               choice_cdf(params.impulse))


def _simulate_branching(params: HawkesParams, n_bins: int,
                        rng: np.random.Generator | None,
                        lag_cdf: np.ndarray) -> DiscreteEvents:
    """:func:`simulate_branching` given ``choice_cdf(params.impulse)``.

    Callers simulating many cascades under one impulse array build its
    CDF once.  ``lag_cdf[k, dst]`` draws ``lag - 1`` exactly as
    ``rng.choice(lags, p=impulse[k, dst])`` draws ``lag``.
    """
    radius = params.spectral_radius()
    if radius >= 1.0:
        raise RuntimeError(
            f"weight matrix is super-critical (spectral radius "
            f"{radius:.3f} >= 1); the cascade need not die out")
    rng = rng or np.random.default_rng()
    k_procs = params.n_processes
    weights = params.weights.tolist()
    queue: deque[tuple[int, int]] = deque()

    # Immigrant (background) events: Poisson(lambda0) per bin, drawn in
    # bulk as a total count placed uniformly over bins.
    for k in range(k_procs):
        total = rng.poisson(params.background[k] * n_bins)
        if total:
            for t in rng.integers(0, n_bins, size=total):
                queue.append((int(t), k))

    all_events: list[tuple[int, int]] = []
    produced = 0
    while queue:
        t, k = queue.popleft()
        all_events.append((t, k))
        produced += 1
        if produced > _MAX_EVENTS:
            raise RuntimeError(
                "event budget exceeded; weight matrix is likely unstable "
                f"(spectral radius {radius:.3f})")
        row = weights[k]
        for dst in range(k_procs):
            n_children = rng.poisson(row[dst])
            if not n_children:
                continue
            lag_index = lag_cdf[k, dst].searchsorted(
                rng.random(n_children), side="right")
            for index in lag_index.tolist():
                child_t = t + index + 1
                if child_t < n_bins:
                    queue.append((child_t, dst))

    return DiscreteEvents.from_pairs(all_events, n_bins=n_bins,
                                     n_processes=k_procs)


def simulate_stepwise(params: HawkesParams, n_bins: int,
                      rng: np.random.Generator | None = None,
                      ) -> DiscreteEvents:
    """Bin-by-bin sampler; O(T·K·D) and intended for validation only."""
    rng = rng or np.random.default_rng()
    k_procs = params.n_processes
    max_lag = params.max_lag
    kernel = params.branching_kernel()  # (K, K, D)
    counts = np.zeros((n_bins, k_procs), dtype=np.int64)
    for t in range(n_bins):
        rate = params.background.copy()
        lo = max(0, t - max_lag)
        for t_past in range(lo, t):
            past = counts[t_past]
            if not past.any():
                continue
            lag = t - t_past
            rate += past @ kernel[:, :, lag - 1]
        counts[t] = rng.poisson(rate)
    return DiscreteEvents.from_dense(counts)


def expected_total_events(params: HawkesParams, n_bins: int) -> np.ndarray:
    """Expected event totals per process over ``n_bins`` bins.

    Ignoring edge truncation, totals solve ``N = lambda0 * T + W^T N``,
    i.e. ``N = (I - W^T)^{-1} lambda0 T``.  Useful for sizing simulations
    and as an analytic check on the samplers.
    """
    identity = np.eye(params.n_processes)
    return np.linalg.solve(identity - params.weights.T,
                           params.background * n_bins)
