"""Flat, segment-wise NumPy kernels for the discrete Hawkes core.

Every hot path of the statistical core — candidate-parent enumeration,
Gibbs parent attribution, exposure, rate evaluation, and the exact
log-likelihood — is expressed here as a flat array program over
*segments*: per-event candidate lists are concatenated into single
arrays partitioned by an ``offsets`` vector, in the spirit of the
vectorized conjugate updates of Linderman & Adams.  The Gibbs sampler
in :mod:`.inference`, the likelihood in :mod:`.model`, and the residual
checks in :mod:`.diagnostics` all share these kernels, so no caller
pays for a per-event Python loop.

Bit-compatibility contract
--------------------------
The rate and likelihood kernels are required to produce
*bit-identical* results to the historical per-event loops, so they
preserve the exact floating-point evaluation and accumulation order of
those loops: per-candidate products multiply left-to-right, and
scatter-adds use :func:`np.ufunc.at` / ``np.cumsum``, both of which
accumulate sequentially in element order (a plain ``sum()`` would
re-associate via pairwise summation and drift in the last bits).  The
batched EM engine (:mod:`.batched`) keeps the same orders.  The Gibbs
sampler keeps seed-determinism — same seed, same result — but its
*draw stream* differs from the historical sampler: one bulk uniform
pass replaces per-event ``multinomial`` calls (the sampled law is
unchanged; a multinomial is a sum of i.i.d. categorical draws).

Caching
-------
:func:`get_parent_structure` memoizes the :class:`ParentStructure` on
the (immutable) :class:`~repro.core.events.DiscreteEvents` instance,
keyed by basis content, and :func:`get_query_structure` does the same
for the default rate-evaluation grid.  Gibbs, the likelihood,
diagnostics, and — through memoized cascade binning
(:func:`repro.core.influence.cascade_to_events` with ``memoize=True``)
— repeated Gibbs refits over the same window all reuse one build.  The
cache dies with the events object (and is dropped from pickles by
``DiscreteEvents.__getstate__``), so corpora of transient per-URL
matrices cannot leak or bloat worker payloads.
"""

from __future__ import annotations

import numpy as np

from ..events import DiscreteEvents
from .basis import LagBasis

#: Attribute under which per-events kernel caches are stored.  The
#: events dataclass is frozen, so writes go through object.__setattr__;
#: DiscreteEvents.__getstate__ drops the attribute from pickles.
_CACHE_ATTR = "_hawkes_kernel_cache"

#: Scatter-adds over (pair, K) row blocks are chunked to bound transient
#: memory on dense query grids (e.g. diagnostics over every bin).
_SCATTER_CHUNK = 1 << 18


def _events_cache(events: DiscreteEvents) -> dict:
    cache = getattr(events, _CACHE_ATTR, None)
    if cache is None:
        cache = {}
        object.__setattr__(events, _CACHE_ATTR, cache)
    return cache


def _basis_key(basis: LagBasis) -> tuple:
    """Content key: two bases with equal mappings share structures."""
    return (basis.max_lag, basis.bucket_of.tobytes())


def segment_ranges(starts: np.ndarray, stops: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate the integer ranges ``[starts[i], stops[i])``.

    Returns ``(flat, sizes, offsets)`` where ``flat`` holds every range
    back to back, ``sizes[i] = stops[i] - starts[i]``, and ``offsets``
    (length ``len(starts) + 1``) partitions ``flat`` into segments.
    Built from ``repeat``/``cumsum`` only — no Python loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(stops, dtype=np.int64) - starts
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    flat = (np.arange(total, dtype=np.int64)
            + np.repeat(starts - offsets[:-1], sizes))
    return flat, sizes, offsets


def sequential_row_sum(rows: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Sum ``rows`` onto ``init`` in strict top-to-bottom order.

    Equivalent to ``acc = init.copy(); for row in rows: acc += row`` —
    the associativity a reference accumulation loop uses — via a
    column-wise ``cumsum``.
    """
    if not len(rows):
        return init.copy()
    stacked = np.concatenate([init[None, :], rows], axis=0)
    return np.cumsum(stacked, axis=0)[-1]


class ParentStructure:
    """Flat candidate-parent arrays for each event entry.

    For entry ``m`` (bin ``t``, process ``k``, count ``c``) the
    candidate parents are every earlier entry within ``max_lag`` bins.
    Candidates of all entries are stored concatenated; segment ``m``
    occupies ``flat_*[offsets[m]:offsets[m + 1]]``.
    """

    def __init__(self, events: DiscreteEvents, basis: LagBasis) -> None:
        self.events = events
        self.basis = basis
        ev_bins = events.bins
        lo = np.searchsorted(ev_bins, ev_bins - basis.max_lag, side="left")
        hi = np.searchsorted(ev_bins, ev_bins, side="left")
        flat_idx, sizes, offsets = segment_ranges(lo, hi)
        self.sizes = sizes
        self.offsets = offsets
        self.flat_src = events.processes[flat_idx].astype(np.int64)
        self.flat_lag = (np.repeat(ev_bins, sizes)
                         - ev_bins[flat_idx]).astype(np.int64)
        self.flat_cnt = events.counts[flat_idx].astype(np.float64)
        self.flat_bucket = basis.bucket_of[self.flat_lag - 1]
        self.flat_dst = np.repeat(events.processes.astype(np.int64), sizes)
        # Precomputed gather indices into raveled (K, K) / (K, K, D)
        # arrays: candidate values become three flat gathers + products.
        k = events.n_processes
        self._pair = self.flat_src * k + self.flat_dst
        self._pmf_index = self._pair * basis.max_lag + self.flat_lag - 1
        self.dst = events.processes.astype(np.int64)
        self._draw_entry: np.ndarray | None = None

    @property
    def draw_entry(self) -> np.ndarray:
        """Entry index of each individual event draw: entry ``m``
        repeated ``counts[m]`` times.  Built lazily (only the Gibbs
        sampler needs it) and reused across sweeps.
        """
        if self._draw_entry is None:
            self._draw_entry = np.repeat(
                np.arange(len(self.events), dtype=np.int64),
                self.events.counts.astype(np.int64))
        return self._draw_entry

    # -- per-event views (introspection and tests; not on hot paths) ------

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        if not len(self.events):
            return []
        return np.split(flat, self.offsets[1:-1])

    @property
    def cand_src(self) -> list[np.ndarray]:
        return self._split(self.flat_src)

    @property
    def cand_lag(self) -> list[np.ndarray]:
        return self._split(self.flat_lag)

    @property
    def cand_cnt(self) -> list[np.ndarray]:
        return self._split(self.flat_cnt)

    @property
    def cand_bucket(self) -> list[np.ndarray]:
        return self._split(self.flat_bucket)

    # -- kernels -----------------------------------------------------------

    def all_candidate_values(self, weights: np.ndarray,
                             lag_pmf: np.ndarray) -> np.ndarray:
        """Unnormalized parent weights for every candidate, flattened.

        Products evaluate as ``count * weight * pmf`` left-to-right,
        matching the reference loop bit for bit.
        """
        if not len(self.flat_src):
            return np.empty(0, dtype=np.float64)
        return (self.flat_cnt
                * weights.reshape(-1)[self._pair]
                * lag_pmf.reshape(-1)[self._pmf_index])

    def exposure(self, lag_cdf: np.ndarray) -> np.ndarray:
        """Truncated exposure ``E[i, j]`` under the lag CDF ``(K, K, D)``."""
        return exposure(self.events, lag_cdf, self.basis.max_lag)


def get_parent_structure(events: DiscreteEvents,
                         basis: LagBasis) -> ParentStructure:
    """Memoized :class:`ParentStructure` for ``(events, basis)``."""
    cache = _events_cache(events)
    key = ("parents", _basis_key(basis))
    structure = cache.get(key)
    if structure is None:
        structure = ParentStructure(events, basis)
        cache[key] = structure
    return structure


def exposure(events: DiscreteEvents, lag_cdf: np.ndarray,
             max_lag: int) -> np.ndarray:
    """Truncated exposure ``E[i, j]``: opportunities for events on ``i``
    to parent events on ``j`` before the observation window ends.
    """
    k_procs = events.n_processes
    out = np.zeros((k_procs, k_procs))
    if not len(events):
        return out
    remaining = events.n_bins - 1 - events.bins
    capped = np.minimum(remaining, max_lag)
    valid = capped > 0
    if not valid.any():
        return out
    src = events.processes[valid].astype(np.int64)
    rows = events.counts[valid][:, None] * lag_cdf[src, :, capped[valid] - 1]
    np.add.at(out, src, rows)
    return out


def truncated_kernel_mass(events: DiscreteEvents, weights: np.ndarray,
                          lag_cdf: np.ndarray, max_lag: int,
                          init: np.ndarray) -> np.ndarray:
    """``init + sum_m count_m * W[src_m, :] * cdf[src_m, :, cap_m - 1]``
    accumulated in event order (the rate-integral kernel).
    """
    remaining = events.n_bins - 1 - events.bins
    capped = np.minimum(remaining, max_lag)
    valid = capped > 0
    if not valid.any():
        return init.copy()
    src = events.processes[valid].astype(np.int64)
    rows = (events.counts[valid][:, None]
            * weights[src, :] * lag_cdf[src, :, capped[valid] - 1])
    return sequential_row_sum(rows, init)


class QueryStructure:
    """Flat ``(query bin, source event)`` pairs within ``max_lag``.

    The rate-evaluation analogue of :class:`ParentStructure`: segment
    ``q`` lists every event entry strictly before query bin ``q`` and at
    most ``max_lag`` bins away.
    """

    def __init__(self, events: DiscreteEvents, query_bins: np.ndarray,
                 max_lag: int) -> None:
        ev_bins = events.bins
        lo = np.searchsorted(ev_bins, query_bins - max_lag, side="left")
        hi = np.searchsorted(ev_bins, query_bins, side="left")
        flat_idx, sizes, _ = segment_ranges(lo, hi)
        self.n_queries = len(query_bins)
        self.q_index = np.repeat(np.arange(len(query_bins), dtype=np.int64),
                                 sizes)
        self.src = events.processes[flat_idx].astype(np.int64)
        self.lag = (np.repeat(query_bins, sizes)
                    - ev_bins[flat_idx]).astype(np.int64)
        self.cnt = events.counts[flat_idx].astype(np.float64)

    def add_rates(self, rates: np.ndarray, kernel: np.ndarray) -> None:
        """Scatter-add each pair's ``count * kernel[src, :, lag - 1]``
        row onto ``rates[q]``, in (query, event) order.  Chunked so the
        transient row block stays bounded on dense query grids; chunks
        run in order, preserving the sequential accumulation contract.
        """
        for start in range(0, len(self.src), _SCATTER_CHUNK):
            sl = slice(start, start + _SCATTER_CHUNK)
            rows = self.cnt[sl, None] * kernel[self.src[sl], :,
                                               self.lag[sl] - 1]
            np.add.at(rates, self.q_index[sl], rows)


def unique_bins(events: DiscreteEvents) -> np.ndarray:
    """Memoized ``np.unique(events.bins)``."""
    cache = _events_cache(events)
    uniq = cache.get("unique_bins")
    if uniq is None:
        uniq = np.unique(events.bins)
        cache["unique_bins"] = uniq
    return uniq


def get_query_structure(events: DiscreteEvents,
                        max_lag: int) -> QueryStructure:
    """Memoized :class:`QueryStructure` over the occupied-bin grid."""
    cache = _events_cache(events)
    key = ("query", int(max_lag))
    structure = cache.get(key)
    if structure is None:
        structure = QueryStructure(events, unique_bins(events), max_lag)
        cache[key] = structure
    return structure


def sample_parent_attributions(structure: ParentStructure,
                               background: np.ndarray,
                               flat_vals: np.ndarray,
                               rng: np.random.Generator,
                               ) -> tuple[np.ndarray, np.ndarray]:
    """One vectorized Gibbs attribution pass over every event.

    Each of an entry's ``count`` events is independently attributed to
    the background (mass ``background[dst]``) or to one candidate
    parent (mass ``flat_vals`` within the entry's segment) — jointly a
    multinomial draw per entry, realized as one bulk uniform pass and a
    single ``searchsorted`` against the global candidate-mass cumsum.

    Returns ``(z_background, flat_draws)``: background attribution
    counts per process ``(K,)`` and per-candidate child counts ``(F,)``.
    Entries with no admissible parent mass fall back to the background,
    like the reference sampler.
    """
    events = structure.events
    k_procs = events.n_processes
    if not len(events):
        return np.zeros(k_procs), np.zeros(0)
    offsets = structure.offsets
    dst_all = structure.dst
    # Global cumulative candidate mass; segment m spans
    # cum[offsets[m]] .. cum[offsets[m + 1]] (cum has a leading zero).
    cum = np.zeros(len(flat_vals) + 1)
    np.cumsum(flat_vals, out=cum[1:])
    seg_mass = cum[offsets[1:]] - cum[offsets[:-1]]
    bg_mass = background[dst_all]
    totals = bg_mass + seg_mass

    rep = structure.draw_entry
    x = rng.random(len(rep)) * totals[rep]
    to_background = ((x < bg_mass[rep])
                     | (seg_mass[rep] <= 0) | (totals[rep] <= 0))
    z_background = np.bincount(
        dst_all[rep[to_background]], minlength=k_procs).astype(np.float64)

    flat_draws = np.zeros(len(flat_vals))
    cand = ~to_background
    if cand.any():
        rep_c = rep[cand]
        lo, hi = offsets[:-1][rep_c], offsets[1:][rep_c]
        targets = cum[lo] + (x[cand] - bg_mass[rep_c])
        chosen = np.searchsorted(cum[1:], targets, side="right")
        # Guard the last-ulp overshoot past the segment's own mass sum.
        chosen = np.clip(chosen, lo, hi - 1)
        flat_draws += np.bincount(chosen, minlength=len(flat_vals))
    return z_background, flat_draws
