"""Batched EM: fit a whole corpus chunk of cascades as one array program.

This is the repo's only EM implementation: :func:`~.inference.fit_em`
is a batch of one, and :func:`~repro.core.influence.fit_corpus` packs
every chunk of per-URL cascades into one batch.  With thousands of
*tiny* cascades the cost of a per-URL loop is NumPy call dispatch —
hundreds of kernel launches per URL on arrays with tens of elements —
so a batch of per-URL :class:`~repro.core.events.DiscreteEvents` is
packed into one flat segmented layout with a leading cascade axis, and
every EM phase — candidate values, responsibilities, exposures, MAP
updates, and the log-likelihood — runs across the entire batch in
single NumPy calls.

Packing
-------
Cascades are laid end to end on one shared global bin axis with a
``max_lag`` guard gap between consecutive cascades
(:class:`PackedCascades`).  The same two-``searchsorted`` candidate
enumeration as :class:`~.kernels.ParentStructure` then runs once over
the packed ``bins`` array, and the guard gap guarantees no candidate
parent ever crosses a cascade boundary: the nearest event of the
previous cascade is always more than ``max_lag`` bins away.  Per-pair
state gains a leading cascade axis — ``background (C, K)``, ``weights
(C, K, K)``, bucket PMFs ``(C, K, K, B)`` — and all scatters/gathers go
through precomputed raveled indices that include the cascade.

Equivalence contract
--------------------
Every cascade is evaluated in exactly the floating-point order of the
historical per-event EM loop (``naive_fit_em`` in the test suite), so
a cascade's fitted parameters, log-likelihood and iteration count are
bit-identical to fitting it alone, for every batch composition, worker
count and chunk size:

* E-step products multiply as ``count * weight * pmf`` and scatter-add
  in candidate order; per-entry candidate totals use
  ``np.add.reduceat`` with one trailing ``+0.0`` absorbed by each
  cascade's final segment, as a lone cascade's sentinel is.
* Exposure and the rate integral read ``cumsum(expand(buckets))`` at
  each entry's truncation cap.  It is accumulated lag by lag (a
  bucket-level closed form would round differently) over only the
  ``(cascade, source)`` rows entries read, so the working set is one
  ``(rows, K)`` accumulator, never a ``(C, K, K, D)`` tensor.
* The likelihood follows :func:`~.model.discrete_log_likelihood`:
  kernel values ``count * (weight * pmf)`` accumulate onto the
  background in event order, the integral adds ``(count * weight) *
  cdf`` rows onto ``background * T`` in event order before summing over
  processes, and the log term is a sequential sum.

Every scatter-add is an ``np.bincount`` over zeros, which accumulates
its weights sequentially in element order exactly as ``np.add.at``
does; accumulations onto a non-zero start put the start values first
in the same bincount.

``tests/test_batched_equivalence.py`` and
``tests/test_hawkes_batched.py`` pin all of this against the loop.

Convergence uses per-cascade freeze masks: the iteration a cascade's
relative log-likelihood delta drops below ``tol`` its parameters and
likelihood freeze while the rest of the batch keeps iterating.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from ...obs import DEFAULT_COUNT_BUCKETS, DEFAULT_DELTA_BUCKETS, get_registry
from ..events import DiscreteEvents
from .basis import LagBasis, LogBinnedLagBasis
from .inference import FitResult, Priors
from .kernels import segment_ranges
from .model import HawkesParams

#: Parameter floor shared with the per-URL MAP updates.
_EPS = 1e-12

#: Below this working-set size, compaction's repacking overhead beats
#: its savings — small batches just finish with freeze masks.
_COMPACT_MIN_CASCADES = 32


class PackedCascades:
    """``C`` per-URL event matrices packed onto one global bin axis.

    Cascade ``c`` occupies global bins ``[bin_offsets[c],
    bin_offsets[c] + n_bins[c])``; consecutive cascades are separated
    by a ``max_lag``-bin guard gap so lag-windowed candidate searches
    never reach into a neighbour.  Entries stay sorted by global bin
    (cascade-major, bin-minor) and segment ``c`` of every per-entry
    array spans ``entry_offsets[c]:entry_offsets[c + 1]``.
    """

    def __init__(self, events_list: Sequence[DiscreteEvents],
                 max_lag: int) -> None:
        if not events_list:
            raise ValueError("need at least one cascade to pack")
        k = events_list[0].n_processes
        if any(ev.n_processes != k for ev in events_list):
            raise ValueError("all packed cascades must share n_processes")
        self.max_lag = int(max_lag)
        self.n_cascades = len(events_list)
        self.n_processes = k
        self.n_bins = np.array([ev.n_bins for ev in events_list],
                               dtype=np.int64)
        entry_counts = np.array([len(ev) for ev in events_list],
                                dtype=np.int64)
        self.entry_offsets = np.zeros(self.n_cascades + 1, dtype=np.int64)
        np.cumsum(entry_counts, out=self.entry_offsets[1:])
        # Guard gap: offset step T_c + max_lag puts the last bin of
        # cascade c at least max_lag + 1 bins before the first bin of
        # cascade c + 1, so a candidate window [t - max_lag, t) can
        # never span cascades.
        self.bin_offsets = np.zeros(self.n_cascades, dtype=np.int64)
        if self.n_cascades > 1:
            np.cumsum(self.n_bins[:-1] + self.max_lag,
                      out=self.bin_offsets[1:])
        self.cascade_of = np.repeat(
            np.arange(self.n_cascades, dtype=np.int64), entry_counts)
        self.bins = (np.concatenate(
            [ev.bins for ev in events_list]).astype(np.int64)
            + self.bin_offsets[self.cascade_of])
        self.processes = np.concatenate(
            [ev.processes for ev in events_list]).astype(np.int64)
        self.counts = np.concatenate(
            [ev.counts for ev in events_list]).astype(np.float64)

    def __len__(self) -> int:
        return len(self.bins)


class BatchedParentStructure:
    """Candidate-parent arrays for every entry of a packed batch.

    The batched analogue of :class:`~.kernels.ParentStructure`: one
    candidate enumeration over the packed global bins covers every
    cascade, and the precomputed gather indices target raveled
    ``(C, K, K)`` / ``(C, K, K, B)`` parameter arrays so per-sweep
    work is three flat gathers, two products, and sequential
    scatter-adds — for the whole batch at once.
    """

    def __init__(self, packed: PackedCascades, basis: LagBasis) -> None:
        self.packed = packed
        self.basis = basis
        bins = packed.bins
        lo = np.searchsorted(bins, bins - basis.max_lag, side="left")
        hi = np.searchsorted(bins, bins, side="left")
        flat_idx, sizes, offsets = segment_ranges(lo, hi)
        self.sizes = sizes
        k = packed.n_processes
        self.flat_src = packed.processes[flat_idx]
        self.flat_lag = np.repeat(bins, sizes) - bins[flat_idx]
        self.flat_cnt = packed.counts[flat_idx]
        self.flat_bucket = basis.bucket_of[self.flat_lag - 1]
        self.flat_dst = np.repeat(packed.processes, sizes)
        self.flat_cascade = np.repeat(packed.cascade_of, sizes)
        # Rate accumulators: each entry's background, then its
        # candidates in event order (see :meth:`rates`).
        n_entries = len(packed)
        self._rate_cell = np.concatenate([
            np.arange(n_entries), np.repeat(np.arange(n_entries), sizes)])
        self._pair = (self.flat_cascade * k + self.flat_src) * k \
            + self.flat_dst
        self._bucket_index = (self._pair * basis.n_buckets
                              + self.flat_bucket)
        self._bucket_size = basis.bucket_sizes[self.flat_bucket].astype(
            np.float64)
        #: Raveled (C, K) cell of each entry: cascade * K + process.
        self.entry_cell = packed.cascade_of * k + packed.processes
        # -- segment-sum layout: one +0.0 sentinel after each non-empty
        # cascade's candidates, so its final segment sums exactly as a
        # lone cascade's does (reduceat's pairwise grouping depends on
        # the term count once a segment reaches 8 terms).
        nonempty = np.diff(packed.entry_offsets) > 0
        sentinels_before = np.cumsum(nonempty) - nonempty
        self._padded_size = len(flat_idx) + int(nonempty.sum())
        self._padded_slot = (np.arange(len(flat_idx), dtype=np.int64)
                             + sentinels_before[self.flat_cascade])
        self._padded_starts = (offsets[:-1]
                               + sentinels_before[packed.cascade_of])
        # -- truncated-exposure precomputation (window-end effects) ------
        local_bins = packed.bins - packed.bin_offsets[packed.cascade_of]
        remaining = packed.n_bins[packed.cascade_of] - 1 - local_bins
        capped = np.minimum(remaining, basis.max_lag)
        valid = capped > 0
        self.v_cascade = packed.cascade_of[valid]
        self.v_src = packed.processes[valid]
        self.v_cnt = packed.counts[valid]
        self.v_cap = capped[valid]
        # Raveled (C, K, K) exposure cells of each valid entry's K-wide
        # row, and raveled (C, K) integral cells: every cascade's
        # background term, then the entries' rows in event order.
        dst = np.arange(k)
        self._exposure_cell = (((self.v_cascade * k + self.v_src)
                                * k)[:, None] + dst).ravel()
        self._integral_cell = np.concatenate([
            np.arange(packed.n_cascades * k),
            ((self.v_cascade * k)[:, None] + dst).ravel()])
        # Lag-CDF rows are keyed by raveled (cascade, source); only the
        # rows some valid entry reads are ever accumulated, each entry
        # reads its row at the lag equal to its cap, and accumulation
        # stops at the largest cap.
        self._cdf_rows, v_row = np.unique(
            self.v_cascade * k + self.v_src, return_inverse=True)
        by_cap = np.argsort(self.v_cap, kind="stable")
        caps, starts = np.unique(self.v_cap[by_cap], return_index=True)
        self._captures = {
            int(cap): (entries, v_row[entries])
            for cap, entries in zip(caps, np.split(by_cap, starts[1:]))}
        max_cap = int(caps[-1]) if len(caps) else 0
        self._lag_buckets = basis.bucket_of[:max_cap].tolist()

    def lookups(self, weights: np.ndarray, buckets: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What the E-step, exposure and likelihood read of one
        parameter set: every candidate's ``W[c, src, dst]`` and per-lag
        PMF (the bucket probability spread uniformly over the bucket's
        lags, as ``basis.expand`` does), and the valid entries' lag-CDF
        rows (:meth:`truncation_cdf_rows`).
        """
        flat_weight = weights.reshape(-1)[self._pair]
        flat_pmf = buckets.reshape(-1)[self._bucket_index] / self._bucket_size
        return flat_weight, flat_pmf, self.truncation_cdf_rows(buckets)

    def segment_sums(self, flat_vals: np.ndarray) -> np.ndarray:
        """Per-entry candidate-mass totals, ``(n_entries,)``."""
        if not len(flat_vals):
            return np.zeros(len(self.packed))
        padded = np.zeros(self._padded_size)
        padded[self._padded_slot] = flat_vals
        sums = np.add.reduceat(padded, self._padded_starts)
        sums[self.sizes == 0] = 0.0
        return sums

    def truncation_cdf_rows(self, buckets: np.ndarray) -> np.ndarray:
        """Lag-CDF rows ``cumsum(expand(buckets))[c, src, :, cap - 1]``.

        ``(n_valid, K)``, one row per valid entry.  The per-lag cumsum
        runs lag by lag across every ``(cascade, source)`` row entries
        read, so the working set is one ``(rows, K)`` accumulator.
        """
        k = self.packed.n_processes
        n_buckets = self.basis.n_buckets
        per_lag = (buckets.reshape(-1, k, n_buckets)[self._cdf_rows]
                   / self.basis.bucket_sizes)
        steps = np.ascontiguousarray(per_lag.reshape(-1, n_buckets).T)
        acc = np.zeros(steps.shape[1])
        rows = acc.reshape(-1, k)
        out = np.empty((len(self.v_cap), k))
        for lag, bucket in enumerate(self._lag_buckets, start=1):
            acc += steps[bucket]
            capture = self._captures.get(lag)
            if capture is not None:
                entries, entry_rows = capture
                out[entries] = rows[entry_rows]
        return out

    def exposure(self, cdf_rows: np.ndarray) -> np.ndarray:
        """Truncated exposure ``E[c, i, j]`` from the entries' CDF rows."""
        c, k = self.packed.n_cascades, self.packed.n_processes
        return np.bincount(self._exposure_cell,
                           (self.v_cnt[:, None] * cdf_rows).ravel(),
                           c * k * k).reshape(c, k, k)

    def rates(self, background: np.ndarray, flat_weight: np.ndarray,
              flat_pmf: np.ndarray) -> np.ndarray:
        """Rate at every entry: its background, then each candidate's
        ``count * (W * pmf)`` in event order, as
        :func:`~.model.expected_rate` accumulates them."""
        n_entries = len(self.packed)
        kernel = self.flat_cnt * (flat_weight * flat_pmf)
        return np.bincount(
            self._rate_cell,
            np.concatenate([background.reshape(-1)[self.entry_cell],
                            kernel]), n_entries)

    def rate_integral(self, background: np.ndarray, weights: np.ndarray,
                      cdf_rows: np.ndarray) -> np.ndarray:
        """``(C, K)`` rate integrals: ``background * T``, then each valid
        entry's ``(count * W) * cdf`` row in event order, as
        :func:`~.model.rate_integral` accumulates them."""
        c, k = self.packed.n_cascades, self.packed.n_processes
        rows = (self.v_cnt[:, None] * weights[self.v_cascade, self.v_src]
                * cdf_rows)
        return np.bincount(
            self._integral_cell,
            np.concatenate([
                (background * self.packed.n_bins[:, None]).ravel(),
                rows.ravel()]), c * k).reshape(c, k)


@dataclass(frozen=True)
class BatchedEMResult:
    """Per-cascade MAP estimates of one batched EM fit.

    Parameters stay stacked (cascade-leading axes) so a corpus driver
    can slice rows without materializing ``C`` expanded ``(K, K, D)``
    impulse arrays; :meth:`fit_result` expands one cascade on demand.
    """

    background: np.ndarray      # (C, K)
    weights: np.ndarray         # (C, K, K)
    bucket_pmf: np.ndarray      # (C, K, K, B)
    log_likelihood: np.ndarray  # (C,)
    n_iterations: np.ndarray    # (C,)
    basis: LagBasis

    def __len__(self) -> int:
        return len(self.log_likelihood)

    def fit_result(self, cascade: int) -> FitResult:
        """One cascade's fit as a :func:`~.inference.fit_em` result."""
        params = HawkesParams(
            background=self.background[cascade].copy(),
            weights=self.weights[cascade].copy(),
            impulse=self.basis.expand(self.bucket_pmf[cascade]))
        return FitResult(params=params,
                         log_likelihood=float(self.log_likelihood[cascade]),
                         n_iterations=int(self.n_iterations[cascade]))


def _record_batch_metrics(n_iterations: np.ndarray, deltas: np.ndarray,
                          sweeps: int, total: float,
                          phases: dict[str, float]) -> None:
    """Observe one completed batched fit (pure timing, RNG-free)."""
    registry = get_registry()
    registry.counter("repro_fit_batch_total",
                     "Completed batched EM corpus fits.", method="em").inc()
    registry.counter("repro_fit_total",
                     "Completed per-URL Hawkes fits.",
                     method="em").inc(len(n_iterations))
    iterations = registry.histogram(
        "repro_fit_em_iterations", "EM iterations to convergence.",
        edges=DEFAULT_COUNT_BUCKETS)
    for count in n_iterations:
        iterations.observe(count)
    convergence = registry.histogram(
        "repro_fit_em_convergence_delta",
        "Final relative log-likelihood delta at EM termination.",
        edges=DEFAULT_DELTA_BUCKETS)
    for delta in deltas[np.isfinite(deltas)]:
        convergence.observe(delta)
    registry.histogram("repro_fit_batch_cascades",
                       "Cascades packed into one batched EM fit.",
                       edges=DEFAULT_COUNT_BUCKETS).observe(
                           len(n_iterations))
    registry.histogram("repro_fit_batch_iterations",
                       "EM iterations until the whole batch converged.",
                       edges=DEFAULT_COUNT_BUCKETS).observe(sweeps)
    registry.histogram("repro_fit_batch_seconds",
                       "Wall time of one batched EM fit.").observe(total)
    phase_help = "Kernel wall time per fit phase, summed over sweeps."
    for phase, seconds in phases.items():
        registry.histogram("repro_fit_phase_seconds", phase_help,
                           method="em", phase=phase).observe(seconds)


def fit_em_batched(events_list: Sequence[DiscreteEvents], max_lag: int,
                   basis: LagBasis | None = None,
                   priors: Priors | None = None,
                   max_iterations: int = 200,
                   tol: float = 1e-6) -> BatchedEMResult:
    """Deterministic MAP EM over a batch of cascades, all phases batched.

    Each cascade's result is bit-identical to fitting it alone (see the
    module docstring).  Each cascade iterates until its own relative
    log-likelihood delta drops below ``tol`` (then freezes) or
    ``max_iterations`` is hit.

    Converged cascades first freeze (``np.where`` masking), and once a
    quarter of the working set is frozen the batch is *compacted*:
    frozen results are flushed to the output arrays and the survivors
    are repacked into a smaller batch.  Cascades never interact, so
    compaction is invisible in the results; it only stops long-tail
    cascades from dragging the already-converged majority through
    extra full-batch sweeps (a repack costs about one full-batch sweep).
    """
    priors = priors or Priors()
    basis = basis or LogBinnedLagBasis(max_lag)
    if basis.max_lag != max_lag:
        raise ValueError("basis.max_lag must equal max_lag")
    fit_start = perf_counter()
    work = list(events_list)
    n_total = len(work)
    packed = PackedCascades(work, basis.max_lag)
    structure = BatchedParentStructure(packed, basis)
    n_casc = packed.n_cascades
    k_procs = packed.n_processes
    n_buckets = basis.n_buckets

    # -- initialization (mirrors inference._initial_state per cascade) ---
    totals_per = np.bincount(structure.entry_cell, packed.counts,
                             n_casc * k_procs).reshape(n_casc, k_procs)
    background = np.maximum(
        np.full((n_casc, k_procs),
                priors.background_shape / priors.background_rate),
        0.5 * totals_per / np.maximum(packed.n_bins, 1)[:, None])
    weights = np.full((n_casc, k_procs, k_procs),
                      priors.weight_shape / priors.weight_rate)
    buckets = np.full((n_casc, k_procs, k_procs, n_buckets),
                      1.0 / n_buckets)
    # Each sweep's likelihood computes the lookups of the updated
    # parameters, which the next sweep's E-step and exposure reuse.
    flat_weight, flat_pmf, cdf_rows = structure.lookups(weights, buckets)

    counts = packed.counts
    entry_cell = structure.entry_cell
    cascade_of = packed.cascade_of
    bg_denominator = priors.background_rate + packed.n_bins[:, None]
    log_factorials = gammaln(counts + 1.0)

    # Output arrays at full corpus size; the working set shrinks via
    # compaction and ``orig`` maps working rows back to corpus rows.
    orig = np.arange(n_total)
    out_background = np.empty((n_total, k_procs))
    out_weights = np.empty((n_total, k_procs, k_procs))
    out_buckets = np.empty((n_total, k_procs, k_procs, n_buckets))
    out_ll = np.full(n_total, -np.inf)
    out_iterations = np.zeros(n_total, dtype=np.int64)
    out_delta = np.full(n_total, np.inf)

    active = np.ones(n_casc, dtype=bool)
    previous_ll = np.full(n_casc, -np.inf)
    final_ll = np.full(n_casc, -np.inf)
    final_delta = np.full(n_casc, np.inf)
    n_iterations = np.zeros(n_casc, dtype=np.int64)
    attribution_s = updates_s = likelihood_s = 0.0
    iterations_run = 0
    for iteration in range(max_iterations):
        if not active.any():
            break
        iterations_run = iteration + 1
        phase_start = perf_counter()
        # -- E-step: responsibilities over the whole batch ----------------
        flat_vals = structure.flat_cnt * flat_weight * flat_pmf
        seg_sums = structure.segment_sums(flat_vals)
        entry_bg = background.reshape(-1)[entry_cell]
        totals = entry_bg + seg_sums
        safe = totals > 0
        denominator = np.where(safe, totals, 1.0)
        bg_resp = np.where(safe, counts * entry_bg / denominator, counts)
        z_background = np.bincount(entry_cell, bg_resp, n_casc * k_procs
                                   ).reshape(n_casc, k_procs)
        scale = np.where(safe, counts / denominator, 0.0)
        flat_resp = flat_vals * np.repeat(scale, structure.sizes)
        z_weight = np.bincount(structure._pair, flat_resp, weights.size
                               ).reshape(weights.shape)
        z_bucket = np.bincount(structure._bucket_index, flat_resp,
                               buckets.size).reshape(buckets.shape)
        attribution_s += perf_counter() - phase_start
        # -- MAP M-step ----------------------------------------------------
        phase_start = perf_counter()
        new_background = np.maximum(
            (priors.background_shape - 1.0 + z_background)
            / bg_denominator, _EPS)
        exposure = structure.exposure(cdf_rows)
        new_weights = np.maximum(
            (priors.weight_shape - 1.0 + z_weight)
            / (priors.weight_rate + exposure), 0.0)
        concentration = np.maximum(
            priors.impulse_concentration - 1.0 + z_bucket, _EPS)
        new_buckets = concentration / concentration.sum(axis=3,
                                                        keepdims=True)
        updates_s += perf_counter() - phase_start
        # -- log-likelihood of the updated parameters ----------------------
        phase_start = perf_counter()
        # Adopted unmasked: a frozen cascade's next-sweep updates are
        # masked out below, so nothing reads its lookups again.
        flat_weight, flat_pmf, cdf_rows = structure.lookups(new_weights,
                                                            new_buckets)
        rates = structure.rates(new_background, flat_weight, flat_pmf)
        positive = rates > 0
        terms = (counts * np.log(np.where(positive, rates, 1.0))
                 - log_factorials)
        log_terms = np.bincount(cascade_of, terms, n_casc)
        integral = structure.rate_integral(new_background, new_weights,
                                           cdf_rows).sum(axis=1)
        current_ll = log_terms - integral
        current_ll[np.bincount(cascade_of, ~positive, n_casc) > 0] = -np.inf
        likelihood_s += perf_counter() - phase_start
        # -- adopt updates for active cascades; freeze the converged -------
        background = np.where(active[:, None], new_background, background)
        weights = np.where(active[:, None, None], new_weights, weights)
        buckets = np.where(active[:, None, None, None], new_buckets,
                           buckets)
        final_ll = np.where(active, current_ll, final_ll)
        n_iterations[active] = iteration + 1
        # previous_ll is -inf until a cascade's first sweep completes;
        # the delta is then NaN/Inf and the comparison is correctly
        # False, so silence the invalid-value warning NumPy raises for
        # the array form of the same scalar check fit_em runs.
        with np.errstate(invalid="ignore"):
            change = np.abs(current_ll - previous_ll)
            reference = 1.0 + np.abs(previous_ll)
            converged = change < tol * reference
            final_delta = np.where(active, change / reference, final_delta)
        previous_ll = np.where(active, current_ll, previous_ll)
        active &= ~converged
        # -- compaction: flush the frozen, repack the survivors ------------
        n_active = int(active.sum())
        if (0 < n_active <= n_casc * 3 // 4
                and n_casc >= _COMPACT_MIN_CASCADES):
            frozen = np.flatnonzero(~active)
            out_background[orig[frozen]] = background[frozen]
            out_weights[orig[frozen]] = weights[frozen]
            out_buckets[orig[frozen]] = buckets[frozen]
            out_ll[orig[frozen]] = final_ll[frozen]
            out_iterations[orig[frozen]] = n_iterations[frozen]
            out_delta[orig[frozen]] = final_delta[frozen]
            keep = np.flatnonzero(active)
            work = [work[i] for i in keep]
            orig = orig[keep]
            background = np.ascontiguousarray(background[keep])
            weights = np.ascontiguousarray(weights[keep])
            buckets = np.ascontiguousarray(buckets[keep])
            flat_weight = flat_weight[active[structure.flat_cascade]]
            flat_pmf = flat_pmf[active[structure.flat_cascade]]
            cdf_rows = cdf_rows[active[structure.v_cascade]]
            previous_ll = previous_ll[keep]
            final_ll = final_ll[keep]
            final_delta = final_delta[keep]
            n_iterations = n_iterations[keep]
            packed = PackedCascades(work, basis.max_lag)
            structure = BatchedParentStructure(packed, basis)
            n_casc = packed.n_cascades
            counts = packed.counts
            entry_cell = structure.entry_cell
            cascade_of = packed.cascade_of
            bg_denominator = (priors.background_rate
                              + packed.n_bins[:, None])
            log_factorials = gammaln(counts + 1.0)
            active = np.ones(n_casc, dtype=bool)

    # Flush whatever the loop left in the working set (never-compacted
    # batches, survivors of the last compaction, max_iterations tails).
    out_background[orig] = background
    out_weights[orig] = weights
    out_buckets[orig] = buckets
    out_ll[orig] = final_ll
    out_iterations[orig] = n_iterations
    out_delta[orig] = final_delta

    _record_batch_metrics(out_iterations, out_delta, iterations_run,
                          perf_counter() - fit_start, {
                              "attribution": attribution_s,
                              "updates": updates_s,
                              "likelihood": likelihood_s,
                          })
    return BatchedEMResult(
        background=out_background,
        weights=out_weights,
        bucket_pmf=out_buckets,
        log_likelihood=out_ll,
        n_iterations=out_iterations,
        basis=basis,
    )
