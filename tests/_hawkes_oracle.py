"""Naive per-event EM oracle shared by the Hawkes test suites.

Straight transcriptions of the historical per-event Python loops the
vectorized kernels and the batched EM engine replaced.  They fix the
floating-point evaluation and accumulation order every fast path must
reproduce bit for bit: ``tests/test_hawkes_kernels.py`` pins the
kernels and ``fit_em``, ``tests/test_hawkes_batched.py`` and
``tests/test_batched_equivalence.py`` pin batched EM and the corpus fit.
"""

import numpy as np
from scipy.special import gammaln

from repro.core.hawkes.basis import LogBinnedLagBasis
from repro.core.hawkes.inference import Priors, _initial_state
from repro.core.hawkes.model import HawkesParams


class NaiveParentStructure:
    """Loop-built candidate arrays, as the original implementation did."""

    def __init__(self, events, basis):
        self.events = events
        self.basis = basis
        ev_bins = events.bins
        self.cand_src, self.cand_lag = [], []
        self.cand_cnt, self.cand_bucket = [], []
        for m in range(len(events)):
            t = int(ev_bins[m])
            lo = np.searchsorted(ev_bins, t - basis.max_lag, side="left")
            hi = np.searchsorted(ev_bins, t, side="left")
            idx = np.arange(lo, hi)
            lags = (t - ev_bins[idx]).astype(np.int64)
            self.cand_src.append(events.processes[idx].astype(np.int64))
            self.cand_lag.append(lags)
            self.cand_cnt.append(events.counts[idx].astype(np.float64))
            self.cand_bucket.append(basis.bucket_of[lags - 1])
        sizes = [len(src) for src in self.cand_src]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        if self.offsets[-1]:
            self.flat_src = np.concatenate(self.cand_src)
            self.flat_lag = np.concatenate(self.cand_lag)
            self.flat_cnt = np.concatenate(self.cand_cnt)
            self.flat_bucket = np.concatenate(self.cand_bucket)
            self.flat_dst = np.repeat(
                events.processes.astype(np.int64), sizes)
        else:
            self.flat_src = np.empty(0, dtype=np.int64)
            self.flat_lag = np.empty(0, dtype=np.int64)
            self.flat_cnt = np.empty(0, dtype=np.float64)
            self.flat_bucket = np.empty(0, dtype=np.int64)
            self.flat_dst = np.empty(0, dtype=np.int64)

    def all_candidate_values(self, weights, lag_pmf):
        if not len(self.flat_src):
            return np.empty(0, dtype=np.float64)
        return (self.flat_cnt
                * weights[self.flat_src, self.flat_dst]
                * lag_pmf[self.flat_src, self.flat_dst, self.flat_lag - 1])

    def exposure(self, lag_cdf):
        events = self.events
        k_procs = events.n_processes
        out = np.zeros((k_procs, k_procs))
        remaining = events.n_bins - 1 - events.bins
        capped = np.minimum(remaining, self.basis.max_lag)
        for m in range(len(events)):
            cap = int(capped[m])
            if cap <= 0:
                continue
            src = int(events.processes[m])
            out[src, :] += events.counts[m] * lag_cdf[src, :, cap - 1]
        return out


def naive_expected_rate(params, events, query_bins=None):
    if query_bins is None:
        query_bins = np.unique(events.bins)
    query_bins = np.asarray(query_bins, dtype=np.int64)
    kernel = params.branching_kernel()
    rates = np.tile(params.background, (len(query_bins), 1))
    if not len(events):
        return rates
    ev_bins = events.bins
    for qi, t in enumerate(query_bins):
        lo = np.searchsorted(ev_bins, t - params.max_lag, side="left")
        hi = np.searchsorted(ev_bins, t, side="left")
        for m in range(lo, hi):
            lag = int(t - ev_bins[m])
            src = int(events.processes[m])
            rates[qi, :] += events.counts[m] * kernel[src, :, lag - 1]
    return rates


def naive_rate_integral(params, events):
    total = params.background * events.n_bins
    if not len(events):
        return total
    cdf = np.cumsum(params.impulse, axis=2)
    remaining = events.n_bins - 1 - events.bins
    capped = np.minimum(remaining, params.max_lag)
    for m in range(len(events)):
        cap = int(capped[m])
        if cap <= 0:
            continue
        src = int(events.processes[m])
        total += (events.counts[m] * params.weights[src, :]
                  * cdf[src, :, cap - 1])
    return total


def naive_log_likelihood(params, events):
    integral = float(naive_rate_integral(params, events).sum())
    if not len(events):
        return -integral
    rates = naive_expected_rate(params, events)
    uniq = np.unique(events.bins)
    row_of = {int(t): i for i, t in enumerate(uniq)}
    log_term = 0.0
    for m in range(len(events)):
        lam = rates[row_of[int(events.bins[m])], int(events.processes[m])]
        if lam <= 0:
            return -np.inf
        count = int(events.counts[m])
        log_term += count * np.log(lam) - float(gammaln(count + 1))
    return log_term - integral


def naive_fit_em(events, max_lag, basis=None, priors=None,
                 max_iterations=200, tol=1e-6):
    """Transcription of the historical EM fitter (per-event loop kernels)."""
    priors = priors or Priors()
    basis = basis or LogBinnedLagBasis(max_lag)
    k_procs = events.n_processes
    structure = NaiveParentStructure(events, basis)
    background, weights, buckets = _initial_state(events, basis, priors)

    previous_ll = -np.inf
    iterations_run = 0
    for iteration in range(max_iterations):
        iterations_run = iteration + 1
        lag_pmf = basis.expand(buckets)
        z_background = np.zeros(k_procs)
        flat_vals = structure.all_candidate_values(weights, lag_pmf)
        offsets = structure.offsets
        counts = events.counts.astype(np.float64)
        dst_all = events.processes.astype(np.int64)
        if len(flat_vals):
            seg_sums = np.add.reduceat(
                np.concatenate([flat_vals, [0.0]]), offsets[:-1])
            seg_sums[offsets[:-1] == offsets[1:]] = 0.0
        else:
            seg_sums = np.zeros(len(events))
        totals = background[dst_all] + seg_sums
        safe = totals > 0
        bg_resp = np.where(safe, counts * background[dst_all]
                           / np.where(safe, totals, 1.0), counts)
        np.add.at(z_background, dst_all, bg_resp)
        z_weight = np.zeros((k_procs, k_procs))
        z_bucket = np.zeros((k_procs, k_procs, basis.n_buckets))
        if len(flat_vals):
            scale = np.where(safe, counts / np.where(safe, totals, 1.0),
                             0.0)
            flat_resp = flat_vals * np.repeat(scale, np.diff(offsets))
            np.add.at(z_weight, (structure.flat_src, structure.flat_dst),
                      flat_resp)
            np.add.at(z_bucket,
                      (structure.flat_src, structure.flat_dst,
                       structure.flat_bucket), flat_resp)
        background = ((priors.background_shape - 1.0 + z_background)
                      / (priors.background_rate + events.n_bins))
        background = np.maximum(background, 1e-12)
        lag_cdf = np.cumsum(lag_pmf, axis=2)
        exposure = structure.exposure(lag_cdf)
        weights = ((priors.weight_shape - 1.0 + z_weight)
                   / (priors.weight_rate + exposure))
        weights = np.maximum(weights, 0.0)
        conc = priors.impulse_concentration - 1.0 + z_bucket
        conc = np.maximum(conc, 1e-12)
        buckets = conc / conc.sum(axis=2, keepdims=True)

        params = HawkesParams(background=background, weights=weights,
                              impulse=basis.expand(buckets))
        current_ll = naive_log_likelihood(params, events)
        if abs(current_ll - previous_ll) < tol * (1 + abs(previous_ll)):
            previous_ll = current_ll
            break
        previous_ll = current_ll

    params = HawkesParams(background=background, weights=weights,
                          impulse=basis.expand(buckets))
    return params, previous_ll, iterations_run
