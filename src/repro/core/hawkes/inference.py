"""Parameter inference for the discrete Hawkes model.

Two fitters with the same interface:

* :func:`fit_gibbs` — the paper's method ([20, 21]): Gibbs sampling with
  auxiliary parent attribution.  Every event is stochastically attributed
  either to the background rate or to an earlier event; conditioned on
  the attributions, the Gamma/Dirichlet priors are conjugate and all
  parameters are resampled in closed form.
* :func:`fit_em` — expectation-maximization on the identical latent
  structure, with MAP updates under the same priors.  Deterministic and
  faster; used as an independent cross-check of the sampler.  It runs
  as a batch of one through :mod:`.batched`, the single EM engine,
  which is bit-identical to the historical per-event loops.

The Gibbs sampler runs on the flat segment kernels of :mod:`.kernels`:
parent candidates are enumerated once per ``(events, basis)`` (and
cached on the events object), attribution is a single bulk uniform
pass per sweep, and every count/exposure accumulation is a vectorized
scatter-add.  It keeps seed-determinism but draws its randomness in a
different order than the historical per-event ``multinomial`` sampler
(the sampled distribution is unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ...obs import get_registry
from ..events import DiscreteEvents
from .basis import LagBasis, LogBinnedLagBasis
from .kernels import ParentStructure, get_parent_structure, \
    sample_parent_attributions
from .model import HawkesParams, discrete_log_likelihood

#: Backwards-compatible alias; the class moved to :mod:`.kernels`.
_ParentStructure = ParentStructure


@dataclass(frozen=True)
class Priors:
    """Conjugate prior hyper-parameters (shape/rate parameterization)."""

    background_shape: float = 1.0
    background_rate: float = 100.0
    weight_shape: float = 1.0
    weight_rate: float = 10.0
    impulse_concentration: float = 1.0

    def __post_init__(self) -> None:
        if min(self.background_shape, self.background_rate,
               self.weight_shape, self.weight_rate,
               self.impulse_concentration) <= 0:
            raise ValueError("prior hyper-parameters must be positive")


@dataclass(frozen=True)
class FitResult:
    """Posterior summary of one model fit."""

    params: HawkesParams
    log_likelihood: float
    #: Per-sweep posterior draws of W, shape (n_samples, K, K); empty for EM.
    weight_samples: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0, 0)))
    n_iterations: int = 0

    @property
    def background(self) -> np.ndarray:
        return self.params.background

    @property
    def weights(self) -> np.ndarray:
        return self.params.weights


def _initial_state(events: DiscreteEvents, basis: LagBasis, priors: Priors,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Heuristic initialization: prior means, weights seeded from data."""
    k_procs = events.n_processes
    background = np.full(
        k_procs, priors.background_shape / priors.background_rate)
    totals = events.events_per_process()
    background = np.maximum(background,
                            0.5 * totals / max(events.n_bins, 1))
    weights = np.full((k_procs, k_procs),
                      priors.weight_shape / priors.weight_rate)
    buckets = np.full((k_procs, k_procs, basis.n_buckets),
                      1.0 / basis.n_buckets)
    return background, weights, buckets


def _record_fit_metrics(method: str, total: float,
                        phases: dict[str, float]) -> None:
    """Observe one completed fit.

    Pure timing — nothing here touches the RNG or the fitted arrays,
    so instrumented fits stay bit-identical to uninstrumented ones.
    """
    registry = get_registry()
    registry.counter("repro_fit_total",
                     "Completed per-URL Hawkes fits.", method=method).inc()
    registry.histogram("repro_fit_seconds",
                       "Wall time of one Hawkes fit.",
                       method=method).observe(total)
    phase_help = "Kernel wall time per fit phase, summed over sweeps."
    for phase, seconds in phases.items():
        registry.histogram("repro_fit_phase_seconds", phase_help,
                           method=method, phase=phase).observe(seconds)


def fit_gibbs(events: DiscreteEvents, max_lag: int,
              basis: LagBasis | None = None,
              priors: Priors | None = None,
              n_iterations: int = 120, burn_in: int = 40,
              rng: np.random.Generator | None = None,
              keep_samples: bool = True) -> FitResult:
    """Fit by Gibbs sampling; returns posterior means.

    Parameters mirror Section 5.2: ``max_lag`` is ``Delta t_max`` in bins
    (720 for the paper's 12-hour window at 1-minute bins).
    """
    if burn_in >= n_iterations:
        raise ValueError("burn_in must be smaller than n_iterations")
    rng = rng or np.random.default_rng()
    priors = priors or Priors()
    basis = basis or LogBinnedLagBasis(max_lag)
    if basis.max_lag != max_lag:
        raise ValueError("basis.max_lag must equal max_lag")
    k_procs = events.n_processes
    fit_start = perf_counter()
    structure = get_parent_structure(events, basis)
    background, weights, buckets = _initial_state(events, basis, priors)

    attribution_s = updates_s = 0.0
    kept_bg: list[np.ndarray] = []
    kept_w: list[np.ndarray] = []
    kept_buckets: list[np.ndarray] = []
    for sweep in range(n_iterations):
        phase_start = perf_counter()
        lag_pmf = basis.expand(buckets)
        # -- parent attribution ------------------------------------------
        flat_vals = structure.all_candidate_values(weights, lag_pmf)
        z_background, flat_draws = sample_parent_attributions(
            structure, background, flat_vals, rng)
        z_weight = np.zeros((k_procs, k_procs))
        z_bucket = np.zeros((k_procs, k_procs, basis.n_buckets))
        if len(flat_draws):
            np.add.at(z_weight, (structure.flat_src, structure.flat_dst),
                      flat_draws)
            np.add.at(z_bucket,
                      (structure.flat_src, structure.flat_dst,
                       structure.flat_bucket), flat_draws)
        attribution_s += perf_counter() - phase_start
        # -- conjugate updates --------------------------------------------
        phase_start = perf_counter()
        background = rng.gamma(
            priors.background_shape + z_background,
            1.0 / (priors.background_rate + events.n_bins))
        lag_cdf = np.cumsum(lag_pmf, axis=2)
        exposure = structure.exposure(lag_cdf)
        weights = rng.gamma(priors.weight_shape + z_weight,
                            1.0 / (priors.weight_rate + exposure))
        conc = priors.impulse_concentration + z_bucket
        buckets = rng.gamma(conc, 1.0)  # Dirichlet via normalized Gammas
        buckets = np.maximum(buckets, 1e-12)
        buckets /= buckets.sum(axis=2, keepdims=True)
        updates_s += perf_counter() - phase_start

        if sweep >= burn_in:
            kept_bg.append(background.copy())
            kept_w.append(weights.copy())
            kept_buckets.append(buckets.copy())

    mean_bg = np.mean(kept_bg, axis=0)
    mean_w = np.mean(kept_w, axis=0)
    mean_buckets = np.mean(kept_buckets, axis=0)
    mean_buckets /= mean_buckets.sum(axis=2, keepdims=True)
    params = HawkesParams(background=mean_bg, weights=mean_w,
                          impulse=basis.expand(mean_buckets))
    samples = (np.array(kept_w) if keep_samples
               else np.empty((0, k_procs, k_procs)))
    phase_start = perf_counter()
    log_likelihood = discrete_log_likelihood(params, events)
    likelihood_s = perf_counter() - phase_start
    _record_fit_metrics("gibbs", perf_counter() - fit_start, {
        "attribution": attribution_s,
        "updates": updates_s,
        "likelihood": likelihood_s,
    })
    return FitResult(
        params=params,
        log_likelihood=log_likelihood,
        weight_samples=samples,
        n_iterations=n_iterations,
    )


def fit_em(events: DiscreteEvents, max_lag: int,
           basis: LagBasis | None = None,
           priors: Priors | None = None,
           max_iterations: int = 200, tol: float = 1e-6) -> FitResult:
    """Deterministic EM fit with MAP updates under the same priors.

    A batch of one through :func:`~.batched.fit_em_batched`, the single
    EM implementation.
    """
    from .batched import fit_em_batched  # batched imports this module
    return fit_em_batched([events], max_lag, basis=basis, priors=priors,
                          max_iterations=max_iterations,
                          tol=tol).fit_result(0)
