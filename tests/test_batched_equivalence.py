"""Corpus EM against the per-URL oracle (golden + property form).

``fit_corpus(method="em")`` packs chunks of cascades into batched EM
array programs.  Each cascade's fit must equal ``naive_fit_em`` — the
historical per-event loop, run on that cascade alone — bit for bit, for
every batch size and worker count (mirroring
``tests/test_parallel_equivalence.py``, which pins the Gibbs path
across ``n_jobs``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HAWKES_PROCESSES, HawkesConfig
from repro.core.hawkes.basis import LogBinnedLagBasis
from repro.core.hawkes.inference import Priors
from repro.core.influence import UrlCascade, cascade_to_events, fit_corpus
from repro.news.domains import NewsCategory

from _hawkes_oracle import naive_fit_em

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM

FAST = HawkesConfig(max_lag_bins=60)

PATTERNS = (
    ("Twitter", 0.0), ("Twitter", 90.0), ("/pol/", 200.0),
    ("The_Donald", 420.0), ("politics", 1500.0), ("Twitter", 2400.0),
)


def build_corpus(n_urls, events_per_url, spacing=1e6):
    cascades = []
    for i in range(n_urls):
        t0 = i * spacing
        events = tuple((t0 + offset + 13.0 * i, name)
                       for name, offset in PATTERNS[:events_per_url])
        category = ALT if i % 2 else MAIN
        cascades.append(UrlCascade(f"u{i}", category, events))
    return cascades


def build_mixed_corpus(rng, n_urls):
    """Randomized corpora with the shapes the real selection produces:
    mixed cascade sizes, near-empty cascades, single-process URLs."""
    cascades = []
    for i in range(n_urls):
        t0 = i * 1e6
        if i % 5 == 4:  # single-process URL
            events = tuple((t0 + 60.0 * j, "Twitter") for j in range(3))
        else:
            n = int(rng.integers(1, 12))
            names = rng.choice(HAWKES_PROCESSES, size=n)
            offsets = np.sort(rng.uniform(0, 30_000, size=n))
            events = tuple((t0 + off, str(name))
                           for off, name in zip(offsets, names))
        category = ALT if i % 2 else MAIN
        cascades.append(UrlCascade(f"u{i}", category, events))
    return cascades


def build_dense_corpus(n_urls, seed=3):
    """Cascades whose final entries have 8, 16 or 24 candidate parents.

    Every event lands in its own bin, all within one ``max_lag``
    window.  A final segment of ``8m`` candidates is where NumPy's
    pairwise ``add.reduceat`` groups differently with and without a
    trailing ``+0.0``, so a cascade's fit would depend on whether it is
    last in its batch unless every cascade's final segment gets one.
    """
    rng = np.random.default_rng(seed)
    cascades = []
    for i in range(n_urls):
        t0 = i * 1e6
        names = rng.choice(HAWKES_PROCESSES, size=8 * (i % 3 + 1) + 1)
        events = tuple((t0 + 120.0 * j + float(rng.uniform(0, 50)),
                        str(name)) for j, name in enumerate(names))
        category = ALT if i % 2 else MAIN
        cascades.append(UrlCascade(f"u{i}", category, events))
    return cascades


def oracle_fits(corpus, config=FAST):
    """``(cascade, events, params, log_likelihood)`` per URL, each from
    the naive per-event EM loop run on that cascade alone."""
    basis = LogBinnedLagBasis(config.max_lag_bins)
    priors = Priors(
        background_shape=config.background_shape,
        background_rate=config.background_rate,
        weight_shape=config.weight_shape,
        weight_rate=config.weight_rate,
        impulse_concentration=config.impulse_concentration,
    )
    fits = []
    for cascade in corpus:
        events = cascade_to_events(cascade, HAWKES_PROCESSES, config.delta_t)
        params, log_likelihood, _ = naive_fit_em(
            events, config.max_lag_bins, basis=basis, priors=priors)
        fits.append((cascade, events, params, log_likelihood))
    return fits


def assert_matches_oracle(oracle, result):
    assert result.processes == tuple(HAWKES_PROCESSES)
    assert len(oracle) == len(result.fits)
    for (cascade, events, params, log_likelihood), fit in zip(oracle,
                                                             result.fits):
        assert fit.url == cascade.url
        assert fit.category == cascade.category
        assert np.array_equal(fit.event_counts, events.events_per_process())
        assert fit.n_bins == events.n_bins
        assert np.array_equal(fit.weights, params.weights)
        assert np.array_equal(fit.background, params.background)
        assert fit.log_likelihood == log_likelihood


def assert_results_bit_identical(a, b):
    for fit_a, fit_b in zip(a.fits, b.fits):
        assert fit_a.url == fit_b.url
        assert np.array_equal(fit_a.weights, fit_b.weights)
        assert np.array_equal(fit_a.background, fit_b.background)
        assert fit_a.log_likelihood == fit_b.log_likelihood


class TestGoldenBatchedEquivalence:
    """Fixed corpus, every batch size and fan-out vs the oracle."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus(11, events_per_url=6)

    @pytest.fixture(scope="class")
    def oracle(self, corpus):
        return oracle_fits(corpus)

    @pytest.mark.parametrize("chunk_size", [1, 2, 5, 11, 64])
    def test_every_batch_size_matches_per_url(self, corpus, oracle,
                                              chunk_size):
        batched = fit_corpus(corpus, FAST, method="em",
                             chunk_size=chunk_size)
        assert_matches_oracle(oracle, batched)

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_parallel_batched_matches_per_url(self, corpus, oracle,
                                              n_jobs):
        batched = fit_corpus(corpus, FAST, method="em", n_jobs=n_jobs)
        assert_matches_oracle(oracle, batched)

    def test_batched_bit_identical_across_chunking(self, corpus):
        whole = fit_corpus(corpus, FAST, method="em")
        for chunk_size in (1, 3, 7):
            split = fit_corpus(corpus, FAST, method="em",
                               chunk_size=chunk_size)
            assert_results_bit_identical(whole, split)

    def test_batched_bit_identical_across_workers(self, corpus):
        serial = fit_corpus(corpus, FAST, method="em")
        fanned = fit_corpus(corpus, FAST, method="em", n_jobs=2,
                            chunk_size=3)
        assert_results_bit_identical(serial, fanned)

    def test_progress_reaches_total(self, corpus):
        calls = []
        fit_corpus(corpus, FAST, method="em", chunk_size=4,
                   progress=lambda done, total: calls.append((done, total)))
        assert calls[-1] == (len(corpus), len(corpus))
        assert all(total == len(corpus) for _, total in calls)


class TestDenseFinalSegments:
    """Regression: a cascade's result must not depend on whether it is
    the last one in its batch (the only one whose final segment used to
    absorb the reduction sentinel)."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return build_dense_corpus(6)

    @pytest.fixture(scope="class")
    def oracle(self, corpus):
        return oracle_fits(corpus)

    def test_final_entries_have_multiples_of_eight_candidates(self, corpus):
        for cascade in corpus:
            events = cascade_to_events(cascade, HAWKES_PROCESSES,
                                       FAST.delta_t)
            last = events.bins[-1]
            candidates = np.sum((events.bins < last)
                                & (events.bins >= last - FAST.max_lag_bins))
            assert candidates >= 8 and candidates % 8 == 0

    @pytest.mark.parametrize("chunk_size", [1, 2, 4, None])
    def test_chunking_matches_per_url(self, corpus, oracle, chunk_size):
        assert_matches_oracle(oracle, fit_corpus(
            corpus, FAST, method="em", chunk_size=chunk_size))

    def test_parallel_matches_per_url(self, corpus, oracle):
        assert_matches_oracle(oracle, fit_corpus(corpus, FAST, method="em",
                                                 n_jobs=2))


class TestEngineValidation:
    def test_empty_corpus(self):
        result = fit_corpus([], FAST, method="em")
        assert result.fits == []


@settings(max_examples=6, deadline=None)
@given(
    n_urls=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    chunk_size=st.sampled_from([1, 2, 3, 1024]),
)
def test_property_batched_equals_per_url(n_urls, seed, chunk_size):
    """Any corpus shape, any batch size: bit-identical to the oracle."""
    corpus = build_mixed_corpus(np.random.default_rng(seed), n_urls)
    batched = fit_corpus(corpus, FAST, method="em", chunk_size=chunk_size)
    assert_matches_oracle(oracle_fits(corpus), batched)
