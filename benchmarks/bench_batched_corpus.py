"""Corpus EM throughput: urls/sec of ``fit_corpus(method="em")`` per shape.

EM fits a corpus as packed batches (``core/hawkes/batched.py``), the
only EM engine.  Its target workload is thousands of small cascades,
where a per-URL loop would be NumPy-dispatch-bound (hundreds of kernel
launches per URL on arrays with tens of elements).  This bench fits
synthetic corpora of each shape at ``n_jobs=1``, so the number isolates
the packed array program, not process fan-out, and reports urls/sec
per shape.

Each run emits ``results/BENCH_batched_corpus.json``; ``BENCH_SMOKE=1``
shrinks the corpora for a fast CI pass (the JSON is emitted either
way).  Corpora are synthesized directly — no world build — so the full
mode stays in seconds, not minutes.
"""

import os
import time

import numpy as np
import pytest

from repro.config import HAWKES_PROCESSES, HawkesConfig
from repro.core.influence import UrlCascade, fit_corpus
from repro.news.domains import NewsCategory
from repro.reporting import render_table

from _helpers import write_bench_json

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: (name, n_urls, events_per_url) — tiny cascades dominate the paper's
#: corpus (median URL has a handful of posts), small ones the tail.
SHAPES = ((("tiny-cascades", 120, 5), ("small-cascades", 60, 12))
          if SMOKE else
          (("tiny-cascades", 1500, 5), ("small-cascades", 400, 12)))

BENCH_HAWKES = HawkesConfig(max_lag_bins=120)

_RESULTS: dict = {}
_METRICS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    yield
    write_bench_json(_RESULTS, "BENCH_batched_corpus.json", case={
        "smoke": SMOKE,
        "shapes": [{"name": name, "n_urls": n, "events_per_url": m}
                   for name, n, m in SHAPES],
        "max_lag_bins": BENCH_HAWKES.max_lag_bins,
        "n_jobs": 1,
    }, metrics=_METRICS)


def build_corpus(n_urls, events_per_url, seed):
    """Synthetic selected-corpus lookalike: every URL clears the
    Twitter + /pol/ + subreddit bar, remaining events are random."""
    rng = np.random.default_rng(seed)
    cascades = []
    for i in range(n_urls):
        t0 = i * 1e6
        events = [(t0, "Twitter"), (t0 + 180.0, "/pol/"),
                  (t0 + 420.0, "The_Donald")]
        for _ in range(events_per_url - 3):
            name = str(rng.choice(HAWKES_PROCESSES))
            events.append((t0 + float(rng.uniform(0, 40_000)), name))
        events.sort()
        category = (NewsCategory.ALTERNATIVE if i % 2
                    else NewsCategory.MAINSTREAM)
        cascades.append(UrlCascade(f"u{i}", category, tuple(events)))
    return cascades


def _timed_fit(corpus):
    start = time.perf_counter()
    result = fit_corpus(corpus, BENCH_HAWKES, method="em")
    return result, time.perf_counter() - start


def test_bench_batched_corpus(benchmark, save_result):
    corpora = {name: build_corpus(n, m, seed=17 + i)
               for i, (name, n, m) in enumerate(SHAPES)}
    first_shape = SHAPES[0][0]
    rows = []
    for name, n_urls, events_per_url in SHAPES:
        corpus = corpora[name]
        if name == first_shape:
            # One shape goes through the benchmark fixture so the run
            # is visible to pytest-benchmark's own reporting.
            result, elapsed = benchmark.pedantic(
                _timed_fit, args=(corpus,), rounds=1, iterations=1)
        else:
            result, elapsed = _timed_fit(corpus)
        assert len(result.fits) == n_urls
        _RESULTS[name] = {
            "ops_per_sec": n_urls / elapsed,
            "mean_seconds": elapsed / n_urls,
            "wall_seconds": elapsed,
            "n_urls": n_urls,
            "events_per_url": events_per_url,
        }
        rows.append([name, str(n_urls), str(events_per_url),
                     f"{elapsed:.2f}", f"{n_urls / elapsed:.1f}"])
    from repro.obs import get_registry
    _METRICS.update(get_registry().snapshot())
    table = render_table(
        ["Corpus", "URLs", "Ev/URL", "Wall s", "URLs/s"],
        rows, title=f"Corpus EM, n_jobs=1, max_lag="
                    f"{BENCH_HAWKES.max_lag_bins}"
                    f"{' (smoke)' if SMOKE else ''}")
    save_result("batched_corpus_throughput.txt", table)
    print()
    print(table)
