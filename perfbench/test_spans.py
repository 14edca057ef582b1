"""Tests of the tracer's self-time accounting.

    python3 -m pytest perfbench/test_spans.py -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def _clock(monkeypatch, ticks):
    """Make the tracer read ``ticks`` in order instead of the real clock."""
    ticks = iter(ticks)
    monkeypatch.setattr("spans.perf_counter", lambda: next(ticks))


def test_self_time_subtracts_child_spans(monkeypatch):
    # outer [0, 10] holds inner [2, 5] and inner [6, 7]; a sibling [10, 12].
    _clock(monkeypatch, [0.0, 2.0, 5.0, 6.0, 7.0, 10.0, 10.0, 12.0])
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    with tracer.span("sibling"):
        pass
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0,
                                   "sibling": 2.0}
    assert tracer.span_count() == 4


def test_self_times_partition_the_root_span():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = tracer.wrap(leaf, "leaf")

    def root():
        return [traced_leaf() for _ in range(50)]

    tracer.wrap(root, "root")()
    own = tracer.self_times()
    total = tracer.end[0] - tracer.start[0]
    assert own["root"] > 0 and own["leaf"] > 0
    assert own["root"] + own["leaf"] == pytest.approx(total, rel=1e-9)


def test_wrap_iter_counts_items_and_spans():
    tracer = Tracer()
    items = list(tracer.wrap_iter([[1, 2], [3]], "source", count=len))
    assert items == [[1, 2], [3]]
    assert tracer.counts["source"] == 3
    assert tracer.span_count() == 3  # two items and the exhausting next()


def test_patch_and_unpatch_restore_the_original():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    original = Owner.work
    seen = []
    tracer = Tracer()
    tracer.patch(Owner, "work", "layer", lambda result, args: seen.append(
        (result, args)))
    assert Owner.work(1) == 2
    assert seen == [(2, (1,))]
    tracer.unpatch()
    assert Owner.work is original
    assert tracer.self_times().keys() == {"layer"}
