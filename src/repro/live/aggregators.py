"""Incremental aggregators mirroring the paper's headline measurements.

Each aggregator consumes one :class:`~repro.collection.store.DatasetRecord`
at a time via ``update()`` — or a whole columnar
:class:`~repro.collection.columnar.RecordBatch` via ``update_batch()``,
which applies the same per-record semantics as vectorized group-bys
(``np.unique`` / ``np.minimum.at``) and leaves state byte-identical to
the row path, including dict/Counter key insertion order (the tie-break
behind ``Counter.most_common``) — keeps state proportional to the
number of distinct keys (domains, URLs), and answers queries without
rescanning the stream.  The query paths reuse the *same* row-building functions as
the batch analyses (:mod:`repro.analysis.characterization`,
:mod:`repro.analysis.sequences`), so after consuming an identical record
stream the live answers are exactly the batch answers.

All aggregators round-trip through ``state_dict()`` / ``load_state()``
for checkpointing (see :mod:`repro.live.checkpoint`).
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable

import numpy as np

from ..analysis import characterization as chz
from ..analysis import sequences as seq
from ..collection.columnar import (
    CATEGORIES,
    RecordBatch,
    occurrence_slice_codes,
    venue_slice_codes,
)
from ..collection.store import DatasetRecord
from ..config import HAWKES_PROCESSES, SEQUENCE_PLATFORMS
from ..core.influence import UrlCascade
from ..news.domains import NewsCategory

#: record -> coarse slice name (or None); the default is the paper's
#: fixed three-way split.  K-platform scenarios pass their
#: :meth:`repro.platforms.registry.Ecosystem.slice_of` instead.
SliceOf = Callable[[DatasetRecord], "str | None"]


class _SlicedCounterAggregator:
    """Per-slice, per-category occurrence counters over one record key.

    Subclasses pick the counted key (domain, URL) via :meth:`_key` and
    layer query methods on top of ``self.counters``.
    """

    def __init__(self, slices: Iterable[str] = SEQUENCE_PLATFORMS,
                 slice_of: SliceOf | None = None) -> None:
        self.slice_of = (slice_of if slice_of is not None
                         else chz.sequence_slice_of)
        self.counters: dict[str, dict[NewsCategory, Counter]] = {
            name: {category: Counter() for category in NewsCategory}
            for name in slices
        }
        self._venue_memo: dict = {}
        self._ci_counters: "dict[str, list[Counter]] | None" = None

    @staticmethod
    def _key(occurrence) -> str:
        raise NotImplementedError

    @staticmethod
    def _batch_key_list(batch: RecordBatch) -> list:
        """The occurrence key list :meth:`_key` reads (url or domain)."""
        raise NotImplementedError

    def update(self, record: DatasetRecord) -> None:
        slice_name = self.slice_of(record)
        if slice_name is None or slice_name not in self.counters:
            return
        per_category = self.counters[slice_name]
        for occurrence in record.urls:
            self._tally(per_category, occurrence)

    def _tally(self, per_category: dict[NewsCategory, Counter],
               occurrence) -> None:
        per_category[occurrence.category][self._key(occurrence)] += 1

    def update_batch(self, batch: RecordBatch) -> None:
        """One C-level ``Counter.update`` per (slice, category) group.

        Occurrences are grouped with a stable argsort, so within each
        group they keep stream order, and ``Counter.update`` inserts
        new keys in iteration order — the resulting Counters, including
        ``most_common`` tie-breaks, are identical to calling
        :meth:`update` per record.
        """
        if not len(batch) or not batch.n_urls:
            return
        names, occ_codes = occurrence_slice_codes(
            batch, self.slice_of, self._venue_memo)
        n_categories = len(CATEGORIES)
        # The grouping depends only on routing + tracked slices, so the
        # two counter aggregators of one engine share it via the batch
        # cache.  Venue code -> group base, -1 for unrouted/untracked
        # slices; the trailing -1 is what code -1 (no slice) maps to.
        cache_key = ("counter_groups", id(self.slice_of),
                     tuple(self.counters))
        grouping = batch._cache.get(cache_key)
        if grouping is None:
            translate = np.array(
                [code * n_categories if name in self.counters else -1
                 for code, name in enumerate(names)] + [-1],
                dtype=np.int64)
            group = translate[occ_codes]
            group = np.where(group >= 0, group + batch.category, -1)
            order = np.argsort(group, kind="stable")
            sorted_group = group[order]
            start = int(np.searchsorted(sorted_group, 0, side="left"))
            order = order[start:]
            sorted_group = sorted_group[start:]
            cuts = [0,
                    *(np.flatnonzero(np.diff(sorted_group)) + 1).tolist(),
                    len(order)]
            grouping = (order.tolist(), sorted_group.tolist(), cuts)
            batch._cache[cache_key] = grouping
        order, group_list, cuts = grouping
        if not order:
            return
        key_list = self._batch_key_list(batch)
        keys = (list(itemgetter(*order)(key_list)) if len(order) > 1
                else [key_list[order[0]]])
        # Counters indexed by category position — sidesteps the
        # Python-level enum __hash__ on every segment.
        by_index = self._ci_counters
        if by_index is None:
            by_index = self._ci_counters = {
                name: [per_category[category] for category in CATEGORIES]
                for name, per_category in self.counters.items()}
        for a, b in zip(cuts, cuts[1:]):
            code, ci = divmod(group_list[a], n_categories)
            chunk = keys[a:b]
            by_index[names[code]][ci].update(chunk)
            self._batch_seen(ci, chunk)

    def _batch_seen(self, ci: int, keys: list[str]) -> None:
        """Hook for subclasses tracking distinct keys (no-op here)."""

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            name: {category.value: dict(counter)
                   for category, counter in per_category.items()}
            for name, per_category in self.counters.items()
        }

    def load_state(self, state: dict) -> None:
        self.counters = {
            name: {NewsCategory(value): Counter(counts)
                   for value, counts in per_category.items()}
            for name, per_category in state.items()
        }
        self._ci_counters = None


class DomainFractionAggregator(_SlicedCounterAggregator):
    """Per-slice domain occurrence counts (Tables 5-7, Figure 2)."""

    @staticmethod
    def _key(occurrence) -> str:
        return occurrence.domain

    @staticmethod
    def _batch_key_list(batch: RecordBatch) -> list:
        return batch.domain_list()

    def top_domains(self, slice_name: str, category: NewsCategory,
                    top_n: int = 20) -> list[chz.RankedShare]:
        """Tables 5-7 rows for one slice, identical to batch."""
        return chz.ranked_shares(self.counters[slice_name][category], top_n)

    def platform_fractions(self, category: NewsCategory, top_n: int = 20,
                           ) -> list[chz.DomainPlatformShare]:
        """Figure 2 rows across all slices, identical to batch."""
        return chz.domain_fractions_from_counters(
            {name: per_category[category]
             for name, per_category in self.counters.items()},
            top_n)


class UrlAppearanceAggregator(_SlicedCounterAggregator):
    """Per-slice URL appearance counts (Figure 1)."""

    def __init__(self, slices: Iterable[str] = SEQUENCE_PLATFORMS,
                 slice_of: SliceOf | None = None) -> None:
        super().__init__(slices, slice_of)
        self._seen: dict[NewsCategory, set[str]] = {
            category: set() for category in NewsCategory}
        self._ci_seen: "list[set[str]] | None" = None

    @staticmethod
    def _key(occurrence) -> str:
        return occurrence.url

    @staticmethod
    def _batch_key_list(batch: RecordBatch) -> list:
        return batch.url_list()

    def _tally(self, per_category: dict[NewsCategory, Counter],
               occurrence) -> None:
        super()._tally(per_category, occurrence)
        self._seen[occurrence.category].add(occurrence.url)

    def _batch_seen(self, ci: int, keys: list[str]) -> None:
        by_index = self._ci_seen
        if by_index is None:
            by_index = self._ci_seen = [self._seen[category]
                                        for category in CATEGORIES]
        by_index[ci].update(keys)

    def appearance_cdf(self, slice_name: str, category: NewsCategory):
        """Figure 1 ECDF for one slice, identical to batch."""
        return chz.appearance_cdf_from_counter(
            self.counters[slice_name][category])

    def distinct_urls(self, category: NewsCategory | None = None) -> int:
        """O(1) per category — backed by running sets, not a rescan."""
        if category is not None:
            return len(self._seen[category])
        return sum(len(urls) for urls in self._seen.values())

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        self._seen = {category: set() for category in NewsCategory}
        self._ci_seen = None
        for per_category in self.counters.values():
            for category, counter in per_category.items():
                self._seen[category].update(counter)


class FirstHopAggregator:
    """Cross-platform first appearances (Tables 9-10).

    Maintains ``url -> {slice: earliest timestamp}`` per category — the
    exact structure :func:`repro.analysis.sequences.first_appearances`
    computes by batch scan — updated with a running minimum.
    """

    def __init__(self, slices: Iterable[str] = SEQUENCE_PLATFORMS,
                 slice_of: SliceOf | None = None) -> None:
        self.slices = tuple(slices)
        self.slice_of = (slice_of if slice_of is not None
                         else chz.sequence_slice_of)
        self.firsts: dict[NewsCategory, dict[str, dict[str, float]]] = {
            category: {} for category in NewsCategory
        }
        self._venue_memo: dict = {}

    def update(self, record: DatasetRecord) -> None:
        slice_name = self.slice_of(record)
        if slice_name is None:
            return
        when = record.created_at
        for occurrence in record.urls:
            platform_firsts = self.firsts[occurrence.category].setdefault(
                occurrence.url, {})
            previous = platform_firsts.get(slice_name)
            if previous is None or when < previous:
                platform_firsts[slice_name] = when

    def update_batch(self, batch: RecordBatch) -> None:
        """Row-path running minima over pre-extracted columns.

        Venue routing is memoized (one ``slice_of`` call per distinct
        venue, ever) and the loop runs over native lists, so dict key
        insertion order — urls and per-URL slices alike — is exactly
        :meth:`update`'s.
        """
        if not len(batch) or not batch.n_urls:
            return
        names, occ_codes = occurrence_slice_codes(
            batch, self.slice_of, self._venue_memo)
        n_slices = len(names)
        if not n_slices:
            return
        urls, url_codes = batch.url_codes()
        n_categories = len(CATEGORIES)
        # One int per (url, category, slice) triple; unrouted -> -1.
        combined = ((url_codes * n_categories + batch.category) * n_slices
                    + occ_codes)
        combined = np.where(occ_codes >= 0, combined, -1)
        sort_idx = np.argsort(combined, kind="stable")
        ordered = combined[sort_idx]
        starts = np.concatenate(
            ([0], np.flatnonzero(ordered[1:] != ordered[:-1]) + 1))
        if ordered[0] == -1:  # -1 sorts first: drop the unrouted segment
            starts = starts[1:]
            if not len(starts):
                return
        # Segment minima in one reduceat; the stable sort makes
        # sort_idx[start] each triple's first stream position, which
        # orders dict insertion exactly like the row path.
        minima = np.minimum.reduceat(
            batch.occurrence_times()[sort_idx], starts)
        triple_arr = ordered[starts]
        codes, slice_arr = np.divmod(triple_arr, n_slices)
        url_arr, cat_arr = np.divmod(codes, n_categories)
        slice_list = slice_arr.tolist()
        url_list = url_arr.tolist()
        cat_list = cat_arr.tolist()
        min_list = minima.tolist()
        firsts = [self.firsts[category] for category in CATEGORIES]
        for j in np.argsort(sort_idx[starts], kind="stable").tolist():
            url = urls[url_list[j]]
            when = min_list[j]
            category_firsts = firsts[cat_list[j]]
            platform_firsts = category_firsts.get(url)
            if platform_firsts is None:
                category_firsts[url] = {names[slice_list[j]]: when}
                continue
            slice_name = names[slice_list[j]]
            previous = platform_firsts.get(slice_name)
            if previous is None or when < previous:
                platform_firsts[slice_name] = when

    # -- queries ------------------------------------------------------------

    def first_hop(self, category: NewsCategory) -> list[seq.SequenceShare]:
        """Table 9 rows, identical to batch."""
        return seq.first_hop_rows(self.firsts[category])

    def triplets(self, category: NewsCategory) -> list[seq.SequenceShare]:
        """Table 10 rows, identical to batch — over all K slices."""
        return seq.triplet_rows(self.firsts[category],
                                n_platforms=len(self.slices))

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            category.value: {url: dict(platform_firsts)
                             for url, platform_firsts in firsts.items()}
            for category, firsts in self.firsts.items()
        }

    def load_state(self, state: dict) -> None:
        self.firsts = {
            NewsCategory(value): {
                url: dict(platform_firsts)
                for url, platform_firsts in firsts.items()
            }
            for value, firsts in state.items()
        }


class CascadeAssembler:
    """Online per-URL cascade assembly feeding :mod:`repro.core.influence`.

    Keeps, per URL, the sorted ``(timestamp, process)`` events over the
    K Hawkes processes (the paper's eight by default).  Insertion keeps
    the list ordered (bisect), so a query materializes cascades without
    re-sorting — the same ``(t, process)`` tuples batch
    :func:`repro.pipeline.influence_cascades` produces.  ``process_of``
    routes communities to processes (a K-platform ecosystem's
    :meth:`~repro.platforms.registry.Ecosystem.process_of`); by default
    a community is its own process, as in the paper.
    """

    def __init__(self,
                 processes: Iterable[str] = HAWKES_PROCESSES,
                 process_of: Callable[[str], "str | None"] | None = None,
                 ) -> None:
        self.processes = frozenset(processes)
        self.process_of = process_of
        self.events: dict[str, list[tuple[float, str]]] = {}
        self.categories: dict[str, NewsCategory] = {}
        self._process_memo: dict = {}

    def update(self, record: DatasetRecord) -> None:
        process = (self.process_of(record.community)
                   if self.process_of is not None else record.community)
        if process is None or process not in self.processes:
            return
        when = record.created_at
        for occurrence in record.urls:
            url = occurrence.url
            self.categories.setdefault(url, occurrence.category)
            insort(self.events.setdefault(url, []),
                   (when, process))

    def update_batch(self, batch: RecordBatch) -> None:
        """Row-path assembly over pre-extracted columns.

        Process routing is memoized per community, and the loop runs
        the same ``setdefault`` + ``insort`` sequence as :meth:`update`
        over native lists, so event order, URL key order, and category
        choices are exactly the row path's.
        """
        if not len(batch) or not batch.n_urls:
            return
        communities, comm_codes = batch.occurrence_community_codes()
        memo = self._process_memo
        for community in communities:
            if community not in memo:
                process = (self.process_of(community)
                           if self.process_of is not None else community)
                if process is not None and process not in self.processes:
                    process = None
                memo[community] = process
        processes = ([memo[communities[0]]] if len(communities) == 1
                     else list(itemgetter(*communities)(memo)))
        keep = np.fromiter((p is not None for p in processes),
                           dtype=bool, count=len(processes))
        valid = keep[comm_codes]
        if not valid.any():
            return
        urls, url_codes = batch.url_codes()
        valid_idx = np.flatnonzero(valid)
        vcodes = url_codes[valid_idx]
        sort_idx = np.argsort(vcodes, kind="stable")
        ordered = vcodes[sort_idx]
        take = valid_idx[sort_idx]
        bounds = [0,
                  *(np.flatnonzero(ordered[1:] != ordered[:-1])
                    + 1).tolist(),
                  len(ordered)]
        # Reorder the valid occurrences into group order once, at array
        # speed, so each group's events are a plain list slice below.
        time_list = batch.occurrence_times()[take].tolist()
        comm_list = comm_codes[take].tolist()
        cat_list = batch.category[take].tolist()
        ordered_list = ordered.tolist()
        pairs = list(zip(time_list, map(processes.__getitem__, comm_list)))
        events_of = self.events
        categories = self.categories
        # Iterate url groups by first *valid* occurrence (the stable
        # sort makes sort_idx[a] each group's earliest position), so
        # events/categories key order matches the row path; extending
        # a sorted per-URL run and re-sorting equals repeated insort
        # because equal (t, process) tuples are indistinguishable.
        spans = list(zip(bounds, bounds[1:]))
        group_order = np.argsort(
            sort_idx[np.array(bounds[:-1], dtype=np.int64)],
            kind="stable").tolist() if len(spans) > 1 else [0]
        for k in group_order:
            a, b = spans[k]
            url = urls[ordered_list[a]]
            new = pairs[a:b]
            if len(new) > 1:
                new.sort()
            events = events_of.setdefault(url, new)
            if events is new:
                categories.setdefault(url, CATEGORIES[cat_list[a]])
            else:
                events.extend(new)
                events.sort()

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def cascade_of(self, url: str) -> UrlCascade | None:
        events = self.events.get(url)
        if not events:
            return None
        return UrlCascade(url=url, category=self.categories[url],
                          events=tuple(events))

    def cascades(self) -> list[UrlCascade]:
        """All assembled cascades, in URL first-seen order."""
        return [UrlCascade(url=url, category=self.categories[url],
                           events=tuple(events))
                for url, events in self.events.items()]

    def cascades_between(self, start: float, end: float,
                         ) -> list[UrlCascade]:
        """Cascades whose *last* event falls inside ``[start, end]``.

        This is the sliding-window selection the Hawkes refitter uses:
        a cascade is "settled" once its last event is older than the
        quiet horizon, and stays in scope while it is newer than the
        window start.
        """
        kept = []
        for url, events in self.events.items():
            if events and start <= events[-1][0] <= end:
                kept.append(self.cascade_of(url))
        return kept

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "events": {url: [[t, name] for t, name in events]
                       for url, events in self.events.items()},
            "categories": {url: category.value
                           for url, category in self.categories.items()},
        }

    def load_state(self, state: dict) -> None:
        self.events = {
            url: [(float(t), str(name)) for t, name in events]
            for url, events in state["events"].items()
        }
        self.categories = {url: NewsCategory(value)
                           for url, value in state["categories"].items()}
