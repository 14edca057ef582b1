"""URL -> news-category classification.

This is the filtering step of Section 2.2: given raw post text, find the
URLs that point at one of the 99 news sites and label each mainstream or
alternative.  Non-news URLs are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domains import NewsCategory, NewsRegistry, default_registry
from .urls import canonicalize_url, extract_urls, registered_domain


@dataclass(frozen=True)
class ClassifiedUrl:
    """A canonical news URL with its registry labels."""

    url: str
    domain: str
    category: NewsCategory

    @property
    def is_alternative(self) -> bool:
        return self.category == NewsCategory.ALTERNATIVE


def classify_url(url: str,
                 registry: NewsRegistry | None = None) -> ClassifiedUrl | None:
    """Classify a single URL; returns ``None`` for non-news URLs."""
    registry = registry or default_registry()
    host = registered_domain(url)
    if not host:
        return None
    entry = registry.lookup(host)
    if entry is None:
        return None
    return ClassifiedUrl(
        url=canonicalize_url(url),
        domain=entry.name,
        category=entry.category,
    )


def extract_news_urls(text: str,
                      registry: NewsRegistry | None = None,
                      ) -> list[ClassifiedUrl]:
    """Extract and classify every news URL in ``text``.

    Duplicate canonical URLs within one text are collapsed to a single
    entry (a post linking the same article twice is one occurrence).
    """
    return _extract_news_urls(text, registry or default_registry(), {})


def _extract_news_urls(text: str, registry: NewsRegistry,
                       memo: dict[str, ClassifiedUrl | None],
                       ) -> list[ClassifiedUrl]:
    """:func:`extract_news_urls`, classifying each raw URL once per ``memo``.

    ``memo`` maps a raw URL to its :func:`classify_url` result.  A
    collector passes one dict per pass over a platform, so a URL shared
    by thousands of posts is canonicalized once; results are shared
    instances of the frozen :class:`ClassifiedUrl`.
    """
    seen: dict[str, ClassifiedUrl] = {}
    for raw in extract_urls(text):
        if raw in memo:
            classified = memo[raw]
        else:
            classified = memo[raw] = classify_url(raw, registry)
        if classified is not None and classified.url not in seen:
            seen[classified.url] = classified
    return list(seen.values())
