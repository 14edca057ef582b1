"""A sha256 fingerprint of a synthetic world and what its collectors see.

The digest covers every collected record (Twitter, Reddit, 4chan and any
scenario-declared extra platform), the tweet re-crawl statistics, and
each 4chan thread's bump/purge/deletion state.  Two worlds hash equal
only if synthesis consumed the same RNG draws in the same order and the
collectors classified every URL the same way.

Run as a script to print the digests the pin test checks::

    PYTHONPATH=src python tests/_world_hash.py
"""

from __future__ import annotations

import hashlib

from repro.pipeline import collect
from repro.synthesis.world import World, WorldConfig, build_world

#: A small fixed world, cheap enough to hash in every test run.
PIN_SMALL = WorldConfig(seed=5, n_stories_alternative=150,
                        n_stories_mainstream=450, n_twitter_users=180,
                        n_reddit_users=140, n_generic_subreddits=40)

#: The world every CLI command builds at its defaults.
PIN_CLI_DEFAULT = WorldConfig(seed=7, n_stories_alternative=1100,
                              n_stories_mainstream=3300,
                              n_twitter_users=1500, n_reddit_users=1200)


def world_digest(world: World) -> str:
    """sha256 over the world's collected records, re-crawl and 4chan state."""
    data = collect(world)
    digest = hashlib.sha256()

    def feed(item: object) -> None:
        digest.update(repr(item).encode())
        digest.update(b"\n")

    datasets = [data.twitter, data.reddit, data.fourchan,
                *(data.extras[key] for key in sorted(data.extras))]
    for dataset in datasets:
        feed(len(dataset))
        for record in dataset:
            feed(record)
    feed(data.recrawl)
    for thread_id in sorted(world.fourchan.threads):
        thread = world.fourchan.threads[thread_id]
        feed((thread.thread_id, thread.board, thread.last_bumped_at,
              thread.purged_at, thread.deleted, len(thread.posts)))
    return digest.hexdigest()


def config_digest(config: WorldConfig) -> str:
    return world_digest(build_world(config))


if __name__ == "__main__":  # pragma: no cover - digest recording helper
    import sys

    from repro.scenarios import get_scenario

    worlds = {"small": PIN_SMALL, "cli-default": PIN_CLI_DEFAULT}
    if "--held-out" in sys.argv:
        worlds = {
            "held-out seed 19": WorldConfig(
                seed=19, n_stories_alternative=1100,
                n_stories_mainstream=3300, n_twitter_users=1500,
                n_reddit_users=1200),
            "gab": get_scenario("gab").world,
        }
    for name, config in worlds.items():
        print(f"{name}: {config_digest(config)}")
