"""World-hash pins: synthesis and collection stay draw-for-draw identical.

The digests were recorded by ``_world_hash.py`` on the code before the
exact synthesis fast paths (cumulative-weight author draws, the 4chan
live-thread index, cached choice CDFs, per-pass URL classification)
landed.  A change that alters any RNG draw, its order, or how a URL is
classified moves them; such a change must say so and re-record them.
"""

import pytest

from _world_hash import PIN_CLI_DEFAULT, PIN_SMALL, config_digest

PINNED = {
    "small": (PIN_SMALL,
              "c80faf5e969810933bc4492bcdad36292eae1ad7929865dc07da2f657bef050f"),
    "cli-default": (PIN_CLI_DEFAULT,
                    "ed3c630f6867f41f3a8c9e6ae256a2f819ce86c07ad25e9632ff309edcc69bea"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_world_digest_pinned(name):
    config, digest = PINNED[name]
    assert config_digest(config) == digest
