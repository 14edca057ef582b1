"""``repro report`` in a fresh interpreter, with layer spans around it.

Runs the real CLI entry point, ``repro.cli.main(["report", ...])``, after
wrapping the public function behind each report layer, and writes the
per-layer self times and counts as JSON.  Only the wrappers come from
here; the program runs unmodified.

    python3 perfbench/traced_report.py --out REPORT.md --layers OUT.json \
        [--world-seed N]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from spans import Tracer

#: Report layers in pipeline order, as named by the benchmark.
LAYERS = ("import", "synthesis", "collection", "cascades", "selection",
          "fit", "render")


def _records(data) -> int:
    return (len(data.twitter) + len(data.reddit) + len(data.fourchan)
            + sum(len(dataset) for dataset in data.extras.values()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world-seed", type=int, default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--layers", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    with tracer.span("import"):
        import repro  # noqa: F401  (the measured fresh-interpreter import)
    import repro.api.study as study_module
    import repro.pipeline as pipeline
    import repro.reporting.study as reporting
    from repro.cli import main as cli_main

    counts = tracer.counts

    def count(name, value):
        counts[name] += value

    tracer.patch(study_module, "build_world", "synthesis")
    tracer.patch(pipeline, "collect", "collection",
                 lambda data, _: count("collection.records", _records(data)))
    tracer.patch(pipeline, "influence_cascades", "cascades",
                 lambda cascades, _: count("cascades.count", len(cascades)))
    tracer.patch(study_module, "select_urls", "selection")
    tracer.patch(study_module, "trim_gap_urls", "selection",
                 lambda corpus, _: count("selection.urls", len(corpus)))
    tracer.patch(study_module, "fit_corpus", "fit",
                 lambda result, _: count("fit.urls", len(result.fits)))
    tracer.patch(reporting, "generate_study_report", "render")
    seed = [] if args.world_seed is None else ["--seed", str(args.world_seed)]
    try:
        status = cli_main(["report", *seed, "--out", args.out])
    finally:
        tracer.unpatch()
    own = tracer.self_times()
    Path(args.layers).write_text(json.dumps({
        "self_s": {layer: own.get(layer, 0.0) for layer in LAYERS},
        "counts": dict(counts),
        "spans": tracer.span_count(),
    }), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
