"""The ``report`` workload: the researcher's ``repro report`` command.

Every timed repetition is a real ``python -m repro report`` child
process with the CLI's default flags: only ``--out`` is given, plus
``--seed`` when the run names a world seed.  Set-up is a
fresh-interpreter ``import repro``, repeated, which also leaves the
bytecode caches warm for the timed runs.  The traced
pass runs ``traced_report.py``: the same CLI entry point in a fresh
interpreter with spans around each layer's public function.
"""

from __future__ import annotations

import json
import re
import sys
from time import perf_counter

import benchstats
from common import BENCH_DIR, Outcome, RunSpec, run_child

SETUP_REPEATS = 3
#: One report takes most of a run; three give the median more than one
#: sample and check the output is stable for one world.
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 60.0
LAYERS = ("import", "synthesis", "collection", "cascades", "selection",
          "fit", "render")
#: Every section a full report has, in order.
SECTIONS = ("Dataset overview", "Top domains", "Per-user behavior",
            "Temporal dynamics", "Appearance sequences",
            "Influence estimation")
#: The report's own statement of its corpus size.
_URLS = re.compile(r"Influence estimation \(Section 5, (\d+) URLs\)")


def run(spec: RunSpec) -> Outcome:
    outcome = Outcome()
    work = spec.work
    setup = []
    for _ in range(SETUP_REPEATS):
        child = run_child([sys.executable, "-c", "import repro"], work,
                          CHILD_TIMEOUT_S)
        if not outcome.check(child.ok, f"import repro failed: "
                                       f"{child.stderr.strip()[-300:]}"):
            return outcome
        setup.append(child.wall_s)

    walls, rss, bodies = [], [], []
    began = perf_counter()
    while len(walls) < MIN_REPEATS or perf_counter() - began < spec.seconds:
        out = work / f"report-{len(walls)}.md"
        argv = [sys.executable, "-m", "repro", "report", *spec.world_flags(),
                "--out", str(out)]
        child = run_child(argv, work, CHILD_TIMEOUT_S)
        if not outcome.check(child.ok, f"repro report exited "
                                       f"{child.returncode} (timed out: "
                                       f"{child.timed_out}): "
                                       f"{child.stderr.strip()[-300:]}"):
            return outcome
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        bodies.append(out.read_bytes())

    text = bodies[0].decode("utf-8")
    sections = [line[3:] for line in text.splitlines()
                if line.startswith("## ")]
    outcome.check(len(sections) == len(SECTIONS) and all(
        section.startswith(name) for section, name in zip(sections, SECTIONS)),
        f"report sections {sections} are not {list(SECTIONS)}")
    urls = _URLS.search(text)
    outcome.check(urls is not None and int(urls.group(1)) > 0,
                  "report has no influence section with fitted URLs")
    for i, body in enumerate(bodies[1:], 1):
        outcome.check(body == bodies[0],
                      f"report run {i} differs from run 0 for one seed")
    wall = benchstats.median(walls)
    outcome.metrics.update({
        "setup_s": benchstats.median(setup),
        "wall_s": wall,
        "peak_rss_mb": benchstats.median(rss),
    })
    outcome.samples.update({"setup_s": setup, "wall_s": walls,
                            "peak_rss_mb": rss})
    outcome.sizes.update({"urls": int(urls.group(1)) if urls else 0,
                          "report_bytes": len(bodies[0])})
    if spec.trace:
        _traced(spec, outcome, bodies[0], wall)
    return outcome


def _traced(spec: RunSpec, outcome: Outcome, expected: bytes,
            untraced_s: float) -> None:
    work = spec.work
    out = work / "report-traced.md"
    layers_path = work / "layers.json"
    argv = [sys.executable, str(BENCH_DIR / "traced_report.py"),
            "--out", str(out), "--layers", str(layers_path)]
    if spec.world_seed is not None:
        argv += ["--world-seed", str(spec.world_seed)]
    child = run_child(argv, work, CHILD_TIMEOUT_S)
    if not outcome.check(child.ok, f"traced report exited "
                                   f"{child.returncode}: "
                                   f"{child.stderr.strip()[-300:]}"):
        return
    outcome.check(out.read_bytes() == expected,
                  "traced in-process report differs from the CLI report")
    layers = json.loads(layers_path.read_text(encoding="utf-8"))
    own, counts = layers["self_s"], layers["counts"]
    for layer in LAYERS:
        outcome.metrics[f"{layer}.self_s"] = own[layer]
    # Interpreter start-up, argument parsing, Study bookkeeping, the
    # report file write and the spans' own cost.
    outcome.metrics["other.self_s"] = child.wall_s - sum(own.values())
    outcome.metrics["trace.overhead_s"] = child.wall_s - untraced_s
    for name in ("collection.records", "cascades.count", "selection.urls",
                 "fit.urls"):
        outcome.metrics[name] = counts.get(name, 0)
    outcome.sizes["records"] = counts.get("collection.records", 0)
