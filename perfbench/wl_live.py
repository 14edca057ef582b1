"""The ``live`` workload: the operator's ``repro live``.

The engine drains the three interleaved synthetic collector streams of
a world built in set-up, with windowed Hawkes refits.  Every repetition
runs the real command, ``repro.cli.main(["live", ...])``, in this
process, so the engine is whatever ``repro live`` builds from its own
defaults.  The benchmark adds only a ``--checkpoint`` file, so
checkpoints are written at their default cadence, and ``--seed`` when
the run names a world seed.  Public functions are hooked from here;
nothing in ``src/`` changes:

- ``repro.synthesis.world.build_world`` returns the set-up world, so
  synthesis stays out of the timed runs;
- ``LiveEngine.run`` is timed, and its engine kept for the checks;
- in traced runs, the collector streams
  (``repro.pipeline.stream_source_factories``) record a span per
  ``next()``, and the engine's four aggregators, refitter and
  ``checkpoint`` are wrapped before ``run()``, which is itself the
  ``bus`` span.
"""

from __future__ import annotations

import contextlib
import gc
import io
from pathlib import Path
from time import perf_counter
from unittest import mock

import benchstats
from common import Outcome, RunSpec, peak_rss_mb, reset_peak_rss
from spans import Tracer

SETUP_REPEATS = 2
LIVE_LAYERS = ("source", "bus", "aggregators", "refit", "checkpoint")


class _WorldBuilt(BaseException):
    """Ends a set-up ``repro live`` call once its world exists.

    A ``BaseException``, so ``repro.cli.main`` does not report it as an
    error of the command.
    """


def _cli_live(argv: list[str]) -> int:
    """``repro live`` in this process, its console output discarded."""
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _build_world(spec: RunSpec):
    """The world ``repro live`` builds for this run."""
    import repro.synthesis.world as world_module
    real, built = world_module.build_world, []

    def capture(config):
        built.append(real(config))
        raise _WorldBuilt

    with mock.patch.object(world_module, "build_world", capture):
        try:
            _cli_live(["live", *spec.world_flags()])
        except _WorldBuilt:
            pass
    if not built:
        raise RuntimeError("repro live did not build a world")
    return built[0]


def _traced_sources(tracer: Tracer):
    """Spans around every ``next()`` of the streams ``repro live`` drains."""
    import repro.pipeline as pipeline
    real_factories = pipeline.stream_source_factories

    def factories(*args, **kwargs):
        return [(name, lambda make=make: tracer.wrap_iter(make(), "source"))
                for name, make in real_factories(*args, **kwargs)]

    return mock.patch.object(pipeline, "stream_source_factories", factories)


def _instrument(engine, tracer: Tracer) -> None:
    """Spans around each layer the engine calls, as instance attributes."""
    counts = tracer.counts

    def one_record(result, args):
        counts["aggregators.calls"] += 1
        counts["aggregators.records"] += 1

    def batch_records(result, args):
        counts["aggregators.calls"] += 1
        counts["aggregators.records"] += len(args[0])

    for aggregator in (engine.domains, engine.appearances,
                       engine.first_hops, engine.cascades):
        tracer.patch(aggregator, "update", "aggregators", one_record)
        tracer.patch(aggregator, "update_batch", "aggregators",
                     batch_records)
    if engine.refitter is not None:
        refitter = engine.refitter

        def refitted(result, args):
            if result is not None:
                counts["refit.urls"] += refitter.last_corpus_size

        tracer.patch(refitter, "maybe_refit", "refit", refitted)

    def checkpointed(path, args):
        counts["checkpoint.count"] += 1
        counts["checkpoint.bytes"] += Path(path).stat().st_size

    tracer.patch(engine, "checkpoint", "checkpoint", checkpointed)


class _Drain:
    """What one ``repro live`` call's ``LiveEngine.run()`` did."""

    wall_s = 0.0
    consumed = 0
    engine = None
    exit_code: int | None = None


def _live(argv: list[str], world, tracer: Tracer | None = None) -> _Drain:
    """Run ``repro live`` once, on the set-up ``world``."""
    import repro.synthesis.world as world_module
    from repro.live import LiveEngine
    drain = _Drain()
    real_run = LiveEngine.run

    def build_world(config):
        if config != world.config:
            raise RuntimeError(f"repro live asked for another world {config}")
        return world

    def timed_run(engine, limit=None):
        run = real_run
        if tracer is not None:
            _instrument(engine, tracer)
            run = tracer.wrap(real_run, "bus")
        start = perf_counter()
        try:
            drain.consumed = run(engine, limit)
        finally:
            drain.wall_s = perf_counter() - start
            if tracer is not None:
                tracer.unpatch()
        drain.engine = engine
        return drain.consumed

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            world_module, "build_world", build_world))
        stack.enter_context(mock.patch.object(LiveEngine, "run", timed_run))
        if tracer is not None:
            stack.enter_context(_traced_sources(tracer))
        drain.exit_code = _cli_live(argv)
    return drain


def _collected(world):
    from repro.pipeline import collect
    return collect(world, stream_seed=world.config.seed)


def _views_match(engine, data) -> list[str]:
    """Where the engine's public views differ from batch characterization."""
    from repro.analysis import characterization as chz
    from repro.analysis import sequences
    from repro.news.domains import NewsCategory
    problems = []
    slices = data.sequence_slices()
    for category in NewsCategory:
        if (engine.domains.platform_fractions(category)
                != chz.domain_platform_fractions(slices, category)):
            problems.append(f"platform_fractions({category.value})")
        if (engine.first_hops.first_hop(category)
                != sequences.first_hop_distribution(slices, category)):
            problems.append(f"first_hop({category.value})")
        for name, dataset in slices.items():
            if (engine.domains.top_domains(name, category)
                    != chz.top_domains(dataset, category)):
                problems.append(f"top_domains({name}, {category.value})")
    return problems


def _check_drain(drain: _Drain, records: int, outcome: Outcome) -> None:
    """Every record is one operation; records a run missed failed."""
    outcome.attempted += records
    outcome.failed += abs(records - drain.consumed)
    if drain.consumed != records:
        outcome.problems.append(
            f"engine consumed {drain.consumed} records, collected {records}")
    outcome.check(drain.exit_code == 0, f"repro live exited {drain.exit_code}")


def run(spec: RunSpec) -> Outcome:
    from repro.live import load_checkpoint

    outcome = Outcome()
    checkpoint = spec.work / "checkpoint"
    argv = ["live", *spec.world_flags(), "--checkpoint", str(checkpoint)]
    setup = []
    for _ in range(SETUP_REPEATS):
        world = None
        gc.collect()
        start = perf_counter()
        world = _build_world(spec)
        setup.append(perf_counter() - start)

    # Only the last run's engine is kept, for the checks.
    drains, engine = [], None
    gc.collect()
    reset_peak_rss()
    began = perf_counter()
    while not drains or perf_counter() - began < spec.seconds:
        engine = None
        drains.append(_live(argv, world))
        engine, drains[-1].engine = drains[-1].engine, None
        gc.collect()
    peak = peak_rss_mb()
    if engine is None:
        outcome.check(False, f"repro live exited {drains[-1].exit_code}")
        return outcome

    data = _collected(world)
    records = len(data.merged())
    for drain in drains:
        _check_drain(drain, records, outcome)
    problems = _views_match(engine, data)
    outcome.check(not problems, "engine views differ from batch "
                                f"characterization: {', '.join(problems)}")
    outcome.check(load_checkpoint(checkpoint) == engine.state_dict(),
                  "final checkpoint does not load back to state_dict()")

    walls = [drain.wall_s for drain in drains]
    wall = benchstats.median(walls)
    outcome.metrics.update({
        "setup_s": benchstats.median(setup),
        "wall_s": wall,
        "peak_rss_mb": peak,
        "records_per_s": records / wall,
    })
    outcome.samples.update({"setup_s": setup, "wall_s": walls})
    outcome.sizes.update({"records": records,
                          "sources": len(engine.by_source)})
    if spec.trace:
        expected = engine.state_dict()
        del data, engine
        _traced(spec, argv, world, records, expected, wall, outcome)
    return outcome


def _traced(spec: RunSpec, argv: list[str], world, records: int,
            expected_state: dict, untraced_s: float,
            outcome: Outcome) -> None:
    walls, own, counts = [], {}, {}
    began = perf_counter()
    while not walls or perf_counter() - began < spec.seconds:
        tracer = Tracer()
        drain = _live(argv, world, tracer)
        walls.append(drain.wall_s)
        _check_drain(drain, records, outcome)
        if drain.engine is None:
            return
        outcome.check(drain.engine.state_dict() == expected_state,
                      "traced engine state differs from the untraced run")
        for layer, seconds_in in tracer.self_times().items():
            own[layer] = own.get(layer, 0.0) + seconds_in
        for name, value in tracer.counts.items():
            counts[name] = counts.get(name, 0) + value
        refitter = drain.engine.refitter
        counts["refit.count"] = counts.get("refit.count", 0) + (
            refitter.n_refits if refitter is not None else 0)
        del tracer, drain
        gc.collect()
    reps = len(walls)
    metrics = outcome.metrics
    for layer in LIVE_LAYERS:
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0) / reps
    metrics["source.records"] = counts.get("source", 0) / reps
    calls = counts.get("aggregators.calls", 0)
    metrics["aggregators.calls"] = calls / reps
    metrics["aggregators.records_per_call"] = (
        counts.get("aggregators.records", 0) / calls if calls else 0.0)
    for name in ("refit.count", "refit.urls", "checkpoint.count",
                 "checkpoint.bytes"):
        metrics[name] = counts.get(name, 0) / reps
    # Self times are per-repetition means, so the overhead is too: the
    # layers then add up to untraced_s + trace.overhead_s.
    metrics["trace.overhead_s"] = sum(walls) / reps - untraced_s
