"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload {report,live,serve}
        [--seed 7] [--seconds 16] [--trace 0|1] [--world-seed N]
        [--out results.jsonl]

Run from the root of a checkout.  With ``--trace 0`` the run times the
user-facing result with tracing off and prints the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it also runs a traced pass and
prints the per-layer metrics instead (layers a workload does not
exercise read 0).  Outputs are checked outside the timed region either
way, and every failed or wrong operation counts in ``failed``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record (environment, seed, input sizes, raw samples), which
``--out FILE`` also appends to FILE for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

from common import (
    ROOT,
    LayoutError,
    RunSpec,
    environment,
    require_source_tree,
)

WORKLOADS = ("report", "live", "serve")
#: Where runs keep their scratch files; removed when the run ends.
WORK_ROOT = ROOT / ".perfbench_work"


def _benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _run_workload(name: str, spec: RunSpec):
    if name == "report":
        import wl_report
        return wl_report.run(spec)
    if name == "live":
        import wl_live
        return wl_live.run(spec)
    import wl_serve
    return wl_serve.run(spec)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7,
                        help="seeds the inputs the benchmark generates "
                             "(the serve traffic)")
    parser.add_argument("--world-seed", type=int, default=None,
                        help="the program's own --seed, i.e. its synthetic "
                             "world (default: the program's default)")
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append the full run record to this JSONL file")
    args = parser.parse_args(argv)

    try:
        require_source_tree()
        benchmark = _benchmark()
    except (LayoutError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        spec = RunSpec(seed=args.seed, world_seed=args.world_seed,
                       seconds=args.seconds, trace=bool(args.trace),
                       work=work)
        outcome = _run_workload(args.workload, spec)
        error = None
    except Exception:
        outcome, error = None, traceback.format_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still holds its own directory here
    if outcome is None:
        print(error, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    if outcome.attempted:
        outcome.metrics["error_rate"] = outcome.failed / outcome.attempted
    missing = [m["name"] for m in benchmark["end_to_end"]
               if m["name"] not in outcome.metrics]
    if missing:
        outcome.problems.append(f"end-to-end metrics not measured: {missing}")
    metrics = {m["name"]: {"value": outcome.metrics.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    correct = not outcome.problems and outcome.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "problems": outcome.problems,
        "sizes": {"world_seed": args.world_seed, **outcome.sizes},
        "environment": environment(),
        "metrics": dict(sorted(outcome.metrics.items())),
        "samples": outcome.samples,
    }
    print(json.dumps({"record": record}))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct,
                      "attempted": max(outcome.attempted, 1),
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
