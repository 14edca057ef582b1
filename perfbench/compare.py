"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are JSONL files written by ``perfbench/run.py --out``.  For every workload and end-to-end metric
of ``BENCHMARK.json`` it prints each side's median and quartiles, the
pairs the change won, and a verdict:

- ``better``: the change won at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's
  inter-quartile range;
- ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: either side's spread (IQR / median) exceeds the
  bound, unless every run of the change reads better than every run of
  the parent;
- ``same``: none of the above.

Runs pair up in file order: the i-th run of PARENT with the i-th run of
CHANGE, as when the two sides are run alternately.  A pair whose input
sizes or environment differ is never compared: the workload is
reported as ``incomparable``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import benchstats

WIN_SHARE = 0.9
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@dataclass
class Verdict:
    workload: str
    metric: str
    unit: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    pairs: int
    won: int
    lost: int
    verdict: str


def load(path: str | Path) -> list[dict]:
    """Every end-to-end (untraced) run record in the JSONL file ``path``."""
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [record for record in records if not record.get("trace")]


def is_better(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def judge(parent: list[float], change: list[float],
          pairs: list[tuple[float, float]], better: str,
          bound: float) -> str:
    """The verdict for one metric; see the module docstring."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    p_q1, p_mid, p_q3 = benchstats.quartiles(parent)
    c_mid = benchstats.median(change)
    won = sum(is_better(c, p, better) for p, c in pairs)
    if (pairs and won >= WIN_SHARE * len(pairs)
            and is_better(c_mid, p_mid, better)
            and abs(c_mid - p_mid) > p_q3 - p_q1):
        return "better"
    worse_by = ((c_mid - p_mid) if better == "lower"
                else (p_mid - c_mid)) / abs(p_mid)
    if worse_by > bound:
        return "worse"
    if (max(benchstats.spread(parent), benchstats.spread(change)) > bound
            and not all(is_better(c, p, better)
                        for c in change for p in parent)):
        return "unresolved"
    return "same"


def _comparable(a: dict, b: dict) -> bool:
    return a["sizes"] == b["sizes"] and a["environment"] == b["environment"]


def compare(parent: list[dict], change: list[dict], spec: dict
            ) -> list[Verdict]:
    verdicts = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        a = [r for r in parent if r["workload"] == workload]
        b = [r for r in change if r["workload"] == workload]
        if not a or not b:
            continue
        pairs = list(zip(a, b))
        comparable = all(_comparable(p, c) for p, c in pairs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_values = [r["metrics"][name] for r in a]
            b_values = [r["metrics"][name] for r in b]
            paired = [(p["metrics"][name], c["metrics"][name])
                      for p, c in pairs]
            better = metric["better"]
            verdict = (judge(a_values, b_values, paired, better,
                             metric["bound"])
                       if comparable else "incomparable")
            verdicts.append(Verdict(
                workload, name, metric["unit"],
                benchstats.quartiles(a_values),
                benchstats.quartiles(b_values), len(paired),
                sum(is_better(c, p, better) for p, c in paired),
                sum(is_better(p, c, better) for p, c in paired),
                verdict))
    return verdicts


def _format(verdicts: list[Verdict]) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    rows = [("workload", "metric", "parent median [q1, q3]",
             "change median [q1, q3]", "won/lost/pairs", "verdict")]
    for v in verdicts:
        rows.append((v.workload, f"{v.metric} ({v.unit})", side(v.parent),
                     side(v.change), f"{v.won}/{v.lost}/{v.pairs}",
                     v.verdict))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip()
                     for row in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two benchmark result sets.")
    parser.add_argument("parent", help="JSONL file of the parent's runs")
    parser.add_argument("change", help="JSONL file of the change's runs")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    print(_format(compare(load(args.parent), load(args.change), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
