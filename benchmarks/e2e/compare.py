#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric, against the bounds.

Usage::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the standard output of ``run.py`` runs, one file per
run (the header line names the workload; the last line is the result
JSON).  Traced runs are skipped.  For every (workload, end-to-end metric)
pair it prints each set's median and quartiles, the median gap as a share
of the parent's median (positive means worse), and a verdict:

* ``improved``   -- the change wins at least 9/10 of the pairs (runs paired
  by seed, else by order) and the medians differ by more than the
  parent's quartile distance;
* ``unresolved`` -- a set's quartile distance is wider than the bound,
  unless every change run beats every parent run;
* ``regression`` -- the change's median is worse by more than the bound;
* ``ok``         -- otherwise.

Exits 1 if any pair is a regression or unresolved, or any run failed.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
_HEADER = re.compile(r"workload=(\S+) seed=(\d+) trace=(\d)")

Run = Tuple[int, Dict]  # (seed, result JSON)


def load_runs(directory: Path) -> Dict[str, List[Run]]:
    """Untraced runs in ``directory``, grouped by workload, seed order."""
    runs: Dict[str, List[Run]] = {}
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text().strip().splitlines()
        match = _HEADER.search(lines[0]) if lines else None
        if match is None or match.group(3) != "0":
            continue
        runs.setdefault(match.group(1), []).append(
            (int(match.group(2)), json.loads(lines[-1])))
    for rows in runs.values():
        rows.sort(key=lambda row: row[0])
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """First quartile, median, third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float], bound: float,
            lower_is_better: bool, pairs: List[Tuple[float, float]]
            ) -> Tuple[str, float]:
    """The verdict for one metric and the signed gap (>0 means worse)."""
    sign = 1.0 if lower_is_better else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = sign * (cm - pm) / pm
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if pairs and wins >= 0.9 * len(pairs) and gap < 0 \
            and abs(cm - pm) > p3 - p1:
        return "improved", gap
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if max((p3 - p1) / pm, (c3 - c1) / cm) > bound and not all_better:
        return "unresolved", gap
    if gap > bound:
        return "regression", gap
    return "ok", gap


def pair_runs(parent: List[Run], change: List[Run], metric: str
              ) -> List[Tuple[float, float]]:
    """Pair runs by seed where the seeds match, else by position."""
    by_seed = {seed: result for seed, result in change}
    if all(seed in by_seed for seed, _ in parent):
        return [(r["metrics"][metric]["value"],
                 by_seed[seed]["metrics"][metric]["value"])
                for seed, r in parent]
    return [(a["metrics"][metric]["value"], b["metrics"][metric]["value"])
            for (_, a), (_, b) in zip(parent, change)]


def compare(parent_dir: Path, change_dir: Path) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    status = 0
    print(f"{'workload':24} {'metric':12} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'gap':>8} {'bound':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        a_runs, b_runs = parent.get(workload, []), change.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:24} missing runs (parent {len(a_runs)}, "
                  f"change {len(b_runs)})")
            status = 1
            continue
        for label, rows in (("parent", a_runs), ("change", b_runs)):
            failed = sum(r["failed"] for _, r in rows)
            if failed or not all(r["correct"] for _, r in rows):
                print(f"{workload:24} {label}: {failed} failed ops")
                status = 1
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for _, r in a_runs]
            b = [r["metrics"][name]["value"] for _, r in b_runs]
            result, gap = verdict(a, b, m["bound"], m["better"] == "lower",
                                  pair_runs(a_runs, b_runs, name))
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:24} {name:12} "
                  f"{fmt.format(*quartiles(a)):>30} "
                  f"{fmt.format(*quartiles(b)):>30} "
                  f"{gap * 100:+7.2f}% {m['bound'] * 100:5.0f}%  {result}")
            if result in ("regression", "unresolved"):
                status = 1
    return status


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(Path(argv[0]), Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
