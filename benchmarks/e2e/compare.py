"""Compare two sides of the results ledger: ``python -m benchmarks.e2e.compare A B``.

``A`` (the base) and ``B`` are ledger files or globs of ledger files written
by ``run.py`` — several runs of one commit make a side with a spread.  One row
is printed per (workload, end-to-end metric): both medians, the ratio with its
base, the bound, and a status:

``ok``          B's median is not worse than A's by more than the bound;
``regressed``   it is;
``unresolved``  the run-to-run spread of a side is wider than the bound, so
                neither of the above can be said — unless every run of B reads
                better than every run of A, which is ``ok``;
``not gated``   the metric has no bound or the pair is listed in
                ``metrics.UNGATED``: identical code spreads wider than any
                usable bound, so the values are shown without a verdict.

Runs that did not get the same inputs are not compared: differing seed, sizes,
flush policy or ``input_digest`` is an error.  Exit status 1 when any row
regressed (or the sides are incomparable), else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import metrics as metric_table


def load_side(pattern: str) -> List[Dict[str, Any]]:
    paths = sorted(glob.glob(pattern)) or [pattern]
    entries = []
    for path in paths:
        with open(path) as handle:
            entry = json.load(handle)
        if not entry.get("trace"):      # end-to-end metrics come from untraced runs
            entries.append(entry)
    if not entries:
        raise SystemExit(f"{pattern}: no untraced ledger entry")
    return entries


def incomparable(entries: List[Dict[str, Any]]) -> Optional[str]:
    """Why these runs did not get the same inputs, or ``None``."""
    first = entries[0]
    for entry in entries[1:]:
        for key in ("seed", "sizes", "flush_policy"):
            if entry[key] != first[key]:
                return f"{key} differs: {first[key]!r} vs {entry[key]!r}"
        for workload, digests in first["digests"].items():
            other = entry["digests"].get(workload, {})
            if digests["input_digest"] != other.get("input_digest"):
                return f"input_digest of {workload} differs"
    return None


def spread(values: List[float]) -> Optional[float]:
    """(max − min) ÷ median of one side's runs; ``None`` with fewer than two."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    return (max(values) - min(values)) / abs(middle) if middle else None


def judge(metric: metric_table.Metric, base: List[float], new: List[float], gated: bool
          ) -> Tuple[float, float, Optional[float], str]:
    """(base median, new median, widest spread, status) of one row."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    widest = max(spreads) if spreads else None
    if not gated:
        return base_median, new_median, widest, "not gated"
    lower = metric.better == "lower"
    if base_median:
        worse_by = (new_median - base_median) / abs(base_median) * (1 if lower else -1)
    else:
        worse_by = float(new_median > 0) if lower else 0.0   # "may not rise" from 0
    all_better = max(new) < min(base) if lower else min(new) > max(base)
    if widest is not None and widest > metric.bound and not all_better:
        status = "unresolved"
    else:
        status = "regressed" if worse_by > metric.bound else "ok"
    return base_median, new_median, widest, status


def compare(base: List[Dict[str, Any]], new: List[Dict[str, Any]]) -> Tuple[List[str], bool]:
    lines = [f"{'workload':14s} {'metric':28s} {'base':>12s} {'new':>12s} "
             f"{'new/base':>9s} {'bound':>6s} {'spread':>7s}  status"]
    regressed = False
    gated = metric_table.gated()
    for workload in metric_table.WORKLOADS:
        for name, metric in gated.items():
            base_values = [e["metrics"][workload][name] for e in base
                           if name in e["metrics"].get(workload, {})]
            new_values = [e["metrics"][workload][name] for e in new
                          if name in e["metrics"].get(workload, {})]
            if not base_values or not new_values:
                continue    # the metric does not apply to this workload
            is_gated = metric.bound is not None and (name, workload) not in metric_table.UNGATED
            base_median, new_median, widest, status = judge(
                metric, base_values, new_values, is_gated)
            ratio = f"{new_median / base_median:9.4f}" if base_median else f"{'-':>9s}"
            shown = f"{widest:7.4f}" if widest is not None else f"{'-':>7s}"
            bound = f"{metric.bound:6.2f}" if is_gated else f"{'-':>6s}"
            lines.append(f"{workload:14s} {name:28s} {base_median:12.4f} {new_median:12.4f} "
                         f"{ratio} {bound} {shown}  {status}")
            regressed = regressed or status == "regressed"
        for key in ("result_digest", "degrade_steps"):
            values = {json.dumps(e["digests"][workload].get(key)) for e in base + new}
            if len(values) > 1:
                lines.append(f"{workload:14s} {key:28s} differs between runs: {sorted(values)}")
                regressed = True
    return lines, regressed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="ledger file or glob (A, the base of every ratio)")
    parser.add_argument("new", help="ledger file or glob (B)")
    args = parser.parse_args(argv)
    base, new = load_side(args.base), load_side(args.new)
    reason = incomparable(base + new)
    if reason is not None:
        print(f"refusing to compare: {reason}")
        return 1
    lines, regressed = compare(base, new)
    print(f"base: {len(base)} run(s) of {base[0]['commit']}   "
          f"new: {len(new)} run(s) of {new[0]['commit']}   seed {base[0]['seed']}")
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
