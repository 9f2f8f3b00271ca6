"""Run the benchmark: ``PYTHONPATH=src python -m benchmarks.e2e.run --seed 7``.

Two ways in, one code path:

* **one workload, in this process** — ``--workload NAME`` (this is how the
  root ``BENCHMARK.json`` command is called: ``--workload W --seed N --seconds
  S --trace 0|1``).  The last line of standard output is one JSON object
  ``{"correct", "attempted", "failed", "metrics"}`` holding every
  ``end_to_end`` metric (``--trace 0``) or every ``per_layer`` metric
  (``--trace 1``) of ``BENCHMARK.json``.
* **all four workloads** — no ``--workload``: each runs in its own child
  process (so ``peak_rss_mb`` and every cache are per workload), every metric
  is printed by name with its unit, and the run is appended to the results
  ledger under ``results/``.  ``--trace`` adds a traced run of the same seeded
  inputs and its ledger entry.

Exit status is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

if __package__ in (None, ""):
    # launched as a script: make the checkout's packages importable
    sys.path[:0] = [path for path in (ROOT, os.path.join(ROOT, "src"))
                    if path not in sys.path]
    __package__ = "benchmarks.e2e"

from . import metrics as metric_table  # noqa: E402
from . import probes  # noqa: E402

RESULTS_DIR = os.path.join(HERE, "results")
PINS_PATH = os.path.join(HERE, "pins.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def load_pins() -> Dict[str, Any]:
    try:
        with open(PINS_PATH) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def default_seconds() -> int:
    """``run_seconds`` of BENCHMARK.json (what the pinned sizes assume)."""
    try:
        with open(BENCHMARK_JSON) as handle:
            return int(json.load(handle)["run_seconds"])
    except (OSError, ValueError, KeyError):
        from .workloads import REFERENCE_SECONDS
        return REFERENCE_SECONDS


# ---------------------------------------------------------------- one workload

def driver_line(report: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    """The result object BENCHMARK.json's contract asks for: every declared
    metric present — a per-layer metric of a layer this workload never enters
    reads 0."""
    if traced:
        measured = dict(report["layers"])
        measured.update(("e2e." + name, value) for name, value in report["metrics"].items())
        declared = metric_table.driver_per_layer()
    else:
        measured = report["metrics"]
        declared = list(metric_table.END_TO_END)
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m.name: {"value": measured.get(m.name, 0.0), "unit": m.unit}
                    for m in declared},
    }


def print_report(report: Dict[str, Any]) -> None:
    units = {m.name: m.unit for m in metric_table.END_TO_END + metric_table.WORKLOAD_SPECIFIC
             + tuple(metric_table.PER_LAYER)}
    print(f"== {report['workload']}  seed={report['seed']}  sizes={report['sizes']}")
    for name, value in report["metrics"].items():
        print(f"  {name:34s} {value:14.4f} {units.get(name, ''):6s} "
              f"n={report['samples'].get(name, '')}")
    for name, value in sorted(report.get("layers", {}).items()):
        print(f"  {name:44s} {value:14.4f} {units.get(name, '')}")
    for key, value in report["digests"].items():
        print(f"  {key:34s} {value}")
    print(f"  checks: {report['checks']}")
    if report.get("unresolved"):
        print(f"  trace.unresolved targets: {report['unresolved']}")
    for warning in report.get("warnings", ()):
        print(f"  WARNING: {warning}")
    for problem in report["problems"]:
        print(f"  INCORRECT: {problem}")


def run_one(args: argparse.Namespace) -> int:
    from .workloads import run_workload
    report = run_workload(args.workload, args.seed, args.seconds, trace=args.trace,
                          pins=load_pins(), trace_dump=args.trace_dump)
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(report, handle)
    print_report(report)
    print(json.dumps(driver_line(report, args.trace)))
    return 0 if report["correct"] else 1


# ---------------------------------------------------------------- all workloads

def _child(workload: str, args: argparse.Namespace, traced: bool, scratch: str
           ) -> Dict[str, Any]:
    detail = os.path.join(scratch, f"{workload}-{int(traced)}.json")
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(traced)), "--detail", detail]
    if traced:
        command += ["--trace-dump", os.path.join(
            os.path.dirname(os.path.abspath(args.out)) if args.out else RESULTS_DIR,
            f"trace-{workload}.json")]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if not os.path.exists(detail):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload}: the child process produced no report")
    with open(detail) as handle:
        report = json.load(handle)
    os.unlink(detail)
    return report


def ledger_entry(reports: List[Dict[str, Any]], args: argparse.Namespace, traced: bool
                 ) -> Dict[str, Any]:
    from .workloads import FLUSH_POLICY
    commit, dirty = probes.git_state(ROOT)
    entry: Dict[str, Any] = {
        "commit": commit, "dirty": dirty,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        **probes.environment(),
        "seed": args.seed, "seconds": args.seconds, "trace": traced,
        "sizes": {r["workload"]: r["sizes"] for r in reports},
        "flush_policy": FLUSH_POLICY,
        "metrics": {r["workload"]: r["metrics"] for r in reports},
        "samples": {r["workload"]: r["samples"] for r in reports},
        "digests": {r["workload"]: r["digests"] for r in reports},
        "checks": {r["workload"]: r["checks"] for r in reports},
        "correct": all(r["correct"] for r in reports),
    }
    if traced:
        entry["layers"] = {r["workload"]: r["layers"] for r in reports}
        entry["unresolved"] = {r["workload"]: r["unresolved"] for r in reports}
    return entry


def write_ledger(entry: Dict[str, Any], out: Optional[str]) -> str:
    """Append-only: an existing file is never overwritten."""
    if out is None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        stem = f"{entry['commit']}-seed{entry['seed']}"
        suffix = "-trace" if entry["trace"] else ""
        out = os.path.join(RESULTS_DIR, f"{stem}{suffix}.json")
        repeat = 1
        while os.path.exists(out):
            repeat += 1
            out = os.path.join(RESULTS_DIR, f"{stem}-{repeat}{suffix}.json")
    with open(out, "x") as handle:
        json.dump(entry, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return out


def run_all(args: argparse.Namespace) -> int:
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="reports-", dir=work)   # child → parent reports
    correct = True
    for traced in ([False, True] if args.trace else [False]):
        reports = [_child(workload, args, traced, scratch)
                   for workload in metric_table.WORKLOADS]
        for report in reports:
            print_report(report)
        entry = ledger_entry(reports, args, traced)
        out = args.out
        if out and traced:
            base, extension = os.path.splitext(out)
            out = f"{base}-trace{extension}"
        print(f"ledger entry: {write_ledger(entry, out)}")
        correct = correct and entry["correct"]
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        os.rmdir(work)
    except OSError:
        pass  # a concurrent run still uses it
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", choices=metric_table.WORKLOADS)
    parser.add_argument("--seconds", type=float, default=default_seconds(),
                        help="work budget each workload is sized for")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1), help="also (or, with --workload, only) the traced run")
    parser.add_argument("--out", help="ledger file to write instead of results/<commit>-...")
    parser.add_argument("--detail", help=argparse.SUPPRESS)       # child → parent report
    parser.add_argument("--trace-dump", help=argparse.SUPPRESS)   # span dump of a traced child
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
