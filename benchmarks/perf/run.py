"""The repo benchmark: batch OD-matrix and live-plane workloads.

Usage (from the repository root)::

    python benchmarks/perf/run.py [--workload W ...] [--seed 13]
        [--seconds 30] [--trace [0|1]] [--smoke] [--out F]

Every sample is a fresh child process (``child.py``) with a scrubbed
environment: ``REPRO_WORKERS=1 REPRO_EXECUTOR=serial``, no
``REPRO_ENGINE``, ``PYTHONPATH=src``.  Children of the selected
workloads run round-robin (A B C D A B C D ...) so host drift hits
every workload alike.  Each workload gets ``--seconds`` of samples, at
least three (two with ``--trace``); a sample is not started if it
would overrun.  Timings are reported at the host's reference speed,
from the host probe's ticks during them (``probe.py``).

Untraced, the run prints every end-to-end metric of ``BENCHMARK.json``
per workload.  ``--trace`` alternates untraced and traced samples and
prints every per-layer metric instead; traced samples wrap the span
table of ``spans.py`` and write JSONL traces under
``benchmarks/perf/out/``.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 if any output was wrong (or a sample crashed, in which case
no result is printed) and 2 on a usage error or without ``src/repro``.
``--out F`` appends the full run record (samples, quartiles, digests,
host) to ``F`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from probe import normalized
from workloads import WORKLOADS

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent.parent
SRC = ROOT / "src"
OUT_DIR = PERF_DIR / "out"

#: Minimum samples per workload, untraced and traced runs.
MIN_SAMPLES = {0: 3, 1: 2}
#: Wall-clock cap for one child (the whole run must end within 180 s).
CHILD_TIMEOUT_S = 150.0


def summarize(values: List[float], unit: str) -> Dict[str, object]:
    """Median, quartiles and count of one metric's samples."""
    median = statistics.median(values)
    q1, q3 = median, median
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "unit": unit, "n": len(values), "q1": q1, "q3": q3}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_info() -> Dict[str, object]:
    versions = {}
    for package in ("numpy", "scipy", "networkx"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    affinity = (
        sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        **versions,
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_WORKERS"] = "1"
    env["REPRO_EXECUTOR"] = "serial"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(
    name: str, args: argparse.Namespace, traced: bool, verify: bool, index: int
) -> Dict[str, object]:
    """Run one sample process; returns its JSON record plus ``wall_s``."""
    cmd = [
        sys.executable,
        str(PERF_DIR / "child.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--index", str(index),
        "--scratch", str(OUT_DIR),
    ]
    if verify:
        cmd.append("--verify")
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    cmd += ["--spawned", repr(time.time())]
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {name} sample timed out") from None
    wall_s = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"error: {name} sample exited {done.returncode}: {done.stdout[-2000:]}"
        )
    record = json.loads(lines[-1])
    record["wall_s"] = wall_s
    return record


class Schedule:
    """Per-workload sample bookkeeping for the round-robin loop."""

    def __init__(self, name: str, args: argparse.Namespace) -> None:
        self.name = name
        self.args = args
        self.children: List[Dict[str, object]] = []
        self.elapsed = 0.0

    def next_traced(self) -> bool:
        """Traced runs alternate untraced and traced samples."""
        return bool(self.args.trace) and len(self.children) % 2 == 1

    def wants_more(self) -> bool:
        n = len(self.children)
        if self.args.smoke:
            return n < 1 + self.args.trace
        if n < MIN_SAMPLES[self.args.trace]:
            return True
        # Predict from the latest sample of the same kind: the first
        # sample of a run also verifies outputs, so it runs long.
        traced = self.next_traced()
        same = [c for c in self.children if c["traced"] == traced]
        predicted = (same or self.children)[-1]["wall_s"]
        return self.elapsed + predicted <= self.args.seconds


def rep_seconds(children: List[Dict[str, object]]) -> List[float]:
    """Every timed rep of *children*, at the reference speed.  A rep too
    short to catch a tick takes its sample's median tick."""
    return [
        normalized(r["matrix_s"], r["tick_s"] or c["tick_s"])
        for c in children
        for r in c["reps"]
    ]


def setup_seconds(child: Dict[str, object]) -> float:
    """A sample's set-up at the reference speed."""
    return normalized(child["setup_s"], child["setup_tick_s"] or child["tick_s"])


def workload_report(
    schedule: Schedule, bench: Dict[str, object], trace: bool
) -> Dict[str, object]:
    """Aggregate one workload's samples into metrics and verdicts."""
    children = schedule.children
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    samples = {
        "setup_s": [setup_seconds(c) for c in plain],
        "matrix_s": rep_seconds(plain),
        "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        "setup_wall_s": [c["setup_s"] for c in plain],
        "matrix_wall_s": [r["matrix_s"] for c in plain for r in c["reps"]],
        "tick_s": [c["tick_s"] for c in children],
    }
    report: Dict[str, object] = {
        "metrics": {
            m["name"]: summarize(samples[m["name"]], units[m["name"]])
            for m in bench["end_to_end"]
        },
        "samples": samples,
        "children": len(children),
        "reps_per_sample": len(children[0]["reps"]),
        "probe_s": statistics.median(samples["tick_s"]),
    }
    by_kind = {
        kind: sorted({c["digest"] for c in group})
        for kind, group in (("untraced", plain), ("traced", traced))
        if group
    }
    digests = sorted({d for kind in by_kind.values() for d in kind})
    problems = [p for c in children for p in c["problems"]]
    if len(digests) > 1:
        where = (
            "traced and untraced samples"
            if all(len(kind) == 1 for kind in by_kind.values())
            else "samples"
        )
        problems.append(f"result digest differs between {where}: {digests}")
    report["digest"] = digests[0]
    report["digests"] = by_kind
    report["attempted"] = sum(c["attempted"] for c in children)
    report["failed"] = sum(c["failed"] for c in children)
    if report["failed"]:
        problems.append(
            f"{report['failed']} of {report['attempted']} operations failed"
        )
    report["problems"] = problems
    report["correct"] = not problems
    if trace:
        report["layers"] = layer_metrics(samples, plain, traced, bench)
        report["span_calls"] = {
            name: statistics.median(c["span_calls"].get(name, 0) for c in traced)
            for name in sorted({k for c in traced for k in c["span_calls"]})
        }
        report["trace_files"] = [c["trace_file"] for c in traced]
    return report


def layer_metrics(samples, plain, traced, bench) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric: span and registry values from the traced
    samples; live latency/throughput and accuracy from the untraced
    ones; trace overhead, raw wall times and host probe from the
    runner."""
    plain_reps = [r for c in plain for r in c["reps"]]
    latencies = [x for r in plain_reps for x in r.get("latencies_ms", [])]
    live = bool(latencies)
    runner = {
        "live.ingest_rps": statistics.median(
            r["responses"] / r["stream_s"] for r in plain_reps
        )
        if live
        else 0.0,
        "live.query_p50_ms": float(np.percentile(latencies, 50)) if live else 0.0,
        "live.query_p99_ms": float(np.percentile(latencies, 99)) if live else 0.0,
        "accuracy.vlm_median_err_pct": statistics.median(c["err_pct"] for c in plain),
        "trace.overhead_frac": statistics.median(rep_seconds(traced))
        / statistics.median(samples["matrix_s"])
        - 1.0,
        "trace.unattributed_frac": statistics.median(
            c["unattributed_frac"] for c in traced
        ),
        "host.probe_s": statistics.median(samples["tick_s"]),
        "host.setup_wall_s": statistics.median(samples["setup_wall_s"]),
        "host.matrix_wall_s": statistics.median(samples["matrix_wall_s"]),
    }
    out = {}
    for metric in bench["per_layer"]:
        name = metric["name"]
        if name in runner:
            value = runner[name]
        else:
            value = statistics.median(c["layers"].get(name, 0.0) for c in traced)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def print_report(name: str, report: Dict[str, object], trace: bool) -> None:
    what = {
        "matrix_s": f"reps in {len(report['samples']['setup_s'])} samples",
    }
    for metric, m in report["metrics"].items():
        print(
            f"{name:<15} {metric:<28} {m['value']:>14.6g} {m['unit']:<12}"
            f" n={m['n']} {what.get(metric, 'samples')}"
            f"  q1={m['q1']:.6g} q3={m['q3']:.6g}"
        )
    if trace:
        for metric, m in report["layers"].items():
            print(f"{name:<15} {metric:<28} {m['value']:>14.6g} {m['unit']}")
    verdict = "ok" if report["correct"] else "WRONG: " + "; ".join(report["problems"])
    print(
        f"{name:<15} digest {report['digest']}  samples={report['children']}"
        f"  probe_s={report['probe_s']:.4g}  failed={report['failed']}"
        f"/{report['attempted']}  outputs {verdict}"
    )


def append_record(path: Path, record: Dict[str, object]) -> None:
    data = {"runs": []}
    if path.exists():
        data = json.loads(path.read_text())
    data["runs"].append(record)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def parse_args(argv: Optional[List[str]], run_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Batch OD-matrix and live-plane benchmark."
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all, round-robin)",
    )
    parser.add_argument("--seed", type=int, default=13)
    # The standard benchmark command line passes BENCHMARK.json's
    # run_seconds here on every run, so the flag has to be accepted.
    parser.add_argument(
        "--seconds",
        type=float,
        default=run_seconds,
        help="sampling time per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="report per-layer metrics from traced samples",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, one sample each"
    )
    parser.add_argument("--out", type=Path, help="append the run record here")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no {SRC / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, int(bench["run_seconds"]))
    names = list(dict.fromkeys(args.workload or WORKLOADS))
    OUT_DIR.mkdir(exist_ok=True)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the
    # running sample before the runner exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    schedules = {name: Schedule(name, args) for name in names}
    index = 0
    while True:
        active = [s for s in schedules.values() if s.wants_more()]
        if not active:
            break
        for schedule in active:
            child = run_child(
                schedule.name,
                args,
                traced=schedule.next_traced(),
                verify=not schedule.children,
                index=index,
            )
            index += 1
            schedule.children.append(child)
            schedule.elapsed += child["wall_s"]

    host = host_info()
    host.update(next(iter(schedules.values())).children[0]["host"])
    reports = {
        name: workload_report(schedule, bench, bool(args.trace))
        for name, schedule in schedules.items()
    }
    for name, report in reports.items():
        print_report(name, report, bool(args.trace))
    for name, report in reports.items():
        for problem in report["problems"]:
            print(f"error: {name}: {problem}", file=sys.stderr)

    if args.out is not None:
        append_record(
            args.out,
            {
                "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
                "host": host,
                "workloads": reports,
            },
        )

    key = "layers" if args.trace else "metrics"
    metrics = {}
    for name, report in reports.items():
        for metric, m in report[key].items():
            label = metric if len(reports) == 1 else f"{name}/{metric}"
            metrics[label] = {"value": m["value"], "unit": m["unit"]}
    correct = all(r["correct"] for r in reports.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in reports.values()),
                "failed": sum(r["failed"] for r in reports.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
