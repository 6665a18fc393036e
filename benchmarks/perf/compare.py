"""Compare two sets of benchmark runs of the same workloads.

Usage (from the repository root)::

    python benchmarks/perf/compare.py PARENT.json CHANGE.json [--save F]

Each file holds ``{"runs": [...]}`` as appended by ``run.py --out``.
``FILE#N`` takes the N-th set of a file written by ``--save`` (such as
``baseline.json#1``).  Run *i* of the parent is paired with run *i* of
the change, so produce them alternately, switching which side goes
first.

For every workload and end-to-end metric of ``BENCHMARK.json`` it
prints each side's median and quartiles over its runs, the change's
win fraction over the pairs (ties count for neither side), and a
verdict:

* ``regression`` - the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` - either side's spread (quartile distance over
  median) is wider than the bound, unless every change run beats every
  parent run;
* ``gain`` - the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's quartile distance;
* ``same`` - none of the above.

A workload whose result digest differs between the sides on a seed
both ran is flagged ``outputs changed``, so regenerated goldens cannot
pass silently.  The host probe (``probe_s``) of both sides is printed,
and flagged when it moved by more than the smallest bound.  Exit code
1 on any regression or changed outputs.  ``--save F`` writes both sets
of runs with their per-metric summaries (median, quartiles, spread) to
``F``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from run import summarize

ROOT = Path(__file__).resolve().parents[2]


def load_runs(spec: str) -> List[dict]:
    """The runs of ``path`` or of set ``N`` of ``path#N``."""
    path, _, which = spec.partition("#")
    data = json.loads(Path(path).read_text())
    runs = data["sets"][int(which) - 1]["runs"] if which else data["runs"]
    if not runs:
        raise SystemExit(f"error: no runs in {spec}")
    return runs


def spread(stats: Dict[str, float]) -> float:
    """Quartile distance over the median."""
    return (stats["q3"] - stats["q1"]) / abs(stats["value"]) if stats["value"] else 0.0


def _cell(stats: Dict[str, float]) -> str:
    return f"{stats['value']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}]"


def verdict(
    parent: List[float], change: List[float], bound: float, better: str
) -> Tuple[str, float, float]:
    """``(verdict, relative change, win fraction)`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = summarize(parent, ""), summarize(change, "")
    relative = (c["value"] - p["value"]) / p["value"] if p["value"] else 0.0
    pairs = list(zip(parent, change))
    win = sum(1 for a, b in pairs if sign * (b - a) < 0) / len(pairs)
    all_better = all(sign * (b - a) < 0 for b in change for a in parent)
    if sign * relative > bound:
        return "regression", relative, win
    if max(spread(p), spread(c)) > bound and not all_better:
        return "unresolved", relative, win
    if win >= 0.9 and abs(c["value"] - p["value"]) > p["q3"] - p["q1"] and sign * relative < 0:
        return "gain", relative, win
    return "same", relative, win


def runs_of(runs: List[dict], workload: str) -> List[dict]:
    return [r["workloads"][workload] for r in runs if workload in r["workloads"]]


def digests(runs: List[dict], workload: str) -> Dict[int, str]:
    return {
        r["seed"]: r["workloads"][workload]["digest"]
        for r in runs
        if workload in r["workloads"]
    }


def summary(runs: List[dict], bench: dict) -> Dict[str, Dict[str, dict]]:
    """Per workload and end-to-end metric: median, quartiles, spread
    and count over the runs, plus the host probe's median."""
    out: Dict[str, Dict[str, dict]] = {}
    for w in bench["workloads"]:
        reports = runs_of(runs, w["name"])
        if not reports:
            continue
        row = {}
        for m in bench["end_to_end"]:
            stats = summarize([r["metrics"][m["name"]]["value"] for r in reports], m["unit"])
            row[m["name"]] = {**stats, "spread": spread(stats)}
        row["host.probe_s"] = summarize([r["probe_s"] for r in reports], "s")
        out[w["name"]] = row
    return out


def compare(
    parent_runs: List[dict], change_runs: List[dict], bench: dict
) -> Tuple[List[str], bool]:
    """Report lines and whether anything failed (regression/outputs)."""
    smallest = min(m["bound"] for m in bench["end_to_end"])
    workloads = [
        w["name"]
        for w in bench["workloads"]
        if runs_of(parent_runs, w["name"]) and runs_of(change_runs, w["name"])
    ]
    lines = [
        f"{'workload':<15} {'metric':<12} {'parent median [q1, q3]':>32}"
        f" {'change median [q1, q3]':>32} {'delta':>8} {'win':>5}  verdict"
    ]
    failed = False
    for workload in workloads:
        p_runs, c_runs = runs_of(parent_runs, workload), runs_of(change_runs, workload)
        for meta in bench["end_to_end"]:
            name = meta["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            p_stats, c_stats = summarize(p, ""), summarize(c, "")
            outcome, relative, win = verdict(p, c, meta["bound"], meta["better"])
            failed |= outcome == "regression"
            lines.append(
                f"{workload:<15} {name:<12} {_cell(p_stats):>32} {_cell(c_stats):>32}"
                f" {relative:>+8.1%} {win:>5.0%}  {outcome}"
                f" (bound {meta['bound']:.0%}, spread {spread(p_stats):.1%}"
                f"/{spread(c_stats):.1%}, n={len(p)}/{len(c)})"
            )
        p_digests = digests(parent_runs, workload)
        c_digests = digests(change_runs, workload)
        changed = sorted(
            seed
            for seed in set(p_digests) & set(c_digests)
            if p_digests[seed] != c_digests[seed]
        )
        if changed:
            failed = True
            lines.append(f"{workload:<15} outputs changed on seeds {changed}")
        p_probe = statistics.median(r["probe_s"] for r in p_runs)
        c_probe = statistics.median(r["probe_s"] for r in c_runs)
        drift = (c_probe - p_probe) / p_probe
        note = "  HOST DRIFT: rerun before reading" if abs(drift) > smallest else ""
        lines.append(
            f"{workload:<15} host probe {p_probe:.4g} s -> {c_probe:.4g} s"
            f" ({drift:+.1%}){note}"
        )
    return lines, failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="PARENT.json or FILE#N")
    parser.add_argument("change", help="CHANGE.json or FILE#N")
    parser.add_argument(
        "--save", type=Path, help="write both sets and their summaries here"
    )
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    lines, failed = compare(parent, change, bench)
    print("\n".join(lines))
    if args.save is not None:
        sets = [
            {"source": spec, "summary": summary(runs, bench), "runs": runs}
            for spec, runs in ((args.parent, parent), (args.change, change))
        ]
        args.save.write_text(
            json.dumps({"sets": sets, "comparison": lines}, indent=1, sort_keys=True)
            + "\n"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
