"""Command-line interface: regenerate artifacts and run the live plane.

Usage::

    python -m repro.cli table1      # Table I
    python -m repro.cli fig2        # Figure 2 (all three plots)
    python -m repro.cli fig4        # Figure 4 (baseline sweep)
    python -m repro.cli fig5        # Figure 5 (VLM sweep)
    python -m repro.cli accuracy    # Section V closed forms vs MC
    python -m repro.cli ablations   # design-choice ablations
    python -m repro.cli all         # everything

    python -m repro.cli scenarios list           # the workload zoo
    python -m repro.cli scenarios describe grid-8x8
    python -m repro.cli matrix --scenario grid-16x16  # 256-RSU matrix

    python -m repro.cli serve       # live gateway + collector
    python -m repro.cli serve --scenario trajectory-replay
                                    # any zoo scenario, same flags on
                                    # both sides
    python -m repro.cli serve --shards 3 --wal collector.wal
                                    # federated: 3 shards + journaled
                                    # OR-merge collector
    python -m repro.cli loadgen     # replay a scenario day at them
    python -m repro.cli loadgen --shards 3 --rebalance 2
                                    # the same load generator, sharded,
                                    # with mid-period handoffs; add
                                    # --window N or --periods N as
                                    # unsharded
    python -m repro.cli chaos       # fault-injection proxy in front
    python -m repro.cli chaos --profile shard-kill
                                    # kill a shard + the collector,
                                    # prove WAL replay is bit-identical
    python -m repro.cli federation status --metrics-port 9100
    python -m repro.cli metrics summarize run.jsonl  # inspect a dump
    python -m repro.cli metrics summarize s0.jsonl s1.jsonl  # aggregate

    python -m repro.cli serve --periods 3 --drift -0.4 --adaptive
    python -m repro.cli loadgen --periods 3 --drift -0.4 --adaptive
                                    # multi-day run with between-period
                                    # adaptive resizing (announced sizes
                                    # verified against the golden
                                    # trajectory; --trajectory-out dumps
                                    # it for CI diffs)
    python -m repro.cli matrix --adaptive   # multi-day adaptive decode
    python -m repro.cli chaos --profile shard-kill --adaptive
                                    # prove WAL replay restores the
                                    # per-period size plan
    python -m repro.cli adaptive    # adaptive-vs-static experiment

``serve --metrics-port N`` exposes live metrics as Prometheus text;
``loadgen --metrics-out PATH`` dumps a finished run's metrics as JSON
lines (see ``docs/observability.md``).

``--quick`` shrinks the sweeps/repetitions for a fast smoke run;
``--json PATH`` additionally writes the structured results to a file.
``--workers N`` / ``--executor {serial,thread,process}`` (or the
``REPRO_WORKERS`` / ``REPRO_EXECUTOR`` environment variables) run an
experiment's independent tasks in parallel — results are bit-identical
for every worker count and executor (see ``docs/parallel.md``); with
``repro all`` the independent artifacts themselves run concurrently.
``serve`` and ``loadgen`` must be given the same deployment flags
(``--trips --seed --s --load-factor --hash-seed``, and ``--shards
--window --periods``) so both processes derive the identical fleet and
port plan; see ``docs/protocol.md``.  ``loadgen`` exits 2 on a shape
it cannot drive (``--rebalance`` without ``--shards``, a negative
count, more rebalanced RSUs than the fleet has).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.runtime import EXECUTOR_ENV, EXECUTORS, WORKERS_ENV, Task, run_tasks
from repro.utils.serialization import dump_json

__all__ = ["main", "build_parser"]

#: Experiment runner signature: (quick, workers=None, executor=None).
Runner = Callable[..., object]


def _run_table1(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> object:
    from repro.experiments.table1 import run_table1

    return run_table1(
        repetitions=2 if quick else 10, workers=workers, executor=executor
    )


def _run_fig1(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> object:
    from repro.experiments.figure1 import run_figure1

    return run_figure1()


def _run_fig2(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> object:
    from repro.experiments.figure2 import run_figure2

    return run_figure2(
        grid_points=100 if quick else 400, empirical_checks=not quick
    )


class _Fig3Result:
    """Adapter giving the network map the runner interface."""

    def __init__(self) -> None:
        from repro.roadnet.layout import ascii_map
        from repro.roadnet.sioux_falls import sioux_falls_network

        self.text = ascii_map(sioux_falls_network())

    def render(self) -> str:
        """The ASCII Sioux Falls map (paper Fig. 3)."""
        return self.text


def _run_fig3(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> object:
    return _Fig3Result()


def _sweep_points(quick: bool) -> Optional[List[int]]:
    if not quick:
        return None  # the paper's full 491-point grid
    from repro.traffic.scenarios import FIG45_SWEEP

    return list(FIG45_SWEEP.n_c_values())[::10]


def _run_fig4(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> object:
    from repro.experiments.figure4 import run_figure4

    return run_figure4(
        n_c_values=_sweep_points(quick), workers=workers, executor=executor
    )


def _run_fig5(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> object:
    from repro.experiments.figure5 import run_figure5

    return run_figure5(
        n_c_values=_sweep_points(quick), workers=workers, executor=executor
    )


def _run_accuracy(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> object:
    from repro.experiments.accuracy_analysis import run_accuracy_analysis

    return run_accuracy_analysis(
        repetitions=5 if quick else 30, workers=workers, executor=executor
    )


def _run_ablations(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> object:
    from repro.experiments.ablations import run_ablations

    return run_ablations(
        repetitions=3 if quick else 10, workers=workers, executor=executor
    )


def _run_multiperiod(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> object:
    from repro.experiments.multiperiod import run_multiperiod

    return run_multiperiod(
        trials=3 if quick else 8, workers=workers, executor=executor
    )


def _run_tradeoff(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> object:
    from repro.experiments.tradeoff import run_tradeoff

    return run_tradeoff()


def _run_matrix(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    scenario: str = "sioux-falls",
) -> object:
    from repro.experiments.sioux_falls_matrix import run_od_matrix

    return run_od_matrix(
        scenario=scenario,
        total_trips=60_000 if quick else 360_600,
        workers=workers,
        executor=executor,
    )


def _run_attacks(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> object:
    from repro.experiments.attack_resilience import run_attack_resilience

    return run_attack_resilience(
        n_honest=5_000 if quick else 20_000,
        workers=workers,
        executor=executor,
    )


def _run_overhead(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> object:
    from repro.experiments.overhead import run_overhead

    return run_overhead(m_exponents=(14, 17) if quick else (14, 17, 20))


def _run_calibration(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
) -> object:
    from repro.experiments.calibration import run_calibration

    return run_calibration(
        fractions=(0.05, 0.1, 0.2) if quick else (0.02, 0.05, 0.1, 0.2, 0.3),
        workers=workers,
        executor=executor,
    )


def _run_scaling(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    scenarios: Optional[Tuple[str, ...]] = None,
) -> object:
    from repro.experiments.scaling import run_scaling

    sizes = ((2, 6), (3, 8)) if quick else ((2, 6), (3, 8), (4, 10), (5, 12))
    return run_scaling(
        city_sizes=sizes,
        scenarios=scenarios,
        workers=workers,
        executor=executor,
    )


def _run_adaptive(
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    scenario: str = "sioux-falls",
) -> object:
    from repro.experiments.adaptive_sizing import run_adaptive_sizing

    return run_adaptive_sizing(
        total_trips=6_000 if quick else 24_000,
        periods=3 if quick else 5,
        scenario=scenario,
        workers=workers,
        executor=executor,
    )


EXPERIMENTS: Dict[str, Runner] = {
    "adaptive": _run_adaptive,
    "table1": _run_table1,
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "accuracy": _run_accuracy,
    "ablations": _run_ablations,
    "multiperiod": _run_multiperiod,
    "tradeoff": _run_tradeoff,
    "matrix": _run_matrix,
    "attacks": _run_attacks,
    "scaling": _run_scaling,
    "calibration": _run_calibration,
    "overhead": _run_overhead,
}


def _add_deployment_args(parser: argparse.ArgumentParser) -> None:
    """Flags ``serve`` and ``loadgen`` must share to stay consistent."""
    parser.add_argument(
        "--scenario",
        default="sioux-falls",
        metavar="SPEC",
        help="workload scenario: a registered name (`repro scenarios "
        "list`), grid-NxM, ring-R[xS], or tntp:<net>[:<trips>] "
        "(default %(default)s); serve and loadgen must agree",
    )
    parser.add_argument(
        "--trips",
        type=int,
        default=60_000,
        help="scenario trips per day (default %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink the day to a fast smoke run (caps --trips at "
        "5000); serve and loadgen must agree",
    )
    parser.add_argument(
        "--seed", type=int, default=13, help="deployment seed (default %(default)s)"
    )
    parser.add_argument(
        "--s", type=int, default=2, help="logical bit array size (default %(default)s)"
    )
    parser.add_argument(
        "--load-factor",
        type=float,
        default=3.0,
        help="global load factor f̄ (default %(default)s)",
    )
    parser.add_argument(
        "--hash-seed", type=int, default=7, help="shared hash seed (default %(default)s)"
    )
    parser.add_argument(
        "--periods",
        type=int,
        default=1,
        metavar="P",
        help="consecutive measurement periods (days) to run "
        "(default %(default)s); serve and loadgen must agree",
    )
    parser.add_argument(
        "--drift",
        type=float,
        default=0.0,
        metavar="D",
        help="geometric demand drift: day p carries trips*(1+D)**p "
        "trips (default %(default)s)",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="enable the between-period adaptive array-sizing control "
        "loop (collector plans per-period sizes toward the "
        "privacy-optimal load factor; see docs/adaptive.md)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind/connect address (default %(default)s)"
    )
    parser.add_argument(
        "--gateway-port",
        type=int,
        default=8701,
        help="RSU gateway TCP port (default %(default)s)",
    )
    parser.add_argument(
        "--collector-port",
        type=int,
        default=8702,
        help="central collector TCP port (default %(default)s)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run the federated plane with N gateway shards (shard i "
        "binds --gateway-port + i, skipping --collector-port; 0 = "
        "single unsharded gateway, default %(default)s); serve and "
        "loadgen must agree",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=0,
        metavar="N",
        help="split each period into N sub-period streaming windows "
        "(0 = off, default %(default)s); serve and loadgen must "
        "agree, like every other deployment flag — see "
        "docs/streaming.md",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="enable library debug logging on stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the evaluation artifacts of 'Point-to-Point Traffic "
            "Volume Measurement through Variable-Length Bit Array Masking in "
            "Vehicular Cyber-Physical Systems' (ICDCS 2015), or run the "
            "live measurement plane."
        ),
    )
    subparsers = parser.add_subparsers(
        dest="experiment",
        metavar="command",
        required=True,
        help="artifact to regenerate, or serve/loadgen for the live plane",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quick",
        action="store_true",
        help="reduced repetitions/grids for a fast smoke run",
    )
    common.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also dump structured results as JSON",
    )
    common.add_argument(
        "--verbose",
        action="store_true",
        help="enable library debug logging on stderr",
    )
    common.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "parallel workers for the experiment's independent tasks "
            f"(default: ${WORKERS_ENV} or 1); results are bit-identical "
            "for every worker count"
        ),
    )
    common.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help=(
            f"task executor (default: ${EXECUTOR_ENV}, else serial at one "
            "worker and process beyond)"
        ),
    )
    for name in sorted(EXPERIMENTS) + ["all"]:
        sub = subparsers.add_parser(
            name,
            parents=[common],
            help=(
                "every registered artifact"
                if name == "all"
                else f"regenerate {name}"
            ),
        )
        if name in ("matrix", "adaptive"):
            sub.add_argument(
                "--scenario",
                default="sioux-falls",
                metavar="SPEC",
                help="workload scenario: a registered name (`repro "
                "scenarios list`), grid-NxM, ring-R[xS], or "
                "tntp:<net>[:<trips>] (default %(default)s)",
            )
        if name == "scaling":
            sub.add_argument(
                "--scenarios",
                nargs="+",
                default=None,
                metavar="SPEC",
                help="scenario specs to sweep instead of the default "
                "ring-radial ladder, e.g. --scenarios grid-8x8 "
                "grid-12x12 grid-16x16 (hundreds of RSUs)",
            )
        if name == "matrix":
            sub.add_argument(
                "--live",
                action="store_true",
                help="decode the OD matrix incrementally while the day "
                "streams in (repro.streaming), verifying the live "
                "answer bit-for-bit against the batch decode",
            )
            sub.add_argument(
                "--window",
                type=int,
                default=None,
                metavar="W",
                help="also print the time-sliced OD matrix of "
                "sub-period window W (implies --live)",
            )
            sub.add_argument(
                "--windows",
                type=int,
                default=4,
                metavar="N",
                help="sub-period windows per period for --live/"
                "--window (default %(default)s)",
            )
            sub.add_argument(
                "--adaptive",
                action="store_true",
                help="decode a multi-period day sequence with the "
                "adaptive array-sizing control loop, printing the "
                "size trajectory and the final period's OD matrix "
                "(see docs/adaptive.md)",
            )
            sub.add_argument(
                "--periods",
                type=int,
                default=5,
                metavar="P",
                help="measurement periods for --adaptive "
                "(default %(default)s)",
            )
            sub.add_argument(
                "--drift",
                type=float,
                default=-0.35,
                metavar="D",
                help="per-period demand drift for --adaptive "
                "(default %(default)s)",
            )
    serve = subparsers.add_parser(
        "serve",
        help="run the live RSU gateway + central collector",
        description=(
            "Start the asyncio RSU gateway and central collector on "
            "localhost TCP ports.  Run `repro loadgen` with the same "
            "deployment flags in another terminal to replay a day."
        ),
    )
    _add_deployment_args(serve)
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also expose gateway/collector metrics as Prometheus "
        "text on this port (GET /metrics)",
    )
    serve.add_argument(
        "--wal",
        type=Path,
        default=None,
        metavar="PATH",
        help="with --shards: journal every shard partial to this "
        "write-ahead log before merging, so a killed collector "
        "replays to bit-identical state",
    )
    serve.add_argument(
        "--retention",
        type=int,
        default=None,
        metavar="N",
        help="keep snapshot dedup keys for only the N most recent "
        "periods (default: keep everything)",
    )
    loadgen = subparsers.add_parser(
        "loadgen",
        help="replay a scenario day against a running `repro serve`",
        description=(
            "Stream one scenario day of vehicle responses at a live "
            "gateway, close the period, query the collector for the "
            "full point-to-point matrix, and verify every answer "
            "bit-for-bit against in-process decoding.  Pick the "
            "workload with --scenario (default sioux-falls); serve "
            "must be started with the same spec."
        ),
    )
    _add_deployment_args(loadgen)
    loadgen.add_argument(
        "--wire-batch",
        type=int,
        default=4096,
        help="responses per wire frame (default %(default)s)",
    )
    loadgen.add_argument(
        "--max-queries",
        type=int,
        default=None,
        help="cap on point-to-point queries (default: the full matrix)",
    )
    loadgen.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the run's metrics (loadgen, retry, wire, core) as "
        "JSON lines; inspect with `repro metrics summarize PATH`",
    )
    loadgen.add_argument(
        "--trajectory-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the announced per-period size plans as canonical "
        "JSON (diffable against a golden trajectory; see "
        "docs/adaptive.md)",
    )
    loadgen.add_argument(
        "--rebalance",
        type=int,
        default=0,
        metavar="N",
        help="needs --shards: hand the N lowest RSU ids to their "
        "neighbour shard mid-period (in every --window), splitting "
        "their responses across two shards; the collector's OR-merge "
        "must still be bit-identical (0..fleet size, default "
        "%(default)s)",
    )
    scenarios = subparsers.add_parser(
        "scenarios",
        help="list or describe the workload scenario zoo",
        description=(
            "Scenario zoo tooling.  `list` tabulates every registered "
            "scenario (node/arc/RSU counts, demand profile, vehicle "
            "classes); `describe SPEC` prints one scenario in detail. "
            "SPEC accepts parametric specs too: grid-NxM, ring-R[xS], "
            "tntp:<net.tntp>[:<trips.tntp>]."
        ),
    )
    scenarios.add_argument(
        "action",
        choices=["list", "describe"],
        help="what to do",
    )
    scenarios.add_argument(
        "spec",
        nargs="?",
        default=None,
        metavar="SPEC",
        help="scenario spec for `describe`",
    )
    scenarios.add_argument(
        "--verbose",
        action="store_true",
        help="enable library debug logging on stderr",
    )
    metrics = subparsers.add_parser(
        "metrics",
        help="inspect metrics dumps written by `loadgen --metrics-out`",
        description=(
            "Offline metrics tooling.  `summarize` renders one or more "
            "JSON-lines metrics dumps as a human-readable table; with "
            "several inputs, label-compatible series are aggregated "
            "(counters/gauges sum, histograms merge per bucket)."
        ),
    )
    metrics.add_argument(
        "action",
        choices=["summarize"],
        help="what to do with the dump",
    )
    metrics.add_argument(
        "paths",
        type=Path,
        nargs="+",
        metavar="path",
        help="JSON-lines file(s) written by --metrics-out; several "
        "files (e.g. one per shard) are aggregated",
    )
    metrics.add_argument(
        "--verbose",
        action="store_true",
        help="enable library debug logging on stderr",
    )
    federation = subparsers.add_parser(
        "federation",
        help="inspect a running federated deployment",
        description=(
            "Federation tooling.  `status` scrapes the metrics "
            "endpoint of a `repro serve --shards N --metrics-port P` "
            "process and tabulates the federation/collector/gateway "
            "series (WAL depth, merges per shard, handoffs, ...)."
        ),
    )
    federation.add_argument(
        "action",
        choices=["status"],
        help="what to inspect",
    )
    federation.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve process address (default %(default)s)",
    )
    federation.add_argument(
        "--metrics-port",
        type=int,
        required=True,
        metavar="PORT",
        help="the serve process's --metrics-port",
    )
    federation.add_argument(
        "--verbose",
        action="store_true",
        help="enable library debug logging on stderr",
    )
    chaos = subparsers.add_parser(
        "chaos",
        help="fault-injection TCP proxy in front of serve's ports",
        description=(
            "Relay TCP traffic to an upstream service while injecting "
            "deterministic, seeded faults: latency, bandwidth caps, "
            "partial writes, byte corruption, dropped ranges, resets "
            "and blackholes.  Point `repro loadgen --gateway-port` at "
            "the listen port to chaos-test the live plane; see the "
            "README's chaos-testing section."
        ),
    )
    chaos.add_argument(
        "--listen-host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    chaos.add_argument(
        "--listen-port",
        type=int,
        default=9701,
        help="port clients connect to (default %(default)s)",
    )
    chaos.add_argument(
        "--upstream-host",
        default="127.0.0.1",
        help="service to relay to (default %(default)s)",
    )
    chaos.add_argument(
        "--upstream-port",
        type=int,
        default=8701,
        help="upstream TCP port (default: the gateway, %(default)s)",
    )
    chaos.add_argument(
        "--profile",
        default="lossy",
        help="named fault profile: clean, lossy, flaky, slow "
        "(default %(default)s); individual flags below override it.  "
        "The special profile `shard-kill` instead runs the federation "
        "crash scenario in process: kill a shard mid-period, restart "
        "and resend, kill the collector, replay its write-ahead log, "
        "and exit 0 only if both the live and the recovered matrix "
        "equal the unsharded golden run bit for bit.  The special "
        "profile `rsu-outage` realizes the scenario's scheduled RSU "
        "maintenance windows against a live gateway: frames for the "
        "downed RSUs are dropped mid-period, and the drill exits 0 "
        "only if the damage is exactly the scheduled slices "
        "(unaffected pairs bit-identical, affected pairs' accuracy "
        "delta reported)",
    )
    chaos.add_argument(
        "--scenario",
        default=None,
        metavar="SPEC",
        help="(shard-kill/rsu-outage) workload scenario spec "
        "(default: sioux-falls; trajectory-replay for rsu-outage, "
        "which needs a scenario that schedules outages)",
    )
    chaos.add_argument(
        "--trips",
        type=int,
        default=1_500,
        help="(shard-kill/rsu-outage) scenario trips per day "
        "(default %(default)s)",
    )
    chaos.add_argument(
        "--windows",
        type=int,
        default=6,
        metavar="W",
        help="(rsu-outage) sequential delivery phases the day is "
        "split into; the middle third is the outage window "
        "(default %(default)s)",
    )
    chaos.add_argument(
        "--shards",
        type=int,
        default=3,
        metavar="N",
        help="(shard-kill) gateway shards (default %(default)s)",
    )
    chaos.add_argument(
        "--adaptive",
        action="store_true",
        help="(shard-kill) run the adaptive-sizing variant: the "
        "collector plans and journals next period's sizes before the "
        "crash, and the WAL-recovered collector must re-announce the "
        "identical per-period size plan (docs/adaptive.md)",
    )
    chaos.add_argument(
        "--kill-shard",
        type=int,
        default=None,
        metavar="I",
        help="(shard-kill) which shard to kill "
        "(default: the highest id)",
    )
    chaos.add_argument(
        "--wal",
        type=Path,
        default=None,
        metavar="PATH",
        help="(shard-kill) write-ahead log location "
        "(default: a temporary file)",
    )
    chaos.add_argument(
        "--matrix-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="(shard-kill) write the WAL-recovered period matrix as "
        "canonical JSON",
    )
    chaos.add_argument(
        "--golden-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="(shard-kill) write the unsharded golden matrix as "
        "canonical JSON (diffable against --matrix-out)",
    )
    chaos.add_argument(
        "--seed", type=int, default=None, help="fault decision seed"
    )
    chaos.add_argument(
        "--latency", type=float, default=None, help="added delay per read (s)"
    )
    chaos.add_argument(
        "--latency-jitter",
        type=float,
        default=None,
        help="uniform extra delay in [0, J] per read (s)",
    )
    chaos.add_argument(
        "--bandwidth", type=float, default=None, help="bytes/sec cap"
    )
    chaos.add_argument(
        "--drop-rate",
        type=float,
        default=None,
        help="per-512B-window probability of dropping its bytes",
    )
    chaos.add_argument(
        "--corrupt-rate",
        type=float,
        default=None,
        help="per-window probability of flipping one bit",
    )
    chaos.add_argument(
        "--reset-rate",
        type=float,
        default=None,
        help="per-window probability of a hard connection reset",
    )
    chaos.add_argument(
        "--blackhole-rate",
        type=float,
        default=None,
        help="per-window probability the direction goes silent",
    )
    chaos.add_argument(
        "--max-chunk",
        type=int,
        default=None,
        help="fragment forwarded writes to at most this many bytes",
    )
    chaos.add_argument(
        "--verbose",
        action="store_true",
        help="enable library debug logging on stderr",
    )
    return parser


def _deployment_spec(args: argparse.Namespace):
    from repro.service.runtime import DeploymentSpec

    trips = args.trips
    if getattr(args, "quick", False):
        trips = min(trips, 5_000)
    return DeploymentSpec(
        total_trips=trips,
        seed=args.seed,
        s=args.s,
        load_factor=args.load_factor,
        hash_seed=args.hash_seed,
        periods=getattr(args, "periods", 1),
        drift=getattr(args, "drift", 0.0),
        adaptive=getattr(args, "adaptive", False),
        scenario=getattr(args, "scenario", "sioux-falls"),
    )


def _run_serve(args: argparse.Namespace) -> int:
    if args.wal is not None and args.shards == 0:
        print(
            "serve --wal needs --shards: the write-ahead log journals "
            "shard partials, and an unsharded gateway uploads "
            "whole-report snapshots, which have no WAL record type",
            file=sys.stderr,
        )
        return 2
    from repro.service.runtime import run_serve

    return run_serve(
        _deployment_spec(args),
        shards=args.shards,
        host=args.host,
        gateway_port=args.gateway_port,
        collector_port=args.collector_port,
        metrics_port=args.metrics_port,
        wal_path=args.wal,
        retention_periods=args.retention,
        windows=args.window,
    )


def _run_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import ConfigurationError
    from repro.obs import MetricsRegistry, get_registry, metric_rows, write_jsonl
    from repro.service.loadgen import run_loadgen

    registry = MetricsRegistry()
    try:
        result = asyncio.run(
            run_loadgen(
                _deployment_spec(args),
                host=args.host,
                gateway_port=args.gateway_port,
                collector_port=args.collector_port,
                shards=args.shards,
                rebalance=args.rebalance,
                wire_batch=args.wire_batch,
                max_queries=args.max_queries,
                windows=args.window,
                registry=registry,
            )
        )
    except ConfigurationError as exc:
        print(f"loadgen: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    if getattr(args, "trajectory_out", None) is not None:
        import json

        trajectory = result.size_trajectory
        payload = {
            "periods": result.periods,
            "adaptive": bool(getattr(args, "adaptive", False)),
            "trajectory": [
                {str(rsu_id): plan[rsu_id] for rsu_id in sorted(plan)}
                for plan in trajectory
            ],
        }
        with open(args.trajectory_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"size trajectory written to {args.trajectory_out}")
    if args.metrics_out is not None:
        # One dump covers the run's own registry plus the process
        # default, where the wire codec and core hot paths record.
        rows = metric_rows(registry) + metric_rows(get_registry())
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            written = write_jsonl(rows, fh)
        print(f"{written} metric rows written to {args.metrics_out}")
    return 0 if result.bit_identical else 1


def _run_matrix_live(args: argparse.Namespace) -> int:
    """``repro matrix --live [--window W]``: the streaming decode."""
    from repro.experiments.streaming_matrix import run_streaming_matrix

    result = run_streaming_matrix(
        total_trips=6_000 if args.quick else 60_000,
        windows=args.windows,
        window=args.window,
        scenario=args.scenario,
    )
    print(result.render())
    if args.json is not None:
        from repro.utils.serialization import to_jsonable

        dump_json({"matrix_live": to_jsonable(result)}, args.json)
        print(f"structured results written to {args.json}")
    return 0 if result.bit_identical else 1


def _run_matrix_adaptive(args: argparse.Namespace) -> int:
    """``repro matrix --adaptive``: the multi-period adaptive decode."""
    from repro.experiments.adaptive_sizing import run_adaptive_matrix

    result = run_adaptive_matrix(
        total_trips=6_000 if args.quick else 60_000,
        periods=args.periods,
        drift=args.drift,
        scenario=args.scenario,
    )
    print(result.render())
    if args.json is not None:
        from repro.utils.serialization import to_jsonable

        dump_json({"matrix_adaptive": to_jsonable(result)}, args.json)
        print(f"structured results written to {args.json}")
    return 0 if result.bit_identical else 1


def _run_scenarios(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.scenarios import render_scenario_detail, render_scenario_list

    if args.action == "list":
        print(render_scenario_list())
        return 0
    if args.spec is None:
        print("scenarios describe needs a SPEC argument", file=sys.stderr)
        return 2
    try:
        print(render_scenario_detail(args.spec))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    from repro.obs import aggregate_rows, read_jsonl, render_summary

    rows = []
    for path in args.paths:
        with open(path, "r", encoding="utf-8") as fh:
            rows.extend(read_jsonl(fh))
    names = ", ".join(path.name for path in args.paths)
    if len(args.paths) > 1:
        rows = aggregate_rows(rows)
        title = f"metrics (aggregated over {len(args.paths)} dumps): {names}"
    else:
        title = f"metrics: {names}"
    print(render_summary(rows, title=title))
    return 0


def _run_federation(args: argparse.Namespace) -> int:
    from repro.federation.status import run_federation_status

    return run_federation_status(
        host=args.host, metrics_port=args.metrics_port
    )


def _run_chaos(args: argparse.Namespace) -> int:
    if args.profile == "rsu-outage":
        from repro.scenarios import get_scenario
        from repro.service.outage import (
            first_outage_period,
            run_rsu_outage,
        )
        from repro.service.runtime import DeploymentSpec

        scenario = args.scenario or "trajectory-replay"
        period = first_outage_period(get_scenario(scenario))
        if period is None:
            print(
                f"scenario {scenario!r} schedules no RSU outages; "
                "try --scenario trajectory-replay",
                file=sys.stderr,
            )
            return 2
        return run_rsu_outage(
            DeploymentSpec(
                total_trips=args.trips,
                seed=args.seed if args.seed is not None else 13,
                periods=period + 1,
                scenario=scenario,
            ),
            windows=args.windows,
            matrix_out=args.matrix_out,
            golden_out=args.golden_out,
        )
    if args.profile == "shard-kill":
        from repro.federation.chaos import run_shard_kill
        from repro.service.runtime import DeploymentSpec

        return run_shard_kill(
            DeploymentSpec(
                total_trips=args.trips,
                seed=args.seed if args.seed is not None else 13,
                periods=2 if args.adaptive else 1,
                adaptive=args.adaptive,
                scenario=args.scenario or "sioux-falls",
            ),
            shards=args.shards,
            wal_path=args.wal,
            kill_shard=args.kill_shard,
            matrix_out=args.matrix_out,
            golden_out=args.golden_out,
        )
    from repro.service.faults import profile_from_args, run_chaos

    profile = profile_from_args(
        args.profile,
        seed=args.seed,
        latency=args.latency,
        latency_jitter=args.latency_jitter,
        bandwidth=args.bandwidth,
        drop_rate=args.drop_rate,
        corrupt_rate=args.corrupt_rate,
        reset_rate=args.reset_rate,
        blackhole_rate=args.blackhole_rate,
        max_chunk=args.max_chunk,
    )
    return run_chaos(
        listen_host=args.listen_host,
        listen_port=args.listen_port,
        upstream_host=args.upstream_host,
        upstream_port=args.upstream_port,
        profile=profile,
    )


def _timed_experiment(
    name: str,
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    **extra: object,
) -> Tuple[object, float]:
    """Run one registered experiment and time it (a runtime task; when
    ``repro all`` fans artifacts out to workers, the nested-plan guard
    makes each experiment's internal task batch run serial).  *extra*
    carries per-experiment options (e.g. ``scenario=...``) that only
    the single-experiment path supplies."""
    start = time.time()
    result = EXPERIMENTS[name](
        quick, workers=workers, executor=executor, **extra
    )
    return result, time.time() - start


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.verbose:
        from repro.utils.logconfig import configure_logging

        configure_logging(verbose=True)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "loadgen":
        return _run_loadgen(args)
    if args.experiment == "scenarios":
        return _run_scenarios(args)
    if args.experiment == "metrics":
        return _run_metrics(args)
    if args.experiment == "federation":
        return _run_federation(args)
    if args.experiment == "chaos":
        return _run_chaos(args)
    if args.experiment == "matrix" and args.adaptive:
        return _run_matrix_adaptive(args)
    if args.experiment == "matrix" and (
        args.live or args.window is not None
    ):
        return _run_matrix_live(args)
    if args.experiment == "all":
        # Independent artifacts run concurrently; each one's internal
        # batch then degrades to serial on the workers (nested guard),
        # so the numbers match a per-experiment parallel run exactly.
        names = sorted(EXPERIMENTS)
        outcomes = run_tasks(
            [
                Task(fn=_timed_experiment, args=(name, args.quick), label=name)
                for name in names
            ],
            workers=args.workers,
            executor=args.executor,
        )
    else:
        names = [args.experiment]
        extra: Dict[str, object] = {}
        if getattr(args, "scenario", None) is not None:
            extra["scenario"] = args.scenario
        if getattr(args, "scenarios", None) is not None:
            extra["scenarios"] = tuple(args.scenarios)
        outcomes = [
            _timed_experiment(
                names[0], args.quick,
                workers=args.workers, executor=args.executor,
                **extra,
            )
        ]
    collected = {}
    for name, (result, elapsed) in zip(names, outcomes):
        print(result.render())
        print(f"[{name} finished in {elapsed:.1f}s]")
        print()
        collected[name] = result
    if args.json is not None:
        from repro.utils.serialization import to_jsonable

        payload = {}
        for name, result in collected.items():
            try:
                payload[name] = to_jsonable(result)
            except TypeError:
                # Diagram-style results serialize as their rendering.
                payload[name] = {"rendered": result.render()}
        dump_json(payload, args.json)
        print(f"structured results written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
