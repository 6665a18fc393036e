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
port plan; see ``docs/protocol.md``.  Every command exits 2 with
``<command>: <reason>`` on stderr for a configuration it refuses, such
as ``loadgen --rebalance`` without ``--shards``, ``serve --shards -1``
or a ``chaos --kill-shard`` outside the fleet.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs import trace
from repro.runtime import EXECUTOR_ENV, EXECUTORS, WORKERS_ENV, Task, run_tasks
from repro.traffic.scenarios import FIG45_SWEEP

__all__ = ["main", "build_parser"]

#: The run-plan options of an experiment that fans out tasks.
_PLAN = ("workers", "executor")


@dataclass(frozen=True)
class Experiment:
    """One row of :data:`EXPERIMENTS`: the function behind an artifact.

    *target* is ``module:function``.  Calling the row runs it with the
    *quick* or *full* keyword arguments, the run plan if the function
    ``accepts`` ``workers``/``executor``, and any *options* (the
    ``scenario``/``scenarios`` it accepts)::

        EXPERIMENTS["table1"](True)  # run_table1(repetitions=2, ...)
    """

    target: str
    quick: Mapping[str, object] = field(default_factory=dict)
    full: Mapping[str, object] = field(default_factory=dict)
    accepts: Tuple[str, ...] = _PLAN

    def __call__(
        self,
        quick: bool,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
        **options: object,
    ) -> object:
        module, function = self.target.split(":")
        run = getattr(importlib.import_module(module), function)
        plan = {"workers": workers, "executor": executor}
        plan = {name: value for name, value in plan.items() if name in self.accepts}
        return run(**(self.quick if quick else self.full), **plan, **options)


@dataclass(frozen=True)
class _Rendered:
    """A diagram artifact; its JSON is ``{"rendered": <text>}``."""

    rendered: str

    def render(self) -> str:
        return self.rendered


def _figure3() -> _Rendered:
    """Paper Fig. 3: the ASCII map of the Sioux Falls network."""
    from repro.roadnet.layout import ascii_map
    from repro.roadnet.sioux_falls import sioux_falls_network

    return _Rendered(ascii_map(sioux_falls_network()))


#: Quick ``fig4``/``fig5`` runs sweep every tenth point of the paper's
#: 491-point grid (full runs sweep all of it).
_QUICK_SWEEP = list(FIG45_SWEEP.n_c_values())[::10]

#: Every artifact ``repro <name>`` regenerates; ``repro all`` runs them
#: all.
EXPERIMENTS: Dict[str, Experiment] = {
    "adaptive": Experiment(
        "repro.experiments.adaptive_sizing:run_adaptive_sizing",
        quick=dict(total_trips=6_000, periods=3),
        full=dict(total_trips=24_000, periods=5),
        accepts=_PLAN + ("scenario",),
    ),
    "table1": Experiment(
        "repro.experiments.table1:run_table1",
        quick=dict(repetitions=2),
        full=dict(repetitions=10),
    ),
    "fig1": Experiment("repro.experiments.figure1:run_figure1", accepts=()),
    "fig2": Experiment(
        "repro.experiments.figure2:run_figure2",
        quick=dict(grid_points=100, empirical_checks=False),
        full=dict(grid_points=400, empirical_checks=True),
        accepts=(),
    ),
    "fig3": Experiment("repro.cli:_figure3", accepts=()),
    "fig4": Experiment(
        "repro.experiments.figure4:run_figure4",
        quick=dict(n_c_values=_QUICK_SWEEP),
    ),
    "fig5": Experiment(
        "repro.experiments.figure5:run_figure5",
        quick=dict(n_c_values=_QUICK_SWEEP),
    ),
    "accuracy": Experiment(
        "repro.experiments.accuracy_analysis:run_accuracy_analysis",
        quick=dict(repetitions=5),
        full=dict(repetitions=30),
    ),
    "ablations": Experiment(
        "repro.experiments.ablations:run_ablations",
        quick=dict(repetitions=3),
        full=dict(repetitions=10),
    ),
    "multiperiod": Experiment(
        "repro.experiments.multiperiod:run_multiperiod",
        quick=dict(trials=3),
        full=dict(trials=8),
    ),
    "tradeoff": Experiment("repro.experiments.tradeoff:run_tradeoff", accepts=()),
    "matrix": Experiment(
        "repro.experiments.sioux_falls_matrix:run_od_matrix",
        quick=dict(total_trips=60_000),
        full=dict(total_trips=360_600),
        accepts=_PLAN + ("scenario",),
    ),
    "attacks": Experiment(
        "repro.experiments.attack_resilience:run_attack_resilience",
        quick=dict(n_honest=5_000),
        full=dict(n_honest=20_000),
    ),
    "scaling": Experiment(
        "repro.experiments.scaling:run_scaling",
        quick=dict(city_sizes=((2, 6), (3, 8))),
        full=dict(city_sizes=((2, 6), (3, 8), (4, 10), (5, 12))),
        accepts=_PLAN + ("scenarios",),
    ),
    "calibration": Experiment(
        "repro.experiments.calibration:run_calibration",
        quick=dict(fractions=(0.05, 0.1, 0.2)),
        full=dict(fractions=(0.02, 0.05, 0.1, 0.2, 0.3)),
    ),
    "overhead": Experiment(
        "repro.experiments.overhead:run_overhead",
        quick=dict(m_exponents=(14, 17)),
        full=dict(m_exponents=(14, 17, 20)),
        accepts=(),
    ),
}

#: ``--verbose``, which every command takes.
_VERBOSE = dict(action="store_true", help="enable library debug logging on stderr")

_SCENARIO_HELP = (
    "workload scenario: a registered name (`repro scenarios list`), "
    "grid-NxM, ring-R[xS], or tntp:<net>[:<trips>] (default %(default)s)"
)

#: Arguments of every experiment command and ``repro all``.
_COMMON_ARGS = {
    "--quick": dict(
        action="store_true", help="reduced repetitions/grids for a fast smoke run"
    ),
    "--json": dict(
        type=Path,
        default=None,
        metavar="PATH",
        help="also dump structured results as JSON",
    ),
    "--verbose": _VERBOSE,
    "--workers": dict(
        type=int,
        default=None,
        metavar="N",
        help="parallel workers for the experiment's independent tasks "
        f"(default: ${WORKERS_ENV} or 1); results are bit-identical "
        "for every worker count",
    ),
    "--executor": dict(
        choices=EXECUTORS,
        default=None,
        help=f"task executor (default: ${EXECUTOR_ENV}, else serial at one "
        "worker and process beyond)",
    ),
}

#: The experiment options ``Experiment.accepts`` can name, as flags.
_OPTION_ARGS = {
    "scenario": dict(default="sioux-falls", metavar="SPEC", help=_SCENARIO_HELP),
    "scenarios": dict(
        nargs="+",
        default=None,
        metavar="SPEC",
        help="scenario specs to sweep instead of the default "
        "ring-radial ladder, e.g. --scenarios grid-8x8 "
        "grid-12x12 grid-16x16 (hundreds of RSUs)",
    ),
}

#: ``repro matrix``'s streaming and adaptive decode modes.
_MATRIX_MODE_ARGS = {
    "--live": dict(
        action="store_true",
        help="decode the OD matrix incrementally while the day "
        "streams in (repro.streaming), verifying the live "
        "answer bit-for-bit against the batch decode",
    ),
    "--window": dict(
        type=int,
        default=None,
        metavar="W",
        help="also print the time-sliced OD matrix of "
        "sub-period window W (implies --live)",
    ),
    "--windows": dict(
        type=int,
        default=4,
        metavar="N",
        help="sub-period windows per period for --live/--window "
        "(default %(default)s)",
    ),
    "--adaptive": dict(
        action="store_true",
        help="decode a multi-period day sequence with the "
        "adaptive array-sizing control loop, printing the "
        "size trajectory and the final period's OD matrix "
        "(see docs/adaptive.md)",
    ),
    "--periods": dict(
        type=int,
        default=5,
        metavar="P",
        help="measurement periods for --adaptive (default %(default)s)",
    ),
    "--drift": dict(
        type=float,
        default=-0.35,
        metavar="D",
        help="per-period demand drift for --adaptive (default %(default)s)",
    ),
}

#: Flags ``serve`` and ``loadgen`` must share to stay consistent.
_DEPLOYMENT_ARGS = {
    "--scenario": dict(
        default="sioux-falls",
        metavar="SPEC",
        help=_SCENARIO_HELP + "; serve and loadgen must agree",
    ),
    "--trips": dict(
        type=int, default=60_000, help="scenario trips per day (default %(default)s)"
    ),
    "--quick": dict(
        action="store_true",
        help="shrink the day to a fast smoke run (caps --trips at "
        "5000); serve and loadgen must agree",
    ),
    "--seed": dict(type=int, default=13, help="deployment seed (default %(default)s)"),
    "--s": dict(
        type=int, default=2, help="logical bit array size (default %(default)s)"
    ),
    "--load-factor": dict(
        type=float, default=3.0, help="global load factor f̄ (default %(default)s)"
    ),
    "--hash-seed": dict(
        type=int, default=7, help="shared hash seed (default %(default)s)"
    ),
    "--periods": dict(
        type=int,
        default=1,
        metavar="P",
        help="consecutive measurement periods (days) to run "
        "(default %(default)s); serve and loadgen must agree",
    ),
    "--drift": dict(
        type=float,
        default=0.0,
        metavar="D",
        help="geometric demand drift: day p carries trips*(1+D)**p "
        "trips (default %(default)s)",
    ),
    "--adaptive": dict(
        action="store_true",
        help="enable the between-period adaptive array-sizing control "
        "loop (collector plans per-period sizes toward the "
        "privacy-optimal load factor; see docs/adaptive.md)",
    ),
    "--host": dict(
        default="127.0.0.1", help="bind/connect address (default %(default)s)"
    ),
    "--gateway-port": dict(
        type=int, default=8701, help="RSU gateway TCP port (default %(default)s)"
    ),
    "--collector-port": dict(
        type=int,
        default=8702,
        help="central collector TCP port (default %(default)s)",
    ),
    "--shards": dict(
        type=int,
        default=0,
        metavar="N",
        help="run the federated plane with N gateway shards (shard i "
        "binds --gateway-port + i, skipping --collector-port; 0 = "
        "single unsharded gateway, default %(default)s); serve and "
        "loadgen must agree",
    ),
    "--window": dict(
        type=int,
        default=0,
        metavar="N",
        help="split each period into N sub-period streaming windows "
        "(0 = off, default %(default)s); serve and loadgen must "
        "agree, like every other deployment flag — see "
        "docs/streaming.md",
    ),
    "--verbose": _VERBOSE,
}

#: ``repro chaos`` overrides of the named fault profile: the
#: ``profile_from_args`` keyword -> (type, help) of its ``--flag``.
_FAULT_FLAGS = {
    "seed": (
        int,
        "fault decision seed (proxy profiles), or the deployment seed of "
        "the shard-kill/rsu-outage drill (default 13)",
    ),
    "latency": (float, "added delay per read (s)"),
    "latency_jitter": (float, "uniform extra delay in [0, J] per read (s)"),
    "bandwidth": (float, "bytes/sec cap"),
    "drop_rate": (float, "per-512B-window probability of dropping its bytes"),
    "corrupt_rate": (float, "per-window probability of flipping one bit"),
    "reset_rate": (float, "per-window probability of a hard connection reset"),
    "blackhole_rate": (float, "per-window probability the direction goes silent"),
    "max_chunk": (int, "fragment forwarded writes to at most this many bytes"),
}


def _add_args(
    parser: argparse.ArgumentParser, table: Mapping[str, Mapping[str, object]]
) -> None:
    for name, spec in table.items():
        parser.add_argument(name, **spec)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing), built from
    :data:`EXPERIMENTS` and :data:`_COMMANDS`."""
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
    _add_args(common, _COMMON_ARGS)
    for name in sorted(EXPERIMENTS):
        sub = subparsers.add_parser(
            name, parents=[common], help=f"regenerate {name}"
        )
        for option in EXPERIMENTS[name].accepts:
            if option in _OPTION_ARGS:
                sub.add_argument(f"--{option}", **_OPTION_ARGS[option])
        if name == "matrix":
            _add_args(sub, _MATRIX_MODE_ARGS)
    subparsers.add_parser(
        "all", parents=[common], help="every registered artifact"
    )
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(
            name, help=command.help, description=command.description
        )
        _add_args(sub, command.args)
    return parser


def _deployment_spec(args: argparse.Namespace):
    from repro.service.runtime import DeploymentSpec

    return DeploymentSpec(
        total_trips=min(args.trips, 5_000) if args.quick else args.trips,
        seed=args.seed,
        s=args.s,
        load_factor=args.load_factor,
        hash_seed=args.hash_seed,
        periods=args.periods,
        drift=args.drift,
        adaptive=args.adaptive,
        scenario=args.scenario,
    )


def _run_serve(args: argparse.Namespace) -> int:
    if args.wal is not None and args.shards == 0:
        raise ConfigurationError(
            "--wal needs --shards: the write-ahead log journals "
            "shard partials, and an unsharded gateway uploads "
            "whole-report snapshots, which have no WAL record type"
        )
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

    from repro.obs import MetricsRegistry, get_registry, metric_rows, write_jsonl
    from repro.service.loadgen import run_loadgen

    registry = MetricsRegistry()
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
    print(result.render())
    if args.trajectory_out is not None:
        import json

        payload = {
            "periods": result.periods,
            "adaptive": args.adaptive,
            "trajectory": [
                {str(rsu_id): plan[rsu_id] for rsu_id in sorted(plan)}
                for plan in result.size_trajectory
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


def _run_matrix_mode(args: argparse.Namespace) -> int:
    """``repro matrix --adaptive`` (the multi-period adaptive decode)
    or ``--live``/``--window W`` (the streaming decode); exits 1 unless
    the answer is bit-identical to the batch decode."""
    trips = 6_000 if args.quick else 60_000
    if args.adaptive:
        from repro.experiments.adaptive_sizing import run_adaptive_matrix

        key, result = "matrix_adaptive", run_adaptive_matrix(
            total_trips=trips,
            periods=args.periods,
            drift=args.drift,
            scenario=args.scenario,
        )
    else:
        from repro.experiments.streaming_matrix import run_streaming_matrix

        key, result = "matrix_live", run_streaming_matrix(
            total_trips=trips,
            windows=args.windows,
            window=args.window,
            scenario=args.scenario,
        )
    print(result.render())
    if args.json is not None:
        from repro.utils.serialization import dump_json

        dump_json({key: result}, args.json)
        print(f"structured results written to {args.json}")
    return 0 if result.bit_identical else 1


def _run_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import render_scenario_detail, render_scenario_list

    if args.action == "list":
        print(render_scenario_list())
    elif args.spec is None:
        raise ConfigurationError("describe needs a SPEC argument")
    else:
        print(render_scenario_detail(args.spec))
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


def _drill_spec(args: argparse.Namespace, scenario: str, **fields: object):
    """The ``DeploymentSpec`` of an in-process chaos drill."""
    from repro.service.runtime import DeploymentSpec

    seed = args.seed if args.seed is not None else 13
    return DeploymentSpec(
        total_trips=args.trips, seed=seed, scenario=scenario, **fields
    )


def _shard_kill_drill(args: argparse.Namespace):
    from repro.service.drills import ShardKill

    spec = _drill_spec(
        args,
        args.scenario or "sioux-falls",
        periods=2 if args.adaptive else 1,
        adaptive=args.adaptive,
    )
    return spec, ShardKill(args.shards, args.kill_shard)


def _rsu_outage_drill(args: argparse.Namespace):
    from repro.scenarios import get_scenario
    from repro.service.drills import RsuOutage, first_outage_period

    scenario = args.scenario or "trajectory-replay"
    # The spec must model the outage day; a scenario without one is
    # refused by the drill.
    day = first_outage_period(get_scenario(scenario)) or 0
    return _drill_spec(args, scenario, periods=day + 1), RsuOutage(args.windows)


#: The in-process chaos drills, by ``--profile``: the function that
#: builds ``(DeploymentSpec, perturbation)`` and the flags it reads.
#: Any other profile names the fault mix of the TCP proxy.
_DRILLS = {
    "shard-kill": (
        _shard_kill_drill,
        "scenario trips seed shards adaptive kill_shard wal matrix_out golden_out",
    ),
    "rsu-outage": (
        _rsu_outage_drill,
        "scenario trips seed windows matrix_out golden_out",
    ),
}
#: Every drill and fault-mix flag: a profile refuses each one it does
#: not read unless it is left at its parser default.  The fault-mix
#: profiles of the proxy read only the fault-mix flags.
_DRILL_FLAGS = set(_FAULT_FLAGS).union(
    *(reads.split() for _, reads in _DRILLS.values())
)


def _run_chaos(args: argparse.Namespace) -> int:
    build, reads = _DRILLS.get(args.profile, (None, " ".join(_FAULT_FLAGS)))
    defaults = build_parser().parse_args(["chaos"])
    unread = [
        "--" + name.replace("_", "-")
        for name in sorted(_DRILL_FLAGS - set(reads.split()))
        if getattr(args, name) != getattr(defaults, name)
    ]
    if unread:
        raise ConfigurationError(
            f"--profile {args.profile} does not read {', '.join(unread)}"
        )
    if build is not None:
        from repro.service.drills import run_chaos_drill

        spec, perturbation = build(args)
        return run_chaos_drill(
            spec,
            perturbation,
            wal_path=args.wal,
            matrix_out=args.matrix_out,
            golden_out=args.golden_out,
        )
    from repro.service.faults import profile_from_args, run_chaos

    profile = profile_from_args(
        args.profile, **{name: getattr(args, name) for name in _FAULT_FLAGS}
    )
    return run_chaos(
        listen_host=args.listen_host,
        listen_port=args.listen_port,
        upstream_host=args.upstream_host,
        upstream_port=args.upstream_port,
        profile=profile,
    )


def _timed_artifact(
    name: str,
    quick: bool,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    **options: object,
) -> Tuple[object, float]:
    """Run one registered experiment in a ``cli.artifact`` span and
    return it with the span's seconds.  This is a runtime task: when
    ``repro all`` fans artifacts out to workers, the nested-plan guard
    makes each experiment's internal task batch run serial."""
    with trace.span("cli.artifact", artifact=name) as span:
        result = EXPERIMENTS[name](
            quick, workers=workers, executor=executor, **options
        )
    return result, span.duration


def _run_experiments(args: argparse.Namespace) -> int:
    """``repro <experiment>`` and ``repro all``: print each artifact
    and its time, and dump them all with ``--json``."""
    if args.experiment == "matrix" and (
        args.adaptive or args.live or args.window is not None
    ):
        return _run_matrix_mode(args)
    if args.experiment == "all":
        # Independent artifacts run concurrently; each one's internal
        # batch then degrades to serial on the workers (nested guard),
        # so the numbers match a per-experiment parallel run exactly.
        names = sorted(EXPERIMENTS)
        tasks = [
            Task(fn=_timed_artifact, args=(name, args.quick), label=name)
            for name in names
        ]
        outcomes = run_tasks(tasks, workers=args.workers, executor=args.executor)
    else:
        names = [args.experiment]
        options = {
            name: getattr(args, name)
            for name in EXPERIMENTS[args.experiment].accepts
            if name in _OPTION_ARGS and getattr(args, name) is not None
        }
        outcomes = [
            _timed_artifact(
                names[0], args.quick,
                workers=args.workers, executor=args.executor,
                **options,
            )
        ]
    for name, (result, elapsed) in zip(names, outcomes):
        print(result.render())
        print(f"[{name} finished in {elapsed:.1f}s]")
        print()
    if args.json is not None:
        from repro.utils.serialization import dump_json, to_jsonable

        payload = {}
        for name, (result, _) in zip(names, outcomes):
            try:
                payload[name] = to_jsonable(result)
            except TypeError:
                # Diagram-style results serialize as their rendering.
                payload[name] = {"rendered": result.render()}
        dump_json(payload, args.json)
        print(f"structured results written to {args.json}")
    return 0


@dataclass(frozen=True)
class Command:
    """One row of :data:`_COMMANDS`: a subcommand that is not an
    experiment.  *args* maps each flag or positional name to its
    ``add_argument`` keywords, in help order."""

    run: Callable[[argparse.Namespace], int]
    help: str
    description: str
    args: Mapping[str, Mapping[str, object]]


#: The subcommands beyond the experiments, in help order.
_COMMANDS: Dict[str, Command] = {
    "serve": Command(
        _run_serve,
        help="run the live RSU gateway + central collector",
        description="Start the asyncio RSU gateway and central collector on "
        "localhost TCP ports.  Run `repro loadgen` with the same "
        "deployment flags in another terminal to replay a day.",
        args={
            **_DEPLOYMENT_ARGS,
            "--metrics-port": dict(
                type=int,
                default=None,
                metavar="PORT",
                help="also expose gateway/collector metrics as Prometheus "
                "text on this port (GET /metrics)",
            ),
            "--wal": dict(
                type=Path,
                default=None,
                metavar="PATH",
                help="with --shards: journal every shard partial to this "
                "write-ahead log before merging, so a killed collector "
                "replays to bit-identical state",
            ),
            "--retention": dict(
                type=int,
                default=None,
                metavar="N",
                help="keep snapshot dedup keys for only the N most recent "
                "periods (default: keep everything)",
            ),
        },
    ),
    "loadgen": Command(
        _run_loadgen,
        help="replay a scenario day against a running `repro serve`",
        description="Stream one scenario day of vehicle responses at a live "
        "gateway, close the period, query the collector for the "
        "full point-to-point matrix, and verify every answer "
        "bit-for-bit against in-process decoding.  Pick the "
        "workload with --scenario (default sioux-falls); serve "
        "must be started with the same spec.",
        args={
            **_DEPLOYMENT_ARGS,
            "--wire-batch": dict(
                type=int,
                default=4096,
                help="responses per wire frame (default %(default)s)",
            ),
            "--max-queries": dict(
                type=int,
                default=None,
                help="cap on point-to-point queries (default: the full matrix)",
            ),
            "--metrics-out": dict(
                type=Path,
                default=None,
                metavar="PATH",
                help="write the run's metrics (loadgen, retry, wire, core) as "
                "JSON lines; inspect with `repro metrics summarize PATH`",
            ),
            "--trajectory-out": dict(
                type=Path,
                default=None,
                metavar="PATH",
                help="write the announced per-period size plans as canonical "
                "JSON (diffable against a golden trajectory; see "
                "docs/adaptive.md)",
            ),
            "--rebalance": dict(
                type=int,
                default=0,
                metavar="N",
                help="needs --shards: hand the N lowest RSU ids to their "
                "neighbour shard mid-period (in every --window), splitting "
                "their responses across two shards; the collector's OR-merge "
                "must still be bit-identical (0..fleet size, default "
                "%(default)s)",
            ),
        },
    ),
    "scenarios": Command(
        _run_scenarios,
        help="list or describe the workload scenario zoo",
        description="Scenario zoo tooling.  `list` tabulates every registered "
        "scenario (node/arc/RSU counts, demand profile, vehicle "
        "classes); `describe SPEC` prints one scenario in detail. "
        "SPEC accepts parametric specs too: grid-NxM, ring-R[xS], "
        "tntp:<net.tntp>[:<trips.tntp>].",
        args={
            "action": dict(choices=["list", "describe"], help="what to do"),
            "spec": dict(
                nargs="?",
                default=None,
                metavar="SPEC",
                help="scenario spec for `describe`",
            ),
            "--verbose": _VERBOSE,
        },
    ),
    "metrics": Command(
        _run_metrics,
        help="inspect metrics dumps written by `loadgen --metrics-out`",
        description="Offline metrics tooling.  `summarize` renders one or more "
        "JSON-lines metrics dumps as a human-readable table; with "
        "several inputs, label-compatible series are aggregated "
        "(counters/gauges sum, histograms merge per bucket).",
        args={
            "action": dict(choices=["summarize"], help="what to do with the dump"),
            "paths": dict(
                type=Path,
                nargs="+",
                metavar="path",
                help="JSON-lines file(s) written by --metrics-out; several "
                "files (e.g. one per shard) are aggregated",
            ),
            "--verbose": _VERBOSE,
        },
    ),
    "federation": Command(
        _run_federation,
        help="inspect a running federated deployment",
        description="Federation tooling.  `status` scrapes the metrics "
        "endpoint of a `repro serve --shards N --metrics-port P` "
        "process and tabulates the federation/collector/gateway "
        "series (WAL depth, merges per shard, handoffs, ...).",
        args={
            "action": dict(choices=["status"], help="what to inspect"),
            "--host": dict(
                default="127.0.0.1",
                help="serve process address (default %(default)s)",
            ),
            "--metrics-port": dict(
                type=int,
                required=True,
                metavar="PORT",
                help="the serve process's --metrics-port",
            ),
            "--verbose": _VERBOSE,
        },
    ),
    "chaos": Command(
        _run_chaos,
        help="fault-injection TCP proxy in front of serve's ports",
        description="Relay TCP traffic to an upstream service while injecting "
        "deterministic, seeded faults: latency, bandwidth caps, "
        "partial writes, byte corruption, dropped ranges, resets "
        "and blackholes.  Point `repro loadgen --gateway-port` at "
        "the listen port to chaos-test the live plane; see the "
        "README's chaos-testing section.",
        args={
            "--listen-host": dict(
                default="127.0.0.1", help="bind address (default %(default)s)"
            ),
            "--listen-port": dict(
                type=int,
                default=9701,
                help="port clients connect to (default %(default)s)",
            ),
            "--upstream-host": dict(
                default="127.0.0.1",
                help="service to relay to (default %(default)s)",
            ),
            "--upstream-port": dict(
                type=int,
                default=8701,
                help="upstream TCP port (default: the gateway, %(default)s)",
            ),
            "--profile": dict(
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
            ),
            "--scenario": dict(
                default=None,
                metavar="SPEC",
                help="(shard-kill/rsu-outage) workload scenario spec "
                "(default: sioux-falls; trajectory-replay for rsu-outage, "
                "which needs a scenario that schedules outages)",
            ),
            "--trips": dict(
                type=int,
                default=1_500,
                help="(shard-kill/rsu-outage) scenario trips per day "
                "(default %(default)s)",
            ),
            "--windows": dict(
                type=int,
                default=6,
                metavar="W",
                help="(rsu-outage) sequential delivery phases the day is "
                "split into; the middle third is the outage window "
                "(default %(default)s)",
            ),
            "--shards": dict(
                type=int,
                default=3,
                metavar="N",
                help="(shard-kill) gateway shards (default %(default)s)",
            ),
            "--adaptive": dict(
                action="store_true",
                help="(shard-kill) run the adaptive-sizing variant: the "
                "collector plans and journals next period's sizes before the "
                "crash, and the WAL-recovered collector must re-announce the "
                "identical per-period size plan (docs/adaptive.md)",
            ),
            "--kill-shard": dict(
                type=int,
                default=None,
                metavar="I",
                help="(shard-kill) which shard to kill (default: the highest id)",
            ),
            "--wal": dict(
                type=Path,
                default=None,
                metavar="PATH",
                help="(shard-kill) write-ahead log location, which must "
                "not exist yet (default: a temporary file)",
            ),
            "--matrix-out": dict(
                type=Path,
                default=None,
                metavar="PATH",
                help="(shard-kill/rsu-outage) write the WAL-recovered "
                "(shard-kill) or the live degraded (rsu-outage) period matrix "
                "as canonical JSON",
            ),
            "--golden-out": dict(
                type=Path,
                default=None,
                metavar="PATH",
                help="(shard-kill/rsu-outage) write the unsharded "
                "(shard-kill) or the full-day (rsu-outage) golden matrix as "
                "canonical JSON (diffable against --matrix-out)",
            ),
            **{
                "--" + name.replace("_", "-"): dict(
                    type=kind, default=None, help=text
                )
                for name, (kind, text) in _FAULT_FLAGS.items()
            },
            "--verbose": _VERBOSE,
        },
    ),
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.  A refused
    configuration exits 2 with ``<command>: <reason>`` on stderr."""
    args = build_parser().parse_args(argv)
    if args.verbose:
        from repro.utils.logconfig import configure_logging

        configure_logging(verbose=True)
    command = args.experiment
    run = _COMMANDS[command].run if command in _COMMANDS else _run_experiments
    try:
        return run(args)
    except ConfigurationError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
