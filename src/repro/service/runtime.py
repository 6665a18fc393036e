"""Shared deployment configuration for the live measurement plane.

``repro serve`` and ``repro loadgen`` run in different processes but
must agree on everything the estimator depends on: which RSUs exist,
their array sizes ``m_x``, the global parameters ``(s, f̄, m_o,
hash seed)``, and the vehicle fleet itself.  :class:`DeploymentSpec`
derives all of it deterministically from ``(total_trips, seed, s,
load_factor, hash_seed)``, so giving both commands the same flags
yields a bit-for-bit consistent deployment — the property the
acceptance check in :mod:`repro.service.loadgen` verifies.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.federation.wal import WriteAheadLog
    from repro.service.retry import RetryPolicy

import numpy as np

from repro.core.decoder import CentralDecoder
from repro.core.encoder import encode_passes
from repro.core.estimator import ZeroFractionPolicy
from repro.core.reports import RsuReport
from repro.core.scheme import VlmScheme
from repro.core.sizing import (
    AdaptiveSizing,
    PrivacyOptimalSizing,
    SizingPolicy,
    StaticSizing,
)
from repro.errors import ConfigurationError
from repro.federation.router import ShardRouter
from repro.hashing.logical_bitarray import select_indices
from repro.obs import MetricsRegistry
from repro.runtime import run_tasks, task
from repro.scenarios import Scenario, get_scenario
from repro.service.collector import CollectorService
from repro.service.gateway import RsuGateway
from repro.traffic.network_workload import NetworkWorkload
from repro.utils.logconfig import get_logger
from repro.vcps.history import VolumeHistory
from repro.vcps.pki import CertificateAuthority
from repro.vcps.rsu import RoadsideUnit
from repro.vcps.server import CentralServer

__all__ = [
    "DeploymentSpec",
    "DEFAULT_GATEWAY_PORT",
    "DEFAULT_COLLECTOR_PORT",
    "FederationPlane",
    "start_federation",
    "start_services",
    "shard_port_plan",
    "install_stop_handlers",
    "run_serve",
]

logger = get_logger("service.runtime")

DEFAULT_GATEWAY_PORT = 8701
DEFAULT_COLLECTOR_PORT = 8702


@dataclass
class DeploymentSpec:
    """Everything both sides of a live deployment must agree on.

    The tuning knobs are the fields ``s``, ``load_factor`` and
    ``hash_seed``.  The saturation policy is always CLAMP: the live
    plane must keep answering under extreme load.

    ``scenario`` names the workload through the scenario zoo
    (:func:`repro.scenarios.get_scenario`): ``sioux-falls`` (the
    default, bit-identical to the historical hardcoded workload),
    ``grid-NxM`` / ``ring-R[xS]`` synthetic cities,
    ``tntp:<net>[:<trips>]`` files, or ``trajectory-replay``.  It is
    kept as the spec *string* so both processes of a deployment (and
    pickled parallel-runtime tasks) rebuild the identical scenario
    from their flags.

    Multi-period deployments replay ``periods`` consecutive days whose
    demand drifts geometrically: day ``p`` carries ``total_trips *
    (1 + drift) ** p`` trips (rounded, at least 1), re-routed under
    seed ``seed + p`` (scenarios with a per-period demand profile,
    e.g. ``trajectory-replay``'s weekday/weekend curve, scale on top).  With ``adaptive`` (or an explicit
    :class:`~repro.core.sizing.AdaptiveSizing` in ``sizing``) the
    between-period control loop re-sizes each RSU from the previous
    day's observed volumes; :meth:`size_trajectory` is the
    deterministic in-process golden the live plane's announcements are
    verified against (see ``docs/adaptive.md``).
    """

    total_trips: int = 60_000
    seed: int = 13
    s: int = 2
    load_factor: float = 3.0
    hash_seed: int = 7
    periods: int = 1
    drift: float = 0.0
    sizing: Optional[SizingPolicy] = None
    adaptive: bool = False
    scenario: str = "sioux-falls"
    workload: NetworkWorkload = field(init=False, repr=False)
    scheme: VlmScheme = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.policy = ZeroFractionPolicy.CLAMP
        self.periods = int(self.periods)
        if self.periods < 1:
            raise ConfigurationError(
                f"periods must be >= 1, got {self.periods}"
            )
        self.drift = float(self.drift)
        if not self.drift > -1.0:
            raise ConfigurationError(
                f"drift must be > -1 (trips stay positive), got {self.drift}"
            )
        # Resolve the sizing policy.  The *target* (what size a volume
        # deserves) fixes the period-0 fleet; --adaptive then wraps it
        # in the control-loop guards, clamped to the fleet's physical
        # bound m_o so no announcement can outgrow the allocated
        # arrays.
        target: SizingPolicy
        if isinstance(self.sizing, AdaptiveSizing):
            self.adaptive = True
            target = self.sizing.target
        elif self.sizing is not None:
            target = self.sizing
        elif self.adaptive:
            # The issue's default loop target: the privacy-optimal
            # load factor for this deployment's s.
            target = PrivacyOptimalSizing(self.s)
        else:
            target = StaticSizing(self.load_factor)
        self.load_factor = float(target.load_factor)
        # The scenario travels as a spec string so pickled runtime
        # tasks and wire peers can rebuild the identical deployment;
        # the resolved instance is cached for its network cache.
        self.scenario = str(self.scenario)
        self._scenario_obj: Scenario = get_scenario(self.scenario)
        self.workload = self._scenario_obj.workload(
            total_trips=self.total_trips, seed=self.seed, period=0
        )
        self.scheme = VlmScheme(
            self.workload.volumes(),
            s=self.s,
            hash_seed=self.hash_seed,
            policy=self.policy,
            sizing=target,
        )
        if self.adaptive and not isinstance(self.sizing, AdaptiveSizing):
            self.sizing = AdaptiveSizing(
                target=target, max_size=self.scheme.m_o
            )
        elif self.sizing is None:
            self.sizing = target
        self._workloads: Dict[int, NetworkWorkload] = {0: self.workload}
        self._trajectory: List[Dict[int, int]] = []

    @property
    def scenario_obj(self) -> Scenario:
        """The resolved :class:`~repro.scenarios.Scenario` instance."""
        return self._scenario_obj

    # ------------------------------------------------------------------
    # Multi-period demand
    # ------------------------------------------------------------------
    def trips_for(self, period: int) -> int:
        """Day *period*'s trip count under the geometric demand drift."""
        period = self._check_period(period)
        return max(1, round(self.total_trips * (1.0 + self.drift) ** period))

    def workload_for(self, period: int) -> NetworkWorkload:
        """Day *period*'s routed workload (cached; period 0 is
        :attr:`workload`)."""
        period = self._check_period(period)
        if period not in self._workloads:
            self._workloads[period] = self._scenario_obj.workload(
                total_trips=self.trips_for(period),
                seed=self.seed + period,
                period=period,
            )
        return self._workloads[period]

    def observed_volumes(self, period: int) -> Dict[int, float]:
        """Per-RSU response counts day *period* puts on the wire —
        exactly what the collector's streaming tier counts, and
        therefore what drives the adaptive controller."""
        plan = self.workload_for(period).plan
        return {
            rsu_id: float(plan.vehicles_through(rsu_id))
            for rsu_id in self.scheme.rsu_ids
        }

    def size_trajectory(self) -> List[Dict[int, int]]:
        """The per-period size plans, period 0 first.

        The in-process golden: derived with the same
        :class:`~repro.adaptive.AdaptiveController` arithmetic the
        collector runs, from the same observed volumes, so a live
        deployment's :class:`~repro.service.wire.SizeAnnounce` frames
        must match entry for entry.  Static policies hold the period-0
        sizes for every period.
        """
        if not self._trajectory:
            sizes0 = {
                rsu_id: self.scheme.array_size(rsu_id)
                for rsu_id in self.scheme.rsu_ids
            }
            plans = [sizes0]
            if isinstance(self.sizing, AdaptiveSizing) and self.periods > 1:
                from repro.adaptive import AdaptiveController

                controller = AdaptiveController(self.sizing, sizes0)
                for p in range(self.periods - 1):
                    controller.observe_period(p, self.observed_volumes(p))
                    plans.append(controller.sizes_for(p + 1))
            else:
                plans.extend(
                    dict(sizes0) for _ in range(self.periods - 1)
                )
            self._trajectory = plans
        return [dict(plan) for plan in self._trajectory]

    def sizes_for(self, period: int) -> Dict[int, int]:
        """The size plan in force during *period*."""
        return self.size_trajectory()[self._check_period(period)]

    def _check_period(self, period: int) -> int:
        period = int(period)
        if not 0 <= period < self.periods:
            raise ConfigurationError(
                f"period must be in [0, {self.periods}), got {period}"
            )
        return period

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def build_rsus(
        self, rsu_ids: Optional[Iterable[int]] = None
    ) -> Dict[int, RoadsideUnit]:
        """Fresh zeroed RSUs for *rsu_ids* (default: the whole fleet),
        sized from the workload volumes.

        The one fleet builder: a gateway's starting fleet, a shard's
        partition of it, and the RSU a shard provisions on a
        :class:`~repro.service.wire.Handoff` all get exactly the array
        size and certificate every other replica would give them.
        """
        authority = CertificateAuthority(seed=self.seed)
        return {
            rsu_id: RoadsideUnit(
                rsu_id,
                self.scheme.array_size(rsu_id),
                authority.issue(rsu_id),
            )
            for rsu_id in (self.scheme.rsu_ids if rsu_ids is None else rsu_ids)
        }

    def build_central_server(
        self, *, windows: int = 1, window_s: Optional[float] = None
    ) -> CentralServer:
        """The collector's measurement back end.

        *windows*/*window_s* size the attached streaming tier (see
        ``docs/streaming.md``); the defaults keep whole-period
        streaming only.  The server carries this spec's resolved
        :class:`~repro.core.sizing.SizingPolicy`, so an adaptive
        deployment's collector plans per-period sizes with exactly the
        controller this spec's :meth:`size_trajectory` mirrors.
        """
        return CentralServer(
            self.s,
            self.sizing,
            history=VolumeHistory(dict(self.workload.volumes())),
            policy=self.policy,
            windows=windows,
            window_s=window_s,
        )

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def response_indices(self, rsu_id: int, *, period: int = 0) -> np.ndarray:
        """Every passing vehicle's reported bit index at *rsu_id*.

        The same computation as the vectorized encoder (paper Eq. 2):
        ``H(v ⊕ K_v ⊕ X[j]) mod m_x`` — what the load generator puts on
        the wire, and what :func:`repro.core.encoder.encode_passes`
        produces in process.  Day *period* uses that period's workload
        and masks with that period's planned ``m_x``.
        """
        ids, keys = self.workload_for(period).assignment.passes_at(rsu_id)
        params = self.scheme.params
        logical = select_indices(
            ids, keys, rsu_id, params.salts, params.m_o, seed=params.hash_seed
        )
        return logical & (self.sizes_for(period)[int(rsu_id)] - 1)

    def reference_reports(self, *, period: int = 0) -> Dict[int, RsuReport]:
        """The in-process ground truth: one encoded report per RSU,
        for day *period*'s workload at that period's planned sizes."""
        sizes = self.sizes_for(period)
        # The sized RSUs, not every network node: a node on no route
        # has no array.
        passes = self.workload_for(period).passes(list(sizes))
        return {
            int(rsu_id): encode_passes(
                ids,
                keys,
                int(rsu_id),
                sizes[int(rsu_id)],
                self.scheme.params,
                period=period,
            )
            for rsu_id, (ids, keys) in passes.items()
        }

    def reference_decoder(self, *, period: int = 0) -> CentralDecoder:
        """A local decoder loaded with :meth:`reference_reports`."""
        decoder = CentralDecoder(self.s, policy=self.policy)
        decoder.submit_many(self.reference_reports(period=period).values())
        return decoder


# ----------------------------------------------------------------------
# Bring-up: one plane for the unsharded and the sharded deployment
# ----------------------------------------------------------------------
def shard_port_plan(
    base: int, shards: int, collector_port: int
) -> List[int]:
    """The deterministic shard ports both sides of a CLI deployment use.

    Consecutive ports from *base*, skipping *collector_port* so the
    default flag values never collide.  ``repro serve --shards N`` and
    ``repro loadgen --shards N`` compute this independently from the
    same flags, like everything else in a deployment spec.
    """
    ports: List[int] = []
    port = int(base)
    while len(ports) < shards:
        if port != collector_port:
            ports.append(port)
        port += 1
    return ports


@dataclass
class FederationPlane:
    """A running measurement plane: gateways, collector, optional WAL.

    ``shard_count == 0`` is the unsharded deployment — one gateway
    (``shards[0]``, ``shard_id=None``) fronting the whole fleet and
    uploading whole-report snapshots.  ``shard_count == N`` runs N
    gateway shards that upload partials for the collector to OR-merge.
    """

    spec: DeploymentSpec
    router: ShardRouter
    shards: Dict[int, RsuGateway]
    collector: CollectorService
    shard_count: int = 0
    host: str = "127.0.0.1"
    wal: Optional["WriteAheadLog"] = None
    #: Sub-period window count (0 = the streaming window tier is off).
    windows: int = 0
    #: Where gateways dial for uploads (default: the collector's port).
    upload_port: Optional[int] = None
    upload_retry_policy: Optional["RetryPolicy"] = field(
        default=None, repr=False
    )
    upload_retry_seed: int = 0
    upload_timeout: float = 5.0

    def shard_ports(self) -> Dict[int, int]:
        """``shard_id -> bound ingest port`` for every live gateway."""
        return {
            shard_id: gateway.port
            for shard_id, gateway in sorted(self.shards.items())
        }

    async def stop(self) -> None:
        """Drain and stop every gateway, the collector, and the WAL."""
        for gateway in self.shards.values():
            await gateway.stop()
        await self.collector.stop()
        if self.wal is not None:
            self.wal.close()

    async def kill_shard(self, shard_id: int) -> None:
        """Stop gateway *shard_id* and discard its in-memory state.

        Simulates a crash: the gateway object (and with it every
        un-uploaded bit array and the batch dedup window) is dropped.
        The socket is closed cleanly so the port can be rebound.
        """
        gateway = self.shards.pop(shard_id)
        await gateway.stop()
        logger.info("shard %d killed (state discarded)", shard_id)

    async def restart_shard(
        self, shard_id: int, *, port: int = 0
    ) -> RsuGateway:
        """Bring gateway *shard_id* back with fresh zeroed RSUs.

        The revived gateway owns whatever the router currently assigns
        it (rebalances included) and starts from empty arrays — its
        senders must resend the period's responses, exactly as after a
        real crash.
        """
        if shard_id in self.shards:
            raise ConfigurationError(
                f"shard {shard_id} is still running; kill it first"
            )
        owned = self.router.partition(self.spec.scheme.rsu_ids)[shard_id]
        gateway = await self._start_gateway(
            shard_id, self.spec.build_rsus(owned), port
        )
        logger.info(
            "shard %d restarted on %s:%s", shard_id, self.host, gateway.port
        )
        return gateway

    async def _start_gateway(
        self, shard_id: int, fleet: Dict[int, RoadsideUnit], port: int
    ) -> RsuGateway:
        gateway = RsuGateway(
            fleet,
            shard_id=shard_id if self.shard_count else None,
            provisioner=self.spec.build_rsus,
            collector_host=self.host,
            collector_port=(
                self.collector.port
                if self.upload_port is None
                else self.upload_port
            ),
            upload_timeout=self.upload_timeout,
            retry_policy=self.upload_retry_policy,
            retry_seed=self.upload_retry_seed,
            windows=self.windows,
        )
        await gateway.start(self.host, port)
        self.shards[shard_id] = gateway
        return gateway


async def start_federation(
    spec: DeploymentSpec,
    *,
    shards: int = 0,
    host: str = "127.0.0.1",
    gateway_ports: Union[int, Sequence[int], None] = None,
    collector_port: int = 0,
    wal_path: Union[str, Path, None] = None,
    wal_fsync: bool = False,
    retention_periods: Optional[int] = None,
    build_workers: Optional[int] = None,
    build_executor: Optional[str] = None,
    windows: int = 0,
    upload_port: Optional[int] = None,
    upload_retry_policy: Optional["RetryPolicy"] = None,
    upload_retry_seed: int = 0,
    upload_timeout: float = 5.0,
) -> FederationPlane:
    """Start a collector and its gateways; returns the running plane.

    ``shards=0`` starts one unsharded gateway for the whole fleet;
    ``shards=N`` starts N gateway shards, RSU ``r`` homed on shard
    ``r % N``.  *gateway_ports* may be ``None`` (every gateway
    ephemeral), a base port (gateway *i* binds ``base + i``; base 0
    means ephemeral), or an explicit per-gateway sequence.  With
    *wal_path*, the collector journals every shard partial there (the
    plane owns and closes the log); whole-report snapshots have no WAL
    record type, so a WAL needs ``shards >= 1``.  Fleets are built
    through :func:`repro.runtime.run_tasks` with *build_workers* /
    *build_executor* (default: the ``REPRO_WORKERS`` /
    ``REPRO_EXECUTOR`` plan).

    *windows* ``> 0`` turns on the streaming window tier: every gateway
    tracks sub-period accumulators and serves ``EndWindow``, and the
    collector decodes time-sliced matrices.  *upload_port* overrides
    where gateways dial for uploads — pass a
    :class:`~repro.service.faults.FaultProxy` port to route the
    gateway→collector path through injected faults — and the
    remaining ``upload_*`` arguments set each gateway's upload retry
    schedule and per-attempt timeout.
    """
    shards = int(shards)
    if shards < 0:
        raise ConfigurationError(f"shards must be >= 0, got {shards}")
    if wal_path is not None and shards == 0:
        raise ConfigurationError(
            "a write-ahead log needs shards >= 1: whole-report "
            "snapshots have no WAL record type"
        )
    gateways = max(shards, 1)
    router = ShardRouter(gateways)
    registry = MetricsRegistry()
    wal = None
    if wal_path is not None:
        from repro.federation.wal import WriteAheadLog

        wal = WriteAheadLog(wal_path, registry=registry, fsync=wal_fsync)
    collector = CollectorService(
        spec.build_central_server(windows=max(int(windows), 1)),
        registry=registry,
        retention_periods=retention_periods,
        wal=wal,
    )
    await collector.start(host, collector_port)
    owned = router.partition(spec.scheme.rsu_ids)
    fleets = run_tasks(
        [task(spec.build_rsus, owned[shard]) for shard in range(gateways)],
        workers=build_workers,
        executor=build_executor,
    )
    if gateway_ports is None or gateway_ports == 0:
        ports: List[int] = [0] * gateways
    elif isinstance(gateway_ports, int):
        ports = [gateway_ports + i for i in range(gateways)]
    else:
        ports = list(gateway_ports)
        if len(ports) != gateways:
            raise ConfigurationError(
                f"{len(ports)} gateway ports for {gateways} gateways"
            )
    plane = FederationPlane(
        spec=spec,
        router=router,
        shards={},
        collector=collector,
        shard_count=shards,
        host=host,
        wal=wal,
        windows=int(windows),
        upload_port=upload_port,
        upload_retry_policy=upload_retry_policy,
        upload_retry_seed=upload_retry_seed,
        upload_timeout=upload_timeout,
    )
    for shard_id, (fleet, port) in enumerate(zip(fleets, ports)):
        await plane._start_gateway(shard_id, fleet, port)
    logger.info(
        "live plane up: %d gateway(s), %d shards -> collector %s:%s "
        "(wal=%s)",
        gateways,
        shards,
        host,
        collector.port,
        wal.path if wal is not None else "off",
    )
    return plane


async def start_services(
    spec: DeploymentSpec,
    *,
    host: str = "127.0.0.1",
    gateway_port: int = DEFAULT_GATEWAY_PORT,
    collector_port: int = DEFAULT_COLLECTOR_PORT,
    **options: object,
) -> Tuple[RsuGateway, CollectorService]:
    """Start the unsharded plane; returns ``(gateway, collector)``,
    both running.

    A thin form of ``start_federation(spec, shards=0, ...)``: *options*
    are its keyword arguments (``upload_port``, ``upload_retry_policy``,
    ``upload_timeout``, ``windows``, ``retention_periods``, ...).
    """
    plane = await start_federation(
        spec,
        host=host,
        gateway_ports=[gateway_port],
        collector_port=collector_port,
        **options,  # type: ignore[arg-type]
    )
    return plane.shards[0], plane.collector


def install_stop_handlers(stop: "asyncio.Event") -> None:
    """Arrange for SIGTERM/SIGINT to set *stop* instead of killing the
    process, so a live service can flush pending snapshots (and its
    WAL tail) before exiting.

    On platforms without ``loop.add_signal_handler`` (Windows event
    loops) this is a no-op and Ctrl-C falls back to
    :class:`KeyboardInterrupt`, which :func:`run_serve` catches.
    """
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass


async def _serve_forever(
    spec: DeploymentSpec,
    *,
    shards: int,
    host: str,
    gateway_port: int,
    collector_port: int,
    metrics_port: Optional[int],
    wal_path: Union[str, Path, None],
    retention_periods: Optional[int],
    windows: int,
) -> None:
    from repro.obs import serve_metrics

    # Before any port opens: a SIGTERM during start-up still drains.
    stop = asyncio.Event()
    install_stop_handlers(stop)
    plane = await start_federation(
        spec,
        shards=shards,
        host=host,
        gateway_ports=(
            shard_port_plan(gateway_port, shards, collector_port)
            if shards and gateway_port
            else gateway_port
        ),
        collector_port=collector_port,
        wal_path=wal_path,
        retention_periods=retention_periods,
        windows=windows,
    )
    gateways = sorted(plane.shards.items())
    metrics = None
    if metrics_port is not None:
        registries = {"collector": plane.collector.registry}
        for shard_id, gateway in gateways:
            name = f"shard{shard_id}" if shards else "gateway"
            registries[name] = gateway.registry
        metrics = await serve_metrics(
            registries, host=host, port=metrics_port
        )
    for shard_id, gateway in gateways:
        if shards:
            print(
                f"shard {shard_id} listening on {host}:{gateway.port} "
                f"({len(gateway.rsus)} RSUs)"
            )
        else:
            print(
                f"gateway listening on {host}:{gateway.port} "
                f"({len(gateway.rsus)} RSUs, m_o={spec.scheme.m_o:,})"
            )
    print(f"collector listening on {host}:{plane.collector.port}")
    if plane.wal is not None:
        print(f"write-ahead log at {plane.wal.path}")
    if metrics is not None:
        print(f"metrics exposed at http://{host}:{metrics.port}/metrics")
    print("press Ctrl-C to stop", flush=True)
    try:
        await stop.wait()
    finally:
        if metrics is not None:
            await metrics.stop()
        # Graceful drain: every response frame is recorded as it
        # arrives, plane.stop() lets each gateway session answer the
        # control frame it is running (a period close included), then
        # syncs the WAL tail, so a SIGTERM never loses accepted
        # responses or journaled partials.
        await plane.stop()
    retained = sum(gateway.responses_recorded for _, gateway in gateways)
    # Scripts and tests/test_shutdown.py read this line as it is.
    drained = f"{shards} shards drained" if shards else "ingest queue drained"
    wal_note = ""
    if plane.wal is not None:
        wal_note = f", wal synced ({plane.wal.records_appended} records)"
    print(
        f"shutdown complete: {drained}, "
        f"{retained:,} responses retained{wal_note}",
        flush=True,
    )


def run_serve(
    spec: Optional[DeploymentSpec] = None,
    *,
    shards: int = 0,
    host: str = "127.0.0.1",
    gateway_port: int = DEFAULT_GATEWAY_PORT,
    collector_port: int = DEFAULT_COLLECTOR_PORT,
    metrics_port: Optional[int] = None,
    wal_path: Union[str, Path, None] = None,
    retention_periods: Optional[int] = None,
    windows: int = 0,
) -> int:
    """Blocking entry point behind ``repro serve [--shards N]``.

    ``shards=0`` serves one unsharded gateway on *gateway_port*;
    ``shards=N`` serves N gateway shards on
    :func:`shard_port_plan` ports from *gateway_port*.  With
    *metrics_port*, a scrape endpoint serves every gateway's and the
    collector's registries (plus the process-default registry's
    ``wire.*``/``core.*`` metrics) as Prometheus text.  SIGTERM and
    SIGINT both trigger a graceful shutdown: each gateway session
    answers the control frame it is running and the WAL tail is synced
    before the process exits 0.  *retention_periods* bounds the collector's dedup
    keys; *windows* ``> 0`` enables the streaming tier end to end.
    """
    spec = spec if spec is not None else DeploymentSpec()
    try:
        asyncio.run(
            _serve_forever(
                spec,
                shards=shards,
                host=host,
                gateway_port=gateway_port,
                collector_port=collector_port,
                metrics_port=metrics_port,
                wal_path=wal_path,
                retention_periods=retention_periods,
                windows=windows,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - non-unix fallback
        print("\nshutting down")
    return 0
