"""End-to-end agent-level VCPS simulation.

Drives :class:`~repro.vcps.vehicle.Vehicle` agents along routes (RSU id
sequences) through :class:`~repro.vcps.rsu.RoadsideUnit` agents for
whole measurement periods, delivering reports to a
:class:`~repro.vcps.server.CentralServer`.

This is the protocol-faithful path: certificates are verified per
query, responses carry one-time MACs, RSUs bounds-check indices.  It
is intentionally per-message (readable, inspectable) and therefore
suited to thousands of vehicles; the vectorized
:func:`repro.core.encoder.encode_passes` covers the million-vehicle
experiments and is tested to produce byte-identical arrays.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.parameters import SchemeParameters
from repro.core.reports import RsuReport
from repro.core.sizing import AdaptiveSizing, SizingPolicy, StaticSizing
from repro.errors import AuthenticationError, ConfigurationError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import next_power_of_two
from repro.vcps.channel import PerfectChannel
from repro.vcps.clock import SimulationClock
from repro.vcps.history import VolumeHistory
from repro.vcps.keys import KeyStore
from repro.vcps.pki import CertificateAuthority
from repro.vcps.rsu import RoadsideUnit
from repro.vcps.server import CentralServer
from repro.vcps.vehicle import Vehicle

__all__ = ["VcpsSimulation"]


class VcpsSimulation:
    """A complete simulated deployment.

    Parameters
    ----------
    historical_volumes:
        ``rsu_id -> n̄_x`` seed history used to size arrays.
    s:
        Logical bit array size.
    load_factor:
        Global load factor ``f̄``.
    hash_seed:
        Shared hash-function seed.
    seed:
        Simulation randomness (keys, MACs).
    ticks_per_period:
        Measurement period length.
    channel:
        Radio model; defaults to the paper's implicit perfect channel.
        Pass a :class:`~repro.vcps.channel.LossyChannel` to study loss.
    query_attempts:
        How many query broadcasts a passing vehicle can hear while in
        range of one RSU (the paper's once-a-second re-broadcast gives
        several opportunities per pass).
    sizing:
        An explicit :class:`~repro.core.sizing.SizingPolicy`
        (overrides *load_factor*).  An
        :class:`~repro.core.sizing.AdaptiveSizing` policy switches
        :meth:`apply_resizing` to the between-period control loop:
        sizes then follow the server's :meth:`~repro.vcps.server.
        CentralServer.plan_sizes` trajectory instead of the
        history-driven static rule (see ``docs/adaptive.md``).
    """

    def __init__(
        self,
        historical_volumes: Mapping[int, float],
        *,
        s: int = 2,
        load_factor: float = 3.0,
        hash_seed: int = 0,
        seed: SeedLike = None,
        ticks_per_period: int = 86_400,
        channel=None,
        query_attempts: int = 3,
        sizing: Optional[SizingPolicy] = None,
    ) -> None:
        if query_attempts < 1:
            raise ConfigurationError(
                f"query_attempts must be >= 1, got {query_attempts}"
            )
        self.channel = channel if channel is not None else PerfectChannel()
        self.query_attempts = int(query_attempts)
        if not historical_volumes:
            raise ConfigurationError("historical_volumes must not be empty")
        self._rng = as_generator(seed)
        self.clock = SimulationClock(ticks_per_period)
        self.sizing = sizing if sizing is not None else StaticSizing(load_factor)
        load_factor = float(self.sizing.load_factor)
        sizes = {
            int(rsu): self.sizing.size_for(volume)
            for rsu, volume in historical_volumes.items()
        }
        m_o = max(max(sizes.values()), next_power_of_two(s + 1))
        self.params = SchemeParameters(
            s=s, load_factor=load_factor, m_o=m_o, hash_seed=hash_seed
        )
        self.authority = CertificateAuthority(seed=self._rng)
        self._anchor = self.authority.trust_anchor()
        self.rsus: Dict[int, RoadsideUnit] = {
            rsu_id: RoadsideUnit(rsu_id, size, self.authority.issue(rsu_id))
            for rsu_id, size in sizes.items()
        }
        self.server = CentralServer(
            s,
            self.sizing,
            history=VolumeHistory(dict(historical_volumes)),
        )
        self._keys = KeyStore(self._rng)
        self._vehicles: Dict[int, Vehicle] = {}

    # ------------------------------------------------------------------
    # Fleet management
    # ------------------------------------------------------------------
    def vehicle(self, vehicle_id: int) -> Vehicle:
        """The agent for *vehicle_id* (created on first use)."""
        vid = int(vehicle_id)
        if vid not in self._vehicles:
            self._vehicles[vid] = Vehicle(
                vid,
                self._keys.key_for(vid),
                self.params,
                trust_anchor=self._anchor,
                seed=self._rng,
            )
        return self._vehicles[vid]

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def _collect_responses(
        self, vehicle_id: int, route: Sequence[int]
    ) -> List[tuple]:
        """Run one vehicle's radio exchanges; return ``(rsu_id, response)``
        pairs that made it through the channel, without recording them.

        Shared by the per-message :meth:`drive` and the batched
        :meth:`drive_all` so both paths draw from the channel and the
        vehicle's RNG in exactly the same order.
        """
        agent = self.vehicle(vehicle_id)
        delivered: List[tuple] = []
        for rsu_id in route:
            try:
                rsu = self.rsus[int(rsu_id)]
            except KeyError:
                raise ConfigurationError(f"route visits unknown RSU {rsu_id}") from None
            # The RSU re-broadcasts while the vehicle is in range; the
            # vehicle answers the first query that gets through.
            for _ in range(self.query_attempts):
                if not self.channel.deliver_query():
                    continue
                query = rsu.make_query(self.clock.now)
                try:
                    response = agent.handle_query(query, now=self.clock.now)
                except AuthenticationError:  # pragma: no cover - trusted CA
                    break
                if response is not None and self.channel.deliver_response():
                    delivered.append((rsu.rsu_id, response))
                break
            self.clock.advance(1)
        return delivered

    def drive(self, vehicle_id: int, route: Sequence[int]) -> int:
        """Drive one vehicle along *route* (a sequence of RSU ids).

        At each RSU en route the RSU broadcasts, the vehicle verifies
        and responds, the RSU records.  Returns how many responses were
        actually recorded (repeat visits to the same RSU within one
        period are answered once).
        """
        recorded = 0
        for rsu_id, response in self._collect_responses(vehicle_id, route):
            self.rsus[rsu_id].handle_response(response)
            recorded += 1
        return recorded

    def drive_all(self, routes: Mapping[int, Sequence[int]]) -> int:
        """Drive a whole fleet; returns total recorded responses.

        The radio exchanges run per vehicle (order-faithful), but the
        recording side uses the RSUs' vectorized
        :meth:`~repro.vcps.rsu.RoadsideUnit.handle_responses` fast path
        — one bounds check, counter bump, and ``set_bits`` per RSU —
        which produces bit-identical arrays to per-message recording.
        """
        pending: Dict[int, List] = {}
        for vehicle_id, route in routes.items():
            for rsu_id, response in self._collect_responses(vehicle_id, route):
                pending.setdefault(rsu_id, []).append(response)
        total = 0
        for rsu_id, batch in pending.items():
            total += self.rsus[rsu_id].handle_responses(batch)
        return total

    # ------------------------------------------------------------------
    # Period lifecycle
    # ------------------------------------------------------------------
    def close_period(self) -> List[RsuReport]:
        """End the measurement period everywhere.

        Every RSU reports to the server (which updates history), every
        vehicle resets its answered-RSU set, and the reports are
        returned for inspection.
        """
        reports = [rsu.end_period() for rsu in self.rsus.values()]
        self.server.receive_reports(reports)
        for agent in self._vehicles.values():
            agent.start_period()
        return reports

    def apply_resizing(self) -> Dict[int, int]:
        """Adopt the published sizes for the just-started period.

        Models the feedback loop of Section IV-C: under a static
        policy the updated history drives next period's ``m_x``; under
        an :class:`~repro.core.sizing.AdaptiveSizing` policy the
        server's between-period controller does
        (:meth:`~repro.vcps.server.CentralServer.plan_sizes`).  RSUs
        whose size changes restart the new period empty at the new
        size — in place, via :meth:`~repro.vcps.rsu.RoadsideUnit.
        resize`, which preserves each RSU's period number so reports
        keep lining up with the decoder's period axis.
        """
        if isinstance(self.sizing, AdaptiveSizing):
            # All RSUs advance periods in lockstep via close_period().
            period = next(iter(self.rsus.values())).period
            sizes = self.server.plan_sizes(period)
        else:
            sizes = self.server.next_period_sizes()
        for rsu_id, new_size in sizes.items():
            # Logical bit arrays are bound to m_o for the fleet's
            # lifetime, so no physical array may outgrow it.
            new_size = min(new_size, self.params.m_o)
            sizes[rsu_id] = new_size
            rsu = self.rsus.get(rsu_id)
            if rsu is None:
                continue
            rsu.resize(new_size)
        return sizes
