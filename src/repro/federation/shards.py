"""Gateway shards: the ingest tier of a federated deployment.

A :class:`ShardGateway` is an ordinary
:class:`~repro.service.gateway.RsuGateway` fronting only the RSUs its
shard owns (per the :class:`~repro.federation.router.ShardRouter`),
with two behavioural differences:

* at period close it uploads
  :class:`~repro.service.wire.ShardSnapshot` frames — its reports are
  *partials* the federated collector OR-merges, not whole reports;
* it accepts mid-period :class:`~repro.service.wire.Handoff` frames,
  provisioning a fresh zeroed RSU so it can record the rest of a
  rebalanced RSU's responses.  The source shard keeps its partial
  array; both halves upload at period close and the OR-merge makes
  the split lossless.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional

from repro.federation.router import ShardRouter
from repro.obs import MetricsRegistry
from repro.service import wire
from repro.service.gateway import RsuGateway
from repro.service.runtime import DeploymentSpec
from repro.utils.logconfig import get_logger
from repro.vcps.pki import CertificateAuthority
from repro.vcps.rsu import RoadsideUnit

__all__ = ["ShardGateway", "spec_provisioner", "build_shard_rsus"]

logger = get_logger("federation.shards")


def spec_provisioner(
    spec: DeploymentSpec,
) -> Callable[[int], RoadsideUnit]:
    """A callable that builds one RSU of *spec*'s deployment on demand.

    Used as a :class:`ShardGateway`'s ``provisioner`` so a handoff can
    materialize a fresh zeroed RSU with exactly the array size and MAC
    secret every other replica of the deployment would give it.
    """
    authority = CertificateAuthority(seed=spec.seed)

    def provision(rsu_id: int) -> RoadsideUnit:
        return RoadsideUnit(
            rsu_id,
            spec.scheme.array_size(rsu_id),
            authority.issue(rsu_id),
        )

    return provision


def build_shard_rsus(
    spec: DeploymentSpec, router: ShardRouter, shard_id: int
) -> Dict[int, RoadsideUnit]:
    """The RSU fleet shard *shard_id* starts out owning.

    Top-level (picklable) so federation startup can fan shard fleet
    construction out through :func:`repro.runtime.run_tasks`.
    """
    provision = spec_provisioner(spec)
    owned = router.partition(spec.scheme.rsu_ids)[shard_id]
    return {rsu_id: provision(rsu_id) for rsu_id in owned}


class ShardGateway(RsuGateway):
    """One gateway shard of a federation.

    Parameters
    ----------
    shard_id:
        This shard's id; stamped into every uploaded
        :class:`~repro.service.wire.ShardSnapshot` so the collector
        can scope upload-seq dedup per shard.
    rsus:
        The fleet this shard starts out owning (see
        :func:`build_shard_rsus`).
    provisioner:
        Builds an RSU this shard does *not* yet own when a
        :class:`~repro.service.wire.Handoff` arrives (see
        :func:`spec_provisioner`).  Without one, handoffs for unknown
        RSUs are refused with ``E_UNKNOWN_RSU``.
    **kwargs:
        Everything :class:`~repro.service.gateway.RsuGateway` accepts.
    """

    def __init__(
        self,
        shard_id: int,
        rsus: Dict[int, RoadsideUnit],
        *,
        provisioner: Optional[Callable[[int], RoadsideUnit]] = None,
        registry: Optional[MetricsRegistry] = None,
        **kwargs: object,
    ) -> None:
        super().__init__(rsus, registry=registry, **kwargs)  # type: ignore[arg-type]
        self.shard_id = int(shard_id)
        self._provisioner = provisioner
        self._m_handoffs = self.registry.counter(
            "federation.handoffs_accepted_total"
        )
        self._m_handoffs_refused = self.registry.counter(
            "federation.handoffs_refused_total"
        )

    @property
    def handoffs_accepted(self) -> int:
        """Mid-period rebalances this shard took ownership for."""
        return int(self._m_handoffs.value)

    # ------------------------------------------------------------------
    # Shard-aware uploads
    # ------------------------------------------------------------------
    def _make_snapshot(self, report, seq: int) -> wire.ShardSnapshot:
        """Wrap the period-end *report* as a shard partial."""
        return wire.ShardSnapshot.from_report(
            report, shard_id=self.shard_id, seq=seq
        )

    # ------------------------------------------------------------------
    # Handoff intake
    # ------------------------------------------------------------------
    async def _handle_extra(
        self, message: wire.Message, writer: asyncio.StreamWriter
    ) -> None:
        if isinstance(message, wire.Handoff):
            await self._handle_handoff(message, writer)
            return
        await super()._handle_extra(message, writer)

    async def _handle_handoff(
        self, message: wire.Handoff, writer: asyncio.StreamWriter
    ) -> None:
        if message.to_shard != self.shard_id:
            self._m_handoffs_refused.inc()
            await self._send_error(
                writer,
                wire.E_MALFORMED,
                f"handoff of rsu {message.rsu_id} addresses shard "
                f"{message.to_shard}, but this is shard {self.shard_id}",
            )
            return
        if message.rsu_id not in self.rsus:
            if self._provisioner is None:
                self._m_handoffs_refused.inc()
                await self._send_error(
                    writer,
                    wire.E_UNKNOWN_RSU,
                    f"shard {self.shard_id} cannot provision rsu "
                    f"{message.rsu_id} (no provisioner)",
                )
                return
            provisioned = self._provisioner(message.rsu_id)
            if self.windows > 0:
                # A rebalanced-in RSU joins the streaming tier too, so
                # its window partials keep flowing mid-period.
                provisioned.track_windows()
            self.rsus[message.rsu_id] = provisioned
            self._m_handoffs.inc()
            logger.info(
                "shard %d accepted rsu %d from shard %d (period %d)",
                self.shard_id,
                message.rsu_id,
                message.from_shard,
                message.period,
            )
        else:
            # Handoff retransmission (or a no-op rebalance): the RSU is
            # already provisioned — ack idempotently, never zero state.
            logger.debug(
                "shard %d re-acking handoff for rsu %d",
                self.shard_id,
                message.rsu_id,
            )
        try:
            await wire.write_message(
                writer,
                wire.HandoffAck(
                    rsu_id=message.rsu_id,
                    to_shard=self.shard_id,
                    period=message.period,
                ),
            )
        except (ConnectionError, OSError):  # pragma: no cover
            pass
