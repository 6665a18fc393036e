"""Vehicular cyber-physical system substrate (paper Section II-A).

An agent-level simulation of the three entity groups and their
interactions:

* :mod:`repro.vcps.ids` — vehicle/RSU identifiers and one-time random
  MAC addresses;
* :mod:`repro.vcps.keys` — vehicle private keys;
* :mod:`repro.vcps.pki` — a simulated certificate authority and RSU
  certificates (vehicles verify before responding);
* :mod:`repro.vcps.messages` — DSRC query/response message formats and
  wire encoding;
* :mod:`repro.vcps.vehicle` — the vehicle agent (verify, select bit,
  respond; never transmits an identifier);
* :mod:`repro.vcps.rsu` — the RSU agent (broadcast queries, collect
  responses, maintain counter + bit array, report per period);
* :mod:`repro.vcps.history` — historical average volumes ``n̄_x``;
* :mod:`repro.vcps.server` — the central server (report collection,
  history update, measurement queries);
* :mod:`repro.vcps.clock` — discrete simulation clock;
* :mod:`repro.vcps.simulation` — drives vehicles over routes through
  RSUs for whole measurement periods.

The DSRC radio itself is simulated as in-process message passing (see
DESIGN.md substitution #2); everything the measurement scheme observes
— queries, responses, reports — flows through the same interfaces a
deployment would use.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "LossyChannel": ".channel",
        "PerfectChannel": ".channel",
        "random_mac": ".ids",
        "format_mac": ".ids",
        "KeyStore": ".keys",
        "generate_private_key": ".keys",
        "Certificate": ".pki",
        "CertificateAuthority": ".pki",
        "Query": ".messages",
        "Response": ".messages",
        "Vehicle": ".vehicle",
        "RoadsideUnit": ".rsu",
        "VolumeHistory": ".history",
        "CentralServer": ".server",
        "SimulationClock": ".clock",
        "VcpsSimulation": ".simulation",
    },
)
