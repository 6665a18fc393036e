"""Road network substrate (the Sioux Falls workload of Section VII-A).

* :mod:`repro.roadnet.graph` — directed road networks with link
  attributes;
* :mod:`repro.roadnet.sioux_falls` — the classic 24-node / 76-arc
  Sioux Falls network (LeBlanc et al., 1975);
* :mod:`repro.roadnet.trips` — origin-destination trip tables;
* :mod:`repro.roadnet.routing` — shortest-path route assignment;
* :mod:`repro.roadnet.gravity` — gravity-model trip synthesis;
* :mod:`repro.roadnet.volumes` — node transit volumes and pairwise
  common volumes induced by routed trips, plus calibration to the
  paper's Table I targets.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Arc": ".graph",
        "RoadNetwork": ".graph",
        "sioux_falls_network": ".sioux_falls",
        "TripTable": ".trips",
        "RoutePlan": ".routing",
        "assign_routes": ".routing",
        "gravity_trip_table": ".gravity",
        "TrafficAssignment": ".volumes",
        "node_volumes": ".volumes",
        "pair_common_volumes": ".volumes",
    },
)
