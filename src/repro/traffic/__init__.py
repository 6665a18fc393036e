"""Vehicle population and workload generation.

* :mod:`repro.traffic.population` — a concrete set of vehicles with
  identities, private keys, and the RSUs each passed;
* :mod:`repro.traffic.random_workload` — controlled ``(n_x, n_y, n_c)``
  pair populations, the workload of the paper's Fig. 4/5 sweeps;
* :mod:`repro.traffic.network_workload` — populations routed over a
  road network from a trip table (the Sioux Falls workload);
* :mod:`repro.traffic.scenarios` — the named parameter sets the paper
  evaluates (equal traffic, 10x, 50x, Table I pairs).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "VehicleFleet": ".population",
        "PairPopulation": ".population",
        "make_pair_population": ".random_workload",
        "TRAFFIC_RATIOS": ".scenarios",
        "FIG45_SWEEP": ".scenarios",
        "TABLE1_PAIRS": ".scenarios",
        "Table1Pair": ".scenarios",
    },
)
