"""repro — reproduction of "Point-to-Point Traffic Volume Measurement
through Variable-Length Bit Array Masking in Vehicular Cyber-Physical
Systems" (Zhou, Chen, Mo, Xiao — ICDCS 2015).

The library implements the paper's variable-length bit array masking
(VLM) scheme end to end — online coding at RSUs, offline decoding at a
central server via the "unfolding" technique and the MLE estimator of
Eq. (5) — together with the fixed-length baseline of reference [9],
closed-form accuracy and privacy analysis, a vehicular cyber-physical
system simulation substrate (vehicles, RSUs, DSRC messages, simulated
PKI, central server), a pluggable scenario zoo of road-network
workloads (Sioux Falls, TNTP files, synthetic grids and rings,
trajectory replay — see :mod:`repro.scenarios`), and an experiment
harness regenerating every table and figure of the paper's
evaluation.

Quickstart
----------
>>> from repro import VlmScheme, make_pair_population
>>> population = make_pair_population(10_000, 100_000, 3_000, seed=7)
>>> scheme = VlmScheme(population.volumes(), s=2, load_factor=3.0)
>>> reports = scheme.encode(population.passes())
>>> estimate = scheme.measure(reports[population.rsu_x], reports[population.rsu_y])
>>> abs(estimate.value - population.n_c) / population.n_c < 0.1
True
"""

from repro._lazy import lazy_exports

__version__ = "17.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "AggregatedEstimate": "repro.core.multiperiod",
        "BitArray": "repro.core.bitarray",
        "CentralDecoder": "repro.core.decoder",
        "Estimate": "repro.core.results",
        "PairEstimate": "repro.core.estimator",
        "PairMatrix": "repro.core.estimator",
        "RsuReport": "repro.core.reports",
        "SchemeConfig": "repro.core.config",
        "SchemeParameters": "repro.core.parameters",
        "SizingPolicy": "repro.core.sizing",
        "StaticSizing": "repro.core.sizing",
        "PrivacyOptimalSizing": "repro.core.sizing",
        "AdaptiveSizing": "repro.core.sizing",
        "VlmScheme": "repro.core.scheme",
        "ZeroFractionPolicy": "repro.core.estimator",
        "configure": "repro.core.config",
        "estimate_intersection": "repro.core.estimator",
        "unfold": "repro.core.unfolding",
        "unfolded_or": "repro.core.unfolding",
        "FixedLengthScheme": "repro.baseline.scheme",
        "fixed_array_size_for_privacy": "repro.core.sizing",
        "preserved_privacy": "repro.privacy.formulas",
        "empirical_privacy": "repro.privacy.attacker",
        "optimal_load_factor": "repro.privacy.optimizer",
        "PairPopulation": "repro.traffic.population",
        "VehicleFleet": "repro.traffic.population",
        "make_pair_population": "repro.traffic.random_workload",
        "Scenario": "repro.scenarios.base",
        "get_scenario": "repro.scenarios.registry",
        "scenario_names": "repro.scenarios.registry",
        "ReproError": "repro.errors",
    },
)
__all__.insert(0, "__version__")
