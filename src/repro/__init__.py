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

from repro.core import (
    AdaptiveSizing,
    AggregatedEstimate,
    BitArray,
    CentralDecoder,
    Estimate,
    PairEstimate,
    PrivacyOptimalSizing,
    RsuReport,
    SchemeConfig,
    SchemeParameters,
    SizingPolicy,
    StaticSizing,
    TripleEstimate,
    VlmScheme,
    ZeroFractionPolicy,
    configure,
    estimate_intersection,
    unfold,
    unfolded_or,
)
from repro.baseline import FixedLengthScheme, fixed_array_size_for_privacy
from repro.privacy import empirical_privacy, optimal_load_factor, preserved_privacy
from repro.traffic import PairPopulation, VehicleFleet, make_pair_population
from repro.scenarios import Scenario, get_scenario, scenario_names
from repro.errors import ReproError

__version__ = "5.0.0"

__all__ = [
    "__version__",
    "AggregatedEstimate",
    "BitArray",
    "CentralDecoder",
    "Estimate",
    "PairEstimate",
    "RsuReport",
    "TripleEstimate",
    "SchemeConfig",
    "SchemeParameters",
    "SizingPolicy",
    "StaticSizing",
    "PrivacyOptimalSizing",
    "AdaptiveSizing",
    "VlmScheme",
    "ZeroFractionPolicy",
    "configure",
    "estimate_intersection",
    "unfold",
    "unfolded_or",
    "FixedLengthScheme",
    "fixed_array_size_for_privacy",
    "preserved_privacy",
    "empirical_privacy",
    "optimal_load_factor",
    "PairPopulation",
    "VehicleFleet",
    "make_pair_population",
    "Scenario",
    "get_scenario",
    "scenario_names",
    "ReproError",
]
