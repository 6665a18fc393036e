#!/usr/bin/env python
"""The three transportation studies the paper's introduction motivates,
executed on privacy-preserving measurements.

"[Point-to-point volumes] provide essential input to a variety of
transportation studies such as estimating traffic link flow
distribution for investment plan, calculating road exposure rates for
safety analysis, and characterizing turning movements at intersections
for signal timing determination."  — Section I

This example runs a Sioux Falls day through the VLM scheme and then
performs all three studies purely from the measured (masked) data,
comparing against routed ground truth.

Run:  python examples/transportation_studies.py
"""

from repro.apps import (
    measure_exposure,
    measure_link_flows,
    measure_turning_movements,
)
from repro.core.estimator import ZeroFractionPolicy
from repro.core.scheme import VlmScheme
from repro.roadnet.volumes import pair_common_volumes
from repro.scenarios import get_scenario

# --- Measure a day of Sioux Falls traffic ------------------------------
workload = get_scenario("sioux-falls").workload(total_trips=80_000, seed=17)
scheme = VlmScheme(
    workload.volumes(), s=2, load_factor=10.0, hash_seed=9,
    policy=ZeroFractionPolicy.CLAMP,
)
scheme.run_period(workload.passes())
truth = pair_common_volumes(workload.plan)
print(
    f"measured {workload.plan.trips.total_trips:,} vehicles across "
    f"{workload.network.num_nodes} instrumented intersections\n"
)

# --- Study 1: link flow distribution (investment planning) -------------
link_study = measure_link_flows(scheme.decoder, workload.network, truth=truth)
print(link_study.render(count=8))
print(f"mean |error| over streets: {100 * link_study.mean_abs_error():.1f}%\n")

# --- Study 2: road exposure (safety analysis) --------------------------
# Street lengths derived from free-flow times at 50 km/h (0.01h units).
lengths = {}
for arc in workload.network.arcs():
    key = (min(arc.tail, arc.head), max(arc.tail, arc.head))
    lengths[key] = arc.free_flow_time * 0.5  # km
# A synthetic incident log for the period:
incidents = {(9, 10): 3, (10, 16): 5, (15, 22): 1}
exposure_study = measure_exposure(link_study, lengths, incidents=incidents)
print(exposure_study.render(count=8))
print()

# --- Study 3: turning movements (signal timing) -------------------------
# Node 10 is the heaviest intersection — where signal timing matters most.
turn_study = measure_turning_movements(
    scheme.decoder, workload.network, 10, truth_plan=workload.plan
)
print(turn_study.render())
dominant = turn_study.dominant_movement()
print(
    f"\nsignal plan should favour the {dominant[0]} - 10 - {dominant[1]} "
    f"movement ({100 * turn_study.shares()[dominant]:.0f}% of turning traffic)"
)
