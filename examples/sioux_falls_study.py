#!/usr/bin/env python
"""Sioux Falls network study: a full transportation-engineering run.

The paper's motivating application — measure the point-to-point
traffic volume between arbitrary locations of a city road network —
executed end to end on the classic Sioux Falls network:

1. synthesize a daily trip table (gravity model) and route it;
2. run the VLM online coding at all 24 RSUs;
3. decode the full 24x24 point-to-point traffic matrix at the server;
4. compare the heaviest OD pairs against the routed ground truth and
   against the fixed-length baseline of [9].

Run:  python examples/sioux_falls_study.py
"""

from repro.baseline import FixedLengthScheme, fixed_array_size_for_privacy
from repro.core.estimator import ZeroFractionPolicy
from repro.core.scheme import VlmScheme
from repro.scenarios import get_scenario
from repro.utils.tables import AsciiTable

# Keep the example quick: a scaled-down day (the experiment harness
# runs the full 451k-vehicle day; see `python -m repro.cli table1`).
TOTAL_TRIPS = 60_000

workload = get_scenario("sioux-falls").workload(total_trips=TOTAL_TRIPS, seed=11)
volumes = workload.volumes()
truth = workload.common_volumes()
print(
    f"network: {workload.network.name} "
    f"({workload.network.num_nodes} nodes, {workload.network.num_arcs} arcs), "
    f"{workload.plan.trips.total_trips:,} vehicles/day"
)
heaviest = max(volumes, key=volumes.get)
print(f"heaviest node: {heaviest} with {volumes[heaviest]:,} vehicles/day\n")

# --- VLM scheme over all 24 RSUs -------------------------------------
scheme = VlmScheme(
    volumes, s=2, load_factor=8.0, hash_seed=3, policy=ZeroFractionPolicy.CLAMP
)
passes = workload.passes()
scheme.run_period(passes)

# --- Fixed-length baseline for comparison ----------------------------
m_fixed = fixed_array_size_for_privacy(volumes.values(), s=2)
baseline = FixedLengthScheme(m_fixed, s=2, hash_seed=3)
baseline.run_period(passes)

# --- Compare the ten heaviest point-to-point pairs --------------------
top_pairs = sorted(truth, key=truth.get, reverse=True)[:10]
table = AsciiTable(
    ["pair", "true n_c", "VLM n_c^", "VLM err %", "[9] n_c^", "[9] err %"],
    title="Heaviest point-to-point flows, VLM vs fixed-length baseline",
)
for a, b in top_pairs:
    true_nc = truth[(a, b)]
    vlm = scheme.decoder.pair_estimate(a, b)
    base = baseline.decoder.pair_estimate(a, b)
    table.add_row(
        [
            f"({a}, {b})",
            true_nc,
            vlm.value,
            100 * vlm.error_ratio(true_nc),
            base.value,
            100 * base.error_ratio(true_nc),
        ]
    )
print(table.render(), "\n")

# --- Aggregate accuracy over every measurable pair --------------------
for name, decoder in (("VLM", scheme.decoder), ("baseline [9]", baseline.decoder)):
    errors = []
    for (a, b), true_nc in truth.items():
        if true_nc < 200:  # skip pairs too small to measure meaningfully
            continue
        est = decoder.pair_estimate(a, b)
        errors.append(abs(est.value - true_nc) / true_nc)
    mean_err = 100 * sum(errors) / len(errors)
    print(f"{name}: mean |error| over {len(errors)} pairs with n_c >= 200: {mean_err:.1f}%")
