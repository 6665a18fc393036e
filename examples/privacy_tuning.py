#!/usr/bin/env python
"""Privacy tuning: choose the global load factor for a deployment.

A transportation authority planning a VLM deployment must pick one
global load factor f̄.  This example walks the decision the paper's
Section VI supports:

1. chart preserved privacy against the load factor for several s;
2. locate the optimal f* and the largest f meeting a privacy floor;
3. show the *unbalanced load factor* failure of a fixed-length design
   (why [9] cannot protect a light-traffic RSU next to a heavy one).

Run:  python examples/privacy_tuning.py
"""

import numpy as np

from repro.privacy import optimal_load_factor, preserved_privacy
from repro.privacy.optimizer import max_load_factor_for_privacy, privacy_curve
from repro.utils.tables import AsciiTable

# --- 1. privacy vs load factor ----------------------------------------
factors = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0])
table = AsciiTable(
    ["f"] + [f"p (s={s})" for s in (2, 5, 10)],
    title="Preserved privacy vs load factor (equal-traffic RSUs, n = 10,000)",
)
for f in factors:
    row = [f]
    for s in (2, 5, 10):
        row.append(float(privacy_curve(np.array([f]), s)[0]))
    table.add_row(row)
print(table.render(), "\n")

# --- 2. the interesting operating points ------------------------------
for s in (2, 5, 10):
    f_star, p_star = optimal_load_factor(s)
    f_max = max_load_factor_for_privacy(0.5, s)
    print(
        f"s={s:2d}: optimal f* = {f_star:5.2f} (privacy {p_star:.3f}); "
        f"largest f with privacy >= 0.5: {f_max:.1f}"
    )
print()

# --- 3. the unbalanced load factor problem of [9] ----------------------
# A fixed m sized for a 500k-vehicle hub (f=2 there) pushes a 20k RSU
# to f=50 — and its cars' privacy collapses (paper Fig. 2, plot 1).
n_heavy, n_light = 500_000, 20_000
m_fixed = 2 * n_heavy
for label, n in (("heavy hub", n_heavy), ("light RSU", n_light)):
    f_effective = m_fixed / n
    p = float(
        preserved_privacy(n, n, 0.1 * n, m_fixed, m_fixed, 2)
    )
    print(
        f"fixed m = {m_fixed:,}: {label} (n={n:,}) runs at f = "
        f"{f_effective:.0f}, privacy = {p:.2f}"
    )
print("-> the fixed-length scheme must shrink m for everyone, hurting accuracy.")
