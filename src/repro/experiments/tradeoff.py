"""The privacy-accuracy tradeoff frontier (synthesis experiment).

The paper argues its case in two separate figures (privacy in Fig. 2,
accuracy in Figs. 4-5).  This experiment puts both on one chart: for a
sweep of load factors it computes, for each scheme, the preserved
privacy of the *light-traffic* RSU (the binding side) and the
closed-form relative stddev of the pair estimate — the frontier a
deployment actually navigates.  The VLM frontier dominates the
baseline's whenever traffic volumes differ.  The rendered table ends
with a constant reference line for the no-privacy/exact corner, where
an exact-but-linkable pseudonym scheme would sit; no such scheme is
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


from repro.accuracy.variance import estimator_stddev
from repro.core.sizing import prev_power_of_two
from repro.core.sizing import array_size_for_volume
from repro.privacy.formulas import preserved_privacy
from repro.utils.tables import AsciiTable

__all__ = ["TradeoffPoint", "TradeoffResult", "run_tradeoff"]


@dataclass(frozen=True)
class TradeoffPoint:
    """One operating point of one scheme."""

    scheme: str
    load_factor: float
    privacy: float
    relative_stddev: float


@dataclass(frozen=True)
class TradeoffResult:
    """The frontier sweep for both schemes."""

    points: List[TradeoffPoint]
    n_x: int
    n_y: int
    n_c: int
    s: int

    def frontier(self, scheme: str) -> List[TradeoffPoint]:
        """Points of one scheme, sorted by privacy."""
        return sorted(
            (p for p in self.points if p.scheme == scheme),
            key=lambda p: p.privacy,
        )

    def best_accuracy_at_privacy(self, scheme: str, floor: float) -> float:
        """Smallest relative stddev achievable with privacy >= floor."""
        eligible = [
            p.relative_stddev
            for p in self.points
            if p.scheme == scheme and p.privacy >= floor
        ]
        return min(eligible) if eligible else float("inf")

    def render(self) -> str:
        table = AsciiTable(
            ["scheme", "f", "privacy p", "rel. stddev %"],
            title=(
                "Privacy-accuracy tradeoff frontier: "
                f"n_x={self.n_x:,}, n_y={self.n_y:,}, n_c={self.n_c:,}, s={self.s} "
                "(privacy of the light-traffic RSU; closed-form stddev)"
            ),
        )
        for point in sorted(self.points, key=lambda p: (p.scheme, p.load_factor)):
            table.add_row(
                [
                    point.scheme,
                    point.load_factor,
                    point.privacy,
                    100.0 * point.relative_stddev,
                ]
            )
        lines = [table.render()]
        for floor in (0.5, 0.7):
            vlm = self.best_accuracy_at_privacy("vlm", floor)
            base = self.best_accuracy_at_privacy("baseline", floor)
            lines.append(
                f"best stddev with privacy >= {floor}: "
                f"VLM {100 * vlm:.1f}% vs baseline {100 * base:.1f}%"
            )
        lines.append(
            "pseudonym strawman reference: stddev 0.0% (exact), privacy 0.0 "
            "(fully linkable)"
        )
        return "\n".join(lines)


def run_tradeoff(
    *,
    n_x: int = 10_000,
    ratio: int = 10,
    common_fraction: float = 0.1,
    s: int = 2,
    load_factors: Sequence[float] = (0.5, 1, 2, 3, 5, 8, 13, 20, 32, 50),
) -> TradeoffResult:
    """Sweep load factors and evaluate both schemes' operating points.

    For the VLM scheme ``f`` is the global load factor (arrays scale
    per RSU); for the baseline ``f`` fixes ``m = prevpow2(f * n_x)``
    for *both* RSUs, so the light RSU runs at ``f`` and the heavy one
    at ``f / ratio`` — the unbalanced regime of Section VI-B.
    """
    n_y = n_x * ratio
    n_c = int(common_fraction * n_x)
    points: List[TradeoffPoint] = []
    for f in load_factors:
        # --- VLM: both RSUs at load factor f --------------------------
        m_x = array_size_for_volume(n_x, f)
        m_y = array_size_for_volume(n_y, f)
        privacy = float(preserved_privacy(n_x, n_y, n_c, m_x, m_y, s))
        stddev = estimator_stddev(n_x, n_y, n_c, m_x, m_y, s)
        points.append(
            TradeoffPoint(
                scheme="vlm", load_factor=float(f),
                privacy=privacy, relative_stddev=stddev,
            )
        )
        # --- baseline: one m sized off the light RSU ------------------
        m = max(prev_power_of_two(f * n_x), 2)
        if m <= s:  # degenerate corner of the sweep
            continue
        privacy_b = float(preserved_privacy(n_x, n_y, n_c, m, m, s))
        stddev_b = estimator_stddev(n_x, n_y, n_c, m, m, s)
        points.append(
            TradeoffPoint(
                scheme="baseline", load_factor=float(f),
                privacy=privacy_b, relative_stddev=stddev_b,
            )
        )
    return TradeoffResult(points=points, n_x=n_x, n_y=n_y, n_c=n_c, s=s)
