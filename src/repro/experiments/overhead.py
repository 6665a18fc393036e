"""Section IV-E: computation overhead, measured.

The paper claims O(1) work per vehicle per RSU, O(1) per RSU per
vehicle, and O(m_y) per pair at the server.  This runner measures all
three roles at several scales (wall-clock, in-process) and prints a
table whose *scaling columns* are the checkable claims — absolute
numbers are hardware-dependent, the growth pattern is not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.encoder import RsuState, encode_passes
from repro.core.estimator import estimate_intersection
from repro.core.parameters import SchemeParameters
from repro.core.reports import RsuReport
from repro.hashing.logical_bitarray import LogicalBitArray
from repro.utils.rng import SeedLike, as_generator
from repro.utils.tables import AsciiTable

__all__ = ["OverheadResult", "run_overhead"]


@dataclass(frozen=True)
class OverheadRow:
    """One measured role at one scale."""

    role: str
    scale: str
    per_op_us: float


@dataclass(frozen=True)
class OverheadResult:
    """All measured roles/scales."""

    rows: List[OverheadRow]

    def rows_for(self, role: str) -> List[OverheadRow]:
        """Rows of one role."""
        return [row for row in self.rows if row.role == role]

    def render(self) -> str:
        table = AsciiTable(
            ["role", "scale", "per-op µs"],
            title="Section IV-E computation overhead (measured)",
        )
        for row in self.rows:
            table.add_row([row.role, row.scale, row.per_op_us])
        lines = [table.render()]
        vehicle = self.rows_for("vehicle (2 hashes)")
        if len(vehicle) >= 2:
            ratio = vehicle[-1].per_op_us / max(vehicle[0].per_op_us, 1e-9)
            lines.append(
                f"vehicle cost across m range: x{ratio:.2f} (claim: O(1))"
            )
        server = self.rows_for("server decode")
        if len(server) >= 2:
            ratio = server[-1].per_op_us / max(server[0].per_op_us, 1e-9)
            low = int(server[0].scale.split("^")[1])
            high = int(server[-1].scale.split("^")[1])
            expected = 1 << (high - low)
            lines.append(
                f"server cost across {expected}x m range: x{ratio:.1f} "
                f"(claim: O(m_y) — approaches x{expected} once m dominates "
                "fixed overheads)"
            )
        return "\n".join(lines)


def _time_per_op(fn, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats * 1e6


def run_overhead(
    *,
    m_exponents: Sequence[int] = (14, 17, 20),
    seed: SeedLike = 51,
) -> OverheadResult:
    """Measure the three roles across the given array-size exponents.

    The paper's O(m_y) server-decode claim is about per-bit work; on
    ``uint64`` words, 64 bits per operation, it shows only once m is
    large enough to outweigh the fixed per-call costs (around 2^20).
    """
    rng = as_generator(seed)
    rows: List[OverheadRow] = []
    m_max = 1 << max(m_exponents)
    params = SchemeParameters(s=2, load_factor=3.0, m_o=m_max, hash_seed=9)

    # Vehicle: two hashes per query, independent of m.
    lb = LogicalBitArray(7, 11, params.salts, m_max, seed=9)
    for exponent in m_exponents:
        m = 1 << exponent
        per_op = _time_per_op(lambda m=m: lb.bit_for_rsu(3, m), repeats=2_000)
        rows.append(
            OverheadRow(role="vehicle (2 hashes)", scale=f"m=2^{exponent}", per_op_us=per_op)
        )

    # RSU: one counter increment + one bit set.
    state = RsuState(rsu_id=1, array_size=m_max)
    per_op = _time_per_op(lambda: state.record(12345), repeats=20_000)
    rows.append(OverheadRow(role="rsu (1 bit set)", scale=f"m=2^{max(m_exponents)}", per_op_us=per_op))

    # Bulk encoder throughput for context.
    n = 200_000
    ids = np.arange(n, dtype=np.uint64)
    keys = ids * np.uint64(2654435761) + np.uint64(7)
    start = time.perf_counter()
    encode_passes(ids, keys, 1, m_max, params)
    elapsed = time.perf_counter() - start
    rows.append(
        OverheadRow(
            role="bulk encode (per vehicle)",
            scale=f"{n:,} vehicles",
            per_op_us=elapsed / n * 1e6,
        )
    )

    # Server: unfold + OR + count + MLE per pair, across m_y.
    for exponent in m_exponents:
        m_y = 1 << exponent
        m_x = max(m_y >> 4, 4)
        rx = RsuReport(1, m_x // 3, BitArray.from_bits(rng.random(m_x) < 0.3))
        ry = RsuReport(2, m_y // 3, BitArray.from_bits(rng.random(m_y) < 0.3))
        per_op = _time_per_op(
            lambda rx=rx, ry=ry: estimate_intersection(rx, ry, 2), repeats=5
        )
        rows.append(
            OverheadRow(role="server decode", scale=f"m_y=2^{exponent}", per_op_us=per_op)
        )

    # Server matrix decode: per-pair cost of the batched all-pairs path
    # vs the scalar per-pair loop, at the largest m.
    decoder = CentralDecoder(2, policy="clamp")
    k = 12
    for rsu_id in range(1, k + 1):
        m = m_max >> (rsu_id % 3)
        decoder.submit(
            RsuReport(rsu_id, m // 3, BitArray.from_bits(rng.random(m) < 0.3))
        )
    pairs = k * (k - 1) // 2
    for role, fn in (
        ("matrix decode scalar (per pair)", decoder.all_pairs),
        ("matrix decode batched (per pair)", decoder.estimate_matrix),
    ):
        per_call = _time_per_op(fn, repeats=3)
        rows.append(
            OverheadRow(
                role=role,
                scale=f"{k} RSUs, m=2^{max(m_exponents)}",
                per_op_us=per_call / pairs,
            )
        )
    return OverheadResult(rows=rows)
