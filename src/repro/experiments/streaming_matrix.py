"""Streaming OD-matrix decode over a Sioux Falls day.

``repro matrix --live`` drives the :mod:`repro.streaming` tier through
the trajectory path: the deterministic day of vehicle responses is
replayed batch by batch into a :class:`~repro.streaming.StreamingDecoder`
— tagged with its sub-period window and a deterministic vehicle class —
and the resulting *live* OD matrix is verified bit-for-bit against a
fresh batch decode of the very same responses (the exactness guarantee
of ``docs/streaming.md``).  ``--window W`` additionally reports the
time-sliced matrix of one sub-period window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.reports import RsuReport
from repro.service.runtime import DeploymentSpec
from repro.streaming import StreamingDecoder
from repro.utils.arrays import sorted_unique
from repro.utils.rng import SeedLike
from repro.utils.tables import AsciiTable

__all__ = ["StreamingMatrixResult", "run_streaming_matrix", "VEHICLE_CLASSES"]

#: The deterministic vehicle-class mix the replay tags responses with.
VEHICLE_CLASSES: Tuple[str, ...] = ("car", "truck", "bus")


@dataclass(frozen=True)
class StreamingMatrixResult:
    """What the streaming replay decoded and whether it was exact."""

    rsus: int
    responses: int
    windows: int
    pairs: int
    #: Live matrix == batch decode of the same responses, exactly.
    bit_identical: bool
    #: matrix_at over windows 0..W-2 == a fresh batch decode of just
    #: those windows' responses, exactly.
    prefix_identical: bool
    #: Responses per vehicle class (the class slices' point volumes).
    class_counts: Dict[str, int]
    #: Decoded pair count per sub-period window.
    window_pairs: Dict[int, int]
    #: The requested ``--window`` slice, if any.
    window: Optional[int] = None
    #: (x, y) -> n̂_c rows of the requested window slice (sorted by
    #: estimate, descending; for rendering and --json).
    window_top: List[Tuple[int, int, float]] = field(default_factory=list)

    def render(self) -> str:
        table = AsciiTable(
            ["metric", "value"],
            title=(
                f"Streaming OD matrix ({self.rsus} RSUs, "
                f"{self.responses:,} responses, "
                f"{self.windows} windows/period)"
            ),
        )
        table.add_row(["pairs decoded live", self.pairs])
        table.add_row(
            [
                "live == batch decode",
                "bit-identical" if self.bit_identical else "MISMATCH",
            ]
        )
        table.add_row(
            [
                "window prefix == batch prefix",
                "bit-identical" if self.prefix_identical else "MISMATCH",
            ]
        )
        for vclass in sorted(self.class_counts):
            table.add_row(
                [f"class '{vclass}' responses", f"{self.class_counts[vclass]:,}"]
            )
        for w in sorted(self.window_pairs):
            table.add_row([f"window {w} pairs", self.window_pairs[w]])
        lines = [table.render()]
        if self.window is not None:
            lines.append(
                f"top pairs of window {self.window} "
                f"(of {self.windows}):"
            )
            for x, y, value in self.window_top:
                lines.append(f"  ({x:>2}, {y:>2})  n_c_hat = {value:,.1f}")
        return "\n".join(lines)


def _vehicle_classes(
    count: int, rsu_id: int, seed: int
) -> np.ndarray:
    """Deterministic per-response class labels for one RSU's day."""
    rng = np.random.default_rng(int(seed) * 7919 + int(rsu_id))
    return rng.choice(
        np.array(VEHICLE_CLASSES), size=int(count), p=(0.7, 0.2, 0.1)
    )


def run_streaming_matrix(
    *,
    total_trips: int = 60_000,
    windows: int = 4,
    window: Optional[int] = None,
    seed: SeedLike = 13,
    top: int = 8,
    scenario: str = "sioux-falls",
) -> StreamingMatrixResult:
    """Replay the deterministic day through the streaming decoder.

    Each RSU's responses are split into *windows* contiguous
    sub-period slices (matching the loadgen's windowed replay) and
    ingested batch by batch with a deterministic vehicle-class tag.
    The live matrix is then checked for exact equality against a batch
    decode of the same day, and the full window prefix against the
    live answer.
    """
    windows = max(int(windows), 1)
    if window is not None and not (0 <= int(window) < windows):
        raise ValueError(
            f"--window must lie in [0, {windows}); got {window}"
        )
    spec = DeploymentSpec(
        total_trips=int(total_trips), seed=int(seed), scenario=str(scenario)
    )
    decoder = StreamingDecoder(s=spec.s, policy=spec.policy, windows=windows)
    responses = 0
    class_counts: Dict[str, int] = {vclass: 0 for vclass in VEHICLE_CLASSES}
    prefix_reports: List[RsuReport] = []
    for rsu_id in spec.scheme.rsu_ids:
        indices = spec.response_indices(rsu_id)
        size = spec.scheme.array_size(rsu_id)
        if indices.size == 0:
            # Still register the RSU so the live matrix covers it.
            decoder.ingest(
                rsu_id, np.zeros(0, dtype=np.int64), size=size
            )
            prefix_reports.append(
                RsuReport(
                    rsu_id=rsu_id,
                    counter=0,
                    bits=BitArray(size),
                    period=0,
                )
            )
            continue
        classes = _vehicle_classes(indices.size, rsu_id, int(seed))
        parts = np.array_split(indices, windows)
        prefix_idx = (
            np.concatenate(parts[:-1]) if windows > 1 else indices
        )
        prefix_bits = BitArray(size)
        if prefix_idx.size:
            prefix_bits.set_bits(sorted_unique(prefix_idx))
        prefix_reports.append(
            RsuReport(
                rsu_id=rsu_id,
                counter=int(prefix_idx.size),
                bits=prefix_bits,
                period=0,
            )
        )
        for w, part in enumerate(parts):
            part_classes = classes[: part.size]
            classes = classes[part.size :]
            for vclass in VEHICLE_CLASSES:
                chunk = part[part_classes == vclass]
                if chunk.size == 0:
                    continue
                decoder.ingest(
                    rsu_id,
                    chunk,
                    window=w,
                    size=size,
                    vclass=vclass,
                )
                responses += int(chunk.size)
                class_counts[vclass] += int(chunk.size)
    live = decoder.live_matrix()
    reference = spec.reference_decoder().estimate_matrix(0)
    # The window prefix 0..W-2 must batch-decode identically to a fresh
    # decoder fed exactly those windows' responses (with W == 1 this is
    # the trivial full-period check, same as bit_identical).
    prefix = decoder.matrix_at(period=0, at=max(windows - 2, 0))
    prefix_decoder = CentralDecoder(spec.s, policy=spec.policy)
    prefix_decoder.submit_many(prefix_reports)
    prefix_reference = prefix_decoder.estimate_matrix(0)
    window_pairs = {
        w: len(decoder.window_matrix(period=0, window=w))
        for w in range(windows)
    }
    window_top: List[Tuple[int, int, float]] = []
    if window is not None:
        sliced = decoder.window_matrix(period=0, window=int(window))
        # Largest estimates first; ties keep key order.
        ranked = np.argsort(-sliced.value, kind="stable")[: int(top)]
        x, y = sliced.pair_ids()
        window_top = list(
            zip(x[ranked].tolist(), y[ranked].tolist(), sliced.value[ranked].tolist())
        )
    return StreamingMatrixResult(
        rsus=len(spec.scheme.rsu_ids),
        responses=responses,
        windows=windows,
        pairs=len(live),
        bit_identical=(live == reference),
        prefix_identical=(prefix == prefix_reference),
        class_counts=class_counts,
        window_pairs=window_pairs,
        window=None if window is None else int(window),
        window_top=window_top,
    )
