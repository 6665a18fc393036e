"""Sioux Falls full-matrix bench: all 276 pairs, both schemes — plus
the all-pairs *decode* bench comparing the scalar per-pair loop on the
legacy bool backend against the vectorized ``estimate_matrix`` on the
packed word backend.

Run: ``pytest benchmarks/bench_matrix.py --benchmark-only``
Artifacts: ``results/sioux_falls_matrix.txt``,
``results/matrix_decode.txt`` and their ``results/BENCH_*.json`` twins

``test_all_pairs_decode_speedup`` times itself with ``perf_counter``
(no pytest-benchmark fixture), so CI can run it as a plain test:
``REPRO_BENCH_SMOKE=1 pytest benchmarks/bench_matrix.py -k decode``
shrinks the workload and only asserts packed is not slower.
"""

import os
import time

import numpy as np

from conftest import host_metadata, publish
from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.reports import RsuReport
from repro.engine import use_backend
from repro.experiments.sioux_falls_matrix import run_sioux_falls_matrix


def test_regenerate_matrix(benchmark):
    """The generalized Table I: the whole network's traffic matrix at
    the paper's full 360,600 trips/day scale."""
    start = time.perf_counter()
    result = benchmark.pedantic(
        lambda: run_sioux_falls_matrix(total_trips=360_600, seed=13),
        rounds=1,
        iterations=1,
    )
    seconds = time.perf_counter() - start
    vlm = result.percentiles("vlm")
    base = result.percentiles("baseline")
    publish(
        "sioux_falls_matrix",
        result.render(),
        data={
            "host": host_metadata(),
            "total_trips": result.total_trips,
            "pairs": len(result.outcomes),
            "seconds": seconds,
            "relative_error": {"vlm": vlm, "baseline": base},
        },
    )
    assert vlm["median"] < base["median"]
    assert vlm["p90"] < base["p90"]


def _decode_fleet(*, k, max_exponent, seed=29):
    """A decoder loaded with *k* random reports (sizes spanning a
    16x range up to ``2**max_exponent``) on the current backend."""
    rng = np.random.default_rng(seed)
    decoder = CentralDecoder(2, policy="clamp", memo_capacity=4 * k)
    for rsu_id in range(1, k + 1):
        size = 1 << (max_exponent - (rsu_id % 5))
        bits = rng.random(size) < 0.35
        decoder.submit(RsuReport(rsu_id, int(bits.sum()), BitArray.from_bits(bits)))
    return decoder


def _best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_all_pairs_decode_speedup():
    """All-pairs decode: legacy per-pair loop vs packed estimate_matrix.

    Asserts the vectorized packed path is >= 3x faster (>= 1x in CI
    smoke mode) and that every PairEstimate is bit-identical across
    the four path/backend combinations.
    """
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    k = 16 if smoke else 48
    max_exponent = 16 if smoke else 20
    repeats = 2 if smoke else 3
    # Each fleet is built and decoded under its own backend's scope.
    with use_backend("legacy"):
        legacy = _decode_fleet(k=k, max_exponent=max_exponent)
        legacy.all_pairs()  # warm the unfold memos before timing
        t_scalar_legacy, ref = _best_of(legacy.all_pairs, repeats)
        t_matrix_legacy, out_ml = _best_of(legacy.estimate_matrix, repeats)
    with use_backend("packed"):
        packed = _decode_fleet(k=k, max_exponent=max_exponent)
        packed.estimate_matrix()
        t_scalar_packed, out_sp = _best_of(packed.all_pairs, repeats)
        t_matrix_packed, out_mp = _best_of(packed.estimate_matrix, repeats)

    for label, other in (
        ("legacy estimate_matrix", out_ml),
        ("packed all_pairs", out_sp),
        ("packed estimate_matrix", out_mp),
    ):
        assert other == ref, f"{label} diverged from legacy all_pairs"

    pairs = k * (k - 1) // 2
    speedup = t_scalar_legacy / t_matrix_packed
    resident_legacy = sum(
        legacy.report_for(r).bits.storage_nbytes for r in legacy.rsu_ids()
    )
    resident_packed = sum(
        packed.report_for(r).bits.storage_nbytes for r in packed.rsu_ids()
    )
    lines = [
        f"All-pairs decode: {k} RSUs, {pairs} pairs, "
        f"m in [2^{max_exponent - 4}, 2^{max_exponent}], fill 0.35"
        + (" [SMOKE]" if smoke else ""),
        "",
        f"{'path':<38}{'best of ' + str(repeats):>14}",
        f"{'legacy  all_pairs (per-pair loop)':<38}"
        f"{t_scalar_legacy * 1e3:>11.1f} ms",
        f"{'legacy  estimate_matrix (batched)':<38}"
        f"{t_matrix_legacy * 1e3:>11.1f} ms",
        f"{'packed  all_pairs (per-pair loop)':<38}"
        f"{t_scalar_packed * 1e3:>11.1f} ms",
        f"{'packed  estimate_matrix (batched)':<38}"
        f"{t_matrix_packed * 1e3:>11.1f} ms",
        "",
        f"speedup (legacy all_pairs -> packed estimate_matrix): "
        f"{speedup:.1f}x",
        f"resident report storage: legacy {resident_legacy:,} B, "
        f"packed {resident_packed:,} B "
        f"({resident_legacy / resident_packed:.1f}x denser)",
        f"estimates bit-identical across all four paths: yes "
        f"({pairs} pairs compared)",
    ]
    publish(
        "matrix_decode",
        "\n".join(lines),
        data={
            "host": host_metadata(),
            "smoke": smoke,
            "rsus": k,
            "pairs": pairs,
            "max_exponent": max_exponent,
            "best_of": repeats,
            "seconds": {
                "legacy_all_pairs": t_scalar_legacy,
                "legacy_estimate_matrix": t_matrix_legacy,
                "packed_all_pairs": t_scalar_packed,
                "packed_estimate_matrix": t_matrix_packed,
            },
            "speedup": speedup,
            "resident_bytes": {
                "legacy": resident_legacy,
                "packed": resident_packed,
            },
        },
    )
    assert resident_legacy >= 7 * resident_packed
    if smoke:
        assert t_matrix_packed <= t_scalar_legacy
    else:
        assert speedup >= 3.0, f"only {speedup:.2f}x"
