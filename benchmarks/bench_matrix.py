"""Sioux Falls full-matrix bench: all 276 pairs, both schemes — plus
the all-pairs *decode* bench comparing the scalar per-pair loop
(``all_pairs``) against the vectorized ``estimate_matrix``.

Run: ``pytest benchmarks/bench_matrix.py --benchmark-only``
Artifacts: ``results/sioux_falls_matrix.txt``,
``results/matrix_decode.txt`` and their ``results/BENCH_*.json`` twins

``test_all_pairs_decode_speedup`` times itself with ``perf_counter``
(no pytest-benchmark fixture), so CI can run it as a plain test:
``REPRO_BENCH_SMOKE=1 pytest benchmarks/bench_matrix.py -k decode``
shrinks the workload; either way it asserts ``estimate_matrix`` is
not slower than ``all_pairs``.
"""

import os
import time

import numpy as np

from conftest import host_metadata, publish
from repro.core.bitarray import BitArray
from repro.core.decoder import CentralDecoder
from repro.core.reports import RsuReport
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
    16x range up to ``2**max_exponent``)."""
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
    """All-pairs decode: the per-pair loop vs ``estimate_matrix``.

    Asserts ``estimate_matrix`` is no slower than ``all_pairs``, that
    every PairEstimate is bit-identical across the two paths, and that
    the reports' words take at most 1/7 of one byte per bit.
    """
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    k = 16 if smoke else 48
    max_exponent = 16 if smoke else 20
    repeats = 2 if smoke else 3
    decoder = _decode_fleet(k=k, max_exponent=max_exponent)
    decoder.all_pairs()  # warm the unfold memos before timing
    t_scalar, ref = _best_of(decoder.all_pairs, repeats)
    t_matrix, out = _best_of(decoder.estimate_matrix, repeats)
    assert out == ref, "estimate_matrix diverged from all_pairs"

    pairs = k * (k - 1) // 2
    speedup = t_scalar / t_matrix
    reports = [decoder.report_for(r) for r in decoder.rsu_ids()]
    resident = sum(report.bits.storage_nbytes for report in reports)
    byte_per_bit = sum(report.array_size for report in reports)
    lines = [
        f"All-pairs decode: {k} RSUs, {pairs} pairs, "
        f"m in [2^{max_exponent - 4}, 2^{max_exponent}], fill 0.35"
        + (" [SMOKE]" if smoke else ""),
        "",
        f"{'path':<38}{'best of ' + str(repeats):>14}",
        f"{'all_pairs (per-pair loop)':<38}{t_scalar * 1e3:>11.1f} ms",
        f"{'estimate_matrix (batched)':<38}{t_matrix * 1e3:>11.1f} ms",
        "",
        f"speedup (all_pairs -> estimate_matrix): {speedup:.1f}x",
        f"resident report storage: {resident:,} B in words, "
        f"{byte_per_bit:,} B at one byte per bit "
        f"({byte_per_bit / resident:.1f}x denser)",
        f"estimates bit-identical across both paths: yes "
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
                "all_pairs": t_scalar,
                "estimate_matrix": t_matrix,
            },
            "speedup": speedup,
            "resident_bytes": {
                "words": resident,
                "one_byte_per_bit": byte_per_bit,
            },
        },
    )
    assert byte_per_bit >= 7 * resident
    assert t_matrix <= t_scalar, f"estimate_matrix only {speedup:.2f}x"
