"""Contract tests for the repo benchmark in ``benchmarks/perf``.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_contract.py

They run the smoke-sized benchmark (all four workloads, traced) once,
about 10 s, and check that ``BENCHMARK.json`` and the runner agree:
every metric present with its unit, every wrapped span firing on the
workload it is meant for, and the traced and untraced digests equal.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PERF = ROOT / "benchmarks" / "perf"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(PERF / "run.py")]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Set-up spans every workload's deployment or matrix build fires.
BUILD = {
    "scenarios.network",
    "scenarios.trip_table",
    "routing.assign_routes",
    "volumes.materialize",
}
BATCH = BUILD | {
    "volumes.passes_at",
    "volumes.node_volumes",
    "volumes.pair_common_volumes",
    "core.encode",
    "baseline.encode",
    "core.estimate_matrix",
    "runtime.run_tasks",
}
INGEST = BUILD | {
    "wire.batch_decode",
    "wire.encode_frame",
    "rsu.handle_wire_batch",
    "streaming.observe_report",
    "server.point_to_point",
}
FEDERATION = {"federation.wal_append", "federation.or_merge"}
EXPECTED_SPANS = {
    "matrix-sioux": BATCH,
    "matrix-grid12": BATCH,
    "live-sioux": INGEST | {"server.receive_report"},
    "live-fed-grid8": INGEST | FEDERATION,
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    start = time.perf_counter()
    done = subprocess.run(
        RUN + ["--smoke", "--trace", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())["runs"][0], elapsed


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCH["paths"] == ["benchmarks/perf"]
    assert 2 <= len(BENCH["workloads"]) <= 4
    assert [w["name"] for w in BENCH["workloads"]] == list(EXPECTED_SPANS)
    assert 30 <= BENCH["run_seconds"] <= 60
    # A full measurement is 4 + 22 x workloads runs within 3420 s; each
    # run may overrun its sampling time by one interpreter start and the
    # verdict.
    runs = 4 + 22 * len(BENCH["workloads"])
    assert runs * (BENCH["run_seconds"] + 4) < 3420
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert len(BENCH["end_to_end"]) <= 16 and len(BENCH["per_layer"]) <= 128
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_smoke_finishes_in_under_30_seconds(smoke):
    _, elapsed = smoke
    assert elapsed < 30


def test_every_metric_is_reported_with_its_unit(smoke):
    record, _ = smoke
    for workload in EXPECTED_SPANS:
        report = record["workloads"][workload]
        assert report["correct"], report["problems"]
        for metric in BENCH["end_to_end"]:
            got = report["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0 and got["n"] >= 1
        for metric in BENCH["per_layer"]:
            assert report["layers"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", sorted(EXPECTED_SPANS))
def test_wrapped_spans_fire_on_their_workload(smoke, workload):
    record, _ = smoke
    calls = record["workloads"][workload]["span_calls"]
    silent = sorted(n for n in EXPECTED_SPANS[workload] if not calls.get(n))
    assert not silent


def test_live_sioux_runs_no_federation_code(smoke):
    record, _ = smoke
    report = record["workloads"]["live-sioux"]
    assert not any(report["span_calls"].get(name) for name in FEDERATION)
    for name in ("federation.wal_append_s", "federation.or_merge_s"):
        assert report["layers"][name]["value"] == 0


def test_traced_and_untraced_digests_agree(smoke):
    record, _ = smoke
    for workload, report in record["workloads"].items():
        assert report["digests"]["traced"] == report["digests"]["untraced"], workload
        assert len(report["digests"]["traced"]) == 1


def test_last_line_is_the_verdict():
    done = subprocess.run(
        RUN + ["--workload", "live-sioux", "--smoke", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    verdict = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(verdict) == {"correct", "attempted", "failed", "metrics"}
    assert verdict["correct"] is True and verdict["failed"] == 0
    assert verdict["attempted"] >= 1
    assert set(verdict["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        PERF, tmp_path / "benchmarks" / "perf", ignore=shutil.ignore_patterns("out")
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "matrix-sioux"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def _run_record(seed, digest, matrix_s, probe=0.05):
    return {
        "seed": seed,
        "workloads": {
            "live-sioux": {
                "digest": digest,
                "probe_s": probe,
                "metrics": {
                    m["name"]: {"value": matrix_s if m["name"] == "matrix_s" else 1.0}
                    for m in BENCH["end_to_end"]
                },
            }
        },
    }


def _compare(tmp_path, parent, change, *extra):
    for name, runs in (("parent", parent), ("change", change)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"runs": runs}))
    return subprocess.run(
        [sys.executable, str(PERF / "compare.py"), "parent.json", "change.json"]
        + list(extra),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_compare_saves_sets_that_it_can_read_back(tmp_path):
    runs = [_run_record(s, "d", 1.0 + 0.01 * s) for s in range(4)]
    assert _compare(tmp_path, runs, runs, "--save", "saved.json").returncode == 0
    saved = json.loads((tmp_path / "saved.json").read_text())
    stats = saved["sets"][0]["summary"]["live-sioux"]["matrix_s"]
    assert stats["n"] == 4 and stats["spread"] == pytest.approx(0.02, rel=0.3)
    done = subprocess.run(
        [sys.executable, str(PERF / "compare.py"), "saved.json#1", "saved.json#2"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0 and "same" in done.stdout


def test_compare_flags_changed_outputs(tmp_path):
    parent = [_run_record(s, "aaaa", 1.0) for s in range(4)]
    change = [_run_record(s, "aaaa" if s else "bbbb", 1.0) for s in range(4)]
    done = _compare(tmp_path, parent, change)
    assert done.returncode == 1
    assert "outputs changed on seeds [0]" in done.stdout


def test_compare_verdicts(tmp_path):
    steady = [_run_record(s, "d", 1.0 + 0.001 * s) for s in range(10)]
    slower = [_run_record(s, "d", 1.5 + 0.001 * s) for s in range(10)]
    done = _compare(tmp_path, steady, slower)
    assert done.returncode == 1 and "regression" in done.stdout
    faster = [_run_record(s, "d", 0.8 + 0.001 * s) for s in range(10)]
    done = _compare(tmp_path, steady, faster)
    assert done.returncode == 0 and " gain " in done.stdout
    noisy = [_run_record(s, "d", (0.5, 1.5)[s % 2]) for s in range(10)]
    done = _compare(tmp_path, noisy, steady)
    assert done.returncode == 0 and "unresolved" in done.stdout
