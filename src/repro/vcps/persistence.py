"""Server-state persistence.

A deployment's central server accumulates state that must survive
restarts: the volume history that drives next period's sizing, and the
per-period reports that back measurement queries.  This module
persists both to a directory — history as JSON, reports in the
compressed wire codec (:mod:`repro.core.compression`) — and restores a
fully functional :class:`~repro.vcps.server.CentralServer`.

Layout::

    <root>/
      manifest.json            # s, sizing, anomaly threshold, periods
      history.json             # rsu_id -> average volume
      reports/p<period>_r<rsu>.bin

Round-trip fidelity (bit arrays byte-identical, estimates equal) is
pinned by ``tests/test_persistence.py``.  Reports are stored as the
wire codec's ``np.packbits``-order bytes, not as the in-memory word
vectors, so the on-disk format does not depend on how
:class:`~repro.core.bitarray.BitArray` holds its bits.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.core.compression import decode_report, encode_report
from repro.core.estimator import ZeroFractionPolicy
from repro.core.sizing import StaticSizing
from repro.errors import ConfigurationError
from repro.vcps.history import VolumeHistory
from repro.vcps.server import CentralServer

__all__ = ["save_server", "load_server"]

PathLike = Union[str, Path]

_MANIFEST = "manifest.json"
_HISTORY = "history.json"
_REPORTS = "reports"
_FORMAT_VERSION = 1


def save_server(server: CentralServer, root: PathLike) -> Path:
    """Persist *server* under directory *root* (created if needed).

    Returns the root path.  Existing files for the same periods/RSUs
    are overwritten; stale files from other runs are not touched —
    point different runs at different directories.
    """
    root = Path(root)
    (root / _REPORTS).mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": _FORMAT_VERSION,
        "s": server.s,
        "load_factor": server.sizing.load_factor,
        "policy": server.decoder.policy.value,
        "anomaly_threshold": server.anomaly_threshold,
    }
    (root / _MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n")
    (root / _HISTORY).write_text(
        json.dumps(server.history.known_rsus(), indent=2) + "\n"
    )
    for (period, rsu_id), report in server.decoder._reports.items():
        path = root / _REPORTS / f"p{period}_r{rsu_id}.bin"
        path.write_bytes(encode_report(report))
    return root


def load_server(root: PathLike) -> CentralServer:
    """Restore a server persisted by :func:`save_server`."""
    root = Path(root)
    manifest_path = root / _MANIFEST
    if not manifest_path.exists():
        raise ConfigurationError(f"no server manifest under {root}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported persistence format {manifest.get('format_version')}"
        )
    history_raw = json.loads((root / _HISTORY).read_text())
    history = VolumeHistory(
        {int(rsu): float(volume) for rsu, volume in history_raw.items()}
    )
    server = CentralServer(
        int(manifest["s"]),
        StaticSizing(float(manifest["load_factor"])),
        history=history,
        policy=ZeroFractionPolicy(manifest["policy"]),
        anomaly_threshold=float(manifest["anomaly_threshold"]),
    )
    reports_dir = root / _REPORTS
    if reports_dir.exists():
        for path in sorted(reports_dir.glob("p*_r*.bin")):
            # Reports go straight to the decoder: history was already
            # folded in before saving, and re-observing would double
            # count; integrity anomalies were acted on in the original
            # run.
            server.decoder.submit(decode_report(path.read_bytes()))
    return server
