"""The validated array ingest the RSU used before zero-copy admission.

``RoadsideUnit`` once carried a second array ingest method beside
``handle_wire_batch``: it normalized both arrays to native ``uint64``
/ ``int64``, filtered them, and let ``RsuState.record_many``
re-validate the indices.  ``handle_wire_batch`` is now the only array
path; this copy of the old body stays, unoptimized, as the
differential oracle it must match — same rejects, same bits, same
counter.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError
from repro.vcps.ids import locally_administered_mask


def index_batch_ingest(rsu, macs, indices) -> int:
    """Admit ``(macs, indices)`` into *rsu* through the validated
    path; returns the number of responses recorded."""
    macs = np.asarray(macs, dtype=np.uint64)
    indices = np.asarray(indices, dtype=np.int64)
    if macs.shape != indices.shape:
        raise ProtocolError(
            f"mac batch shape {macs.shape} != index batch shape "
            f"{indices.shape}"
        )
    m = rsu._state.array_size
    valid = (indices >= 0) & (indices < m) & locally_administered_mask(macs)
    rejected = int(indices.size - int(valid.sum()))
    if rejected:
        rsu._rejected += rejected
        indices = indices[valid]
    rsu._state.record_many(indices)
    if rsu._window_state is not None:
        rsu._window_state.record_many(indices)
    return int(indices.size)
