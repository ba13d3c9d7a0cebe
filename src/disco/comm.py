"""Simulated collective communication over m lockstep workers, with metering.

The cluster models a barrier-synchronized machine group: a compute phase maps
a function over all node ids, then a collective moves data between nodes.
Collectives are *logical* single-round operations -- one round and
8 bytes/element regardless of the node count -- because the cost model counts
collective invocations and payload volume, not transport-level hops. Counters
never reset on their own; ``reset_stats``/``snapshot_stats`` bracket the
region being measured.

Three collectives exist and they are the only way data crosses nodes:

* ``broadcast``   -- send the master's payload to every node.
* ``reduce_all``  -- element-wise sum of per-node payloads, held by every node.
* ``reduce_concat`` -- concatenate per-node blocks onto the master.

After ``broadcast`` or ``reduce_all`` every node holds the same value, so the
simulator returns it once, as a read-only array: a copy of the payload, or
the sum itself. The counters meter the call, not the replicas.

Compute phases run node by node in node order and reductions sum in ascending
node order, so a run is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["CommStats", "Cluster", "BYTES_PER_ELEMENT"]

BYTES_PER_ELEMENT = 8  # float64 payloads


@dataclass
class CommStats:
    """Cumulative collective rounds and payload bytes, by collective type."""

    broadcast_rounds: int = 0
    reduce_rounds: int = 0
    reduceall_rounds: int = 0
    broadcast_bytes: int = 0
    reduce_bytes: int = 0
    reduceall_bytes: int = 0

    @property
    def total_rounds(self) -> int:
        return self.broadcast_rounds + self.reduce_rounds + self.reduceall_rounds

    @property
    def total_bytes(self) -> int:
        return self.broadcast_bytes + self.reduce_bytes + self.reduceall_bytes


class Cluster:
    """m simulated workers plus the collectives connecting them; node 0 is
    the master."""

    def __init__(self, m: int):
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise ValueError(f"node count must be an integer, got {m!r}")
        if m < 1:
            raise ValueError(f"node count must be >= 1, got {m}")
        self.m = m
        self._stats = CommStats()

    # -- compute phases ----------------------------------------------------

    def map_nodes(self, fn) -> list:
        """Run ``fn(node_id)`` on every node, in node order."""
        return [fn(i) for i in range(self.m)]

    # -- collectives --------------------------------------------------------

    def broadcast(self, payload: np.ndarray) -> np.ndarray:
        """Send the master's ``payload`` to every node; returns the read-only
        copy they all hold."""
        received = np.array(payload, dtype=np.float64)
        received.flags.writeable = False
        self._stats.broadcast_rounds += 1
        self._stats.broadcast_bytes += BYTES_PER_ELEMENT * received.size
        return received

    def reduce_all(self, contributions: list) -> np.ndarray:
        """Sum per-node vectors in ascending node order; returns the read-only
        sum every node holds."""
        if len(contributions) != self.m:
            raise ValueError(f"expected {self.m} contributions, got {len(contributions)}")
        arrays = [np.asarray(c, dtype=np.float64) for c in contributions]
        for i, a in enumerate(arrays):
            if a.ndim != 1:
                raise ValueError(f"reduce_all takes vectors: node {i} has shape {a.shape}")
            if a.shape[0] != arrays[0].shape[0]:
                raise ValueError(
                    f"reduce_all length mismatch: node 0 has {arrays[0].shape[0]}, node {i} has {a.shape[0]}"
                )
        total = arrays[0] + arrays[1] if self.m > 1 else arrays[0].copy()
        for a in arrays[2:]:
            total += a
        self._stats.reduceall_rounds += 1
        self._stats.reduceall_bytes += BYTES_PER_ELEMENT * total.size
        total.flags.writeable = False
        return total

    def reduce_concat(self, blocks: list) -> np.ndarray:
        """Concatenate per-node blocks, in node order, on the master."""
        if len(blocks) != self.m:
            raise ValueError(f"expected {self.m} blocks, got {len(blocks)}")
        total = np.concatenate([np.asarray(b, dtype=np.float64) for b in blocks])
        self._stats.reduce_rounds += 1
        self._stats.reduce_bytes += BYTES_PER_ELEMENT * total.size
        return total

    # -- metering -----------------------------------------------------------

    def snapshot_stats(self) -> CommStats:
        return replace(self._stats)

    def reset_stats(self):
        self._stats = CommStats()
