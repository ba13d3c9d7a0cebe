"""Simulated collective communication over m lockstep workers, with metering.

The cluster models a barrier-synchronized machine group: a compute phase maps
a function over all node ids, then a collective moves data between nodes.
Collectives are *logical* single-round operations -- one round and
8 bytes/element regardless of the node count -- because the cost model counts
collective invocations and payload volume, not transport-level hops. Counters
never reset on their own; ``reset_stats``/``snapshot_stats`` bracket the
region being measured.

Node 0 is the master. Three collectives exist and they are the only way data
crosses nodes:

* ``broadcast``   -- copy the master's payload to every node.
* ``reduce_all``  -- element-wise sum of per-node payloads, result replicated.
* ``reduce_concat`` -- concatenate per-node blocks onto the master.

Compute phases run node by node in node order and reductions sum in ascending
node order, so a run is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def copy(self) -> "CommStats":
        return CommStats(
            self.broadcast_rounds,
            self.reduce_rounds,
            self.reduceall_rounds,
            self.broadcast_bytes,
            self.reduce_bytes,
            self.reduceall_bytes,
        )


class Cluster:
    """m simulated workers plus the collectives connecting them; node 0 is
    the master."""

    master = 0

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"node count must be >= 1, got {m}")
        self.m = m
        self._stats = CommStats()

    # -- compute phases ----------------------------------------------------

    def map_nodes(self, fn) -> list:
        """Run ``fn(node_id)`` on every node, in node order."""
        return [fn(i) for i in range(self.m)]

    # -- collectives --------------------------------------------------------

    def broadcast(self, payload: np.ndarray) -> list:
        """Copy the master's ``payload`` to every node."""
        payload = np.asarray(payload, dtype=np.float64)
        self._stats.broadcast_rounds += 1
        self._stats.broadcast_bytes += BYTES_PER_ELEMENT * payload.size
        return [payload.copy() for _ in range(self.m)]

    def reduce_all(self, contributions: list) -> list:
        """Sum per-node vectors in ascending node order; replicate the sum."""
        if len(contributions) != self.m:
            raise ValueError(f"expected {self.m} contributions, got {len(contributions)}")
        arrays = [np.asarray(c, dtype=np.float64) for c in contributions]
        length = arrays[0].shape[0]
        for i, a in enumerate(arrays):
            if a.ndim != 1 or a.shape[0] != length:
                raise ValueError(
                    f"reduce_all length mismatch: node 0 has {length}, node {i} has {a.shape}"
                )
        total = arrays[0].copy()
        for a in arrays[1:]:
            total += a
        self._stats.reduceall_rounds += 1
        self._stats.reduceall_bytes += BYTES_PER_ELEMENT * length
        return [total.copy() for _ in range(self.m)]

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
        return self._stats.copy()

    def reset_stats(self):
        self._stats = CommStats()
