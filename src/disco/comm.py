"""Simulated collective communication over m lockstep workers, with metering.

Three collectives are the only way data crosses nodes: ``broadcast`` (the
master's payload to every node), ``reduce_all`` (the elementwise sum of
per-node payloads, held by every node) and ``reduce_concat`` (per-node blocks
concatenated on the master). Each is one logical round of 8 bytes per
element, whatever the node count: the cost model counts invocations and
payload volume, not transport hops. A collective's result is returned once,
as the one read-only array every node holds, not as per-node replicas.
Counters never reset on their own; ``reset_stats``/``snapshot_stats``
bracket the region being measured. ``map_nodes`` runs in node order and
reductions sum in ascending node order, so a run is deterministic.
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
        """Send the master's ``payload``, a vector, to every node; returns the
        read-only copy they all hold."""
        received = np.array(payload, dtype=np.float64)
        if received.ndim != 1:
            raise ValueError(f"broadcast takes a vector: the payload has shape {received.shape}")
        received.flags.writeable = False
        self._stats.broadcast_rounds += 1
        self._stats.broadcast_bytes += BYTES_PER_ELEMENT * received.size
        return received

    def _node_vectors(self, op: str, parts, what: str):
        """Yield ``parts`` as float64 vectors in node order, each one as the
        caller asks for it; raises on a part that is not a vector, and, once
        ``parts`` runs out, unless there was exactly one per node."""
        count = 0
        for i, p in enumerate(parts):
            count = i + 1
            if i < self.m:
                a = np.asarray(p, dtype=np.float64)
                if a.ndim != 1:
                    raise ValueError(f"{op} takes vectors: node {i} has shape {a.shape}")
                yield a
        if count != self.m:
            raise ValueError(f"expected {self.m} {what}, got {count}")

    def reduce_all(self, contributions) -> np.ndarray:
        """Sum per-node vectors in ascending node order, (c0 + c1) + c2 ...;
        returns the read-only sum every node holds. ``contributions`` may be
        a generator: each is added as it arrives, before the next is asked
        for, so each must be a fresh array, not a buffer it refills."""
        vectors = self._node_vectors("reduce_all", contributions, "contributions")
        first = next(vectors)
        total = None
        for i, a in enumerate(vectors, 1):
            if a.shape[0] != first.shape[0]:
                raise ValueError(
                    f"reduce_all length mismatch: node 0 has {first.shape[0]}, node {i} has {a.shape[0]}"
                )
            if total is None:
                total = first + a
            else:
                total += a
        if total is None:  # one node: the sum is a copy of its contribution
            total = first.copy()
        self._stats.reduceall_rounds += 1
        self._stats.reduceall_bytes += BYTES_PER_ELEMENT * total.size
        total.flags.writeable = False
        return total

    def reduce_concat(self, blocks: list) -> np.ndarray:
        """Concatenate per-node blocks, in node order, on the master."""
        total = np.concatenate(list(self._node_vectors("reduce_concat", blocks, "blocks")))
        self._stats.reduce_rounds += 1
        self._stats.reduce_bytes += BYTES_PER_ELEMENT * total.size
        return total

    # -- metering -----------------------------------------------------------

    def snapshot_stats(self) -> CommStats:
        return replace(self._stats)

    def reset_stats(self):
        self._stats = CommStats()
