"""Simulated collective communication over m lockstep workers, with metering.

The cluster models a barrier-synchronized machine group: a compute phase does
every node's local work, then a collective moves data between nodes. A
compute phase takes one of two forms:

* it runs each node's work in turn: over all node ids at once
  (``map_nodes``, as the feature layout's metered dot products do), or as
  an iterable handed to ``reduce_all`` that produces node i's contribution
  when asked, which the collective adds while it is still in cache, as both
  layouts' partial products do when every node's block is no taller than
  wide (over node i's rows of a tiled copy, ``linalg.tile_rows``, when the
  solver keeps one);
* it runs one kernel over a cut (``linalg.cut_rows``), an operand whose
  every row holds one node's part of one output element, and splits the
  result into the per-node contributions, as both layouts' partial products
  do when some node's block is taller than wide, and as a Woodbury
  preconditioner applies its blocks; over a tiled copy, whose rows run node
  by node, an index fixed when the copy is built splits the result.

Whatever the form, each collective receives one contribution per node and
meters the same rounds and bytes.

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

``map_nodes`` runs node by node in node order and reductions sum in
ascending node order, so a run is deterministic.
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
        returns the read-only sum every node holds.

        ``contributions`` may be any iterable, such as a generator that
        computes node i's vector when asked. Each contribution after the
        first is added as soon as it arrives, while it is still in cache, and
        the next is asked for only then. The first is held until the second
        arrives, so each one yielded must be a fresh array, never a buffer
        that the generator refills."""
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
