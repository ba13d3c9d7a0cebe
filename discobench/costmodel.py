"""Collective counters the README cost model predicts for one ``disco_outer`` solve.

Every collective is one round plus 8 bytes per element. Per inner iteration the
sample layout broadcasts and reduce-alls a length-d vector; the feature layout
does one length-n reduce_all and two scalar reduce_alls (the first curvature
round carries 2 scalars, every later one 1; the beta round carries 3). Each
gradient evaluation adds a length-d broadcast + reduce_all (samples) or one
length-n reduce_all (features), and each feature-layout Newton step that ran
at least one inner iteration ends with a length-d concatenating reduce.
"""

from __future__ import annotations

from disco import CommStats, PartitionMode

BYTES = 8


def inner_iters_per_step(result) -> list:
    """Inner iterations of each Newton step, read off the cumulative trace
    (one row per gradient evaluation, each before that iteration's step)."""
    cum = [row.inner_iters_cum for row in result.trace]
    return [b - a for a, b in zip(cum, cum[1:])]


def expected_stats(layout: PartitionMode, d: int, n: int, grad_evals: int, inner_per_step: list) -> CommStats:
    T, GE = sum(inner_per_step), grad_evals
    if layout is PartitionMode.SAMPLES:
        return CommStats(
            broadcast_rounds=T + GE, reduceall_rounds=T + GE,
            broadcast_bytes=BYTES * d * (T + GE), reduceall_bytes=BYTES * d * (T + GE),
        )
    steps = [t for t in inner_per_step if t > 0]
    scalars = sum(2 + (t - 1) + 3 * t for t in steps)
    return CommStats(
        reduce_rounds=len(steps), reduceall_rounds=3 * T + GE,
        reduce_bytes=BYTES * d * len(steps), reduceall_bytes=BYTES * (n * (T + GE) + scalars),
    )
