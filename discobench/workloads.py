"""The three benchmark workloads: a seeded synthetic dataset plus solver settings.

Every workload uses theta=1e-4, outer_tol=1e-8 and mu=lambda, the sequential
scheduler, and BLAS on one thread (see run.py). ``scale`` shrinks the
dataset for the smoke test while keeping the code path. Why each workload was
chosen is recorded next to its name in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from disco import Dataset, LossKind, PartitionMode, SolverConfig
from disco.harness import gen_synthetic

THETA = 1e-4
OUTER_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n: int
    density: float
    noise: float
    default_seed: int
    layout: PartitionMode
    loss: LossKind
    m: int
    lam: float
    tau: int
    # Weight of the reference kernel's dense part in the host speed that
    # normalises this workload's times (reference.py): the wide workloads
    # spend most of their time in dense preconditioner solves, the tall one
    # in sparse matvecs and vector arithmetic.
    dense_share: float

    def generate(self, seed: int, scale: float = 1.0) -> Dataset:
        d, n = max(self.m, round(self.d * scale)), max(self.m, round(self.n * scale))
        return gen_synthetic(d, n, self.density, self.noise, seed)

    def map_labels(self, ds: Dataset) -> Dataset:
        """Logistic workloads train on sign(y) in {-1, +1}."""
        if self.loss is not LossKind.LOGISTIC:
            return ds
        return Dataset(X=ds.X, y=np.where(ds.y > 0, 1.0, -1.0), d=ds.d, n=ds.n, source=ds.source)

    def config(self, scale: float = 1.0) -> SolverConfig:
        tau = max(1, round(self.tau * scale))
        return SolverConfig(
            lam=self.lam, mu=self.lam, tau=tau, loss=self.loss, theta=THETA,
            outer_tol=OUTER_TOL, partition_mode=self.layout,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide_features_square",
            4000, 500, 0.02, 0.1, 42, PartitionMode.FEATURES, LossKind.SQUARE, 4, 1e-2, 125, 0.75,
        ),
        Workload(
            "wide_samples_logistic",
            4000, 500, 0.02, 0.1, 42, PartitionMode.SAMPLES, LossKind.LOGISTIC, 4, 1e-2, 125, 0.75,
        ),
        Workload(
            "tall_features_square",
            500, 50000, 0.02, 0.1, 7, PartitionMode.FEATURES, LossKind.SQUARE, 8, 1e-4, 100, 0.25,
        ),
    )
}
