"""Dataset container, LIBSVM text IO and a synthetic problem generator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..linalg import SparseBlock, as_vec

__all__ = ["Dataset", "read_libsvm", "write_libsvm", "gen_synthetic"]


@dataclass(frozen=True)
class Dataset:
    """A d x n feature-by-sample matrix with one label per sample (column)."""

    X: SparseBlock
    y: np.ndarray
    d: int
    n: int
    source: str = ""

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"empty dataset: d={self.d}, n={self.n}")
        if self.X.rows != self.d or self.X.cols != self.n:
            raise ValueError(f"matrix is {self.X.rows}x{self.X.cols}, expected {self.d}x{self.n}")
        if self.y.shape[0] != self.n:
            raise ValueError(f"{self.y.shape[0]} labels for {self.n} samples")


def read_libsvm(path, dim: int | None = None) -> Dataset:
    """Parse LIBSVM text: one sample per line, ``label idx:val ...`` with
    1-based strictly increasing indices. The feature count is the largest
    index seen unless ``dim`` overrides it (it may only enlarge)."""
    if dim is not None and (isinstance(dim, bool) or not isinstance(dim, (int, np.integer))):
        raise ValueError(f"dim must be an integer, got {dim!r}")  # 3.7 would run as d=3
    path = Path(path)
    labels: list = []
    rows: list = []
    cols: list = []
    vals: list = []
    max_index = 0
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                label = float(tokens[0])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad label {tokens[0]!r}") from None
            if not math.isfinite(label):
                raise ValueError(f"{path}:{lineno}: non-finite label {tokens[0]!r}")
            labels.append(label)
            col = len(labels) - 1
            prev = 0
            for tok in tokens[1:]:
                idx_str, sep, val_str = tok.partition(":")
                if not sep:
                    raise ValueError(f"{path}:{lineno}: expected idx:val, got {tok!r}")
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad feature entry {tok!r}") from None
                if not math.isfinite(val):
                    raise ValueError(f"{path}:{lineno}: non-finite feature entry {tok!r}")
                if idx <= prev:
                    raise ValueError(
                        f"{path}:{lineno}: indices must be 1-based strictly increasing, got {idx} after {prev}"
                    )
                prev = idx
                max_index = max(max_index, idx)
                rows.append(idx - 1)
                cols.append(col)
                vals.append(val)
    n = len(labels)
    if n == 0:
        raise ValueError(f"{path}: no samples")
    d = max_index if dim is None else int(dim)
    if d < max_index:
        raise ValueError(f"{path}: dim={d} is smaller than the largest feature index {max_index}")
    if d == 0:
        raise ValueError(f"{path}: no features (use dim to set an explicit width)")
    X = SparseBlock.from_coo(rows, cols, vals, shape=(d, n))
    return Dataset(X=X, y=as_vec(labels), d=d, n=n, source=str(path))


def write_libsvm(path, dataset: Dataset):
    """Write LIBSVM text with full-precision values (round-trips exactly)."""
    csc = dataset.X.matrix.tocsc()
    with open(path, "w") as fh:
        for j in range(dataset.n):
            lo, hi = csc.indptr[j], csc.indptr[j + 1]
            parts = [repr(float(dataset.y[j]))]
            parts.extend(
                f"{int(i) + 1}:{float(v)!r}" for i, v in zip(csc.indices[lo:hi], csc.data[lo:hi])
            )
            fh.write(" ".join(parts) + "\n")


def gen_synthetic(d: int, n: int, density: float, noise: float, seed: int) -> Dataset:
    """Sparse regression problem with a planted weight vector.

    Each sample (column) gets ``max(1, round(density * d))`` nonzero standard
    normal features at distinct rows; labels are X'w* plus optional gaussian
    noise. Everything is drawn from one seeded generator, so a seed fully
    determines the dataset.
    """
    for name, value in (("d", d), ("n", n), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if not 0 <= noise < math.inf:  # also catches a NaN, which would run as no noise
        raise ValueError(f"noise must be non-negative and finite, got {noise}")
    rng = np.random.default_rng(seed)
    per_col = max(1, round(density * d))
    rows = np.empty((n, per_col), dtype=np.int64)
    for j in range(n):
        rows[j] = rng.choice(d, size=per_col, replace=False)
    rows.sort(axis=1)
    cols = np.repeat(np.arange(n), per_col)
    vals = rng.standard_normal(per_col * n)
    X = SparseBlock.from_coo(rows.ravel(), cols, vals, shape=(d, n))
    w_star = rng.standard_normal(d) / np.sqrt(d)
    y = X.matrix.T @ w_star
    if noise > 0:
        y = y + noise * rng.standard_normal(n)
    return Dataset(X=X, y=y, d=d, n=n, source=f"synthetic(d={d},n={n},density={density},noise={noise},seed={seed})")
