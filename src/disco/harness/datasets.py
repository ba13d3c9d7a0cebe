"""Dataset container, LIBSVM text IO and a synthetic problem generator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

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


# At most this many bounded draws, and an eighth of the columns, per chunk of
# `_sample_rows`: its arrays then stay below the generator's later peak, the
# CSR conversion of all n * k entries.
_CHUNK_DRAWS = 1 << 13


class _Halves:
    """The 32-bit draws of a PCG64 generator in the order its
    ``next_uint32`` hands them out: a buffered half first, then each 64-bit
    output's low half before its high half."""

    def __init__(self, bit_generator):
        self.bg = bit_generator
        state = bit_generator.state
        self.left = np.array([state["uinteger"]] * state["has_uint32"], np.uint64)
        self.high = state["uinteger"]

    def take(self, count: int) -> np.ndarray:
        raw = self.bg.random_raw(max(0, count - len(self.left) + 1) // 2)
        if raw.size:
            self.high = int(raw[-1] >> 32)
        halves = np.concatenate([self.left, raw.astype("<u8", copy=False).view("<u4")])
        self.left = halves[count:]
        return halves[:count]

    def close(self):
        """Leave an unused half in the generator's buffer, as ``next_uint32`` does."""
        state = self.bg.state
        state["has_uint32"], state["uinteger"] = len(self.left), self.high
        self.bg.state = state


def _bounded(halves: _Halves, span: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """A draw in [0, r] for each bound r in turn, given ``span`` = r + 1 and
    ``floor`` = (2**32 - r - 1) mod (r + 1), as numpy's ``random_bounded_uint64``
    makes it for 0 < r < 2**32 (Lemire's method): the high half of
    u * (r + 1) for the next 32-bit draw u, drawn again while the low half is
    below ``floor``."""
    out = np.empty(len(span), np.uint64)
    u, done = halves.take(len(span)), 0
    while True:
        m = u * span[done:]
        bad = np.flatnonzero((m & 0xFFFFFFFF) < floor[done:])
        stop = bad[0] if bad.size else len(m)
        out[done:done + stop] = m[:stop] >> 32
        done += stop
        if done == len(out):
            return out
        u = np.concatenate([u[stop + 1:], halves.take(1)])


def _roots(ptr: np.ndarray) -> np.ndarray:
    """Where each index ends when it follows ``ptr`` (acyclic but for
    self-loops) until ``ptr`` maps it to itself."""
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            return ptr
        ptr = nxt


def _sample_rows(rng: np.random.Generator, d: int, k: int, n: int) -> np.ndarray:
    """The rows of n columns, each row sorted, as n calls of
    ``rng.choice(d, k, replace=False)`` draw them, leaving ``rng`` where those
    calls leave it.

    numpy draws by Floyd's algorithm unless d > 10000 and k > d // 50: step
    j = d-k ... d-1 takes a draw v in [0, j], or j when v is already taken,
    and the k picks are then shuffled (bounds k-1 ... 1). Otherwise position
    p = d-1 ... max(d-k, 1) of arange(d) swaps with a draw in [0, p], and the
    last k positions are kept. Either order is sorted away, but every draw
    advances the stream."""
    tail = d > 10000 and k > d // 50
    steps = np.arange(d - 1, max(d - k, 1) - 1, -1) if tail else np.arange(d - k, d)
    bounds = steps if tail else np.concatenate([steps, np.arange(k - 1, 0, -1)])
    # A bound of 0 (step j = 0 when k == d) draws nothing; then every column
    # holds every row, and only the stream's position matters.
    span = bounds[bounds > 0].astype(np.uint64) + 1
    t, per = len(steps), len(span)
    chunk = max(1, min(_CHUNK_DRAWS // max(1, per), n // 8))
    span, floor = np.tile(span, chunk), np.tile((2**32 - span) % span, chunk)
    halves = _Halves(rng.bit_generator)
    rows = np.empty((n, k), np.int64)
    for lo in range(0, n, chunk):
        c = min(chunk, n - lo)
        draws = _bounded(halves, span[:c * per], floor[:c * per]).astype(np.int64).reshape(c, per)
        if k == d:
            rows[lo:lo + c] = np.arange(d)
            continue
        v, at, step = draws[:, :t].ravel(), np.arange(c * t), np.tile(steps, c)
        col = at // t * d  # one range of d draws per column
        ranked = np.sort((col + v) * t + at % t)  # by column, draw, step
        order, pairs = ranked // (d * t) * t + ranked % t, ranked // t
        same = pairs[1:] == pairs[:-1]
        prev = np.full(c * t, -1)  # the column's latest earlier step with the same draw
        prev[order[1:][same]] = order[:-1][same]
        if tail:
            # Swap p moves out what p holds: what the last swap with draw p
            # moved there (no later swap can draw p), else p itself.
            found = np.searchsorted(pairs, col + step, side="right") - 1
            held = step[_roots(np.where(pairs[found] == col + step, order[found], at))]
            # It moves in what its draw's position holds: what the latest
            # earlier swap with the same draw moved there, else the draw.
            picks = np.where(prev >= 0, held[prev], v)
        else:
            # v is taken if it was drawn before, or if it is an earlier step
            # j' that took j' itself; so each such step defers to step j'.
            ptr = np.where((v >= d - k) & (prev < 0), at - at % t + v - (d - k), at)
            picks = np.where(prev[_roots(ptr)] >= 0, step, v)
        rows[lo:lo + c] = np.sort(picks.reshape(c, t), axis=1)
    halves.close()
    return rows


def gen_synthetic(d: int, n: int, density: float, noise: float, seed: int) -> Dataset:
    """Sparse regression problem with a planted weight vector.

    Each sample (column) gets ``max(1, round(density * d))`` nonzero standard
    normal features at distinct rows; labels are X'w* plus optional gaussian
    noise. Everything is drawn from one seeded generator, so a seed fully
    determines the dataset; each column's rows are those of
    ``rng.choice(d, k, replace=False)``, drawn column after column.
    """
    for name, value in (("d", d), ("n", n), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if d > 2**32:  # numpy draws below a bound of 2**32 or more from 64-bit outputs
        raise ValueError(f"need d <= 2**32, got d={d}")
    if not 0 <= noise < math.inf:  # also catches a NaN, which would run as no noise
        raise ValueError(f"noise must be non-negative and finite, got {noise}")
    rng = np.random.default_rng(seed)
    per_col = max(1, round(density * d))
    rows = _sample_rows(rng, d, per_col, n)
    vals = rng.standard_normal(per_col * n)
    indptr = np.arange(0, per_col * n + 1, per_col)
    X = SparseBlock(sparse.csc_array((vals, rows.ravel(), indptr), shape=(d, n)))
    w_star = rng.standard_normal(d) / np.sqrt(d)
    y = X.matrix.T @ w_star
    if noise > 0:
        y = y + noise * rng.standard_normal(n)
    return Dataset(X=X, y=y, d=d, n=n, source=f"synthetic(d={d},n={n},density={density},noise={noise},seed={seed})")
