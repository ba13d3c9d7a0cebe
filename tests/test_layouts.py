"""Properties of the two data layouts over random small instances, and the
module-global lookups that let an outside tracer see the solver's layers."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disco import (
    Cluster,
    CommStats,
    Dataset,
    LossKind,
    Objective,
    PartitionMode,
    SolverConfig,
    SparseBlock,
    disco_outer,
    full_gradient,
    objective_value,
    partition_by_features,
    partition_by_samples,
    pcg_features,
    pcg_samples,
)
from disco import solver
from disco.solver import BlockPreconditioner

from conftest import make_dense_instance

BYTES = 8


def random_instance(data, d, n, loss):
    """Sparse d x n data (possibly with all-zero rows and columns) and labels
    fitting the loss: a planted linear model, or its signs for logistic."""
    density = data.draw(st.sampled_from([0.2, 0.5, 1.0]), label="density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    Xd = rng.standard_normal((d, n)) * (rng.random((d, n)) < density)
    y = Xd.T @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    if loss is LossKind.LOGISTIC:
        y = np.where(y > 0, 1.0, -1.0)
    return Dataset(X=SparseBlock.from_dense(Xd), y=y, d=d, n=n, source="hypothesis")


def draw_m(data, limit):
    """A node count in [1, limit] that often sits at either end."""
    return data.draw(st.one_of(st.just(1), st.just(limit), st.integers(1, limit)), label="m")


def cost_model(mode, d, n, result):
    """The README's collective counts for one ``disco_outer`` run."""
    cum = [row.inner_iters_cum for row in result.trace]
    per_step = [b - a for a, b in zip(cum, cum[1:])]
    T, GE = sum(per_step), result.grad_evals
    if mode is PartitionMode.SAMPLES:
        return CommStats(
            broadcast_rounds=T + GE, reduceall_rounds=T + GE,
            broadcast_bytes=BYTES * d * (T + GE), reduceall_bytes=BYTES * d * (T + GE),
        )
    steps = [t for t in per_step if t > 0]
    scalars = sum(2 + (t - 1) + 3 * t for t in steps)
    return CommStats(
        reduce_rounds=len(steps), reduceall_rounds=3 * T + GE,
        reduce_bytes=BYTES * d * len(steps), reduceall_bytes=BYTES * (n * (T + GE) + scalars),
    )


LOSSES = st.sampled_from([LossKind.SQUARE, LossKind.LOGISTIC])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(1, 12), n=st.integers(1, 16), loss=LOSSES)
def test_pcg_layouts_agree(data, d, n, loss):
    """Same Newton direction from both layouts: bitwise at m=1, to 1e-8 otherwise."""
    ds = random_instance(data, d, n, loss)
    m = draw_m(data, min(d, n))
    lam = data.draw(st.floats(0.1, 1.0), label="lam")
    tau = data.draw(st.integers(1, n // m), label="tau")  # within the master's sample shard
    cfg = SolverConfig(lam=lam, mu=lam, tau=tau, loss=loss)
    obj = Objective(loss=loss, lam=lam, n=n, d=d)
    w = 0.5 * np.random.default_rng(d * 100 + n).standard_normal(d)
    eps_k = 1e-10 * max(np.linalg.norm(full_gradient(obj, ds.X, ds.y, w)), 1e-300)

    step_s = pcg_samples(Cluster(m), partition_by_samples(ds.X, ds.y, m), obj, w, eps_k, cfg)
    fpart = partition_by_features(ds.X, ds.y, m)
    w_blocks = [w[o:o + s] for o, s in zip(fpart.offsets, fpart.sizes)]
    step_f = pcg_features(Cluster(m), fpart, obj, w_blocks, eps_k, cfg)
    if m == 1:
        assert np.array_equal(step_s.direction, step_f.direction)
        assert (step_s.delta, step_s.inner_iters) == (step_f.delta, step_f.inner_iters)
    else:
        scale = max(np.linalg.norm(step_s.direction), 1e-300)
        assert np.linalg.norm(step_s.direction - step_f.direction) <= 1e-8 * scale


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 12),
    n=st.integers(1, 16),
    loss=LOSSES,
    mode=st.sampled_from(list(PartitionMode)),
)
def test_comm_stats_match_cost_model(data, d, n, loss, mode):
    """Rounds and bytes equal the README formulas exactly, for every node
    count up to one shard per sample (samples) or per feature (features)."""
    ds = random_instance(data, d, n, loss)
    m = draw_m(data, n if mode is PartitionMode.SAMPLES else d)
    cfg = SolverConfig(lam=0.2, mu=0.2, loss=loss, max_outer=4, partition_mode=mode)
    cluster = Cluster(m)
    result = disco_outer(cluster, ds, cfg)
    assert cluster.snapshot_stats() == cost_model(mode, d, n, result)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 12),
    n=st.integers(1, 16),
    loss=LOSSES,
    mode=st.sampled_from(list(PartitionMode)),
)
def test_damped_newton_converges_monotonically(data, d, n, loss, mode):
    """Under the default ``max_outer`` every run converges, and the damped step
    never raises the objective by more than roundoff."""
    ds = random_instance(data, d, n, loss)
    m = draw_m(data, n if mode is PartitionMode.SAMPLES else d)
    lam = data.draw(st.floats(0.1, 1.0), label="lam")
    cfg = SolverConfig(lam=lam, mu=lam, loss=loss, partition_mode=mode)
    result = disco_outer(Cluster(m), ds, cfg, record_iterates=True)

    assert result.converged
    obj = Objective(loss=loss, lam=lam, n=n, d=d)
    values = [objective_value(obj, ds.X, ds.y, w) for w in [np.zeros(d)] + result.iterates]
    for f_prev, f_next in zip(values, values[1:]):
        assert f_next <= f_prev * (1 + 1e-12)


# The names discobench/tracer.py replaces to time the solver's layers.
SOLVER_NAMES = (
    "pcg_samples", "pcg_features", "build_preconditioner", "build_preconditioner_features",
    "partition_by_samples", "partition_by_features", "spmv", "spmv_transpose",
    "grad_coeffs", "hess_coeffs",
)
METHODS = (
    (BlockPreconditioner, "apply"), (BlockPreconditioner, "apply_block"),
    (Cluster, "broadcast"), (Cluster, "reduce_all"), (Cluster, "reduce_concat"), (Cluster, "map_nodes"),
)


@pytest.mark.parametrize("mode,pcg,build,partition", [
    (PartitionMode.SAMPLES, "pcg_samples", "build_preconditioner", "partition_by_samples"),
    (PartitionMode.FEATURES, "pcg_features", "build_preconditioner_features", "partition_by_features"),
])
def test_tracer_names_are_looked_up_at_call_time(monkeypatch, mode, pcg, build, partition):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in SOLVER_NAMES:
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    for owner, attr in METHODS:
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    ds, _ = make_dense_instance(d=8, n=20, seed=160, loss=LossKind.LOGISTIC, labels="sign")
    cfg = SolverConfig(lam=0.1, mu=0.1, tau=5, loss=LossKind.LOGISTIC, partition_mode=mode)
    result = solver.disco_outer(Cluster(2), ds, cfg)

    assert result.updates > 0
    # the logistic preconditioner is rebuilt before every Newton step
    assert calls[pcg] == calls[build] == result.updates
    assert calls[partition] == 1
    apply = "apply" if mode is PartitionMode.SAMPLES else "apply_block"
    for name in ("spmv", "spmv_transpose", "grad_coeffs", "hess_coeffs", apply, "reduce_all", "map_nodes"):
        assert calls[name] > 0, name
