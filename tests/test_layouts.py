"""Properties of the two data layouts over random small instances, and the
module-global lookups that let an outside tracer see the solver's layers."""

import importlib.util
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disco import (
    Cluster,
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
from disco.harness import gen_synthetic
from disco.partition import balanced_sizes

from conftest import make_dense_instance, recorded_solve


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


def draw_tau_mu(data, d, n, m, mode):
    """A preconditioner sample count below the first feature block's size
    (the low-rank path) or at least that size (the dense path), whichever the
    instance allows, and a shift mu drawn apart from lam."""
    available = balanced_sizes(n, m)[0] if mode is PartitionMode.SAMPLES else n
    d_b = balanced_sizes(d, m)[0]
    low_rank = data.draw(st.booleans(), label="tau < d_b")
    if low_rank and d_b > 1:
        tau = data.draw(st.integers(1, min(d_b - 1, available)), label="tau")
    elif available >= d_b:
        tau = data.draw(st.integers(d_b, available), label="tau")
    else:
        tau = data.draw(st.integers(1, available), label="tau")
    return tau, data.draw(st.floats(0.01, 1.0), label="mu")


def load_discobench(name):
    """discobench/<name>.py, loaded read-only from its file."""
    path = Path(__file__).resolve().parents[1] / "discobench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"discobench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# discobench/costmodel.py: the README's collective counts, which every
# benchmark solve is gated on
COSTMODEL = load_discobench("costmodel")


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

    step_s = pcg_samples(Cluster(m), partition_by_samples(ds.X, ds.y, m), w, eps_k, cfg)
    fpart = partition_by_features(ds.X, ds.y, m)
    w_blocks = [w[o:o + s] for o, s in zip(fpart.offsets, fpart.sizes)]
    step_f = pcg_features(Cluster(m), fpart, w_blocks, eps_k, cfg)
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
    tau, mu = draw_tau_mu(data, d, n, m, mode)
    cfg = SolverConfig(lam=0.2, mu=mu, tau=tau, loss=loss, max_outer=4, partition_mode=mode)
    cluster = Cluster(m)
    result = disco_outer(cluster, ds, cfg)
    stats = cluster.snapshot_stats()
    assert stats == COSTMODEL.expected_stats(mode, d, n, result.grad_evals, COSTMODEL.inner_iters_per_step(result))


SWEEP_N = 1000
SWEEP_D_OVER_N = (0.125, 0.5, 1, 4, 8)


def byte_ratio_sweep():
    """(d, {mode: (result, stats)}) for both layouts of gen_synthetic(d, 1000,
    0.02, 0.1, 5) at each d/n in ``SWEEP_D_OVER_N``: m=4, lam=mu=1e-2,
    tau=125."""
    rows = []
    for d_over_n in SWEEP_D_OVER_N:
        d = round(d_over_n * SWEEP_N)
        ds = gen_synthetic(d, SWEEP_N, 0.02, 0.1, 5)
        runs = {}
        for mode in PartitionMode:
            cluster = Cluster(4)
            result = disco_outer(cluster, ds, SolverConfig(lam=1e-2, mu=1e-2, tau=125, partition_mode=mode))
            runs[mode] = (result, cluster.snapshot_stats())
        rows.append((d, runs))
    return rows


def per_inner_byte_ratio(d, n):
    """The cost model's feature/sample bytes per inner iteration: a length-n
    reduce_all plus 3 scalars against a length-d broadcast and reduce_all."""
    return (8 * n + 24) / (16 * d)


def test_byte_ratio_sweep_crosses_where_the_cost_model_puts_it():
    """The paper's claim as a curve: across d/n from 1/8 to 8 both layouts
    take the same inner iterations and meet the cost model exactly, and the
    feature layout moves more bytes than the sample layout exactly where the
    cost model's per-iteration ratio exceeds 1 (d below about n/2)."""
    above = []
    for d, runs in byte_ratio_sweep():
        for mode, (result, stats) in runs.items():
            assert result.converged
            per_step = COSTMODEL.inner_iters_per_step(result)
            assert stats == COSTMODEL.expected_stats(mode, d, SWEEP_N, result.grad_evals, per_step)
        (res_s, stats_s), (res_f, stats_f) = runs[PartitionMode.SAMPLES], runs[PartitionMode.FEATURES]
        assert COSTMODEL.inner_iters_per_step(res_s) == COSTMODEL.inner_iters_per_step(res_f)
        above.append(per_inner_byte_ratio(d, SWEEP_N) > 1)
        assert (stats_f.total_bytes > stats_s.total_bytes) == above[-1]
    assert any(above) and not all(above)  # the sweep spans the crossover


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
    never raises the objective by more than roundoff, for inner tolerances
    from near-exact to loose."""
    ds = random_instance(data, d, n, loss)
    m = draw_m(data, n if mode is PartitionMode.SAMPLES else d)
    lam = data.draw(st.floats(0.1, 1.0), label="lam")
    tau, mu = draw_tau_mu(data, d, n, m, mode)
    theta = 10.0 ** data.draw(st.floats(-8.0, math.log10(0.5)), label="log10 theta")
    cfg = SolverConfig(lam=lam, mu=mu, tau=tau, loss=loss, theta=theta, partition_mode=mode)
    result, _, iterates = recorded_solve(Cluster(m), ds, cfg)

    assert result.converged
    obj = Objective(loss=loss, lam=lam, n=n, d=d)
    values = [objective_value(obj, ds.X, ds.y, w) for w in [np.zeros(d)] + iterates]
    for f_prev, f_next in zip(values, values[1:]):
        assert f_next <= f_prev * (1 + 1e-12)


BENCH_DIR = Path(__file__).resolve().parents[1] / "discobench"


@pytest.mark.parametrize(
    "workload", [w["name"] for w in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["workloads"]]
)
def test_benchmark_gate_passes_in_process(monkeypatch, workload):
    """Each benchmark workload, at a tenth of its size, passes the gate every
    benchmark solve is held to: convergence, the gradient norm recomputed on
    the full data, the README cost model and counters repeated across the
    solves of one dataset. The benchmark's modules are imported from their
    directory without writing to it, and unloaded afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the value run.py sets on import; the old state comes back on exit
    modules = ("run", "workloads", "costmodel", "reference", "tracer")
    for name in modules:
        monkeypatch.delitem(sys.modules, name, raising=False)  # a module of that name is put back on exit
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    try:
        import run

        _, result = run.run(workload, 3, 1.0, False, scale=0.1)
    finally:
        for name in modules:
            sys.modules.pop(name, None)
    assert result["correct"] and result["failed"] == 0, result


def load_tracer():
    """discobench/tracer.py, loaded from its file: its TRACED table lists the
    names it replaces to time the solver's layers."""
    return load_discobench("tracer")


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

    for owner, attr, _ in load_tracer().TRACED:
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    ds, _ = make_dense_instance(d=8, n=20, seed=160, loss=LossKind.LOGISTIC, labels="sign")
    cfg = SolverConfig(lam=0.1, mu=0.1, tau=5, loss=LossKind.LOGISTIC, partition_mode=mode)
    result = solver.disco_outer(Cluster(2), ds, cfg)

    assert result.updates > 0
    # the logistic preconditioner is rebuilt before every Newton step
    assert calls[pcg] == calls[build] == result.updates
    assert calls["disco_outer"] == calls[partition] == 1
    apply = "apply" if mode is PartitionMode.SAMPLES else "apply_block"
    for name in ("spmv", "spmv_transpose", "grad_coeffs", "hess_coeffs", apply, "reduce_all", "map_nodes"):
        assert calls[name] > 0, name


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_layouts.py prints the README's sweep table
    print("| d/n | d | inner (both) | rounds s / f | bytes s / f | byte ratio f/s | (8n+24)/(16d) |")
    print("|---|---|---|---|---|---|---|")
    for d, runs in byte_ratio_sweep():
        (res_s, stats_s), (_, stats_f) = runs[PartitionMode.SAMPLES], runs[PartitionMode.FEATURES]
        print(f"| {d / SWEEP_N:g} | {d} | {res_s.inner_iters_total} "
              f"| {stats_s.total_rounds} / {stats_f.total_rounds} "
              f"| {stats_s.total_bytes:,} / {stats_f.total_bytes:,} "
              f"| {stats_f.total_bytes / stats_s.total_bytes:.3f} | {per_inner_byte_ratio(d, SWEEP_N):.3f} |")
