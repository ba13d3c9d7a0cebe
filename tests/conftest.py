"""Shared helpers: small random problem instances with frozen seeds, ways
to watch a solve from outside through the names the solver looks up at call
time, and the benchmark's modules loaded from their files."""

import dataclasses
import importlib.util
import os
import sys
from pathlib import Path

# BLAS on one thread, as the benchmark runs it, set before numpy loads
# OpenBLAS: its dsymv and potri round differently at one thread and at two,
# which moves the iterates, and by one the inner counts, that tests pin.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from disco import Dataset, LossKind, Objective, SparseBlock, solver
from disco.partition import SamplePartition
from disco.solver import BlockPreconditioner, damped_update

BENCH_DIR = Path(__file__).resolve().parents[1] / "discobench"


def load_discobench(name):
    """discobench/<name>.py, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(f"discobench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up while it is built
    spec.loader.exec_module(module)
    return module


def make_dense_instance(d, n, seed, lam=0.1, loss=LossKind.SQUARE, labels="regression"):
    """Dense random dataset plus matching objective. ``labels`` may be
    'regression' (planted linear model) or 'sign' (+-1, for logistic)."""
    rng = np.random.default_rng(seed)
    Xd = rng.standard_normal((d, n))
    w_star = rng.standard_normal(d) / np.sqrt(d)
    if labels == "sign":
        y = np.sign(Xd.T @ w_star + 0.3 * rng.standard_normal(n))
        y[y == 0] = 1.0
    else:
        y = Xd.T @ w_star + 0.1 * rng.standard_normal(n)
    X = SparseBlock.from_dense(Xd)
    ds = Dataset(X=X, y=y, d=d, n=n, source=f"dense(seed={seed})")
    obj = Objective(loss=loss, lam=lam, n=n, d=d)
    return ds, obj


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def recorded_solve(cluster, ds, cfg):
    """``disco_outer`` with its Newton steps recorded: (result, steps,
    iterates). The steps are caught where the layouts look up
    ``pcg_samples``/``pcg_features`` at call time; the iterates are replayed
    from w = 0 through ``damped_update``, which is elementwise, so the replay
    matches the solve bit for bit."""
    steps = []

    def recording(pcg):
        def wrapper(*args, **kwargs):
            steps.append(pcg(*args, **kwargs))
            return steps[-1]
        return wrapper

    with pytest.MonkeyPatch.context() as mp:  # not a fixture, so it also runs under Hypothesis
        for name in ("pcg_samples", "pcg_features"):
            mp.setattr(solver, name, recording(getattr(solver, name)))
        result = solver.disco_outer(cluster, ds, cfg)
    w, iterates = np.zeros(ds.d), []
    for step in steps:
        w = damped_update(w, step.direction, step.delta)
        iterates.append(w)
    assert len(steps) == result.updates
    assert w.tobytes() == result.w.tobytes()
    return result, steps, iterates


def newton_step(cluster, part, w, eps_k, config, grad=None):
    """One Newton step at the full-length iterate ``w``, as ``disco_outer``
    takes it: the layout's metered gradient exchange (which also yields the
    margins), its preconditioner build and its PCG call, each looked up at
    call time. A full-length ``grad``, when given, replaces the exchanged
    gradient."""
    layout_type = solver._SampleLayout if isinstance(part, SamplePartition) else solver._FeatureLayout
    layout = layout_type(cluster, part, config)
    exchanged, margins = layout.gradient(np.asarray(w, dtype=np.float64))
    grad = exchanged if grad is None else grad
    return layout.newton_step(eps_k, grad, margins, layout.preconditioner(margins))


def inner_steps(pcg, cfg):
    """The inner iterates of ``pcg(cfg)`` (a PCG call for a given config):
    the same solve stopped at max_inner = 1, 2, ..., T, where T is the full
    solve's iteration count. PCG is deterministic, so run t returns the
    direction v_t, residual norm ||r_t|| and certificate delta_t of the full
    solve's t-th iterate."""
    total = pcg(cfg).inner_iters
    runs = [pcg(dataclasses.replace(cfg, max_inner=t)) for t in range(1, total + 1)]
    assert [run.inner_iters for run in runs] == list(range(1, total + 1))
    return runs


def preconditioned_residuals(call):
    """Run ``call()`` and return (its result, every residual r it handed the
    preconditioner). Both layouts pass r whole to
    ``BlockPreconditioner.apply``. A PCG solve of T iterations preconditions
    r_0 = grad, r_1, ..., r_T."""
    residuals = []
    apply = BlockPreconditioner.apply

    def recording(precond, r):
        residuals.append(np.array(r))
        return apply(precond, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BlockPreconditioner, "apply", recording)
        result = call()
    return result, residuals
