"""Shared helpers: small random problem instances with frozen seeds, and
ways to watch a solve from outside through the names the solver looks up at
call time."""

import dataclasses

import numpy as np
import pytest

from disco import Dataset, LossKind, Objective, SparseBlock, solver
from disco.solver import BlockPreconditioner, damped_update


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
    preconditioner, each as one full-length vector). The sample layout passes
    r whole to ``BlockPreconditioner.apply``; the feature layout passes it one
    node's block at a time, in node order, to ``apply_block``. A PCG solve of
    T iterations preconditions r_0 = grad, r_1, ..., r_T."""
    residuals = []
    apply, apply_block = BlockPreconditioner.apply, BlockPreconditioner.apply_block

    def whole(precond, r):
        residuals.append([np.array(r)])
        return apply(precond, r)

    def block(precond, i, r):
        if i == 0:
            residuals.append([])
        residuals[-1].append(np.array(r))
        return apply_block(precond, i, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BlockPreconditioner, "apply", whole)
        mp.setattr(BlockPreconditioner, "apply_block", block)
        result = call()
    return result, [np.concatenate(blocks) for blocks in residuals]
