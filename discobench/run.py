#!/usr/bin/env python3
"""disco benchmark: time complete ``disco_outer`` solves to tolerance.

    python3 discobench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the solver is imported from ``src/``
there, so no install is needed. One run generates the workload's datasets
(``INSTANCES`` of them) from the seed, does one warm-up solve, then for
``--seconds`` seconds repeats a round: a solve of the next dataset in turn,
repeats of its set-up (timed, then discarded) and a call of the reference
kernel (``reference.py``). Solves run on the sequential scheduler with BLAS
on one thread. Every solve is checked: it must converge, its gradient norm
recomputed on the unpartitioned data must meet the tolerance, and its
collective counters must equal the README cost model. A failed check makes
the run exit 1.

``--trace 0`` reports the end-to-end metrics: counts are means over the
datasets, ``solve_s`` is the mean over the datasets of each one's median
solve, ``setup_s`` the median set-up. Both times are host-normalised: they
are divided by the host speed that the reference kernel, called once a round
in the same run, measures (``reference.host_speed``). That cancels most of
the drift of a shared host's speed from run to run, which is wider than any
bound worth setting; the raw medians are recorded with the environment.
``--trace 1`` alternates untraced solves with traced ones and reports
per-layer self time, calls and counts per solve (medians over the traced
solves, raw seconds), plus the tracing overhead and the raw reference-kernel
time. The next-to-last stdout line records the environment; the last line is
the result as one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# One BLAS thread per process: with as many threads as cores, a solve slows
# 2-3x whenever anything else runs on the host, while the reference kernel
# (single-vector solves and sparse matvecs, which BLAS does not thread) does
# not, so the normalisation could not cancel it. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_ROUND_S = 0.1
# Each run solves INSTANCES datasets in turn and reports the mean over them:
# on tall_features_square the inner-iteration count alone moves ~10% from one
# dataset to the next. Instance j of --seed s is generated from seed
# s + j * INSTANCE_STRIDE, so instance 0 is the seed itself and runs at seeds
# below the stride share no dataset.
INSTANCES = 3
INSTANCE_STRIDE = 1_000_003
# The solver stops at ||grad|| <= outer_tol; the norm recomputed on the full
# data in another summation order may differ only by roundoff.
GRAD_NORM_SLACK = 1e-6
SELF_TIME_TOLERANCE = 0.01


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> dict:
    """Thread count of every loaded OpenBLAS, as the library reports it."""
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return threads
    for path in paths:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                threads[Path(path).name] = getattr(lib, fn)()
                break
    return threads


def environment(workload, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": seed,
        "scheduler": "sequential",
    }


def check_solve(workload, ds, config, result, stats):
    """Return why the solve is wrong, or None when it passes every check."""
    import numpy as np
    from disco import Objective, full_gradient

    from costmodel import expected_stats, inner_iters_per_step

    if not result.converged:
        return f"did not converge in {result.updates} outer iterations"
    obj = Objective(loss=config.loss, lam=config.lam, n=ds.n, d=ds.d)
    gnorm = float(np.linalg.norm(full_gradient(obj, ds.X, ds.y, result.w)))
    if not gnorm <= config.outer_tol * (1 + GRAD_NORM_SLACK):
        return f"recomputed gradient norm {gnorm:.3e} exceeds outer_tol {config.outer_tol:.1e}"
    per_step = inner_iters_per_step(result)
    if sum(per_step) != result.inner_iters_total:
        return f"trace accounts for {sum(per_step)} inner iterations, result reports {result.inner_iters_total}"
    expected = expected_stats(workload.layout, ds.d, ds.n, result.grad_evals, per_step)
    if stats != expected:
        return f"collective counters {stats} differ from the cost model {expected}"
    return None


class Session:
    """One workload's datasets and config, its set-up times and the tally of
    checked solves."""

    def __init__(self, workload, seed: int, scale: float):
        self.workload, self.scale = workload, scale
        self.seeds = [seed + j * INSTANCE_STRIDE for j in range(INSTANCES)]
        self.config = workload.config(scale)
        self.setup_s, self.gen_s = [], []
        self.datasets = [self.set_up(j) for j in range(INSTANCES)]
        self.setup_s.clear()  # the first set-ups are cold; only the repeats count
        from reference import Reference

        self.reference = Reference()
        self.reference.run()  # warm-up
        self.ref_s = []
        self.attempted = 0
        self.failed = 0
        self.counts = {}
        self.raw = None

    def set_up(self, j: int):
        """Generate instance j's dataset and map its labels; record both times."""
        start = time.perf_counter()
        raw = self.workload.generate(self.seeds[j], self.scale)
        self.gen_s.append(time.perf_counter() - start)
        ds = self.workload.map_labels(raw)
        self.setup_s.append(time.perf_counter() - start)
        return ds

    def repeat_set_up(self, j: int):
        """Time instance j's set-up again, at least once and for SETUP_ROUND_S,
        discarding the copies.

        Spreading these repeats over the whole run, between solves, makes the
        set-up median less sensitive to the host's speed at any one moment.
        """
        start = time.perf_counter()
        self.set_up(j)
        while time.perf_counter() - start < SETUP_ROUND_S:
            self.set_up(j)

    def solve(self, j: int, tracer=None):
        """One checked solve of instance j, traced when ``tracer`` is given;
        returns its wall seconds, or None when the solve failed."""
        from disco import Cluster, solver

        self.attempted += 1
        ds = self.datasets[j]
        cluster = Cluster(self.workload.m)
        try:
            with tracer.installed() if tracer else nullcontext():
                start = time.perf_counter()
                result = solver.disco_outer(cluster, ds, self.config)
                wall = time.perf_counter() - start
            stats = cluster.snapshot_stats()
            error = check_solve(self.workload, ds, self.config, result, stats)
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        if error is None:
            counts = (stats, result.inner_iters_total, result.updates)
            first = self.counts.setdefault(j, counts)
            if counts != first:
                error = f"counters {counts} differ from the instance's first solve's {first}"
        if error is not None:
            self.fail(f"solve {self.attempted} (instance seed {self.seeds[j]}): {error}")
            return None
        return wall

    def fail(self, why: str):
        self.failed += 1
        print(f"failed: {why}", file=sys.stderr)

    def measure(self, seconds: float, step) -> bool:
        """Run rounds until the next one would end after ``seconds``; False
        when a step failed. Round r is ``step(j)`` on instance j = r mod
        INSTANCES, set-up repeats of that instance and a reference-kernel call."""
        rounds = []
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() + statistics.median(rounds) <= deadline:
            start = time.perf_counter()
            j = len(rounds) % INSTANCES
            if not step(j):
                return False
            self.repeat_set_up(j)
            self.ref_s.append(self.reference.run())
            rounds.append(time.perf_counter() - start)
        return True

    def normalised(self, seconds: float) -> float:
        """``seconds`` measured in this run, at the nominal host speed."""
        from reference import host_speed

        return seconds / host_speed(self.workload.dense_share, self.ref_s)

    def mean_count(self, count) -> float:
        """Mean over the instances of ``count((stats, inner, outer))``."""
        return statistics.fmean(count(c) for c in self.counts.values())

    def instance_counts(self) -> list:
        return [
            {"seed": self.seeds[j], "comm_rounds": st.total_rounds, "comm_bytes": st.total_bytes,
             "inner_iters": inner, "outer_iters": outer}
            for j, (st, inner, outer) in sorted(self.counts.items())
        ]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(session, seconds: float) -> dict:
    walls = [[] for _ in range(INSTANCES)]

    def step(j):
        wall = session.solve(j)
        if wall is not None:
            walls[j].append(wall)
        return wall is not None

    if not session.measure(seconds, step):
        return {}
    # Mean over the instances of each one's median solve.
    solve_wall = statistics.fmean(statistics.median(w) for w in walls if w)
    setup_wall = statistics.median(session.setup_s)
    session.raw = {
        "solve_wall_s": solve_wall,
        "setup_wall_s": setup_wall,
        "reference_dense_s": statistics.median(t[0] for t in session.ref_s),
        "reference_sparse_s": statistics.median(t[1] for t in session.ref_s),
        "solves": [len(w) for w in walls],
        "instances": session.instance_counts(),
    }
    return {
        "solve_s": metric(session.normalised(solve_wall), "s"),
        "setup_s": metric(session.normalised(setup_wall), "s"),
        "comm_rounds": metric(session.mean_count(lambda c: c[0].total_rounds), "count"),
        "comm_bytes": metric(session.mean_count(lambda c: c[0].total_bytes), "B"),
        "inner_iters": metric(session.mean_count(lambda c: c[1]), "count"),
        "outer_iters": metric(session.mean_count(lambda c: c[2]), "count"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(session, seconds: float) -> dict:
    from tracer import LAYERS, NNZ_LAYERS, Tracer

    tracer = Tracer()
    plain, traced, samples = [], [], []

    def step(j):
        wall = session.solve(j)
        if wall is None:
            return False
        plain.append(wall)
        tracer.reset()
        wall = session.solve(j, tracer)
        if wall is None:
            return False
        covered = sum(tracer.self_s.values())
        if abs(covered - wall) > SELF_TIME_TOLERANCE * wall:
            session.fail(f"layer self times sum to {covered:.4f} s, the traced solve took {wall:.4f} s")
            return False
        traced.append(wall)
        samples.append((dict(tracer.self_s), dict(tracer.calls), dict(tracer.nnz)))
        return True

    if not session.measure(seconds, step):
        return {}

    def med(i, layer):
        value = statistics.median(s[i].get(layer, 0) for s in samples)
        return value if i == 0 else int(value)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = metric(med(0, layer), "s")
        if layer != "solver.disco_outer":
            out[f"{layer}.calls"] = metric(med(1, layer), "count")
        if layer in NNZ_LAYERS:
            out[f"{layer}.nnz"] = metric(med(2, layer), "count")
    for name, field in (("broadcast", "broadcast"), ("reduce_all", "reduceall"), ("reduce_concat", "reduce")):
        for unit, suffix, attr in (("count", "rounds", f"{field}_rounds"), ("B", "bytes", f"{field}_bytes")):
            out[f"comm.{name}.{suffix}"] = metric(session.mean_count(lambda c: getattr(c[0], attr)), unit)
    out["harness.gen_synthetic.s"] = metric(statistics.median(session.gen_s), "s")
    out["bench.reference_s"] = metric(statistics.median(sum(t) for t in session.ref_s), "s")
    out["bench.trace_overhead_frac"] = metric(statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    return out


def run(workload_name: str, seed: int | None, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload; return (environment, result object)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    seed = workload.default_seed if seed is None else seed
    env = environment(workload, seed)
    session = Session(workload, seed, scale)
    metrics = {}
    if session.solve(0) is not None:  # warm-up
        metrics = (per_layer if trace else end_to_end)(session, seconds)
    env["raw_medians"] = session.raw
    result = {
        "correct": session.failed == 0 and bool(metrics),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    return env, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="dataset seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "disco" / "__init__.py").is_file():
        print(f"error: no disco sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    env, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
