"""Experiment driver: load or generate data, run the solver, dump a trace."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from ..comm import Cluster
from ..losses import LossKind
from ..solver import PartitionMode, SolverConfig, disco_outer
from .datasets import gen_synthetic, read_libsvm
from .trace import write_trace_csv

__all__ = ["build_parser", "run_experiment", "main"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="disco",
        description="Distributed damped-Newton ERM solver over a metered communication simulator",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", metavar="PATH", help="LIBSVM text file")
    src.add_argument(
        "--synthetic",
        metavar="d,n,density,noise[,seed]",
        help="generate a synthetic sparse regression problem; seed defaults to 0 (with "
        "--loss logistic, labels y > 0 become +1 and the rest -1)",
    )
    p.add_argument("--dim", type=int, default=None, help="override the feature count of --data (not with --synthetic)")
    p.add_argument("--partition", choices=["samples", "features"], default="samples")
    p.add_argument("--nodes", type=int, default=1, help="simulated node count m")
    p.add_argument("--loss", choices=["square", "logistic"], default="square")
    p.add_argument("--lambda", dest="lam", type=float, default=1e-3, help="l2 weight (default 1e-3)")
    p.add_argument("--mu", type=float, default=SolverConfig.mu,
                   help="preconditioner ridge, must be positive (default %(default)g)")
    p.add_argument("--tau", type=int, default=None, help="preconditioner samples (default min(1000, master's sample shard))")
    p.add_argument("--theta", type=float, default=SolverConfig.theta,
                   help="inner tolerance multiplier, in (0, 1): each Newton step stops at "
                   "max(theta*||grad||, tol/2) (default %(default)g)")
    p.add_argument("--tol", type=float, default=SolverConfig.outer_tol,
                   help="outer gradient-norm tolerance (default %(default)g)")
    p.add_argument("--max-outer", type=int, default=SolverConfig.max_outer,
                   help="outer iteration limit (default %(default)d)")
    p.add_argument("--max-inner", type=int, default=None, help="default min(5d, 10000)")
    p.add_argument("--trace", metavar="PATH.csv", default=None, help="write per-iteration trace CSV")
    return p


_SYNTHETIC_FIELDS = (("d", int), ("n", int), ("density", float), ("noise", float), ("seed", int))


def _parse_synthetic(spec: str):
    parts = spec.split(",")
    if len(parts) not in (4, 5):
        raise ValueError(f"--synthetic expects d,n,density,noise[,seed], got {spec!r}")
    fields = {"seed": 0}
    for (name, kind), text in zip(_SYNTHETIC_FIELDS, parts):
        try:
            fields[name] = kind(text)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ValueError(f"--synthetic field {name} must be {expected}, got {text!r}") from None
    return gen_synthetic(**fields)


def run_experiment(args) -> int:
    if args.synthetic is not None:
        dataset = _parse_synthetic(args.synthetic)
        if args.loss == "logistic":  # the generator's labels are real-valued
            dataset = replace(dataset, y=np.where(dataset.y > 0, 1.0, -1.0))
    else:
        dataset = read_libsvm(args.data, dim=args.dim)

    config = SolverConfig(
        lam=args.lam,
        mu=args.mu,
        tau=args.tau,
        loss=LossKind(args.loss),
        theta=args.theta,
        outer_tol=args.tol,
        max_outer=args.max_outer,
        max_inner=args.max_inner,
        partition_mode=PartitionMode(args.partition),
    )
    cluster = Cluster(args.nodes)
    result = disco_outer(cluster, dataset, config)

    if args.trace is not None:
        write_trace_csv(args.trace, result.trace)

    stats = cluster.snapshot_stats()
    final = result.trace[-1]
    print(f"dataset: {dataset.source} (d={dataset.d}, n={dataset.n})")
    print(f"mode: {args.partition}, nodes: {args.nodes}, loss: {args.loss}")
    print(f"outer iterations: {result.updates} ({'converged' if result.converged else 'not converged'})")
    print(f"final grad norm: {final.grad_norm:.6e}")
    print(f"total inner iterations: {result.inner_iters_total}")
    print(f"inner solves stopped at max_inner: {result.inner_unconverged}")
    print(f"total rounds: {stats.total_rounds} "
          f"(broadcast {stats.broadcast_rounds}, reduceall {stats.reduceall_rounds}, reduce {stats.reduce_rounds})")
    print(f"total bytes: {stats.total_bytes}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dim is not None and args.synthetic is not None:
        parser.error("--dim applies only to --data")
    try:
        return run_experiment(args)
    except Exception as exc:  # surface a clean message, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
