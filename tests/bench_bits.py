"""Print the bits of the benchmark's solves and of four more: per solve, the
first 8 hex digits of the md5 of ``w``, (rounds, bytes, inner, outer) and the
final gradient norm (``%.2e``), the accuracy the solve ends at, with BLAS on
one thread.

    PYTHONPATH=src python tests/bench_bits.py

The solves are the 3 instances of each benchmark workload, made as
``discobench/run.py`` makes them; tall_features_square's data in the sample
layout (m = 8, tau = 100); wide_features_square's data in the sample layout
(m = 4, tau = 125); and gen_synthetic(500, 1000, 0.02, 0.1, 5) in both
layouts (m = 4, tau = 125, lam = mu = 1e-2). The benchmark's modules are
loaded from their files without writing to their directory.

A change that must keep every bit of a solve prints the same table before
and after it. ``tests/bench_bits.txt`` holds the expected table, and CI
fails on any other output, so a change that moves an iterate or a counter
edits that file too:

    diff tests/bench_bits.txt <(PYTHONPATH=src python tests/bench_bits.py)

pytest does not collect this file.
"""

import dataclasses
import hashlib
import sys

sys.dont_write_bytecode = True

# conftest sets BLAS to one thread before numpy loads OpenBLAS, as run.py does
from conftest import load_discobench  # noqa: E402

from disco import Cluster, LossKind, PartitionMode, SolverConfig, disco_outer  # noqa: E402
from disco.harness import gen_synthetic  # noqa: E402


def bits(ds, config, m):
    """The md5 prefix of w, (rounds, bytes, inner, outer) and the final
    gradient norm of one solve."""
    cluster = Cluster(m)
    result = disco_outer(cluster, ds, config)
    stats = cluster.snapshot_stats()
    md5 = hashlib.md5(result.w.tobytes()).hexdigest()[:8]
    counts = f"{stats.total_rounds}/{stats.total_bytes}/{result.inner_iters_total}/{result.updates}"
    return f"{md5} {counts} {result.trace[-1].grad_norm:.2e}"


def main():
    run, workloads = load_discobench("run"), load_discobench("workloads")
    for w in workloads.WORKLOADS.values():
        for j in range(run.INSTANCES):
            ds = w.map_labels(w.generate(w.default_seed + j * run.INSTANCE_STRIDE))
            print(f"{w.name} instance {j}: {bits(ds, w.config(), w.m)}")
    by_samples = PartitionMode.SAMPLES
    for name, label in (("tall_features_square", "tall data by samples"),
                        ("wide_features_square", "wide square data by samples")):
        w = workloads.WORKLOADS[name]
        config = dataclasses.replace(w.config(), partition_mode=by_samples)
        print(f"{label} ({w.m}, {w.tau}): {bits(w.generate(w.default_seed), config, w.m)}")
    ds = gen_synthetic(500, 1000, 0.02, 0.1, 5)
    for mode in PartitionMode:
        config = SolverConfig(lam=1e-2, mu=1e-2, tau=125, loss=LossKind.SQUARE, partition_mode=mode)
        print(f"gen_synthetic(500,1000,.02,.1,5) {mode.value} (4, 125): {bits(ds, config, 4)}")


if __name__ == "__main__":
    main()
