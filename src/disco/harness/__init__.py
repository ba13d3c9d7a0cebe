"""Dataset ingestion, synthetic generators, the trace CSV writer and the CLI."""

from .datasets import Dataset, gen_synthetic, read_libsvm, write_libsvm
from .trace import write_trace_csv

__all__ = [
    "Dataset",
    "gen_synthetic",
    "read_libsvm",
    "write_libsvm",
    "write_trace_csv",
]
