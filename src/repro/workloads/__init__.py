"""Workloads: the paper's Table I benchmarks with synthetic inputs.

:mod:`repro.workloads.table` lists every registered benchmark, one row
each; :func:`get_benchmark` looks a row up by name.
"""

from repro.workloads.base import (
    AddressAllocator,
    Benchmark,
    benchmark_names,
    get_benchmark,
)
from repro.workloads.table import TABLE1_NAMES

__all__ = [
    "AddressAllocator",
    "Benchmark",
    "TABLE1_NAMES",
    "benchmark_names",
    "get_benchmark",
]
