"""Workload generators for benchmarks and example applications."""

from .generators import GISTile, gis_tiles
from .ycsb import (
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_C,
    WORKLOAD_D,
    WORKLOAD_E,
    WORKLOAD_F,
    YCSBWorkload,
    ZipfianGenerator,
    ycsb_worker_body,
)

__all__ = [
    "gis_tiles",
    "GISTile",
    "YCSBWorkload",
    "ZipfianGenerator",
    "ycsb_worker_body",
    "WORKLOAD_A",
    "WORKLOAD_B",
    "WORKLOAD_C",
    "WORKLOAD_D",
    "WORKLOAD_E",
    "WORKLOAD_F",
]
