"""Shared utilities for the Bullet' reproduction.

This package holds small, dependency-free building blocks used by every
other subpackage: block bitmaps, descriptive statistics and CDF helpers,
unit constants, and deterministic RNG splitting.
"""

from repro.common.bitmap import BlockBitmap
from repro.common.stats import Cdf, mean_stddev
from repro.common.rng import split_rng
from repro.common.units import (
    GBPS,
    KBPS,
    KiB,
    MBPS,
    MiB,
    MS,
    SECONDS,
)

__all__ = [
    "BlockBitmap",
    "Cdf",
    "mean_stddev",
    "split_rng",
    "GBPS",
    "KBPS",
    "KiB",
    "MBPS",
    "MiB",
    "MS",
    "SECONDS",
]
