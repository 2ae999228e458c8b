"""Soliton degree distributions for LT codes.

The *ideal* soliton distribution is optimal in expectation but fragile:
the decoder's ripple (degree-1 set) dies with high probability.  Luby's
*robust* soliton adds probability mass at low degrees and at a spike
``k/R`` so the ripple stays alive with probability ``1 - delta``.
"""

import math

from repro.common.stats import ordered_sum

__all__ = ["ideal_soliton", "robust_soliton", "sample_degree"]


def ideal_soliton(k):
    """Return the ideal soliton pmf ``rho[1..k]`` as a list (index 0 unused)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rho = [0.0] * (k + 1)
    rho[1] = 1.0 / k
    for d in range(2, k + 1):
        rho[d] = 1.0 / (d * (d - 1))
    return rho


def robust_soliton(k, c=0.03, delta=0.5):
    """Return the robust soliton pmf ``mu[1..k]``.

    ``c`` and ``delta`` are Luby's tuning constants: the expected ripple
    size is ``R = c * ln(k/delta) * sqrt(k)`` and decoding succeeds with
    probability at least ``1 - delta`` given ``k + O(sqrt(k) ln^2(k/delta))``
    encoded blocks.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if c <= 0:
        raise ValueError(f"c must be > 0, got {c}")
    rho = ideal_soliton(k)
    big_r = c * math.log(k / delta) * math.sqrt(k)
    tau = [0.0] * (k + 1)
    if big_r >= 1.0:
        spike = min(k, max(1, int(round(k / big_r))))
        for d in range(1, spike):
            tau[d] = big_r / (d * k)
        tau[spike] = big_r * math.log(big_r / delta) / k
    total = ordered_sum(rho) + ordered_sum(tau)
    return [(rho[d] + tau[d]) / total for d in range(k + 1)]


def sample_degree(pmf, rng):
    """Draw a degree from ``pmf`` (cumulative inversion)."""
    roll = rng.random()
    acc = 0.0
    for degree in range(1, len(pmf)):
        acc += pmf[degree]
        if roll <= acc:
            return degree
    return len(pmf) - 1
