"""Descriptive statistics and CDF helpers.

Every figure in the paper's evaluation is a CDF of per-node download
times; :class:`Cdf` is the shared representation the harness renders.
:func:`mean_stddev` provides the mean/stddev the Bullet' peering
strategy uses to prune slow senders (1.5 sigma rule).
:func:`confidence_interval` / :func:`aggregate` summarize repeated
measurements across seeds for the sweep engine, and the paired helpers
(:func:`paired_deltas`, :func:`paired_confidence_interval`,
:func:`sign_counts`, :func:`win_rate`) back the ``repro compare``
paired-comparison analytics: same-seed runs of two systems share their
random numbers, so per-seed deltas are paired samples with far tighter
confidence intervals than group-vs-group comparisons.

Float totals in ``src/`` go through :func:`ordered_sum`, so they round
the same on every interpreter the committed goldens are checked under.

Two variance conventions coexist deliberately:

- :func:`mean_stddev` is **population** stddev (ddof=0) — it models the
  paper's 1.5-sigma peering rule, which prunes against the spread of
  the senders actually observed, not an estimate of a larger universe.
- :func:`confidence_interval` and :func:`aggregate` use **sample**
  variance (ddof=1) — seeds are a sample from the space of runs, and
  for the small n_seeds the sweeps use, ddof=0 visibly understates
  spread.
"""

import math

__all__ = [
    "Cdf",
    "aggregate",
    "confidence_interval",
    "mean_stddev",
    "ordered_sum",
    "paired_confidence_interval",
    "paired_deltas",
    "sign_counts",
    "win_rate",
]


def ordered_sum(values):
    """``acc += x`` from left to right, starting at integer 0.

    Bit for bit what Python 3.11's builtin ``sum()`` returns, on every
    interpreter: 3.12 and later compensate float rounding in ``sum()``,
    which moves the last digit of some totals.
    """
    acc = 0
    for value in values:
        acc += value
    return acc


def mean_stddev(values):
    """Return ``(mean, population standard deviation)`` of ``values``.

    Used by the peering strategy (paper section 3.3.1) to decide which
    senders are ">= 1.5 standard deviations below the mean bandwidth".
    An empty input returns ``(0.0, 0.0)``.

    This is deliberately the **population** convention (ddof=0): the
    peering rule measures the spread of the senders it actually has.
    Cross-seed summaries (:func:`aggregate`) use the sample convention
    instead — see the module docstring.
    """
    values = list(values)
    if not values:
        return 0.0, 0.0
    mean = ordered_sum(values) / len(values)
    variance = ordered_sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(variance)


#: Two-sided Student-t critical values, indexed by degrees of freedom
#: (1-based); beyond the table a Cornish-Fisher expansion of the normal
#: quantile keeps the error under 0.5% and the width monotone in df.
_T_CRITICAL = {
    0.90: (
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833,
        1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734,
        1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703,
        1.701, 1.699, 1.697,
    ),
    0.95: (
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048, 2.045, 2.042,
    ),
    0.99: (
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250,
        3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878,
        2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771,
        2.763, 2.756, 2.750,
    ),
}

_Z_CRITICAL = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


def _sample_variance(values, mean):
    """Unbiased (ddof=1) variance; 0.0 with fewer than two samples.

    The one variance definition :func:`confidence_interval` and
    :func:`aggregate` both use, so the ``stddev`` a report prints is
    always the one its confidence interval was computed from.
    """
    if len(values) < 2:
        return 0.0
    return ordered_sum((v - mean) ** 2 for v in values) / (len(values) - 1)


def confidence_interval(values, confidence=0.95):
    """Two-sided Student-t confidence interval for the mean of ``values``.

    Returns ``(low, high)``.  With fewer than two samples the interval
    collapses to the sample itself (there is no variance estimate).
    Supported confidence levels: 0.90, 0.95, 0.99.
    """
    if confidence not in _T_CRITICAL:
        raise ValueError(
            f"confidence must be one of {sorted(_T_CRITICAL)}, "
            f"got {confidence}"
        )
    values = list(values)
    if not values:
        raise ValueError("confidence_interval requires at least one sample")
    mean = ordered_sum(values) / len(values)
    if len(values) < 2:
        return mean, mean
    df = len(values) - 1
    table = _T_CRITICAL[confidence]
    if df <= len(table):
        t = table[df - 1]
    else:
        # t(df) ~ z + (z^3 + z) / (4 df): the leading Cornish-Fisher
        # correction — at df=31 this gives 2.039 vs the exact 2.040,
        # where the bare z=1.960 would under-cover by ~4%.
        z = _Z_CRITICAL[confidence]
        t = z + (z**3 + z) / (4.0 * df)
    variance = _sample_variance(values, mean)
    half = t * math.sqrt(variance / len(values))
    return mean - half, mean + half


def aggregate(values, confidence=0.95):
    """Summary statistics of repeated measurements (one value per seed).

    Returns a plain dict — ``n``, ``mean``, ``median``, ``stddev``
    (**sample**, ddof=1: the same variance its ``ci_low``/``ci_high``
    Student-t interval is built from; see :func:`confidence_interval`),
    ``min``, ``max`` — deterministic for a given input
    order-insensitively, so sweep aggregates are reproducible bit for
    bit no matter how cells were scheduled.
    """
    values = sorted(values)
    if not values:
        raise ValueError("aggregate requires at least one sample")
    mean = ordered_sum(values) / len(values)
    low, high = confidence_interval(values, confidence=confidence)
    return {
        "n": len(values),
        "mean": mean,
        "median": Cdf(values).median,
        "stddev": math.sqrt(_sample_variance(values, mean)),
        "min": values[0],
        "max": values[-1],
        "ci_low": low,
        "ci_high": high,
    }


def paired_deltas(xs, ys):
    """Per-index deltas ``x - y`` of two equal-length paired samples.

    The pairing is the point: when ``xs[i]`` and ``ys[i]`` come from
    runs sharing seed ``i`` (common random numbers), their difference
    cancels the between-seed variance that dominates group-vs-group
    comparisons.  With completion times, a *negative* delta means the
    ``xs`` system finished faster.
    """
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise ValueError(
            f"paired samples must have equal length, got {len(xs)} and {len(ys)}"
        )
    if not xs:
        raise ValueError("paired_deltas requires at least one pair")
    return [x - y for x, y in zip(xs, ys)]


def paired_confidence_interval(xs, ys, confidence=0.95):
    """Student-t confidence interval for the mean paired delta ``x - y``.

    Exactly :func:`confidence_interval` over :func:`paired_deltas` —
    the paired-t construction.  An interval wholly below zero means
    the ``xs`` system is faster at this confidence level.
    """
    return confidence_interval(paired_deltas(xs, ys), confidence=confidence)


def sign_counts(deltas):
    """``(wins, ties, losses)`` of paired deltas, lower-is-better.

    A delta < 0 is a *win* for the ``xs`` side of
    :func:`paired_deltas` (it finished faster), 0 a tie, > 0 a loss.
    """
    wins = sum(1 for d in deltas if d < 0)
    ties = sum(1 for d in deltas if d == 0)
    return wins, ties, len(deltas) - wins - ties


def win_rate(deltas):
    """Fraction of paired deltas the ``xs`` side wins, ties counting half.

    The half-tie convention keeps the rate symmetric: the two systems'
    win rates always sum to exactly 1.0.
    """
    deltas = list(deltas)
    if not deltas:
        raise ValueError("win_rate requires at least one pair")
    wins, ties, _losses = sign_counts(deltas)
    return (wins + 0.5 * ties) / len(deltas)


class Cdf:
    """An empirical CDF over a finite sample (e.g. node completion times)."""

    def __init__(self, samples):
        self.samples = sorted(samples)
        if not self.samples:
            raise ValueError("Cdf requires at least one sample")

    def __len__(self):
        return len(self.samples)

    def percentile(self, fraction):
        """Value at ``fraction`` in [0, 1] (nearest-rank)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if fraction == 0.0:
            return self.samples[0]
        rank = math.ceil(fraction * len(self.samples)) - 1
        return self.samples[max(rank, 0)]

    @property
    def median(self):
        return self.percentile(0.5)

    @property
    def minimum(self):
        return self.samples[0]

    @property
    def maximum(self):
        return self.samples[-1]

    @property
    def mean(self):
        return ordered_sum(self.samples) / len(self.samples)

    def fraction_below(self, value):
        """Fraction of samples <= ``value`` (the CDF evaluated at value)."""
        lo, hi = 0, len(self.samples)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.samples[mid] <= value:
                lo = mid + 1
            else:
                hi = mid
        return lo / len(self.samples)

    def points(self):
        """Yield ``(value, cumulative_fraction)`` pairs for plotting."""
        n = len(self.samples)
        for i, value in enumerate(self.samples, start=1):
            yield value, i / n

    def table(self, fractions=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0)):
        """Return ``{fraction: value}`` rows as the paper reports them."""
        return {f: self.percentile(f) for f in fractions}

    def __repr__(self):
        return (
            f"Cdf(n={len(self)}, min={self.minimum:.2f}, "
            f"median={self.median:.2f}, max={self.maximum:.2f})"
        )
