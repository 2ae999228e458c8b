"""Request-index scaling guard: a pick must not cost O(candidates).

One sender advertises N blocks and a receiver drains them through
``AvailabilityView.pick`` with ``rarest_random`` (Bullet's default), the
way ``BulletPrimeNode._pump_sender`` does.  The candidate scan the index
replaced re-filtered and re-ranked the whole list on every pick, so its
per-pick cost at the paper's file size (100 MB / 16 KB = 6,400 blocks)
was about 10x the cost at this repo's default 640.  With the index the
only term that grows is a C-level ``list.pop`` inside one bucket; the
check fails if the ratio reaches 3x, so the quadratic cannot come back
unnoticed.  Both per-pick costs land in the pytest-benchmark JSON.
"""

import time

from conftest import run_once

from repro.common.rng import split_rng
from repro.core.request import AvailabilityView

SIZES = (640, 6400)
#: Best of this many drains per size: the figure is a cost floor, and a
#: 640-block drain is short enough for one scheduler hiccup to double it.
REPEATS = 5
MAX_RATIO = 3.0


def _drain_seconds(num_blocks):
    view = AvailabilityView("rarest_random", split_rng(0, "bench.request"))
    view.add_sender("s")
    view.learn("s", range(num_blocks))
    started = time.perf_counter()
    while True:
        block = view.pick("s")
        if block is None:
            break
        view.taken(block)
    return time.perf_counter() - started


def test_bench_request_scaling(benchmark):
    def measure():
        return {
            size: min(_drain_seconds(size) for _ in range(REPEATS)) / size * 1e6
            for size in SIZES
        }

    us_per_pick = run_once(benchmark, measure)
    small, large = (us_per_pick[size] for size in SIZES)
    ratio = large / small
    benchmark.extra_info["request_scaling"] = {
        "us_per_pick": {str(size): round(us_per_pick[size], 3) for size in SIZES},
        "ratio": round(ratio, 3),
    }
    print()
    for size in SIZES:
        print(f"{size:5d} candidates: {us_per_pick[size]:6.2f} us per pick")
    print(f"ratio {ratio:.2f} (limit {MAX_RATIO})")
    assert ratio < MAX_RATIO
