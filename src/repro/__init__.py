"""repro — a reproduction of "Maintaining High Bandwidth under Dynamic
Network Conditions" (Kostic et al., USENIX ATC 2005).

The paper designs and evaluates **Bullet'** (Bullet prime), a mesh-based
high-bandwidth file-dissemination system, against Bullet, BitTorrent and
SplitStream, and introduces **Shotgun**, an rsync-over-overlay rapid
synchronization tool.

Package map (docs/reference.md describes the engines; ``python -m
repro list`` prints everything registered):

- :mod:`repro.core` — Bullet' itself: adaptive peering, rarest-random
  requests, XCP-style flow control, self-clocked diffs, the source.
- :mod:`repro.sim` — the network substrate: a deterministic flow-level
  simulator with max-min fair TCP sharing, loss, delay and dynamic
  bandwidth (the ModelNet stand-in).
- :mod:`repro.overlay` — the control tree and RanSub.
- :mod:`repro.baselines` — Bullet, BitTorrent, SplitStream.
- :mod:`repro.codec` — LT rateless erasure codes.
- :mod:`repro.shotgun` — the rsync delta algorithm and Shotgun.
- :mod:`repro.harness` — experiment runners, one per paper figure.

Quickstart::

    from repro.harness import run_figure
    print(run_figure("fig4", num_nodes=20, num_blocks=128).render())
"""

from repro.core import BulletPrimeConfig, BulletPrimeNode
from repro.harness import run_experiment, run_figure

__version__ = "1.0.0"

__all__ = [
    "BulletPrimeConfig",
    "BulletPrimeNode",
    "run_experiment",
    "run_figure",
    "__version__",
]
