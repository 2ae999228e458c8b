#!/usr/bin/env python
"""Watch Bullet's adaptivity work: peers and outstanding requests.

Reproduces the paper's two adaptivity arguments on small topologies:

- *peer sets* (Figures 7-9): no static sender count suits both a lossy
  wide-area mesh and a constrained-access network — the dynamic policy
  tracks the better static choice in each;
- *outstanding requests* (Figures 10-12): a fixed request pipeline
  either starves high bandwidth-delay paths or queues too much on
  collapsing ones — the XCP-style controller adapts per peer.

Every variant is one ``systems`` entry of a sweep spec — Bullet' with
some of its declared knobs set (``python -m repro list`` prints them) —
and the conditions are ``scenarios`` / ``topologies`` entries, so each
demo is a :class:`~repro.harness.sweep.SweepSpec` and nothing else; the
rows print the variants as cell keys and league tables name them.

Run:  python examples/adaptive_flow_control.py
"""

from repro.common.units import KiB, MS
from repro.harness.sweep import SweepSpec, record_cell, run_sweep


def bullet_prime(**params):
    return {"name": "bullet_prime", "params": params}


def static_peers(count):
    return bullet_prime(
        adaptive_peering=False, initial_senders=count, initial_receivers=count
    )


def show(title, **grids):
    print(f"\n{title}")
    spec = SweepSpec(seeds=5, max_time=3000.0, **grids)
    for record in run_sweep(spec).records:
        summary = record["summary"]
        print(
            f"  median {summary['median']:7.1f} s   worst {summary['worst']:7.1f} s"
            f"   {record_cell(record).system_key()}"
        )


def peer_set_demo():
    print("=== adaptive peer sets (Figures 7/9) ===")
    systems = [static_peers(6), static_peers(14), "bullet_prime"]
    for title, topology in (
        ("lossy mesh (more peers help)", "mesh"),
        ("constrained access (fewer peers help)", "constrained"),
    ):
        show(title, systems=systems, topologies=topology, nodes=20, blocks=96)


def outstanding_demo():
    print("\n=== adaptive outstanding requests (Figure 10) ===")
    frozen = dict(
        block_size=8 * KiB, adaptive_peering=False, initial_senders=5, initial_receivers=5
    )
    fixed = dict(frozen, adaptive_outstanding=False, fixed_outstanding=[3, 50])
    show(
        "high bandwidth-delay product: 10 Mbps, 100 ms dedicated links",
        systems=[bullet_prime(**fixed), bullet_prime(**frozen)],
        topologies={"name": "star", "params": {"core_delay": 100 * MS}},
        nodes=12,
        blocks=192,
    )
    print("\na window of 3 cannot fill the 10 Mbps x 100 ms pipe; the dynamic")
    print("controller converges to a deep enough pipeline on its own.")


def dynamic_conditions_demo():
    print("\n=== adaptivity under scripted dynamics (Figure 12 & cellular) ===")
    systems = [
        bullet_prime(adaptive_outstanding=False, fixed_outstanding=50),
        "bullet_prime",
    ]
    for title, name, params in (
        ("cascading cuts (Fig. 12)", "cascading_cuts", {"period": 20.0}),
        ("2 s cellular oscillation", "oscillate", {"period": 2.0, "low": 0.2}),
    ):
        scenario = {"name": name, "params": params}
        show(title, systems=systems, scenarios=scenario, nodes=16, blocks=96)
    print("\nqueueing 50 blocks on a link that is about to collapse (or dip)")
    print("forces long waits; the adaptive controller keeps the pipeline")
    print("matched to each peer's current bandwidth-delay product.")


def main():
    peer_set_demo()
    outstanding_demo()
    dynamic_conditions_demo()


if __name__ == "__main__":
    main()
