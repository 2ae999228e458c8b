"""Discrete-event network simulator (the ModelNet stand-in).

The paper evaluates Bullet' on ModelNet, a cluster-based network emulator
that subjects real traffic to hop-by-hop bandwidth, delay and loss.  We
reproduce that substrate as a deterministic *fluid* (flow-level)
simulator:

- :mod:`repro.sim.engine` — the event loop and timers.
- :mod:`repro.sim.links` — links with capacity, propagation delay and
  loss rate; capacities can change mid-run (dynamic scenarios).
- :mod:`repro.sim.topology` — the paper's topologies (section 4.1).
- :mod:`repro.sim.tcp` — the TCP throughput model: max-min fair sharing
  of link capacity with a per-flow Mathis loss cap and slow-start ramp.
- :mod:`repro.sim.transport` — reliable in-order message connections with
  the sender-queue accounting Bullet' flow control needs.
- :mod:`repro.sim.trace` — experiment metrics.
"""

from repro.sim.engine import Simulator, Timer
from repro.sim.links import Link
from repro.sim.tcp import FlowNetwork, TcpModel
from repro.sim.topology import (
    Topology,
    constrained_access_topology,
    mesh_topology,
    planetlab_like_topology,
    star_topology,
)
from repro.sim.transport import Connection, Endpoint, Message, Network
from repro.sim.trace import TraceCollector

__all__ = [
    "Simulator",
    "Timer",
    "Link",
    "FlowNetwork",
    "TcpModel",
    "Topology",
    "mesh_topology",
    "constrained_access_topology",
    "planetlab_like_topology",
    "star_topology",
    "Connection",
    "Endpoint",
    "Message",
    "Network",
    "TraceCollector",
]
