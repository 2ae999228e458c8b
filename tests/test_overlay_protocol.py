"""Tests for the OverlayProtocol base class (the MACEDON stand-in)."""

import random

import pytest

from repro.core.download import DownloadState
from repro.overlay.node import OverlayProtocol
from repro.sim.engine import Simulator
from repro.sim.tcp import FlowNetwork
from repro.sim.topology import mesh_topology
from repro.sim.trace import TraceCollector
from repro.sim.transport import Message, Network


class _Echo(OverlayProtocol):
    """Replies 'pong' to 'ping'; records everything."""

    def __init__(self, network, node_id, trace):
        super().__init__(network, node_id, trace)
        self.log = []

    def accepted(self, conn):
        self.log.append(("accepted", conn.remote))

    def on_ping(self, conn, message):
        self.log.append(("ping", message.payload))
        conn.send(Message("pong", payload=message.payload, size=16))

    def on_pong(self, conn, message):
        self.log.append(("pong", message.payload))

    def connection_closed(self, conn):
        self.log.append(("closed", conn.remote))


def _pair():
    sim = Simulator()
    net = Network(
        sim, mesh_topology(2, seed=1, max_loss=0.0), FlowNetwork(sim), random.Random(0)
    )
    trace = TraceCollector(sim, num_blocks=1)
    a = _Echo(net, 0, trace)
    b = _Echo(net, 1, trace)
    return sim, a, b


def test_dispatch_by_kind():
    sim, a, b = _pair()
    a.connect(1, lambda conn: conn.send(Message("ping", payload=7, size=16)))
    sim.run(until=5.0)
    assert ("ping", 7) in b.log
    assert ("pong", 7) in a.log


def test_accept_hook_fires():
    sim, a, b = _pair()
    a.connect(1, lambda conn: None)
    sim.run(until=5.0)
    assert ("accepted", 0) in b.log


def test_unknown_kind_raises():
    sim, a, b = _pair()
    a.connect(1, lambda conn: conn.send(Message("mystery", size=16)))
    with pytest.raises(KeyError, match="mystery"):
        sim.run(until=5.0)


def test_explicit_handler_registration():
    sim, a, b = _pair()
    seen = []
    b.handler("custom", lambda conn, msg: seen.append(msg.payload))
    a.connect(1, lambda conn: conn.send(Message("custom", payload="x", size=16)))
    sim.run(until=5.0)
    assert seen == ["x"]


def test_close_notifies_other_side():
    sim, a, b = _pair()
    conns = {}
    a.connect(1, lambda conn: conns.setdefault("a", conn))
    sim.run(until=5.0)
    conns["a"].close()
    sim.run(until=10.0)
    assert ("closed", 0) in b.log


def test_stop_cancels_timers_and_connections():
    sim, a, b = _pair()
    fired = []
    a.periodic(1.0, lambda: fired.append(sim.now))
    conns = {}
    a.connect(1, lambda conn: conns.setdefault("a", conn))
    sim.run(until=3.5)
    a.stop()
    count = len(fired)
    sim.run(until=10.0)
    assert len(fired) == count  # no more firings
    assert conns["a"].closed


def test_stopped_node_ignores_messages():
    sim, a, b = _pair()
    conns = {}
    a.connect(1, lambda conn: conns.setdefault("a", conn))
    sim.run(until=5.0)
    b.stop()
    conns["a"].send(Message("ping", payload=1, size=16))
    sim.run(until=10.0)
    assert ("ping", 1) not in b.log


def test_receive_and_latch_report_once():
    sim, a, _b = _pair()
    a.state = DownloadState(2)
    a.start()
    assert a.completed_at is None and a.trace.block_arrivals == {0: []}
    assert a.receive(1) is True
    assert a.receive(1) is False
    assert a.latch_completion() is False
    assert a.receive(0) is True
    assert a.latch_completion() is True
    assert a.latch_completion() is False
    assert a.completed_at == 0.0 and a.trace.completion_times == {0: 0.0}
    assert [b for _, b in a.trace.block_arrivals[0]] == [1, 0]
    assert a.trace.duplicate_blocks[0] == 1


def test_start_latches_a_node_that_starts_complete():
    sim, a, _b = _pair()
    a.state = DownloadState(1)
    a.state.add(0)
    sim.schedule(3.0, a.start)
    sim.run(until=4.0)
    assert a.completed_at == 3.0 and a.trace.completion_times == {0: 3.0}
