"""Tests for the message transport: connections, queues, accounting."""

import gc
import random

import pytest

from repro.common.units import MBPS, MS
from repro.sim.engine import Simulator
from repro.sim.tcp import FlowNetwork
from repro.sim.topology import Topology, mesh_topology, star_topology
from repro.sim.transport import MESSAGE_HEADER_BYTES, Connection, Message, Network


def _two_node_net(core_bw=2 * MBPS, delay=10 * MS, loss=0.0):
    sim = Simulator()
    topo = Topology([0, 1], (core_bw, delay, loss))
    for n in (0, 1):
        topo.add_access(n, None, None)
    net = Network(sim, topo, FlowNetwork(sim), random.Random(0))
    return sim, net


def _connect(sim, net, a=0, b=1):
    conns = {}
    net.endpoint(b).on_accept = lambda c: conns.setdefault("remote", c)
    net.endpoint(a).connect(b, lambda c: conns.setdefault("local", c))
    sim.run(until=1.0)
    return conns["local"], conns["remote"]


class TestMessage:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            Message("x", size=0)

    def test_defaults(self):
        msg = Message("x")
        assert not msg.is_block
        assert msg.in_front == 0


class TestConnectionLifecycle:
    def test_handshake_takes_one_rtt(self):
        sim, net = _two_node_net(delay=50 * MS)
        times = {}
        net.endpoint(1).on_accept = lambda c: times.setdefault("accept", sim.now)
        net.endpoint(0).connect(1, lambda c: times.setdefault("conn", sim.now))
        sim.run(until=1.0)
        assert times["conn"] == pytest.approx(0.1)  # 2 * 50ms
        assert times["accept"] == pytest.approx(0.1)

    def test_self_connect_rejected(self):
        sim, net = _two_node_net()
        with pytest.raises(ValueError):
            net.endpoint(0).connect(0, lambda c: None)

    def test_close_notifies_peer_after_delay(self):
        sim, net = _two_node_net(delay=10 * MS)
        local, remote = _connect(sim, net)
        closed = []
        remote.on_close = lambda c: closed.append(sim.now)
        close_at = sim.now
        local.close()
        assert local.closed
        sim.run(until=close_at + 1.0)
        assert remote.closed
        assert closed and closed[0] == pytest.approx(close_at + 0.01)

    def test_send_on_closed_returns_false(self):
        sim, net = _two_node_net()
        local, _ = _connect(sim, net)
        local.close()
        assert local.send(Message("x")) is False


class TestDelivery:
    def test_in_order_delivery(self):
        sim, net = _two_node_net()
        local, remote = _connect(sim, net)
        got = []
        remote.on_message = lambda c, m: got.append(m.payload)
        for i in range(5):
            local.send(Message("x", payload=i, size=1000))
        sim.run(until=10.0)
        assert got == [0, 1, 2, 3, 4]

    def test_transmission_time_matches_bandwidth(self):
        sim, net = _two_node_net(core_bw=250_000, delay=0.0)
        local, remote = _connect(sim, net)
        got = []
        remote.on_message = lambda c, m: got.append(sim.now)
        start = sim.now
        size = 250_000 - MESSAGE_HEADER_BYTES
        local.send(Message("x", size=size, is_block=True))
        sim.run(until=start + 10.0)
        # One second of transmission at 250 KB/s (after slow-start ramp
        # considerations are absent: lossless path is uncapped).
        assert got[0] - start == pytest.approx(1.0, rel=0.05)

    def test_bytes_accounting(self):
        sim, net = _two_node_net()
        local, remote = _connect(sim, net)
        local.send(Message("x", size=1000))
        local.send(Message("y", size=2000, is_block=True))
        sim.run(until=10.0)
        expected = 3000 + 2 * MESSAGE_HEADER_BYTES
        assert local.bytes_sent == expected
        assert remote.bytes_received == expected
        assert net.control_bytes == 1000 + MESSAGE_HEADER_BYTES


class TestSenderAccounting:
    def test_idle_gap_reported_negative(self):
        sim, net = _two_node_net()
        local, remote = _connect(sim, net)
        got = []
        remote.on_message = lambda c, m: got.append((m.in_front, m.wasted))
        idle_start = sim.now

        def send_later():
            local.send(Message("b", size=8000, is_block=True))

        sim.schedule(2.0, send_later)  # fires at now + 2.0
        send_time = idle_start + 2.0
        sim.run(until=10.0)
        in_front, wasted = got[0]
        assert in_front == 0
        # The idle gap runs from connection creation (during the handshake)
        # to the send, so it is a bit over two seconds.
        assert -send_time - 0.1 < wasted <= -2.0

    def test_queued_blocks_report_in_front_and_service_time(self):
        sim, net = _two_node_net(core_bw=100_000)
        local, remote = _connect(sim, net)
        got = []
        remote.on_message = lambda c, m: got.append((m.in_front, m.wasted))
        for _ in range(4):
            local.send(Message("b", size=50_000, is_block=True))
        sim.run(until=60.0)
        # First block: idle pipe. Later blocks: queued behind others.
        assert got[0][0] == 0
        assert got[-1][0] >= 1  # blocks were ahead of it when enqueued
        assert got[-1][1] > 0  # positive service (waiting) time

    def test_send_queue_blocks_property(self):
        sim, net = _two_node_net(core_bw=100_000)
        local, _ = _connect(sim, net)
        for _ in range(3):
            local.send(Message("b", size=50_000, is_block=True))
        assert local.send_queue_blocks == 3
        sim.run(until=60.0)
        assert local.send_queue_blocks == 0


class TestChannelCounterAccounting:
    """Each connection end keeps a running block counter over its deque;
    it must agree with a from-scratch scan of the queue at every point in
    time."""

    @staticmethod
    def _recount(conn):
        return sum(1 for m in conn.queue if m.is_block)

    def test_counters_track_mixed_traffic(self):
        sim, net = _two_node_net(core_bw=50_000)
        local, _ = _connect(sim, net)
        pattern = [True, False, True, True, False, True, False, False, True]
        for i, is_block in enumerate(pattern):
            local.send(
                Message(
                    "b" if is_block else "c",
                    size=20_000 if is_block else 300,
                    is_block=is_block,
                )
            )
            blocks = self._recount(local)
            assert local.send_queue_blocks == blocks

        # Drain step by step: counters must stay consistent after every
        # transmission completes.  Bounded so a stalled queue fails the
        # test instead of spinning forever.
        for _ in range(200):
            if not local.queue:
                break
            before = len(local.queue)
            sim.run(until=sim.now + 1.0)
            if len(local.queue) == before:
                continue
            assert local.send_queue_blocks == self._recount(local)
        assert not local.queue, "send queue failed to drain"
        assert local.send_queue_blocks == 0

    def test_queued_block_count_excludes_transmitting_head(self):
        # A block's in_front counts the blocks waiting behind the one in
        # the "socket buffer", plus the buffer; control messages in the
        # queue do not count.
        sim, net = _two_node_net(core_bw=10_000)
        local, remote = _connect(sim, net)
        got = []
        remote.on_message = lambda c, m: got.append((m.kind, m.in_front))
        for _ in range(3):
            local.send(Message("b", size=5_000, is_block=True))
        local.send(Message("c", size=100, is_block=False))
        local.send(Message("b4", size=5_000, is_block=True))
        sim.run(until=sim.now + 60.0)
        assert [kind for kind, _ in got] == ["b", "b", "b", "c", "b4"]
        assert got[-1] == ("b4", 3)

    def test_close_resets_counters(self):
        sim, net = _two_node_net()
        local, _ = _connect(sim, net)
        for _ in range(3):
            local.send(Message("b", size=5_000, is_block=True))
        local.close()
        assert local.send_queue_blocks == 0
        assert len(local.queue) == 0


class TestCloseDuringFlight:
    """Crash/close semantics for messages already on the wire.

    Both directions matter: a receiver that closes while a message is in
    flight must drop it on arrival (counted, never dispatched), and a
    sender that dies silently must look *alive* to its peer — sends keep
    "succeeding" into the void until the peer's own detector reacts.
    """

    def test_in_flight_message_to_closed_receiver_is_dropped(self):
        sim, net = _two_node_net(delay=20 * MS)
        local, remote = _connect(sim, net)
        got = []
        remote.on_message = lambda c, m: got.append(m)
        local.send(Message("late", size=100))
        remote.close()  # closes before the 20ms propagation elapses
        sim.run(until=sim.now + 1.0)
        assert got == []
        assert net.dropped_after_close == 1

    def test_in_flight_message_to_closed_receiver_reverse_direction(self):
        sim, net = _two_node_net(delay=20 * MS)
        local, remote = _connect(sim, net)
        got = []
        local.on_message = lambda c, m: got.append(m)
        remote.send(Message("late", size=100))
        local.close()
        sim.run(until=sim.now + 1.0)
        assert got == []
        assert net.dropped_after_close == 1

    def test_abort_is_silent_and_peer_sends_into_the_void(self):
        sim, net = _two_node_net(delay=10 * MS)
        local, remote = _connect(sim, net)
        closed = []
        remote.on_close = lambda c: closed.append(sim.now)
        local.abort()
        assert local.closed
        sim.run(until=sim.now + 2.0)
        # No FIN crossed the wire: the peer never hears about the death
        # and its sends still report success.
        assert closed == []
        assert not remote.closed
        assert remote.send(Message("hello?", size=64)) is True
        sim.run(until=sim.now + 2.0)
        assert net.dropped_after_close == 1

    def test_close_drops_low_watermark_watcher(self):
        sim, net = _two_node_net()
        local, _ = _connect(sim, net)
        fired = []
        for _ in range(3):
            local.send(Message("b", size=50_000, is_block=True))
        local.watch_send_queue_low(2, lambda c: fired.append(sim.now))
        local.close()
        assert local.block_low_watermark is None
        assert local.on_block_low is None
        sim.run(until=sim.now + 5.0)
        assert fired == []

    @pytest.mark.parametrize("end", ["close", "abort"])
    def test_a_closed_pair_is_freed_without_the_cycle_collector(self, end):
        sim, net = _two_node_net(delay=10 * MS)
        local, remote = net._make_connection_pair(0, 1)
        remote.send(Message("late", size=100))
        getattr(local, end)()
        sim.run(until=sim.now + 1.0)
        remote.close()
        sim.run(until=sim.now + 1.0)
        assert net.dropped_after_close == 1
        pair = {id(local), id(remote)}
        enabled = gc.isenabled()
        gc.disable()
        try:
            del local, remote
            alive = [o for o in gc.get_objects() if type(o) is Connection]
            assert not pair & {id(o) for o in alive}
        finally:
            if enabled:
                gc.enable()

    def test_crashed_endpoint_blackholes_handshakes_until_revive(self):
        sim, net = _two_node_net(delay=10 * MS)
        net.endpoint(1).crashed = True
        attempts = []
        net.endpoint(1).on_accept = lambda c: attempts.append("accept")
        net.endpoint(0).connect(1, lambda c: attempts.append("connect"))
        sim.run(until=2.0)
        assert attempts == []  # SYN vanished: no callback on either side
        net.endpoint(1).revive()
        net.endpoint(0).connect(1, lambda c: attempts.append("connect"))
        sim.run(until=4.0)
        assert attempts == ["connect", "accept"]


class TestControlMessageLossDelay:
    def test_lossy_path_sometimes_delays_control(self):
        sim, net = _two_node_net(delay=5 * MS, loss=0.3)
        local, remote = _connect(sim, net)
        arrivals = []
        remote.on_message = lambda c, m: arrivals.append(sim.now)
        base = sim.now
        for i in range(100):
            sim.schedule(i * 0.5, lambda: local.send(Message("ctl", size=64)))
        sim.run(until=base + 80.0)
        assert len(arrivals) == 100
        # With loss 0.3 a meaningful fraction pays an RTO penalty; the
        # rest arrive after bare propagation.
        gaps = [a - base - i * 0.5 for i, a in enumerate(arrivals)]
        delayed = sum(1 for g in gaps if g > 0.1)
        assert 5 <= delayed <= 70


class TestMeshTopologyIntegration:
    def test_many_pairs_share_access_link(self):
        sim = Simulator()
        topo = mesh_topology(5, seed=1, max_loss=0.0)
        net = Network(sim, topo, FlowNetwork(sim), random.Random(0))
        # Node 0 sends blocks to all others simultaneously; its 6 Mbps
        # access link is the bottleneck, so aggregate completion takes
        # at least size*4/access_bw.
        done = []
        for peer in range(1, 5):
            def accept(c):
                c.on_message = lambda conn, m: done.append(sim.now)
            net.endpoint(peer).on_accept = accept
        def send_all(c):
            c.send(Message("b", size=750_000, is_block=True))
        for peer in range(1, 5):
            net.endpoint(0).connect(peer, send_all)
        sim.run(until=60.0)
        assert len(done) == 4
        assert max(done) >= 4 * 750_000 / (6e6 / 8) * 0.9


def test_star_topology_paths():
    topo = star_topology(3, special_links={(0, 2): (1000.0, 0.5)})
    path = topo.path(0, 2)
    assert len(path) == 1
    assert path[0].capacity == 1000.0
    assert path[0].delay == 0.5
    assert topo.path(0, 1)[0].capacity != 1000.0
