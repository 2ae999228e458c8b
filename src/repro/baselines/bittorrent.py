"""BitTorrent (paper sections 4.2 and 5).

The protocol core as deployed in 2004/2005, with its hard-coded
constants:

- a centralized :class:`Tracker` hands each joining node a random peer
  list (and is re-queried every ``announce_period``);
- peers exchange full bitfields on handshake and broadcast ``HAVE`` for
  every received piece;
- piece selection is **rarest-first** across the peer set, with five
  outstanding requests per peer;
- upload slots are governed by **tit-for-tat choking**: every 10 seconds
  the top three reciprocating peers are unchoked, plus one optimistic
  unchoke rotated every 30 seconds (seeds rank by upload rate instead);
- the file is transferred unencoded; a node seeds after completion.

The paper's critique — fixed request/peering constants limit adaptivity,
and the tracker is a bottleneck/single point of failure — is exactly
what Figures 4/5 exercise.
"""

from repro.common.rng import split_rng
from repro.common.units import MS
from repro.core.download import BLOCK_SIZE, DownloadState
from repro.overlay.node import OverlayProtocol, SystemConfig
from repro.sim.transport import Message

__all__ = ["Tracker", "BitTorrentConfig", "BitTorrentNode"]


class Tracker:
    """Centralized membership service.

    The real tracker is an HTTP server; we model the content of its
    responses faithfully (a uniformly random subset of current swarm
    members) and charge a fixed response latency, but do not route its
    tiny request/response payloads through the flow network.
    """

    def __init__(self, seed=0, response_peers=40, latency=100 * MS):
        self.rng = split_rng(seed, "bt.tracker")
        self.response_peers = response_peers
        self.latency = latency
        self.swarm = []
        self.announces = 0

    def announce(self, sim, node_id, callback):
        """Register ``node_id`` and deliver a random peer list after the
        tracker round-trip latency."""
        self.announces += 1
        if node_id not in self.swarm:
            self.swarm.append(node_id)

        def respond():
            others = [p for p in self.swarm if p != node_id]
            count = min(self.response_peers, len(others))
            callback(self.rng.sample(others, count))

        sim.schedule(self.latency, respond)


#: The mainline client's constants: nothing varies these.
MAX_CONNECTIONS = 20
MIN_CONNECTIONS = 8
#: BitTorrent's fixed pipeline depth.
OUTSTANDING_PER_PEER = 5
UNCHOKE_SLOTS = 3
RECHOKE_PERIOD = 10.0
OPTIMISTIC_PERIOD = 30.0
ANNOUNCE_PERIOD = 30.0


class BitTorrentConfig(SystemConfig):
    """BitTorrent declares no knobs: its tunables are the constants
    above, its block size :data:`repro.core.download.BLOCK_SIZE`."""


class _PeerState:
    __slots__ = (
        "conn",
        "peer",
        "have",
        "am_choking",
        "peer_choking",
        "outstanding",
        "bytes_in_mark",
        "rate_in",
        "bytes_out_mark",
        "rate_out",
    )

    def __init__(self, conn, peer):
        self.conn = conn
        self.peer = peer
        self.have = set()
        self.am_choking = True
        self.peer_choking = True
        self.outstanding = set()
        self.bytes_in_mark = 0
        self.rate_in = 0.0
        self.bytes_out_mark = 0
        self.rate_out = 0.0


class BitTorrentNode(OverlayProtocol):
    """One swarm participant (the source node is the initial seed)."""

    def __init__(self, network, node_id, tracker, source_id, config, trace=None):
        super().__init__(network, node_id, trace)
        self.config = config
        self.tracker = tracker
        self.source_id = source_id
        self.is_seed_origin = node_id == source_id
        self.rng = split_rng(config.seed, f"bt.{node_id}")
        self.state = DownloadState(config.num_blocks)
        if self.is_seed_origin:
            for block in range(config.num_blocks):
                self.state.add(block)
        self.peers = {}  # conn -> _PeerState
        self._pending_connects = set()
        self.requested = set()  # blocks requested from anyone
        self.rarity = {}  # block -> count of peers having it
        self._rechoke_count = 0
        self._optimistic_peer = None
        self.completed_at = None
        self.stats = {"duplicate_blocks": 0, "have_messages": 0, "blocks_served": 0}

    # -- lifecycle ---------------------------------------------------------------

    def start(self):
        if self.trace is not None:
            self.trace.node_started(self.node_id)
        if self.is_seed_origin and self.state.complete:
            if self.trace is not None:
                self.trace.completed(self.node_id)
            self.completed_at = self.sim.now
        self._announce()
        self.periodic(ANNOUNCE_PERIOD, self._announce_tick)
        self.periodic(RECHOKE_PERIOD, self._rechoke, jitter_rng=self.rng)

    def _announce(self):
        self.tracker.announce(self.sim, self.node_id, self._peer_list)

    def _announce_tick(self):
        if len(self.peers) < MIN_CONNECTIONS:
            self._announce()
        return True

    def _peer_list(self, peer_ids):
        if self.stopped:
            return
        current = {p.peer for p in self.peers.values()}
        room = MAX_CONNECTIONS - len(self.peers) - len(
            self._pending_connects
        )
        for peer in peer_ids:
            if room <= 0:
                break
            if peer in current or peer in self._pending_connects:
                continue
            self._pending_connects.add(peer)
            room -= 1
            self.connect(peer, lambda conn, p=peer: self._connected(conn, p))

    # -- connections ----------------------------------------------------------------

    def _connected(self, conn, peer):
        self._pending_connects.discard(peer)
        if conn.closed or len(self.peers) >= MAX_CONNECTIONS:
            conn.close()
            return
        self._register(conn, peer)
        self._send_handshake(conn)

    def accepted(self, conn):
        pass  # registered when the handshake arrives

    def _register(self, conn, peer):
        self.peers[conn] = _PeerState(conn, peer)

    def _send_handshake(self, conn):
        blocks = self.state.blocks()
        conn.send(
            Message(
                "bt_handshake",
                payload={"node": self.node_id, "bitfield": blocks},
                size=68 + self.config.num_blocks // 8,
            )
        )

    def on_bt_handshake(self, conn, message):
        state = self.peers.get(conn)
        if state is None:
            if len(self.peers) >= MAX_CONNECTIONS:
                conn.close()
                return
            self._register(conn, message.payload["node"])
            state = self.peers[conn]
            self._send_handshake(conn)
        for block in message.payload["bitfield"]:
            self._peer_gained(state, block)
        self._pump(state)

    def connection_closed(self, conn):
        state = self.peers.pop(conn, None)
        if state is None:
            return
        for block in state.outstanding:
            self.requested.discard(block)
        for block in state.have:
            count = self.rarity.get(block, 0) - 1
            if count <= 0:
                self.rarity.pop(block, None)
            else:
                self.rarity[block] = count

    # -- availability ---------------------------------------------------------------

    def _peer_gained(self, state, block):
        if block in state.have:
            return
        state.have.add(block)
        self.rarity[block] = self.rarity.get(block, 0) + 1

    def on_bt_have(self, conn, message):
        state = self.peers.get(conn)
        if state is None:
            return
        self._peer_gained(state, message.payload["block"])
        if not state.peer_choking:
            self._pump(state)

    # -- choking ----------------------------------------------------------------------

    def _rechoke(self):
        self._rechoke_count += 1
        interested = [
            p
            for p in self.peers.values()
            if not p.conn.closed and self._peer_wants_from_us(p)
        ]
        # Measure rates since the previous rechoke.
        for p in self.peers.values():
            received = p.conn.bytes_received
            p.rate_in = (received - p.bytes_in_mark) / RECHOKE_PERIOD
            p.bytes_in_mark = received
            sent = p.conn.bytes_sent
            p.rate_out = (sent - p.bytes_out_mark) / RECHOKE_PERIOD
            p.bytes_out_mark = sent

        if self.state.complete:
            ranked = sorted(interested, key=lambda p: -p.rate_out)
        else:
            ranked = sorted(interested, key=lambda p: -p.rate_in)
        unchoked = set(ranked[:UNCHOKE_SLOTS])

        rotate = (
            self._rechoke_count
            % max(1, int(OPTIMISTIC_PERIOD / RECHOKE_PERIOD))
            == 0
        )
        if rotate or self._optimistic_peer not in self.peers.values():
            choked = [p for p in interested if p not in unchoked]
            self._optimistic_peer = (
                self.rng.choice(choked) if choked else None
            )
        if self._optimistic_peer is not None:
            unchoked.add(self._optimistic_peer)

        for p in self.peers.values():
            should_choke = p not in unchoked
            if should_choke != p.am_choking:
                p.am_choking = should_choke
                kind = "bt_choke" if should_choke else "bt_unchoke"
                p.conn.send(Message(kind, size=5))
        return True

    def _peer_wants_from_us(self, peer_state):
        # A peer is interested if we have anything it lacks.
        for block in self.state.blocks():
            if block not in peer_state.have:
                return True
        return False

    def on_bt_choke(self, conn, _message):
        state = self.peers.get(conn)
        if state is None:
            return
        state.peer_choking = True
        # BitTorrent cancels outstanding requests on choke.
        for block in state.outstanding:
            self.requested.discard(block)
        state.outstanding.clear()

    def on_bt_unchoke(self, conn, _message):
        state = self.peers.get(conn)
        if state is None:
            return
        state.peer_choking = False
        self._pump(state)

    # -- requesting -----------------------------------------------------------------

    def _pump(self, state):
        if self.state.complete or state.peer_choking or state.conn.closed:
            return
        while len(state.outstanding) < OUTSTANDING_PER_PEER:
            block = self._pick_rarest(state)
            if block is None:
                return
            state.outstanding.add(block)
            self.requested.add(block)
            state.conn.send(Message("bt_request", payload={"block": block}, size=17))

    def _pick_rarest(self, state):
        best = None
        best_rarity = None
        for block in state.have:
            if block in self.state or block in self.requested:
                continue
            rarity = self.rarity.get(block, 0)
            if best_rarity is None or rarity < best_rarity:
                best, best_rarity = block, rarity
            elif rarity == best_rarity and self.rng.random() < 0.5:
                best = block
        return best

    def on_bt_request(self, conn, message):
        state = self.peers.get(conn)
        if state is None or state.am_choking:
            return
        block = message.payload["block"]
        if block not in self.state:
            return
        self.stats["blocks_served"] += 1
        conn.send(
            Message(
                "bt_block",
                payload={"block": block},
                size=BLOCK_SIZE + 13,
                is_block=True,
            )
        )

    def on_bt_block(self, conn, message):
        state = self.peers.get(conn)
        block = message.payload["block"]
        if state is not None:
            state.outstanding.discard(block)
            self.requested.discard(block)
            self._peer_gained(state, block)
        fresh = self.state.add(block)
        if not fresh:
            self.stats["duplicate_blocks"] += 1
            if self.trace is not None:
                self.trace.block_received(self.node_id, block, duplicate=True)
        else:
            if self.trace is not None:
                self.trace.block_received(self.node_id, block)
            self._broadcast_have(block)
            if self.state.complete and self.completed_at is None:
                self.completed_at = self.sim.now
                if self.trace is not None:
                    self.trace.completed(self.node_id)
                self._become_seed()
        if state is not None:
            self._pump(state)

    def _broadcast_have(self, block):
        for p in self.peers.values():
            if not p.conn.closed:
                self.stats["have_messages"] += 1
                p.conn.send(Message("bt_have", payload={"block": block}, size=9))

    def _become_seed(self):
        for p in self.peers.values():
            for block in p.outstanding:
                self.requested.discard(block)
            p.outstanding.clear()

    def __repr__(self):
        return (
            f"BitTorrentNode({self.node_id}, have={len(self.state)}/"
            f"{self.state.required}, peers={len(self.peers)})"
        )
