"""Run-time invariant checking for fault-injection experiments.

Crash semantics make two classes of bugs easy to introduce and hard to
notice: an event firing on a node that is supposed to be dead, and a
message delivered through a connection whose receiving twin closed.  The
:class:`InvariantChecker` watches both without changing any behavior —
the harness installs it as ``network.invariants`` before any node is
built, every connection a node wires then delivers through
:meth:`InvariantChecker.checked`, and the fault injector audits
structural state at crash time — so fault scenarios can run with a
tripwire instead of trusting the implementation.

The transport already *drops* in-flight messages to a closed twin (and
counts them in ``Network.dropped_after_close``); the checked delivery
path verifies nothing slips past that guard, and the report surfaces
the drop counter as informational context.
"""

__all__ = ["InvariantChecker"]


class InvariantChecker:
    """Passive invariant monitor for one experiment run.

    Installed as ``network.invariants``, it covers every node wired
    after that — restarted incarnations included, since they wire their
    connections the same way.  After the run, ``violations`` holds one
    human-readable string per broken invariant — an empty list means
    the run was clean.
    """

    def __init__(self, network):
        self.network = network
        self.violations = []
        self.dispatches_checked = 0

    def checked(self, node):
        """``node``'s message dispatch, with invariant checks in front."""
        dispatch = node._dispatch

        def checked_dispatch(conn, message):
            self.dispatches_checked += 1
            if node.crashed:
                self.violations.append(
                    f"event fired on crashed node {node.node_id}: "
                    f"dispatch of {message.kind!r}"
                )
            if conn.closed:
                self.violations.append(
                    f"message {message.kind!r} delivered on closed "
                    f"connection {conn.local}->{conn.remote}"
                )
            dispatch(conn, message)

        return checked_dispatch

    def node_crashed(self, node):
        """Audit a node's structural state right after a crash."""
        if not node.stopped:
            self.violations.append(f"crashed node {node.node_id} is not stopped")
        if not node.endpoint.crashed:
            self.violations.append(
                f"crashed node {node.node_id}: endpoint still accepts handshakes"
            )
        if node.endpoint.connections:
            self.violations.append(
                f"crashed node {node.node_id} still holds "
                f"{len(node.endpoint.connections)} open connection(s)"
            )

    @property
    def ok(self):
        return not self.violations

    def report(self):
        """Summary dict for CLI/result surfacing."""
        return {
            "ok": self.ok,
            "violations": list(self.violations),
            "dispatches_checked": self.dispatches_checked,
            "dropped_after_close": self.network.dropped_after_close,
        }
