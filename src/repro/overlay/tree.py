"""The random control tree.

The paper uses MACEDON's "basic random tree": nodes join at the root and
are placed at a random position with bounded fanout.  The tree carries
RanSub sweeps and the source's pushed blocks; its exact shape is not
performance-critical (data flows over the mesh), so we construct it
directly from the membership list.
"""

from repro.common.rng import split_rng

__all__ = ["ControlTree", "build_random_tree"]


class ControlTree:
    """Parent/children maps for a rooted tree over node ids."""

    def __init__(self, root, parent, children):
        self.root = root
        self.parent = dict(parent)
        self.children = {n: list(c) for n, c in children.items()}
        self._validate()

    def _validate(self):
        if self.root in self.parent:
            raise ValueError("root must not have a parent")
        for child, parent in self.parent.items():
            if child not in self.children.get(parent, ()):
                raise ValueError(
                    f"inconsistent tree: {child} not a child of {parent}"
                )
        # Every non-root node must be reachable from the root.
        seen = {self.root}
        frontier = [self.root]
        while frontier:
            node = frontier.pop()
            for child in self.children.get(node, ()):
                if child in seen:
                    raise ValueError(f"cycle at {child}")
                seen.add(child)
                frontier.append(child)
        expected = set(self.parent) | {self.root}
        if seen != expected:
            raise ValueError("tree is not connected")

    @property
    def nodes(self):
        return [self.root] + list(self.parent)

    def parent_of(self, node):
        return self.parent.get(node)

    def __repr__(self):
        return f"ControlTree(root={self.root}, n={len(self.nodes)})"


def build_random_tree(nodes, root, fanout=4, seed=0):
    """Join ``nodes`` under ``root`` with random placement, bounded fanout.

    Mimics the join process: each arriving node descends from the root,
    picking a uniformly random child at each level, and attaches at the
    first node with spare fanout.
    """
    if root not in nodes:
        raise ValueError(f"root {root!r} not in node list")
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    rng = split_rng(seed, "tree.random")
    parent = {}
    children = {n: [] for n in nodes}
    for node in nodes:
        if node == root:
            continue
        at = root
        while len(children[at]) >= fanout:
            at = rng.choice(children[at])
        children[at].append(node)
        parent[node] = at
    return ControlTree(root, parent, children)
