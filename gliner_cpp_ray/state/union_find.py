"""Union-find for connected components.

Two forms share the ``node -> min node of its component`` contract:

* ``UnionFind``: a path-halving forest over arbitrary hashable nodes.
  Canonicalization (B10) runs it on the driver over the REDUCED
  ``(norm_surface, qid)`` edge list, whose nodes are tuples; tests use
  it as the reference for the array form.
* ``min_label_components``: the same contract over int64 endpoint
  arrays, vectorized (hook-to-min + pointer jumping).  It is the
  per-block forest and the driver merge of
  ``stages/graph.py:connected_components`` (BTS, ICDE'24, PAPERS.md:
  each partition builds a local forest, the forests are merged).
"""

from __future__ import annotations

import numpy as np


class UnionFind:
    """Path-halving union-find over arbitrary hashable nodes."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            gp = self.parent[p]
            self.parent[x] = gp
            x, p = gp, self.parent.get(gp, gp)
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller representative wins.  Compare the
            # values DIRECTLY so int keys order numerically — repr()
            # ordering would make the root of {9, 10} be 10, breaking
            # the "cluster_id = min member" contract of the dedup
            # clusterers.  Fall back to repr only for keys that aren't
            # mutually orderable (never the case for homogeneous int or
            # tuple-of-str node sets).
            try:
                lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            except TypeError:
                lo, hi = (ra, rb) if repr(ra) <= repr(rb) else (rb, ra)
            self.parent[hi] = lo

    def components(self) -> dict:
        """node -> component root (fully resolved)."""
        return {x: self.find(x) for x in list(self.parent)}


def min_label_components(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Edge endpoint arrays ``a``, ``b`` (int64) -> ``(node, label)``:
    every node of the edges, ascending, with the smallest node id of
    its component.

    Nodes are renumbered to dense ranks, which keep the id order, so a
    min over ranks is a min over ids (exact for any int64, no float
    round trip).  Each pass hooks every root to the smallest root among
    its edges' endpoints and then pointer-jumps until every node points
    at its root; it stops when every edge's endpoints share a root.
    ``parent[x] <= x`` always holds, so the forest has no cycles, and a
    pass that changes nothing leaves no edge between two roots."""
    a = np.asarray(a, np.int64)
    b = np.asarray(b, np.int64)
    nodes, inverse = np.unique(np.concatenate([a, b]), return_inverse=True)
    u, v = inverse[: len(a)], inverse[len(a):]
    parent = np.arange(len(nodes))
    while True:
        ru, rv = parent[u], parent[v]
        if np.array_equal(ru, rv):
            return nodes, nodes[parent]
        lo = np.minimum(ru, rv)
        np.minimum.at(parent, ru, lo)
        np.minimum.at(parent, rv, lo)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
