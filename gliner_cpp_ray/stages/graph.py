"""Graph operators: connected components, the edge-table layer, BFS,
SSSP, communities.

Connected components follow BTS (ICDE'24, PAPERS.md): each block of the
edge list becomes its own union-find forest, and the forests merge on
the driver.  The per-block step turns a pair list that does not reduce
(near-dup pairs grow quadratically inside big clusters) into one row per
(node, block), so the driver never holds one row per edge, and the
whole computation is one Ray execution whatever the graph's diameter.

Every other graph operator, here and in ``stages/linkgraph.py`` (and the
degree queries), runs on one layer:

* ``edge_table`` — the int64 edges keyed by source (``node_id``,
  ``dst_id``, carried columns) over the materialized input, whose row
  count is then free, and ``sizing.rows_scaled_buckets(rows)``: the one
  bucket count of every exchange of the operator.  The ``EdgeTable``'s
  ``join`` / ``group`` / ``exchange`` methods are the shuffle primitives
  bound to that count, so no operator sizes an exchange by itself.
* ``EdgeTable.degrees`` — the degree table ``(node_id, deg)``: out-degree,
  undirected degree, or out-degree over a node set (0 for nodes with no
  out-edge).
* ``EdgeTable.send`` — the message step: join node values onto the
  edge sources (explicit schemas, so no schema probe runs), turn each
  joined row into a message to its destination, fold each batch's
  messages per destination map-side, then ONE grouped sum/min/max per
  destination.  PageRank, HITS, BFS, SSSP, label propagation and the
  assortativity sums are each a loop of message steps.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from gliner_cpp_ray.stages.joins import (
    bucketed_anti_join,
    bucketed_group_agg,
    bucketed_hash_join,
    keyed_exchange,
)
from gliner_cpp_ray.stages.sizing import rows_scaled_buckets
from gliner_cpp_ray.state.union_find import min_label_components


def _block_forest(t: pa.Table, a_col: str, b_col: str) -> pa.Table:
    """One block's edges -> its forest as (node, block-local min label)
    rows: every component becomes a star centred on its minimum."""
    node, label = min_label_components(
        t.column(a_col).cast(pa.int64()).to_numpy(zero_copy_only=False),
        t.column(b_col).cast(pa.int64()).to_numpy(zero_copy_only=False),
    )
    return pa.table({"node": node, "label": label})


def connected_components(edges_ds, a_col: str = "a", b_col: str = "b") -> pa.Table:
    """Connected components of an undirected int64 edge list.

    -> driver-resident ``pa.Table(node, label)``, sorted by node, with
    ``label = min node id of the component`` (the ``UnionFind``
    contract).  One ``map_batches`` replaces each block's edges with
    its forest; those rows come to the driver in one execution and
    ``min_label_components`` merges them.  The stars of all blocks have
    the same components as the edges, so the merge is exact."""
    forests = edges_ds.map_batches(
        _block_forest,
        fn_kwargs={"a_col": a_col, "b_col": b_col},
        batch_format="pyarrow",
        batch_size=None,
    )
    node, label = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for t in forests.iter_batches(batch_format="pyarrow", batch_size=None):
        if t.num_rows:  # an empty block may carry no schema
            node.append(t.column("node").to_numpy(zero_copy_only=False))
            label.append(t.column("label").to_numpy(zero_copy_only=False))
    node, label = min_label_components(np.concatenate(node), np.concatenate(label))
    return pa.table({"node": node, "label": label})


# ---------------------------------------------------------- the graph layer


def _int64_schema(*names: str) -> pa.Schema:
    """The schema of an all-int64 graph table (every graph column is)."""
    return pa.schema([(n, pa.int64()) for n in names])


class EdgeTable(NamedTuple):
    """Edges keyed by source, and the operator's one bucket count.

    ``ds`` holds the int64 columns ``cols`` (``node_id`` = source,
    ``dst_id``, then carried columns); ``n_buckets`` is
    ``rows_scaled_buckets`` of the input's edge rows and sizes every
    exchange below, including those over tables derived from the edges
    (``derive``)."""

    ds: object
    cols: tuple
    n_buckets: int

    def derive(self, ds) -> "EdgeTable":
        """``(node_id, dst_id)`` edges derived from these (same bucket
        count)."""
        return self._replace(ds=ds, cols=("node_id", "dst_id"))

    def join(self, left, left_cols, right, right_cols, on="node_id",
             how="inner", suffix="_r"):
        """``bucketed_hash_join`` of two all-int64 tables with explicit
        schemas, at the operator's bucket count."""
        return bucketed_hash_join(
            left, right, on=on, how=how, suffix=suffix,
            n_buckets=self.n_buckets,
            left_schema=_int64_schema(*left_cols),
            right_schema=_int64_schema(*right_cols),
        )

    def group(self, ds, keys, agg=None, val_col=None, out_col="n", specs=None):
        """``bucketed_group_agg`` at the operator's bucket count."""
        return bucketed_group_agg(ds, keys, agg, val_col, out_col,
                                  self.n_buckets, specs)

    def exchange(self, ds, keys, reduce_fn):
        """``keyed_exchange`` at the operator's bucket count."""
        return keyed_exchange(ds, keys, reduce_fn, self.n_buckets)

    def degrees(self, nodes=None, undirected: bool = False):
        """The degree table ``(node_id, deg)``: each source's edge count;
        with ``undirected``, each endpoint's; with ``nodes`` (a Dataset
        with a ``node_id`` column), one row per node row, 0 for a node
        with no out-edge."""
        ends = ("node_id", "dst_id") if undirected else ("node_id",)

        def endpoints(t: pa.Table) -> pa.Table:
            return pa.table({"node_id": pa.concat_arrays(
                [t.column(c).combine_chunks() for c in ends])})

        deg = self.group(self.ds.map_batches(endpoints, batch_format="pyarrow"),
                         "node_id", "count", out_col="deg")
        if nodes is None:
            return deg
        ids = nodes.map_batches(
            lambda t: pa.table({"node_id": t.column("node_id").cast(pa.int64())}),
            batch_format="pyarrow",
        )
        return self.join(
            ids, ("node_id",), deg, ("node_id", "deg"), how="left",
        ).map_batches(
            lambda t: pa.table({"node_id": t.column("node_id"),
                                "deg": pc.fill_null(t.column("deg"), 0)}),
            batch_format="pyarrow",
        )

    def send(self, values, value_cols, aggs: dict, message: Callable | None = None,
             by=(), keep=None, finish: Callable | None = None):
        """THE message step.  ``values`` (``node_id``, ``*value_cols``)
        join onto the edge sources; ``message(t)`` turns each joined
        batch (edge and value columns) into messages (``node_id`` = the
        destination, ``*by``, the ``aggs`` columns) — by default each
        edge forwards its source's values to ``dst_id``.  Each batch's
        messages fold per (``node_id``, ``*by``) map-side, ``keep`` rows
        (same columns) join them, and one destination-keyed exchange
        applies ``aggs`` (``{column: "sum" | "min" | "max"}``) per
        (``node_id``, ``*by``).  ``finish(frame)`` then runs on each
        bucket's result (all rows of a destination share a bucket)."""
        keys = ["node_id", *by]
        joined = self.join(self.ds, self.cols, values, ("node_id", *value_cols))

        def combine(t: pa.Table) -> pa.Table:
            if message is None:
                m = t.select(["dst_id", *value_cols]).rename_columns(
                    ["node_id", *value_cols])
            else:
                m = message(t)
            out = m.group_by(keys, use_threads=False).aggregate(
                [(c, a) for c, a in aggs.items()])
            return pa.table({**{k: out.column(k) for k in keys},
                             **{c: out.column(f"{c}_{a}") for c, a in aggs.items()}})

        msgs = joined.map_batches(combine, batch_format="pyarrow")
        if keep is not None:
            msgs = msgs.union(keep)

        def reduce(g):
            out = g.groupby(keys, sort=False).agg(aggs).reset_index()
            return finish(out) if finish else out

        return self.exchange(msgs, "node_id", reduce)


def edge_table(edges_ds, src: str = "src_id", dst: str = "dst_id",
               carry=()) -> EdgeTable:
    """The edge table of ``edges_ds``: ``(node_id=src, dst_id=dst,
    *carry)`` as int64, over the materialized input (free when the
    input already is), sized from its row count (free once
    materialized)."""
    edges_ds = edges_ds.materialize()
    cols = ("node_id", "dst_id", *carry)
    schema = _int64_schema(*cols)

    def keyed(t: pa.Table) -> pa.Table:
        return pa.table([t.column(c).cast(pa.int64()) for c in (src, dst, *carry)],
                        schema=schema)

    return EdgeTable(edges_ds.map_batches(keyed, batch_format="pyarrow"),
                     cols, rows_scaled_buckets(edges_ds.count()))


def distinct_edges(et: EdgeTable, prep: Callable) -> EdgeTable:
    """The distinct ``(node_id, dst_id)`` rows of ``prep`` over ``et``'s
    edges, materialized (every round reads them)."""
    pairs = et.ds.map_batches(prep, batch_format="pyarrow")
    return et.derive(
        et.group(pairs, ["node_id", "dst_id"], "count", out_col="__n")
        .select_columns(["node_id", "dst_id"]).materialize()
    )


def renamed(ds, old: str, new: str):
    """``ds`` with column ``old`` named ``new`` (a no-op when equal)."""
    if old == new:
        return ds
    return ds.map_batches(
        lambda t: t.rename_columns([new if c == old else c for c in t.column_names]),
        batch_format="pyarrow",
    )


def _at_zero(seeds_ds, node_col: str, col: str):
    """``(node_id, col = 0)`` for every seed row, materialized."""
    return seeds_ds.map_batches(
        lambda t: pa.table({"node_id": t.column(node_col).cast(pa.int64()),
                            col: pa.array(np.zeros(t.num_rows, np.int64))}),
        batch_format="pyarrow",
    ).materialize()


# ------------------------------------------------------------ the operators


def bfs_hop_distance(edges_ds, seeds_ds, max_hops: int = 4,
                     src_col: str = "src_id", dst_col: str = "dst_id",
                     node_col: str = "node_id"):
    """Multi-source directed BFS: minimum hop count from any seed node,
    capped at ``max_hops`` (crawl-frontier distance, seed-proximity
    features for quality priors).

    Returns a Dataset of ``(node_col, hops)`` — one row per node
    reachable within ``max_hops`` directed hops of a seed (seeds
    themselves at 0).  Unreachable nodes are absent, matching the SQL
    recursive-CTE group-min transcription.

    Plan: classic FRONTIER expansion, not whole-state relaxation — per
    hop, one message step from only the CURRENT frontier (nodes first
    reached last hop: each sends ``hops + 1`` along its out-edges, one
    group-min per destination distincts the reached set), then one
    bucketed anti join against the visited set.  Per-hop shuffle volume
    is bounded by the edges incident to the frontier plus the
    node-bounded visited keys; rows already labeled never re-enter the
    join (a Bellman-Ford-style full-state relax would re-ship the entire
    label table every round).  The driver sees only O(1) per hop (an
    empty-frontier count check); visited/frontier stay distributed,
    spillable Datasets throughout.
    """
    et = edge_table(edges_ds, src_col, dst_col)
    visited = frontier = _at_zero(seeds_ds, node_col, "hops")
    for _ in range(max_hops):
        if frontier.count() == 0:
            break
        reached = et.send(
            frontier, ["hops"], {"hops": "min"},
            lambda t: pa.table({"node_id": t.column("dst_id"),
                                "hops": pc.add(t.column("hops"), 1)}),
        ).materialize()  # anti join needs a schema; empty ⇒ done
        if reached.count() == 0:
            break
        frontier = bucketed_anti_join(
            reached, visited, on="node_id", n_buckets=et.n_buckets,
        ).materialize()
        # union of already-materialized operands is a zero-copy plan
        # node — no re-execution, no block rewrite
        visited = visited.union(frontier)
    return renamed(visited, "node_id", node_col)


def weighted_sssp(edges_ds, seeds_ds, rounds: int = 4,
                  src_col: str = "u", dst_col: str = "v", w_col: str = "w",
                  node_col: str = "node_id"):
    """Multi-source single-source-shortest-path over a weighted directed
    edge table: minimum total edge cost from any seed using at most
    ``rounds`` edges (integer weights; seeds at cost 0).

    Returns ``(node_col, dist)`` — one row per node reachable within
    ``rounds`` hops.  The result equals ``rounds`` synchronous
    Bellman-Ford relaxations (the SQL unrolled-CTE transcription), but
    the plan is FRONTIER-PRUNED: round k relaxes only edges out of
    nodes whose distance improved in round k-1 — equivalent by the
    standard SSSP frontier argument (a distance can only improve via a
    neighbor that itself just improved), and it keeps per-round shuffle
    volume proportional to frontier-incident edges instead of
    re-shipping the whole label table every round the way textbook
    whole-state Bellman-Ford does.  Per round: one message step (each
    improved node sends ``dist + w``; group-min per destination), a LEFT
    join against the distance table keeps strict improvements, and a
    group-min folds them in.  Distance state stays a distributed
    (node, dist) Dataset; the driver sees O(1) per round (an
    empty-frontier check)."""
    et = edge_table(edges_ds, src_col, dst_col, carry=(w_col,))
    dist = frontier = _at_zero(seeds_ds, node_col, "dist")

    def improvements(t: pa.Table) -> pa.Table:
        # LEFT join: unreached nodes surface as null = +inf
        new = t.column("dist").to_numpy(zero_copy_only=False)
        old = t.column("dist_r").to_numpy(zero_copy_only=False).astype(np.float64)
        return t.filter(pa.array(np.isnan(old) | (new < old))).select(
            ["node_id", "dist"])

    for _ in range(rounds):
        if frontier.count() == 0:
            break
        cand = et.send(
            frontier, ["dist"], {"dist": "min"},
            lambda t: pa.table({"node_id": t.column("dst_id"),
                                "dist": pc.add(t.column("dist"), t.column(w_col))}),
        )
        frontier = et.join(
            cand, ("node_id", "dist"), dist, ("node_id", "dist"), how="left",
        ).map_batches(improvements, batch_format="pyarrow").materialize()
        if frontier.count() == 0:
            break
        # improved rows are strictly smaller, so group-min IS the update
        dist = et.group(dist.union(frontier), "node_id", "min",
                        val_col="dist", out_col="dist").materialize()
    return renamed(dist, "node_id", node_col)


def label_prop_communities(edges_ds, nodes_ds, n_rounds: int = 3,
                           node_col: str = "node_id",
                           src_col: str = "src_id", dst_col: str = "dst_id"):
    """Synchronous label-propagation COMMUNITY detection (Raghavan et
    al. 2007, made deterministic): every node starts labeled with its
    own id; each round, a node adopts the most frequent label among its
    undirected neighbors, ties broken by the SMALLEST label; isolated
    nodes keep their label.  Fixed ``n_rounds`` synchronous rounds, so
    the answer is a pure function of the graph — exactly replicable by
    an unrolled SQL transcription (unlike the randomized asynchronous
    original).  Communities differ from connected components: a bridge
    between two dense clusters does not merge them.

    Scale shape: the neighbor table is the distinct undirected pairs,
    self-loops kept (a self-loop is a node's own vote).  Per round, ONE
    message step (each neighbor sends its label with a count of 1; the
    map-side fold pre-counts (node, label) pairs, and the destination
    exchange sums them and takes the deterministic top-1 in the same
    bucket pass), and a node-keyed LEFT join to carry isolated nodes —
    label state stays a distributed (node, label) table throughout,
    materialized once per round to keep lineage flat."""
    def both_dirs(t: pa.Table) -> pa.Table:
        s = t.column("node_id").to_numpy(zero_copy_only=False)
        d = t.column("dst_id").to_numpy(zero_copy_only=False)
        # source = the neighbor whose label travels; dst_id adopts it
        return pa.table({"node_id": np.concatenate([d, s]),
                         "dst_id": np.concatenate([s, d])})

    nbrs = distinct_edges(edge_table(edges_ds, src_col, dst_col), both_dirs)
    labels = nodes_ds.map_batches(
        lambda t: (lambda n: pa.table({"node_id": n, "lab": n}))(
            t.column(node_col).cast(pa.int64())),
        batch_format="pyarrow",
    ).materialize()

    def pick(c):
        c = c.sort_values(["node_id", "n", "lab"], ascending=[True, False, True],
                          kind="stable")
        p = c.groupby("node_id", sort=False).head(1)
        return pa.table({"node_id": p["node_id"].to_numpy(np.int64),
                         "new_lab": p["lab"].to_numpy(np.int64)})

    for _ in range(n_rounds):
        picks = nbrs.send(
            labels, ["lab"], {"n": "sum"},
            lambda t: pa.table({"node_id": t.column("dst_id"), "lab": t.column("lab"),
                                "n": pa.array(np.ones(t.num_rows, np.int64))}),
            by=["lab"], finish=pick,
        )
        labels = nbrs.join(
            labels, ("node_id", "lab"), picks, ("node_id", "new_lab"), how="left",
        ).map_batches(
            lambda t: pa.table({"node_id": t.column("node_id"), "lab": pc.coalesce(
                t.column("new_lab").cast(pa.int64()), t.column("lab"))}),
            batch_format="pyarrow",
        ).materialize()

    return labels.map_batches(
        lambda t: pa.table({node_col: t.column("node_id"),
                            "community": t.column("lab")}),
        batch_format="pyarrow",
    )
