"""Graph operators: connected components, BFS, SSSP, communities.

Connected components follow BTS (ICDE'24, PAPERS.md): each block of the
edge list becomes its own union-find forest, and the forests merge on
the driver.  The per-block step turns a pair list that does not reduce
(near-dup pairs grow quadratically inside big clusters) into one row per
(node, block), so the driver never holds one row per edge, and the
whole computation is one Ray execution whatever the graph's diameter.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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


def _rename(ds, mapping: dict):
    return ds.map_batches(
        lambda t: t.rename_columns([mapping.get(c, c) for c in t.schema.names]),
        batch_format="pyarrow",
    )


def bfs_hop_distance(edges_ds, seeds_ds, max_hops: int = 4,
                     src_col: str = "src_id", dst_col: str = "dst_id",
                     node_col: str = "node_id",
                     n_buckets: int | None = None):
    """Multi-source directed BFS: minimum hop count from any seed node,
    capped at ``max_hops`` (crawl-frontier distance, seed-proximity
    features for quality priors).

    Returns a Dataset of ``(node_col, hops)`` — one row per node
    reachable within ``max_hops`` directed hops of a seed (seeds
    themselves at 0).  Unreachable nodes are absent, matching the SQL
    recursive-CTE group-min transcription.

    Plan: classic FRONTIER expansion, not whole-state relaxation — per
    hop, one bucketed hash join of the edge table against only the
    CURRENT frontier (nodes first reached last hop), one groupby to
    distinct the reached set, one bucketed anti join against the
    visited set.  Per-hop shuffle volume is bounded by the edges
    incident to the frontier plus the node-bounded visited keys; rows
    already labeled never re-enter the join (a Bellman-Ford-style
    full-state relax would re-ship the entire label table every round).
    The driver sees only O(1) per hop (an empty-frontier count check);
    visited/frontier stay distributed, spillable Datasets throughout.
    """
    from gliner_cpp_ray.stages.joins import (
        bucketed_anti_join,
        bucketed_group_agg,
        bucketed_hash_join,
    )
    from gliner_cpp_ray.stages.sizing import default_buckets

    def seed0(t: pa.Table) -> pa.Table:
        ids = t.column(node_col).cast(pa.int64())
        return pa.table(
            {node_col: ids,
             "hops": pa.array(np.zeros(t.num_rows, np.int64))}
        )

    # edge table keyed by source, pruned to the two id columns
    def as_probe(t: pa.Table) -> pa.Table:
        return pa.table(
            {node_col: t.column(src_col).cast(pa.int64()),
             "__dst": t.column(dst_col).cast(pa.int64())}
        )

    probe = edges_ds.map_batches(as_probe, batch_format="pyarrow").materialize()
    if n_buckets is None:
        # rows-scaled, cluster-capped: every hop pays per-bucket fixed
        # costs across three exchanges, so small graphs must not fan out
        # to 2×CPU groups
        n_buckets = max(8, min(default_buckets(None), probe.count() // 250_000))
    visited = seeds_ds.map_batches(seed0, batch_format="pyarrow").materialize()
    frontier = visited
    for h in range(1, max_hops + 1):
        if frontier.count() == 0:
            break
        reached = bucketed_hash_join(
            probe,
            frontier.select_columns([node_col]),
            on=node_col,
            n_buckets=n_buckets,
        )
        # distinct the reached set (a frontier node's out-neighbors
        # overlap heavily inside dense sites)
        nodes_reached = _rename(
            bucketed_group_agg(
                reached, "__dst", "count", out_col="__c",
                n_buckets=n_buckets,
            ).select_columns(["__dst"]),
            {"__dst": node_col},
        ).materialize()  # anti join needs a schema; empty ⇒ done
        if nodes_reached.count() == 0:
            break
        new = bucketed_anti_join(
            nodes_reached, visited, on=node_col, n_buckets=n_buckets,
        ).map_batches(
            lambda t, _h=h: t.append_column(
                "hops", pa.array(np.full(t.num_rows, _h, np.int64))
            ),
            batch_format="pyarrow",
        ).materialize()
        # union of already-materialized operands is a zero-copy plan
        # node — no re-execution, no block rewrite
        visited = visited.union(new)
        frontier = new
    return visited


def weighted_sssp(edges_ds, seeds_ds, rounds: int = 4,
                  src_col: str = "u", dst_col: str = "v", w_col: str = "w",
                  node_col: str = "node_id", n_buckets: int | None = None):
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
    whole-state Bellman-Ford does.  Distance state stays a distributed
    (node, dist) Dataset; the driver sees O(1) per round (an
    empty-frontier check)."""
    from gliner_cpp_ray.stages.joins import (
        bucketed_group_agg,
        bucketed_hash_join,
    )
    from gliner_cpp_ray.stages.sizing import default_buckets

    def as_probe(t: pa.Table) -> pa.Table:
        return pa.table(
            {node_col: t.column(src_col).cast(pa.int64()),
             "__dst": t.column(dst_col).cast(pa.int64()),
             "__w": t.column(w_col).cast(pa.int64())}
        )

    probe = edges_ds.map_batches(as_probe, batch_format="pyarrow").materialize()
    if n_buckets is None:
        # rows-scaled, cluster-capped (bfs_hop_distance rationale)
        n_buckets = max(8, min(default_buckets(None), probe.count() // 250_000))

    def seed0(t: pa.Table) -> pa.Table:
        return pa.table(
            {node_col: t.column(node_col).cast(pa.int64()),
             "dist": pa.array(np.zeros(t.num_rows, np.int64))}
        )

    dist = seeds_ds.map_batches(seed0, batch_format="pyarrow").materialize()
    frontier = dist
    dist_schema = pa.schema([(node_col, pa.int64()), ("dist", pa.int64())])
    for _ in range(rounds):
        if frontier.count() == 0:
            break
        relaxed = bucketed_hash_join(
            probe, frontier, on=node_col, n_buckets=n_buckets,
        ).map_batches(
            lambda t: pa.table(
                {
                    node_col: t.column("__dst"),
                    "dist": pa.compute.add(t.column("dist"), t.column("__w")),
                }
            ),
            batch_format="pyarrow",
        )
        # best candidate per destination this round
        cand = bucketed_group_agg(
            relaxed, node_col, "min", val_col="dist", out_col="dist",
            n_buckets=n_buckets,
        )
        # keep only strict improvements vs the current distance table
        # (LEFT join: unreached nodes surface as NaN = +inf)
        merged = bucketed_hash_join(
            cand, dist, on=node_col, n_buckets=n_buckets, how="left",
            left_schema=dist_schema, right_schema=dist_schema,
        )

        def improvements(t: pa.Table) -> pa.Table:
            new = t.column("dist").to_numpy(zero_copy_only=False)
            old = t.column("dist_r").to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            keep = np.isnan(old) | (new < old)
            kept = t.filter(pa.array(keep))
            return pa.table(
                {node_col: kept.column(node_col), "dist": kept.column("dist")}
            )

        frontier = merged.map_batches(
            improvements, batch_format="pyarrow"
        ).materialize()
        if frontier.count() == 0:
            break
        # fold improvements in: union + per-node min (improved rows are
        # strictly smaller, so group-min IS the update)
        dist = bucketed_group_agg(
            dist.union(frontier), node_col, "min", val_col="dist",
            out_col="dist", n_buckets=n_buckets,
        ).materialize()
    return dist


def label_prop_communities(edges_ds, nodes_ds, n_rounds: int = 3,
                           node_col: str = "node_id",
                           src_col: str = "src_id", dst_col: str = "dst_id",
                           n_buckets: int | None = None):
    """Synchronous label-propagation COMMUNITY detection (Raghavan et
    al. 2007, made deterministic): every node starts labeled with its
    own id; each round, a node adopts the most frequent label among its
    undirected neighbors, ties broken by the SMALLEST label; isolated
    nodes keep their label.  Fixed ``n_rounds`` synchronous rounds, so
    the answer is a pure function of the graph — exactly replicable by
    an unrolled SQL transcription (unlike the randomized asynchronous
    original).  Communities differ from connected components: a bridge
    between two dense clusters does not merge them.

    Scale shape: per round, ONE node-hash bucketed join (neighbor
    labels onto the adjacency), ONE tgt-hash exchange whose per-batch
    combiner pre-counts (tgt, label) pairs and whose whole-bucket
    reduce sums partials and takes the deterministic top-1 in a single
    pandas pass, and a node-keyed LEFT join to carry isolated nodes —
    label state stays a distributed (node, label) table throughout,
    materialized once per round to keep lineage flat."""
    import pandas as pd

    from gliner_cpp_ray.stages.joins import (
        bucketed_group_agg,
        bucketed_hash_join,
        keyed_exchange,
    )
    from gliner_cpp_ray.stages.sizing import default_buckets

    # undirected distinct neighbor pairs (tgt adopts from nb)
    def both_dirs(t: pa.Table) -> pa.Table:
        s = t.column(src_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        d = t.column(dst_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "tgt": pa.array(np.concatenate([s, d])),
                "nb": pa.array(np.concatenate([d, s])),
            }
        )

    und = bucketed_group_agg(
        edges_ds.map_batches(both_dirs, batch_format="pyarrow"),
        ["tgt", "nb"], agg="count", out_col="__m", n_buckets=n_buckets,
    ).map_batches(
        # join key first: neighbor labels attach via nb = labels.node
        lambda t: pa.table({"node": t.column("nb"), "tgt": t.column("tgt")}),
        batch_format="pyarrow",
    ).materialize()  # consumed every round

    labels = nodes_ds.map_batches(
        lambda t: (lambda n: pa.table({"node": n, "lab": n}))(
            t.column(node_col).cast(pa.int64())
        ),
        batch_format="pyarrow",
    ).materialize()

    lab_schema = pa.schema([("node", pa.int64()), ("lab", pa.int64())])
    nb = default_buckets(n_buckets)

    def partial_counts(t: pa.Table) -> pa.Table:
        # map-side combiner: (tgt, lab, partial n) — bounds the pick
        # exchange at tasks x distinct (tgt, lab) pairs
        df = pd.DataFrame(
            {
                "tgt": t.column("tgt").to_numpy(zero_copy_only=False),
                "lab": t.column("lab").to_numpy(zero_copy_only=False),
            }
        )
        c = df.groupby(["tgt", "lab"], sort=False).size().reset_index(name="pn")
        c["pn"] = c["pn"].astype(np.int64)
        return pa.Table.from_pandas(c, preserve_index=False)

    def pick_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {
                    "node": np.zeros(0, np.int64),
                    "new_lab": np.zeros(0, np.int64),
                }
            )
        c = g.groupby(["tgt", "lab"], sort=False)["pn"].sum().reset_index()
        c = c.sort_values(
            ["tgt", "pn", "lab"], ascending=[True, False, True], kind="stable"
        )
        p = c.groupby("tgt", sort=False).head(1)
        return pd.DataFrame(
            {
                "node": p["tgt"].to_numpy(np.int64),
                "new_lab": p["lab"].to_numpy(np.int64),
            }
        )

    for _ in range(n_rounds):
        nb_labels = bucketed_hash_join(
            und, labels, on="node", n_buckets=n_buckets,
            left_schema=pa.schema([("node", pa.int64()), ("tgt", pa.int64())]),
            right_schema=lab_schema,
        )
        picks = keyed_exchange(
            nb_labels.map_batches(partial_counts, batch_format="pyarrow"),
            ["tgt"], pick_bucket, nb,
        )
        labels = bucketed_hash_join(
            labels, picks, on="node", how="left", n_buckets=n_buckets,
            left_schema=lab_schema,
            right_schema=pa.schema(
                [("node", pa.int64()), ("new_lab", pa.int64())]
            ),
        ).map_batches(
            lambda t: pa.table(
                {
                    "node": t.column("node"),
                    "lab": pc.coalesce(
                        t.column("new_lab").cast(pa.int64()),
                        t.column("lab").cast(pa.int64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

    return labels.map_batches(
        lambda t: pa.table(
            {node_col: t.column("node"), "community": t.column("lab")}
        ),
        batch_format="pyarrow",
    )
