"""Connected components (per-block forests merged on the driver) vs the
driver union-find; BFS, SSSP; the bucket count of every graph exchange."""

import numpy as np
import pandas as pd

from gliner_cpp_ray.stages.graph import connected_components
from gliner_cpp_ray.state.union_find import UnionFind, min_label_components


def _union_find_labels(a, b) -> dict:
    uf = UnionFind()
    for x, y in zip(a, b):
        uf.union(int(x), int(y))
    return uf.components()


def _check(edges, ray_session, n_blocks=3):
    import ray.data as rd

    df = pd.DataFrame(edges, columns=["a", "b"]).astype("int64")
    out = connected_components(rd.from_pandas(df).repartition(n_blocks))
    node = out.column("node").to_pylist()
    assert node == sorted(node)
    got = dict(zip(node, out.column("label").to_pylist()))
    # union-find roots are min-ids (union picks the smaller rep), so the
    # two contracts line up exactly
    assert got == _union_find_labels(df["a"], df["b"])


def test_cc_two_triangles_and_bridge(ray_session):
    _check([(1, 2), (2, 3), (3, 1), (10, 11), (11, 12), (3, 10)], ray_session)


def test_cc_separate_components_and_singletons_via_self_edges(ray_session):
    _check([(5, 6), (7, 7), (20, 21), (21, 22), (23, 22)], ray_session)


def test_cc_random_graph_matches_union_find(ray_session):
    rng = np.random.default_rng(3)
    edges = [tuple(sorted(p)) for p in rng.integers(0, 120, size=(150, 2))]
    _check(edges, ray_session)


def test_cc_path_graph_needs_diameter_rounds(ray_session):
    """A long path with shuffled ids, its edges split over blocks so no
    block sees more than a piece of it: min-label propagation needed one
    round per hop; the block forests and the driver merge need none."""
    rng = np.random.default_rng(4)
    ids = rng.permutation(200).tolist()
    edges = [(ids[i], ids[i + 1]) for i in range(199)]
    rng.shuffle(edges)
    _check(edges, ray_session, n_blocks=7)


def test_cc_empty_edge_list(ray_session):
    """Zero pairs (plausible at small corpora / tight thresholds) must
    yield an empty, typed labeling."""
    import pyarrow as pa
    import ray.data as rd

    empty = pd.DataFrame({"a": pd.Series(dtype="int64"),
                          "b": pd.Series(dtype="int64")})
    out = connected_components(rd.from_pandas(empty))
    assert out.num_rows == 0
    assert out.schema == pa.schema([("node", pa.int64()), ("label", pa.int64())])


def test_cc_over_empty_schemaless_blocks(ray_session):
    """Blocks with no rows and no columns (a map that returns an empty
    table, a join bucket with no rows) sit beside typed blocks; the
    merge reads only blocks that hold rows."""
    import pyarrow as pa
    import ray.data as rd

    def t(a, b):
        return pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})

    ds = rd.from_arrow([t([1, 2], [2, 3]), pa.table({}), t([3, 9], [5, 10]),
                        t([], [])])
    out = connected_components(ds.map_batches(
        lambda b: b if b.num_rows and 9 not in b.column("a").to_pylist() else pa.table({}),
        batch_format="pyarrow", batch_size=None,
    ))
    assert out.to_pydict() == {"node": [1, 2, 3], "label": [1, 1, 1]}
    assert connected_components(ds).to_pydict() == {
        "node": [1, 2, 3, 5, 9, 10], "label": [1, 1, 1, 1, 9, 9],
    }


def test_cc_ray_executions_do_not_grow_with_diameter(ray_session, monkeypatch):
    """Min-label propagation ran O(diameter) rounds of Ray executions;
    ``connected_components`` runs the same fixed plan for a 4-node and
    a 256-node path."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data._internal.plan import ExecutionPlan

    executions = []
    real = ExecutionPlan.create_executor

    def spy(self, *args, **kwargs):
        executions.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "create_executor", spy)
    counts = []
    for n in (4, 256):
        edges = pa.table({"a": pa.array(range(n - 1), pa.int64()),
                          "b": pa.array(range(1, n), pa.int64())})
        executions.clear()
        out = connected_components(rd.from_arrow(edges).repartition(4))
        assert out.column("label").to_pylist() == [0] * n
        counts.append(len(executions))
    assert counts[0] == counts[1] >= 1


def _assert_matches_union_find(a, b):
    node, label = min_label_components(a, b)
    assert node.dtype == label.dtype == np.int64
    assert node.tolist() == sorted(set(a.tolist()) | set(b.tolist()))
    assert dict(zip(node.tolist(), label.tolist())) == _union_find_labels(a, b)


def test_min_label_components_random_graphs_match_union_find():
    """Random graphs over ids from small ints to md5-u60 hashes, ids
    above 2^53 (not float64-exact) and ids near the int64 maximum, with
    self loops and duplicate edges."""
    rng = np.random.default_rng(12)
    top = np.iinfo(np.int64).max
    pools = [
        np.arange(50),
        rng.integers(0, 1 << 60, 400),  # md5-u60 range
        (1 << 53) + rng.integers(0, 64, 40),
        top - rng.integers(0, 64, 40),
    ]
    for trial in range(60):
        pool = np.unique(pools[trial % len(pools)]).astype(np.int64)
        m = int(rng.integers(1, 3 * len(pool)))
        a = rng.choice(pool, m)
        b = rng.choice(pool, m)
        loops = rng.random(m) < 0.1
        b[loops] = a[loops]
        dup = rng.integers(0, m, m // 4)
        a, b = np.concatenate([a, a[dup]]), np.concatenate([b, b[dup]])
        _assert_matches_union_find(a, b)


def test_min_label_components_edge_cases():
    empty = np.zeros(0, np.int64)
    node, label = min_label_components(empty, empty)
    assert node.tolist() == label.tolist() == []
    assert node.dtype == label.dtype == np.int64
    top = np.iinfo(np.int64).max
    # one self loop; one duplicated edge; ids that collide as float64
    _assert_matches_union_find(np.array([7], np.int64), np.array([7], np.int64))
    _assert_matches_union_find(
        np.array([top, top, (1 << 53) + 1], np.int64),
        np.array([top - 1, top - 1, 1 << 53], np.int64),
    )


def test_min_label_components_long_shuffled_paths():
    """Paths whose ids are shuffled (so the minimum sits anywhere along
    the path) and whose edges come in random order and direction."""
    rng = np.random.default_rng(13)
    for n in (2, 3, 17, 1000, 5000):
        ids = rng.choice(1 << 60, n, replace=False).astype(np.int64)
        order = rng.permutation(n - 1)
        a, b = ids[:-1][order], ids[1:][order]
        flip = rng.random(n - 1) < 0.5
        a, b = np.where(flip, b, a), np.where(flip, a, b)
        node, label = min_label_components(a, b)
        assert node.tolist() == sorted(ids.tolist())
        assert set(label.tolist()) == {int(ids.min())}
        if n <= 1000:
            _assert_matches_union_find(a, b)


# ---------------------------------------------------------------- BFS


def _bfs_reference(edges, seeds, max_hops):
    """Driver-side reference BFS (dict adjacency, queue)."""
    adj = {}
    for s, d in edges:
        adj.setdefault(int(s), []).append(int(d))
    dist = {int(s): 0 for s in seeds}
    frontier = list(dist)
    for h in range(1, max_hops + 1):
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = h
                    nxt.append(v)
        frontier = nxt
    return dist


def _check_bfs(edges, seeds, max_hops, ray_session):
    import ray.data as rd

    from gliner_cpp_ray.stages.graph import bfs_hop_distance

    edf = pd.DataFrame(edges, columns=["src_id", "dst_id"]).astype("int64")
    sdf = pd.DataFrame({"node_id": list(seeds)}).astype("int64")
    got = (
        bfs_hop_distance(
            rd.from_pandas(edf).repartition(3),
            rd.from_pandas(sdf),
            max_hops=max_hops,
        )
        .to_pandas()
        .set_index("node_id")["hops"]
        .to_dict()
    )
    assert got == _bfs_reference(edges, seeds, max_hops)


def test_bfs_chain_cap_and_multi_seed(ray_session):
    # chain 0->1->..->9, seeds {0, 7}: cap at 3 hops; 7 pulls the tail in
    edges = [(i, i + 1) for i in range(9)]
    _check_bfs(edges, [0, 7], 3, ray_session)


def test_bfs_cycle_and_unreached(ray_session):
    edges = [(0, 1), (1, 2), (2, 0), (5, 6)]  # 5/6 unreachable from seed
    _check_bfs(edges, [0], 4, ray_session)


def test_bfs_directedness(ray_session):
    # edges point INTO the seed: nothing but the seed is labeled
    edges = [(1, 0), (2, 0), (3, 1)]
    _check_bfs(edges, [0], 4, ray_session)


def test_bfs_random_graph_matches_reference(ray_session):
    rng = np.random.default_rng(7)
    edges = [tuple(p) for p in rng.integers(0, 80, size=(200, 2))]
    _check_bfs(edges, [0, 13, 26], 3, ray_session)


# --------------------------------------------------------------- SSSP


def _sssp_reference(edges, seeds, rounds):
    """Driver-side reference: ``rounds`` synchronous Bellman-Ford
    relaxations (the oracle semantics weighted_sssp must match)."""
    dist = {int(s): 0 for s in seeds}
    for _ in range(rounds):
        cur = dict(dist)
        for u, v, w in edges:
            du = cur.get(int(u))
            if du is not None and du + int(w) < dist.get(int(v), float("inf")):
                dist[int(v)] = du + int(w)
    return dist


def _check_sssp(edges, seeds, rounds, ray_session):
    import ray.data as rd

    from gliner_cpp_ray.stages.graph import weighted_sssp

    edf = pd.DataFrame(edges, columns=["u", "v", "w"]).astype("int64")
    sdf = pd.DataFrame({"node_id": list(seeds)}).astype("int64")
    got = (
        weighted_sssp(
            rd.from_pandas(edf).repartition(3),
            rd.from_pandas(sdf),
            rounds=rounds,
        )
        .to_pandas()
        .set_index("node_id")["dist"]
        .to_dict()
    )
    assert got == _sssp_reference(edges, seeds, rounds)


def test_sssp_cheap_detour_beats_direct_edge(ray_session):
    # direct 0->2 costs 10; detour 0->1->2 costs 3 but needs 2 hops
    edges = [(0, 2, 10), (0, 1, 1), (1, 2, 2)]
    assert _sssp_reference(edges, [0], 1)[2] == 10  # 1 round: direct only
    _check_sssp(edges, [0], 1, ray_session)
    _check_sssp(edges, [0], 2, ray_session)  # 2 rounds: detour wins (3)


def test_sssp_multi_seed_cycle_and_unreached(ray_session):
    edges = [(0, 1, 5), (1, 2, 5), (2, 0, 1), (3, 4, 2), (9, 0, 1)]
    _check_sssp(edges, [0, 3], 4, ray_session)  # 9 stays unreached


def test_sssp_round_cap_is_exact(ray_session):
    # chain of 6 unit edges: round cap k labels exactly k+1 nodes
    edges = [(i, i + 1, 1) for i in range(6)]
    for k in (1, 3, 6):
        _check_sssp(edges, [0], k, ray_session)


def test_sssp_random_graph_matches_reference(ray_session):
    rng = np.random.default_rng(11)
    uv = rng.integers(0, 60, size=(150, 2))
    w = rng.integers(1, 9, size=(150, 1))
    edges = [tuple(r) for r in np.hstack([uv, w])]
    _check_sssp(edges, [0, 17], 3, ray_session)


# ------------------------------------------------------ bucket sizing


def _bucket_spy():
    import sys
    from pathlib import Path

    tools = str(Path(__file__).resolve().parents[1] / "tools")
    if tools not in sys.path:
        sys.path.insert(0, tools)
    import bucket_spy

    return bucket_spy


def test_graph_operators_size_every_exchange_from_the_edge_rows(
        ray_session, monkeypatch):
    """With the sizer seeing 32 CPUs, a 200-edge graph still gets the
    floor of 8 buckets in every exchange and union coalesce of every
    graph operator: each sizes from its edge rows, none from
    ``default_buckets()`` (2 × CPUs = 64)."""
    import ray.data as rd

    from gliner_cpp_ray.stages import sizing
    from gliner_cpp_ray.stages.graph import (
        bfs_hop_distance, label_prop_communities, weighted_sssp,
    )
    from gliner_cpp_ray.stages.linkgraph import (
        cocitation_topk, hits_scores, host_reciprocity, k_core_nodes,
        pagerank, triangle_counts,
    )

    spy = _bucket_spy()
    monkeypatch.setattr(sizing, "cluster_cpus", lambda: 32)
    rng = np.random.default_rng(17)
    e = pd.DataFrame(rng.integers(0, 60, size=(200, 2)),
                     columns=["src_id", "dst_id"]).astype("int64")
    edges = rd.from_pandas(e.drop_duplicates()).repartition(3)
    nodes = rd.from_pandas(pd.DataFrame({"node_id": np.arange(60, dtype=np.int64)}))
    seeds = rd.from_pandas(pd.DataFrame({"node_id": np.array([0, 7], np.int64)}))
    weighted = rd.from_pandas(
        e.rename(columns={"src_id": "u", "dst_id": "v"}).assign(w=np.int64(3)))
    hosts = rd.from_pandas(
        (e % 12).drop_duplicates().rename(
            columns={"src_id": "src_host", "dst_id": "dst_host"}))
    runs = {
        "bfs_hop_distance": lambda: bfs_hop_distance(edges, seeds),
        "weighted_sssp": lambda: weighted_sssp(weighted, seeds),
        "label_prop_communities": lambda: label_prop_communities(edges, nodes),
        "pagerank": lambda: pagerank(edges, nodes),
        "personalized pagerank": lambda: pagerank(edges, nodes, seed_mod=7),
        "hits_scores": lambda: hits_scores(edges, nodes),
        "triangle_counts": lambda: triangle_counts(edges),
        "k_core_nodes": lambda: k_core_nodes(edges, k=2),
        "cocitation_topk": lambda: cocitation_topk(edges),
        "host_reciprocity": lambda: host_reciprocity(hosts),
    }
    off = {}
    for name, run in runs.items():
        with spy.bucket_spy() as log:
            assert run().materialize().count() > 0, name
        assert log.counts, name
        if {n for _, n in log.counts} != {8} or log.defaults:
            off[name] = log.line()
    assert not off, off


def test_bucket_spy_tool_tells_edge_sized_from_default_sized(ray_session):
    """``tools/bucket_spy.py`` on two sf0.001 registry queries with the
    sizer at 16 CPUs: ``degree_distribution`` sizes every exchange from
    its edge rows (8), ``user_value_mad`` takes ``default_buckets()``
    (32 = 2 × 16) and is counted as default-sized.  ``page_links``
    runs first: it builds the cached link graph, whose edge extraction
    is default-sized."""
    from test_queries_oracle import SF_DIR

    spy = _bucket_spy()
    got = {name: log for name, _, log in spy.spy_queries(
        ["page_links", "degree_distribution", "user_value_mad"], SF_DIR, cpus=16)}
    deg = got["degree_distribution"]
    assert deg.counts and {n for _, n in deg.counts} == {8}, deg.line()
    assert deg.defaults == 0
    mad = got["user_value_mad"]
    assert ("x", 32) in mad.counts, mad.line()
    assert mad.defaults >= 1
