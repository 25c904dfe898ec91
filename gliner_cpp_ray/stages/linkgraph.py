"""Web link-graph operators: link extraction, centralities, density.

Webtext pipelines need the hyperlink structure of the crawl — for crawl
frontier scoring, spam/quality priors, and graph features joined back
onto documents.  Nine operators:

* ``page_link_edges``: html → (src_id, dst_id, n) edge table.  The href
  scan is ONE compiled-regex pass over a per-batch concatenated buffer
  (match → source-row attribution via ``np.searchsorted`` on cumulative
  offsets), never a per-row Python ``findall``; per-batch partial counts
  (packed-u64 ``np.unique`` while ids fit 32 bits, a width-safe
  structured-view ``np.unique`` above that) bound the shuffle at tasks ×
  distinct edges, so raw link occurrences never cross the wire.
* ``top_anchor_per_target`` and ``host_link_edges``: the anchor-text
  signal and the host-level rollup of the same scan.
* ``pagerank`` (global and personalized) and ``hits_scores``: fixed
  iterations in EXACT integer arithmetic (micro-units, floor division)
  so the distributed result hash-matches a SQL transcription
  bit-for-bit — no float drift across engines.  PageRank drops
  dangling-node mass and teleports a constant 0.15 — the standard
  simplification; documented, replicated by the oracle.
* ``triangle_counts``, ``k_core_nodes``, ``cocitation_topk`` and
  ``host_reciprocity``: density and related-page signals over the
  distinct (undirected) edges.

The last six run on the graph layer of ``stages/graph.py``: one edge
table per operator, whose row count sizes every exchange the operator
makes, the degree table, and the message step (join node values onto
edge sources, combine per destination map-side, one grouped aggregate
per destination).  Rank and score state stays a distributed Dataset end
to end (corpus-proportional — never driver-collected); iteration counts
are fixed, so at 10^12 pages each round moves |edges| message rows +
|nodes| state rows through exchanges on the same key (node id).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from gliner_cpp_ray.stages.graph import (
    EdgeTable, distinct_edges, edge_table, renamed,
)
from gliner_cpp_ray.stages.joins import bucketed_group_agg

# one pass, one pattern: only hrefs that point at a crawled page match
# (nav/"about" links fall out for free).  \d+ (not a fixed width): the
# corpus zero-pads ids to 8 digits but grows past that at >=1e8 pages —
# a fixed {8} would silently drop every link above that id.  The closing
# '"' anchors the match.
_PAGE_HREF = re.compile(r'href="[^"]*/p/(\d+)"')
_URL_ID = r"/p/(?P<id>\d+)$"  # pc.extract_regex requires named groups

_EDGE_SCHEMA = pa.schema(
    [("src_id", pa.int64()), ("dst_id", pa.int64()), ("n", pa.int64())]
)


def _src_ids(urls: pa.ChunkedArray | pa.Array) -> np.ndarray:
    ex = pc.extract_regex(urls, _URL_ID)
    # null-safety: a url not matching the pattern yields a null struct,
    # which to_numpy would surface as NaN and a later int cast would
    # turn into garbage ids — fail loudly instead
    if ex.null_count:
        bad = urls.filter(pc.is_null(ex)).slice(0, 3).to_pylist()
        raise ValueError(
            f"{ex.null_count} urls do not match {_URL_ID!r} (e.g. {bad})"
        )
    return pc.struct_field(ex, "id").cast(pa.int64()).to_numpy(zero_copy_only=False)


def extract_page_links(batch: pa.Table) -> pa.Table:
    """pages(url, html, ...) → per-batch PARTIAL edge counts
    (src_id, dst_id, n).  One regex pass over the whole batch buffer."""
    htmls = batch.column("html").to_pylist()
    src = _src_ids(batch.column("url"))
    if not htmls:
        return pa.table({"src_id": [], "dst_id": [], "n": []}, schema=_EDGE_SCHEMA)
    texts = [h.decode("utf-8") for h in htmls]
    buf = "\x00".join(texts)
    # cumulative start offset of each doc inside the joined buffer
    ends = np.cumsum(np.fromiter((len(t) + 1 for t in texts), np.int64))
    starts, dsts = [], []
    for m in _PAGE_HREF.finditer(buf):
        starts.append(m.start())
        dsts.append(int(m.group(1)))
    if not starts:
        return pa.table({"src_id": [], "dst_id": [], "n": []}, schema=_EDGE_SCHEMA)
    row = np.searchsorted(ends, np.asarray(starts, np.int64), side="right")
    src_m = src[row]
    dst_m = np.asarray(dsts, np.int64)
    src_u, dst_u, counts = _count_distinct_pairs(src_m, dst_m)
    return pa.table(
        {"src_id": src_u, "dst_id": dst_u, "n": counts.astype(np.int64)},
        schema=_EDGE_SCHEMA,
    )


def _count_distinct_pairs(src: np.ndarray, dst: np.ndarray):
    """Distinct (src, dst) pairs + counts, in C.  Fast path packs both
    ids into one u64 (valid only while both fit 32 bits — checked, not
    assumed); ids >= 2^32 take the structured-view path, which is
    width-safe for the full int64 id space."""
    if src.size and src.max() < (1 << 32) and dst.max() < (1 << 32) \
            and src.min() >= 0 and dst.min() >= 0:
        packed = (src.astype(np.uint64) << np.uint64(32)) | dst.astype(np.uint64)
        uniq, counts = np.unique(packed, return_counts=True)
        return (
            (uniq >> np.uint64(32)).astype(np.int64),
            (uniq & np.uint64(0xFFFFFFFF)).astype(np.int64),
            counts,
        )
    pairs = np.ascontiguousarray(
        np.stack([src.astype(np.int64), dst.astype(np.int64)], axis=1)
    )
    view = pairs.view([("s", np.int64), ("d", np.int64)]).ravel()
    uniq, counts = np.unique(view, return_counts=True)
    return uniq["s"].copy(), uniq["d"].copy(), counts


def page_link_edges(pages_ds):
    """Full edge table (src_id, dst_id, n) from a pages Dataset.
    Pair keys scale with the graph, so the reduce is the bucketed
    vectorized grouped-sum, never the per-key aggregate loop."""
    partials = pages_ds.map_batches(extract_page_links, batch_format="pyarrow")
    return bucketed_group_agg(
        partials, ["src_id", "dst_id"], "sum", val_col="n", out_col="n"
    )


# anchor pattern: page-link href + its inner text (never contains '<')
_ANCHOR = re.compile(r'href="[^"]*/p/(\d+)">([^<]*)</a>')

_ANCHOR_SCHEMA = pa.schema(
    [("dst_id", pa.int64()), ("anchor", pa.string()), ("n", pa.int64())]
)


def extract_anchor_texts(batch: pa.Table) -> pa.Table:
    """html → per-batch PARTIAL (dst_id, anchor, n) counts.  Anchor text
    is the entity-linking / IR signal of the link graph (what other
    pages call a target).  One regex pass per batch buffer; the
    (dst, anchor) combiner bounds the shuffle."""
    import pandas as pd

    htmls = batch.column("html").to_pylist()
    dsts, texts = [], []
    for h in htmls:
        for m in _ANCHOR.finditer(h.decode("utf-8")):
            dsts.append(int(m.group(1)))
            texts.append(m.group(2))
    if not dsts:
        return _ANCHOR_SCHEMA.empty_table()
    c = (
        pd.DataFrame({"dst_id": dsts, "anchor": texts})
        .groupby(["dst_id", "anchor"], sort=False)
        .size()
        .reset_index(name="n")
    )
    return pa.Table.from_pandas(c, preserve_index=False).cast(_ANCHOR_SCHEMA)


def top_anchor_per_target(pages_ds):
    """(dst_id, anchor, n): each target page's most frequent incoming
    anchor text (ties → anchor asc).  Per-batch combiner → exact
    groupby-sum → shuffle-bounded grouped top-1."""
    from gliner_cpp_ray.stages.skew import grouped_top_k

    counts = bucketed_group_agg(
        pages_ds.map_batches(extract_anchor_texts, batch_format="pyarrow"),
        ["dst_id", "anchor"], "sum", val_col="n", out_col="n",
    )
    return grouped_top_k(counts, "dst_id", "n", "anchor", k=1)


def host_link_edges(edges_ds, n_hosts: int):
    """Page-level edge table → host-level edge rollup
    (src_host, dst_host, n).  Host assignment is id % n_hosts (the
    corpus url scheme), so the rollup is a pure map + groupby-sum —
    no second pass over html."""
    from ray.data.aggregate import Sum

    def to_host(t: pa.Table) -> pa.Table:
        src = t.column("src_id").to_numpy(zero_copy_only=False) % n_hosts
        dst = t.column("dst_id").to_numpy(zero_copy_only=False) % n_hosts
        return pa.table(
            {
                "src_host": pa.array(src.astype(np.int64)),
                "dst_host": pa.array(dst.astype(np.int64)),
                "n": t.column("n"),
            }
        )

    return (
        edges_ds.map_batches(to_host, batch_format="pyarrow")
        .groupby(["src_host", "dst_host"])
        .aggregate(Sum("n", alias_name="n"))
    )


# damping 0.85 as the exact rational 17/20; ranks in micro-units.
# contribution of u to each out-neighbour: (r_u * 17) // (20 * deg_u)
_TELEPORT = 150_000
_R0 = 1_000_000


def pagerank(edges_ds, nodes_ds, n_iters: int = 3,
             seed_mod: int | None = None):
    """Integer-exact fixed-iteration PageRank.

    ``edges_ds``: (src_id, dst_id[, n]) — REQUIRED to be distinct
    (src, dst) pairs; duplicates would inflate both out-degree and
    contributions.  ``page_link_edges`` satisfies this by construction
    (it groupby-aggregates to one row per pair); other callers must
    dedupe first.  ``nodes_ds``: (node_id) — the full vertex set
    (nodes without in-links keep the teleport rank).

    Returns a Dataset (node_id, rank_micro).  Exact-integer semantics:
    r_0 = 1_000_000; r_{k+1}(v) = 150_000 + Σ_{(u,v)} (r_k(u)*17) //
    (20*deg(u)).  Every quantity is int64 floor arithmetic, so a SQL
    transcription reproduces it bit-for-bit.

    Data movement: the rank state is the degree table over the node set
    (one node-sized join up front) with the rank beside each degree, so
    per-source contributions are computed map-side on the state, and
    each iteration is ONE message step: contributions join onto the
    edge sources and sum per destination.  The state's own rows ride
    the same exchange with contribution 0 (they keep un-linked nodes
    alive) and carry the degree as a max() — contribution messages
    carry degree 0, and degrees are never negative.

    ``seed_mod``: PERSONALIZED PageRank (random walk with restart /
    TrustRank-style seeded authority — the crawl-seeding quality prior).
    When set, only seed nodes (``node_id % seed_mod == 0`` — a
    deterministic, engine-replicable predicate standing in for a real
    seed list) receive initial mass and teleport:
    r_0(v) = 1_000_000·[seed(v)];
    r_{k+1}(v) = 150_000·[seed(v)] + Σ contributions.  The seed test is
    a map-side predicate on the node id, so the data movement is
    IDENTICAL to global PageRank — no extra join or broadcast."""
    et = edge_table(edges_ds)

    def seed_mask(ids: np.ndarray) -> np.ndarray:
        # all-ones for global PageRank; the personalized predicate
        # otherwise.  int64 0/1 so it multiplies straight into the
        # integer rank arithmetic.
        if seed_mod is None:
            return np.ones(len(ids), np.int64)
        return (ids % seed_mod == 0).astype(np.int64)

    def state_of(base: int):
        # (node_id[, c], deg) -> (node_id, r, deg): r = base·[seed] + c
        def fn(t: pa.Table) -> pa.Table:
            ids = t.column("node_id").to_numpy(zero_copy_only=False)
            c = (t.column("c").to_numpy(zero_copy_only=False)
                 if "c" in t.column_names else 0)
            return pa.table({"node_id": t.column("node_id"),
                             "r": pa.array(base * seed_mask(ids) + c),
                             "deg": t.column("deg")})

        return fn

    def contribs(t: pa.Table) -> pa.Table:
        r = t.column("r").to_numpy(zero_copy_only=False)
        d = t.column("deg").to_numpy(zero_copy_only=False)
        nz = d > 0
        ids = t.column("node_id").to_numpy(zero_copy_only=False)
        return pa.table({"node_id": ids[nz],
                         "c": (r[nz] * 17) // (20 * d[nz])})

    def to_dst(t: pa.Table) -> pa.Table:
        return pa.table({"node_id": t.column("dst_id"), "c": t.column("c"),
                         "deg": pa.array(np.zeros(t.num_rows, np.int64))})

    def zero_contrib(t: pa.Table) -> pa.Table:
        return pa.table({"node_id": t.column("node_id"),
                         "c": pa.array(np.zeros(t.num_rows, np.int64)),
                         "deg": t.column("deg")})

    state = et.degrees(nodes_ds).map_batches(state_of(_R0), batch_format="pyarrow")
    for _ in range(n_iters):
        # state is re-read twice per iteration (contributions + zero
        # rows): keep it materialized — node-sized, one int64 triple/row
        state = state.materialize()
        summed = et.send(
            state.map_batches(contribs, batch_format="pyarrow"), ["c"],
            {"c": "sum", "deg": "max"}, to_dst,
            keep=state.map_batches(zero_contrib, batch_format="pyarrow"),
        )
        state = summed.map_batches(state_of(_TELEPORT), batch_format="pyarrow")

    return state.map_batches(
        lambda t: pa.table({"node_id": t.column("node_id"),
                            "rank_micro": t.column("r")}),
        batch_format="pyarrow",
    )


def hits_scores(edges_ds, nodes_ds, n_iters: int = 2,
                scale_shift: int = 0):
    """Integer-exact fixed-iteration HITS (hubs & authorities) — the
    second classic link-graph centrality next to ``pagerank``, and the
    standard crawl-quality prior distinguishing directories (hubs) from
    endorsed content (authorities).

    ``edges_ds``: (src_id, dst_id[, n]) — REQUIRED distinct pairs
    (``page_link_edges`` output qualifies); multiplicity is ignored.
    ``nodes_ds``: (node_id) — full vertex set, so isolated nodes emit
    score 0 rows.

    Exact-integer semantics (every engine reproduces them bit-for-bit):
      h_0(u) = 1_000_000
      a_k(v) = (Σ_{(u,v)∈E} h_{k-1}(u)) // 2^scale_shift
      h_k(u) = (Σ_{(u,v)∈E} a_k(v))     // 2^scale_shift
    No float normalization — magnitudes grow like
    (max_indeg · max_outdeg)^k · 1e6, so int64 holds n_iters=2 up to
    degree ~2e3 at shift 0; set ``scale_shift`` (a per-half-step floor
    right-shift, SQL-replicable as ``// (1 << shift)``) to buy headroom
    on hub-heavy graphs.

    Returns Dataset (node_id, auth_micro, hub_micro).

    Scale shape (same as ``pagerank``): two edge tables (keyed by src
    for the authority step, by dst for the hub step); each half-step is
    one message step (score join + map-side combined sum per
    destination), all exchanges partitioned on node id; score state
    stays a distributed Dataset end to end.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    by_src = edge_table(edges_ds)
    by_dst = edge_table(edges_ds, "dst_id", "src_id")

    def scores(value: int):
        return lambda t: pa.table({
            "node_id": t.column("node_id"),
            "s": pa.array(np.full(t.num_rows, value, np.int64)),
        })

    # the 0-score row per vertex, so nodes with no in-edges (for a
    # half-step's direction) still emit a row.  Only the FINAL half-step
    # of each kind needs it — in intermediate steps a missing score row
    # contributes exactly what a 0 row does (nothing) to the next join.
    nodes_zero = nodes_ds.map_batches(scores(0), batch_format="pyarrow").materialize()

    def rescale(t: pa.Table) -> pa.Table:
        s = t.column("s").to_numpy(zero_copy_only=False)
        if scale_shift:
            s = s >> scale_shift  # == // (1 << shift); s never negative
        return pa.table({"node_id": t.column("node_id"), "s": pa.array(s)})

    def half_step(et, values, last: bool):
        summed = et.send(values, ["s"], {"s": "sum"},
                         keep=nodes_zero if last else None)
        return summed.map_batches(rescale, batch_format="pyarrow")

    hub = nodes_ds.map_batches(scores(1_000_000), batch_format="pyarrow")
    for i in range(n_iters):
        last = i == n_iters - 1
        # reused by the hub step -> materialize
        auth = half_step(by_src, hub, last).materialize()
        hub = half_step(by_dst, auth, last)

    final = by_src.join(auth, ("node_id", "s"), hub, ("node_id", "s"), suffix="_h")
    return final.map_batches(lambda t: pa.table({
        "node_id": t.column("node_id"),
        "auth_micro": t.column("s"),
        "hub_micro": t.column("s_h"),
    }), batch_format="pyarrow")


def _undirected_distinct_edges(edges_ds) -> EdgeTable:
    """(src_id, dst_id[, n]) directed links -> the edge table of the
    distinct undirected pairs (node_id < dst_id), self-loops dropped —
    the shared prep of ``triangle_counts`` and ``k_core_nodes``.  One
    grouped count performs the distinct; ids must fit 31 bits (packing
    guard, same rationale as ``_count_distinct_pairs``)."""

    def undirect(t: pa.Table) -> pa.Table:
        s = t.column("node_id").to_numpy(zero_copy_only=False)
        d = t.column("dst_id").to_numpy(zero_copy_only=False)
        if s.size and (s.max() >= (1 << 31) or d.max() >= (1 << 31)
                       or s.min() < 0 or d.min() < 0):
            raise ValueError(
                "undirected edge prep packs pairs into int64: node ids "
                "must be in [0, 2^31); use a struct key beyond that"
            )
        keep = s != d
        s, d = s[keep], d[keep]
        return pa.table({"node_id": np.minimum(s, d), "dst_id": np.maximum(s, d)})

    return distinct_edges(edge_table(edges_ds), undirect)


def triangle_counts(edges_ds):
    """Per-node triangle counts on the undirected link graph — the
    clustering/spam-farm signal (dense mutual-link neighborhoods) next
    to the two centralities.

    ``edges_ds``: (src_id, dst_id[, n]) directed page links; direction
    and multiplicity are ignored, self-loops dropped.

    Returns Dataset (node_id, n_triangles) for nodes in >= 1 triangle.

    Scale shape — DEGREE-ORDERED orientation, the standard skew tamer:
    every undirected edge is directed from its (degree, id)-smaller
    endpoint, so each triangle has exactly ONE apex (its minimum vertex
    in that order) and per-apex out-degree is O(sqrt(|E|)) on ANY graph
    — a celebrity page with 10^7 in-links generates wedges only from
    its few low-degree-endpoint out-edges, never 10^14 pairs.  Stages:
    two bucketed joins attach endpoint degrees, one apex-hash shuffle
    expands wedges per whole bucket (vectorized pandas self-merge), one
    bucketed semi-join closes wedges against the edge set, and a final
    groupby-sum credits each triangle to its three corners.

    The closing join packs (b, c) into one int64 (``b * 2**32 + c``,
    replicated literally by the SQL oracle); ids must fit 31 bits —
    checked, with the width-safe struct-key alternative documented at
    ``_count_distinct_pairs``.
    """
    import pandas as pd

    und = _undirected_distinct_edges(edges_ds)
    deg = und.degrees(undirected=True)
    j1 = und.join(und.ds, und.cols, deg, ("node_id", "deg")).map_batches(
        lambda t: pa.table({"u": t.column("node_id"), "node_id": t.column("dst_id"),
                            "deg_u": t.column("deg")}),
        batch_format="pyarrow",
    )
    j2 = und.join(j1, ("u", "node_id", "deg_u"), deg, ("node_id", "deg"))

    def orient(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False)
        v = t.column("node_id").to_numpy(zero_copy_only=False)
        du = t.column("deg_u").to_numpy(zero_copy_only=False)
        dv = t.column("deg").to_numpy(zero_copy_only=False)
        # ties go to u: u < v by construction, so (deg, id) order
        # reduces to deg_u <= deg_v
        take_u = du <= dv
        return pa.table({"src": np.where(take_u, u, v),
                         "dst": np.where(take_u, v, u)})

    def wedge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {
                    "a": pd.Series([], dtype=np.int64),
                    "k": pd.Series([], dtype=np.int64),
                }
            )
        g = g[["src", "dst"]]
        m = g.merge(g, on="src", suffixes=("_b", "_c"))
        m = m[m["dst_b"] < m["dst_c"]]
        k = m["dst_b"].to_numpy(np.int64) * np.int64(1 << 32) + m[
            "dst_c"
        ].to_numpy(np.int64)
        return pd.DataFrame({"a": m["src"].to_numpy(np.int64), "k": k})

    wedges = und.exchange(j2.map_batches(orient, batch_format="pyarrow"),
                          "src", wedge_bucket)
    und_keys = und.ds.map_batches(
        lambda t: pa.table({"k": pc.add(
            pc.multiply(t.column("node_id"), pa.scalar(1 << 32, pa.int64())),
            t.column("dst_id"),
        )}),
        batch_format="pyarrow",
    )
    tri = und.join(wedges, ("a", "k"), und_keys, ("k",), on="k")

    def credits(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        k = t.column("k").to_numpy(zero_copy_only=False)
        b = k >> np.int64(32)
        c = k & np.int64((1 << 32) - 1)
        return pa.table({"node_id": np.concatenate([a, b, c])})

    return und.group(tri.map_batches(credits, batch_format="pyarrow"),
                     "node_id", "count", out_col="n_triangles")


def k_core_nodes(edges_ds, k: int = 3, n_rounds: int = 2):
    """Bounded k-core peeling over the undirected link graph — the
    density signal that separates tightly inter-linked cores (hubs,
    spam farms, canonical-content clusters) from the tree-like crawl
    periphery, complementing the two centralities and the triangle
    clustering count.

    ``edges_ds``: (src_id, dst_id[, n]) directed page links; direction,
    multiplicity and self-loops are ignored (``_undirected_distinct_edges``).

    Exact bounded semantics (bit-reproducible; the fixpoint k-core is
    the limit of this sequence):

        S_0 = all endpoint nodes
        round r: deg_r(n) = degree of n in the subgraph INDUCED by
                 S_{r-1} (both endpoints must survive);
                 S_r = { n : deg_r(n) >= k }

    Output after ``n_rounds``: Dataset (node_id, deg) for n in S_R with
    deg = deg_R(n).  Real crawl graphs peel to the fixpoint in a few
    rounds; the bound makes the operator a fixed-depth dataflow with an
    exactly SQL-replicable answer (unrolled CTE levels) instead of a
    driver-controlled loop of unknown depth.

    Scale shape: the distinct edge table materializes ONCE; each round
    after the first is two bucketed semi joins (edges vs the surviving
    node set — node-sized, so never broadcast) + one degree groupby,
    all exchanges partitioned on node id; survivor state stays a
    distributed Dataset end to end.  Per-round cost shrinks with the
    peeled subgraph.  Movement: <= n_rounds * 3 node/edge-bounded
    exchanges.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")

    und = _undirected_distinct_edges(edges_ds)
    edges_r, surv = und.ds, None
    for _ in range(n_rounds):
        if surv is not None:
            # induced subgraph: an edge survives iff BOTH endpoints do
            surv = surv.select_columns(["node_id"]).materialize()
            for end in und.cols:
                edges_r = und.join(edges_r, und.cols, renamed(surv, "node_id", end),
                                   (end,), on=end)
        deg = und.derive(edges_r).degrees(undirected=True)
        surv = deg.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("deg"), k)),
            batch_format="pyarrow",
        )
    return surv


def cocitation_topk(edges_ds, k: int = 3, deg_cap: int = 64):
    """Per-page top-k co-cited partners — the classic related-page
    signal: pages (a, b) are co-cited once for every source page that
    links to BOTH, and each page reports its ``k`` strongest partners.

    ``edges_ds``: (src_id, dst_id[, n]) DISTINCT directed page links
    (``page_link_edges`` output qualifies).

    Returns Dataset (node_id, partner_id, n_common): for every page
    with >= 1 co-citation partner, its top-k partners by
    (n_common desc, partner_id asc) — deterministic, SQL-replicable.

    Scale shape: a source with out-degree d yields d·(d-1)/2 pairs, so
    directory/hub pages explode quadratically; sources with out-degree
    > ``deg_cap`` are EXCLUDED (deterministic, replicated by the
    oracle) — the standard co-citation hub cut (a page linking to 10^4
    others asserts ~nothing pairwise).  Under the cap, wedge expansion
    is a per-bucket vectorized self-merge bounded by cap × |edges|
    rows; pair counts shuffle once (packed-u64 key), the top-k pass is
    ``grouped_top_k``'s combiner-bounded shuffle.  Ids must fit 31
    bits for the packed pair key (same contract + check as
    ``triangle_counts``)."""
    import pandas as pd

    from gliner_cpp_ray.stages.skew import grouped_top_k

    et = edge_table(edges_ds)
    kept_src = et.degrees().map_batches(
        lambda t: t.filter(pc.less_equal(t.column("deg"), deg_cap)).select(["node_id"]),
        batch_format="pyarrow",
    )
    el = et.join(et.ds, et.cols, kept_src, ("node_id",))

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {
                    "k": pd.Series([], dtype=np.int64),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        g = g[["node_id", "dst_id"]]
        if g["dst_id"].max() >= (1 << 31):
            raise ValueError("dst ids must fit 31 bits for the packed pair key")
        m = g.merge(g, on="node_id", suffixes=("_a", "_b"))
        m = m[m["dst_id_a"] < m["dst_id_b"]]
        key = m["dst_id_a"].to_numpy(np.int64) * np.int64(1 << 32) + m[
            "dst_id_b"
        ].to_numpy(np.int64)
        # per-bucket combiner: collapse repeats before the pair shuffle
        u, c = np.unique(key, return_counts=True)
        return pd.DataFrame({"k": u, "n": c.astype(np.int64)})

    pair_counts = et.group(et.exchange(el, "node_id", pairs_bucket),
                           "k", "sum", val_col="n", out_col="n_common")

    def symmetrize(t: pa.Table) -> pa.Table:
        key = t.column("k").to_numpy(zero_copy_only=False)
        n = t.column("n_common").to_numpy(zero_copy_only=False)
        a = key >> np.int64(32)
        b = key & np.int64((1 << 32) - 1)
        return pa.table({"node_id": np.concatenate([a, b]),
                         "partner_id": np.concatenate([b, a]),
                         "n_common": np.concatenate([n, n])})

    sym = pair_counts.map_batches(symmetrize, batch_format="pyarrow")
    return grouped_top_k(sym, "node_id", "n_common", "partner_id", k=k,
                         n_buckets=et.n_buckets)


def host_reciprocity(host_edges_ds):
    """Per-host reciprocal-link ratio over the host-level link graph —
    the mutual-endorsement vs drive-by-citation signal (link farms and
    mirror rings show near-1.0 reciprocity; organic hosts sit low).

    ``host_edges_ds``: (src_host, dst_host[, n]) distinct host pairs
    (``host_link_edges`` output qualifies).  Self-loops are ignored.

    Returns Dataset (host_id, n_out_hosts, n_reciprocal, recip_micro)
    with recip_micro = 1_000_000 * n_reciprocal // n_out_hosts — exact
    integer arithmetic, SQL-replicable.

    Movement: one packed-key bucketed semi join of the edge table
    against its own flip (host ids must fit 31 bits — checked) + one
    host-keyed group-sum; everything is edge-table-bounded, no
    densification."""
    et = edge_table(host_edges_ds, "src_host", "dst_host")

    def fwd(t: pa.Table) -> pa.Table:
        s = t.column("node_id").to_numpy(zero_copy_only=False)
        d = t.column("dst_id").to_numpy(zero_copy_only=False)
        if len(s) and max(s.max(), d.max()) >= (1 << 31):
            raise ValueError("host ids must fit 31 bits for the packed key")
        keep = s != d
        return pa.table({"src": s[keep],
                         "k": s[keep] * np.int64(1 << 32) + d[keep]})

    def rev(t: pa.Table) -> pa.Table:
        s = t.column("node_id").to_numpy(zero_copy_only=False)
        d = t.column("dst_id").to_numpy(zero_copy_only=False)
        keep = s != d
        return pa.table({"k": d[keep] * np.int64(1 << 32) + s[keep],
                         "flag": np.ones(int(keep.sum()), np.int64)})

    marked = et.join(
        et.ds.map_batches(fwd, batch_format="pyarrow"), ("src", "k"),
        et.ds.map_batches(rev, batch_format="pyarrow"), ("k", "flag"),
        on="k", how="left",
    )

    def to_counts(t: pa.Table) -> pa.Table:
        return pa.table({"host_id": t.column("src"),
                         "one": pa.array(np.ones(t.num_rows, np.int64)),
                         "flag": pc.fill_null(t.column("flag"), 0).cast(pa.int64())})

    def ratio(t: pa.Table) -> pa.Table:
        out = t.column("n_out_hosts").to_numpy(zero_copy_only=False)
        rec = t.column("n_reciprocal").to_numpy(zero_copy_only=False)
        return t.append_column("recip_micro", pa.array(1_000_000 * rec // out))

    agg = et.group(
        marked.map_batches(to_counts, batch_format="pyarrow"), "host_id",
        specs=[("sum", "one", "n_out_hosts"), ("sum", "flag", "n_reciprocal")],
    )
    return agg.map_batches(ratio, batch_format="pyarrow")
