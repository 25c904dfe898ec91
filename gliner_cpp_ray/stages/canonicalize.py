"""Canonicalization (B9/B10) + graph materialization (B11-B13).

Every aggregate is a sum or a capped sorted set over RAW keys, so each
mentions write task computes its partials before any canon map exists:

1. ``count_surfaces`` — ``(text, label, count)`` per distinct surface;
   ``count_triples`` — per distinct raw triple ``(subj, subj_label,
   subj_qid, pred, obj, obj_label, obj_qid)``, its count and smallest
   ``_PROVENANCE_CAP`` distinct doc ids.
2. ``resolve_surfaces`` — driver-side over the summed surface counts:
   links each distinct surface once, derives the distinct
   ``(norm_surface, label, qid)`` pairs and runs ``build_canon_map``, a
   union-find (state/union_find.py) over surfaces and qids with a
   deterministic ``canon_id`` per component; it also emits the mention
   node partials.
3. ``rewrite_partials_to_canon`` — triple partials -> edge partials,
   merged by ``reduce_edge_bucket`` (``reduce_edges`` on the driver, or
   behind one ``keyed_exchange`` on the triple key) and sorted by key
   (B13).
4. ``canonize_triple_endpoints`` — node partials of context-resolved
   ambiguous endpoints (weighted by the partials' ``count``); with the
   mention partials they reduce once on the driver (``reduce_nodes``),
   under the same vocabulary bound.

``collect_surface_pairs``, ``canonize_mentions`` and
``rewrite_triples_to_canon`` are the per-block forms over mention and
linked rows, kept for the benchmark's in-process replay and the tail's
test oracle (tests/oracle_kg_tail.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from gliner_cpp_ray.sources import world
from gliner_cpp_ray.stages.linking import EntityLinker, default_linker

EDGES_SCHEMA = pa.schema(
    [
        ("subj_canon", pa.string()),
        ("pred", pa.string()),
        ("obj_canon", pa.string()),
        ("weight", pa.int64()),
        ("provenance", pa.list_(pa.string())),
    ]
)

NODES_SCHEMA = pa.schema(
    [
        ("canon_id", pa.string()),
        ("surface", pa.string()),
        ("label", pa.string()),
        ("aliases", pa.list_(pa.string())),
        ("mention_count", pa.int64()),
    ]
)

# per-block edge partials: one sampled doc id per triple per block
EDGE_PARTIALS_SCHEMA = pa.schema(
    [
        ("subj_canon", pa.string()),
        ("pred", pa.string()),
        ("obj_canon", pa.string()),
        ("count", pa.int64()),
        ("prov", pa.list_(pa.string())),
    ]
)

# one row per distinct raw triple (endpoint labels and qids included):
# its occurrence count and smallest ``_PROVENANCE_CAP`` distinct doc ids
TRIPLE_KEY = [
    "subj", "subj_label", "subj_qid", "pred", "obj", "obj_label", "obj_qid",
]
TRIPLE_PARTIALS_SCHEMA = pa.schema(
    [(k, pa.string()) for k in TRIPLE_KEY]
    + [("count", pa.int64()), ("prov", pa.list_(pa.string()))]
)

# one row per distinct mention surface, with its occurrence count
SURFACE_COUNTS_SCHEMA = pa.schema(
    [("text", pa.string()), ("label", pa.string()), ("count", pa.int64())]
)

# node partials: occurrences of ``surface`` (as ``label``) in ``canon_id``
NODE_PARTIALS_SCHEMA = pa.schema(
    [
        ("canon_id", pa.string()),
        ("surface", pa.string()),
        ("label", pa.string()),
        ("count", pa.int64()),
    ]
)

_PROVENANCE_CAP = 8
_ALIAS_CAP = 16


def collect_surface_pairs(batch: pa.Table) -> pa.Table:
    """mentions batch -> distinct (norm_surface, label, qid) rows, using
    the cached default linker."""
    linker = default_linker()
    # distinct (surface, label) first — the lookup loop then runs over
    # the batch-local vocabulary, not over rows
    uniq = (
        pd.DataFrame(
            {
                "text": batch.column("text").to_pandas(),
                "label": batch.column("label").to_pandas(),
            }
        )
        .drop_duplicates()
        .itertuples(index=False)
    )
    seen: set[tuple[str, str]] = set()
    out_s, out_l, out_q = [], [], []
    for surface, label in uniq:
        norm = world.normalize_surface(surface)
        key = (norm, label)
        if key in seen:
            continue
        seen.add(key)
        out_s.append(norm)
        out_l.append(label)
        out_q.append(_qid_of(linker, surface, label))
    return pa.table(
        {
            "norm_surface": pa.array(out_s, pa.string()),
            "label": pa.array(out_l, pa.string()),
            "qid": pa.array(out_q, pa.string()),
        }
    )


def build_canon_map(pairs: pa.Table, alias_rows: list[dict] | None = None) -> dict:
    """Union-find over reduced pairs -> {'surface': {(norm,label): canon},
    'qid': {qid: canon}} with deterministic representatives."""
    from gliner_cpp_ray.state.union_find import UnionFind

    rows = alias_rows if alias_rows is not None else world.alias_rows()
    qid_canon = {r["qid"]: r["canon"] for r in rows}

    uf = UnionFind()
    surfaces = pairs.column("norm_surface").to_pylist()
    labels = pairs.column("label").to_pylist()
    qids = pairs.column("qid").to_pylist()
    for s, l, q in zip(surfaces, labels, qids):
        node_s = ("s", s, l)
        uf.find(node_s)
        if q:
            uf.union(node_s, ("q", q))
    comp = uf.components()

    # component root -> display name: alias canon of min qid member, else min surface
    members: dict = {}
    for node, root in comp.items():
        members.setdefault(root, []).append(node)
    display: dict = {}
    for root, nodes in members.items():
        comp_qids = sorted(n[1] for n in nodes if n[0] == "q")
        if comp_qids:
            display[root] = qid_canon.get(comp_qids[0], comp_qids[0])
        else:
            display[root] = min(n[1] for n in nodes if n[0] == "s")

    surface_map = {}
    qid_map = {}
    for node, root in comp.items():
        if node[0] == "s":
            surface_map[(node[1], node[2])] = display[root]
        else:
            qid_map[node[1]] = display[root]
    # every dictionary qid resolves even if unobserved in this corpus
    for q, canon in qid_canon.items():
        qid_map.setdefault(q, canon)
    return {"surface": surface_map, "qid": qid_map}


def canon_of(canon_map: dict, surface: str, label: str, qid: str) -> str:
    if qid:
        hit = canon_map["qid"].get(qid)
        if hit is not None:
            return hit
    norm = world.normalize_surface(surface)
    return canon_map["surface"].get((norm, label), norm)


def _dict_codes(col: pa.ChunkedArray) -> tuple[np.ndarray, list[str]]:
    d = pc.dictionary_encode(col.combine_chunks())
    return np.asarray(d.indices, dtype=np.int64), d.dictionary.to_pylist()


def _canon_codes(canon_map, batch, s_col, l_col, q_col, canon_vocab: dict) -> np.ndarray:
    """Per-row integer canon ids via Arrow dictionary codes — the Python
    loop touches only batch-DISTINCT (surface, label, qid) keys; no
    pandas string factorization anywhere."""
    si, sd = _dict_codes(batch.column(s_col))
    li, ld = _dict_codes(batch.column(l_col))
    qi, qd = _dict_codes(batch.column(q_col))
    combined = (si * len(ld) + li) * len(qd) + qi
    uniq, inverse = np.unique(combined, return_inverse=True)
    canon_ids = np.empty(len(uniq), dtype=np.int64)
    for k, code in enumerate(uniq):
        q = int(code) % len(qd)
        rest = int(code) // len(qd)
        l = rest % len(ld)
        s = rest // len(ld)
        canon = canon_of(canon_map, sd[s], ld[l], qd[q])
        cid = canon_vocab.get(canon)
        if cid is None:
            cid = canon_vocab[canon] = len(canon_vocab)
        canon_ids[k] = cid
    return canon_ids[inverse]


def rewrite_triples_to_canon(batch: pa.Table, canon_map: dict) -> pa.Table:
    """linked triples -> PRE-AGGREGATED edge partials per batch:
    (subj_canon, pred, obj_canon, count, prov) — the combiner pattern:
    reduce inside map_batches so the groupby shuffle moves one row per
    distinct triple per batch, not one per occurrence.  ``prov`` holds
    the smallest ``_PROVENANCE_CAP`` distinct doc ids of the triple in
    the batch; the smallest K of a union equals the smallest K of the
    parts' smallest K, so ``reduce_edge_bucket``'s merge gives every
    edge its smallest K supporting docs under ANY blocking or row order.

    Entirely integer-coded (Arrow dictionary indices + np.unique): at
    millions of rows per block, pandas string hashing was the hot spot.
    """
    if batch.num_rows == 0:
        return EDGE_PARTIALS_SCHEMA.empty_table()
    canon_vocab: dict[str, int] = {}
    subj_c = _canon_codes(canon_map, batch, "subj", "subj_label", "subj_qid", canon_vocab)
    obj_c = _canon_codes(canon_map, batch, "obj", "obj_label", "obj_qid", canon_vocab)
    pred_i, pred_d = _dict_codes(batch.column("pred"))
    group = (subj_c * len(pred_d) + pred_i) * len(canon_vocab) + obj_c
    uniq, inverse, counts = np.unique(group, return_inverse=True, return_counts=True)
    canon_arr = np.array(sorted(canon_vocab, key=canon_vocab.get), dtype=object)
    obj_u = uniq % len(canon_vocab)
    rest = uniq // len(canon_vocab)
    pred_u = rest % len(pred_d)
    subj_u = rest // len(pred_d)
    return pa.table(
        {
            "subj_canon": canon_arr[subj_u],
            "pred": np.array(pred_d, dtype=object)[pred_u],
            "obj_canon": canon_arr[obj_u],
            "count": counts.astype(np.int64),
            "prov": _smallest_docs(batch.column("doc_id"), inverse, len(uniq)),
        },
        schema=EDGE_PARTIALS_SCHEMA,
    )


def count_triples(batch: pa.Table) -> pa.Table:
    """linked triples -> raw-key triple partials (TRIPLE_PARTIALS_SCHEMA):
    per distinct ``TRIPLE_KEY``, its count and smallest
    ``_PROVENANCE_CAP`` distinct doc ids.  Needs no canon map, so a
    mentions write task computes it beside its linked rows."""
    if batch.num_rows == 0:
        return TRIPLE_PARTIALS_SCHEMA.empty_table()
    # fold the key columns' dictionary codes one at a time, re-densifying
    # after each, so the combined code stays below rows**2
    code = np.zeros(batch.num_rows, dtype=np.int64)
    for k in TRIPLE_KEY:
        ci, cd = _dict_codes(batch.column(k))
        _, code = np.unique(code * len(cd) + ci, return_inverse=True)
    _, first, counts = np.unique(code, return_index=True, return_counts=True)
    keys = batch.select(TRIPLE_KEY).take(pa.array(first))
    return keys.append_column(
        "count", pa.array(counts.astype(np.int64))
    ).append_column(
        "prov", _smallest_docs(batch.column("doc_id"), code, len(first))
    ).cast(TRIPLE_PARTIALS_SCHEMA)


def rewrite_partials_to_canon(batch: pa.Table, canon_map: dict) -> pa.Table:
    """Triple partials -> edge partials (EDGE_PARTIALS_SCHEMA), one row
    per partial row: both endpoints rewritten to their canon ids, count
    and provenance kept.  ``reduce_edge_bucket`` merges them."""
    if batch.num_rows == 0:
        return EDGE_PARTIALS_SCHEMA.empty_table()
    canon_vocab: dict[str, int] = {}
    subj_c = _canon_codes(canon_map, batch, "subj", "subj_label", "subj_qid", canon_vocab)
    obj_c = _canon_codes(canon_map, batch, "obj", "obj_label", "obj_qid", canon_vocab)
    names = pa.array(sorted(canon_vocab, key=canon_vocab.get), pa.string())
    return pa.table(
        {
            "subj_canon": names.take(pa.array(subj_c)),
            "pred": batch.column("pred"),
            "obj_canon": names.take(pa.array(obj_c)),
            "count": batch.column("count"),
            "prov": batch.column("prov"),
        },
        schema=EDGE_PARTIALS_SCHEMA,
    )


def _smallest_docs(doc_ids: pa.ChunkedArray, group: np.ndarray,
                   n_groups: int) -> pa.ListArray:
    """Per group (row -> ``group`` code in [0, n_groups)), the sorted
    smallest ``_PROVENANCE_CAP`` distinct doc ids, as one list per
    group: dictionary-encode, rank the distinct docs once (Arrow's
    byte order is code-point order, as Python's ``sorted``), then one
    ``np.unique`` over (group, doc rank) pairs."""
    d = pc.dictionary_encode(doc_ids.combine_chunks())
    order = np.asarray(pc.sort_indices(d.dictionary), dtype=np.int64)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    n_docs = len(order)
    pairs = np.unique(group * n_docs + rank[np.asarray(d.indices, dtype=np.int64)])
    owner = pairs // n_docs
    starts = np.searchsorted(owner, np.arange(n_groups))
    keep = np.arange(len(pairs)) - starts[owner] < _PROVENANCE_CAP
    offsets = np.searchsorted(owner[keep], np.arange(n_groups + 1))
    docs = d.dictionary.take(pa.array(order[pairs[keep] % n_docs]))
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), docs)


def add_key_bucket(df: pd.DataFrame, key_cols: list[str], n_buckets: int) -> pd.DataFrame:
    """Deterministic hash bucket over key columns of a pandas frame
    (vectorized ``pd.util.hash_pandas_object``, stable across
    processes).  No pipeline stage uses it: the package's exchanges
    bucket with ``stages.joins.add_group_bucket`` (via
    ``keyed_exchange``).  It is kept for the benchmark's in-process
    replay of the KG tail (perfbench/tracing.py) and the tail's test
    oracle (tests/oracle_kg_tail.py); any key-local reduce gives the
    same result under either bucketing."""
    h = pd.util.hash_pandas_object(df[key_cols], index=False).to_numpy()
    df["__bucket"] = (h % np.uint64(n_buckets)).astype(np.int64)
    return df


_EDGE_KEY = ["subj_canon", "pred", "obj_canon"]


def reduce_edge_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """Whole-bucket edge reduce: vectorized pandas groupby over EVERY
    key in the bucket (r1 VERDICT: one-row-DataFrame-per-key map_groups
    was per-row Python at the reducer).  Weight sums run in C; only the
    provenance merge touches Python, on capped lists."""
    agg = (
        g.groupby(_EDGE_KEY, sort=False)
        .agg(
            weight=("count", "sum"),
            provenance=(
                "prov",
                lambda lists: sorted({d for lst in lists for d in lst})[
                    :_PROVENANCE_CAP
                ],
            ),
        )
        .reset_index()
    )
    agg["weight"] = agg["weight"].astype(np.int64)
    return agg[["subj_canon", "pred", "obj_canon", "weight", "provenance"]]


def reduce_edges(partials: pa.Table) -> pa.Table:
    """Every edge partial of a corpus -> its edge table (EDGES_SCHEMA),
    sorted by ``(subj_canon, pred, obj_canon)``: one whole-table
    ``reduce_edge_bucket`` call on the driver."""
    if partials.num_rows == 0:
        return EDGES_SCHEMA.empty_table()
    edges = reduce_edge_bucket(partials.to_pandas())
    return pa.Table.from_pandas(
        edges, schema=EDGES_SCHEMA, preserve_index=False
    ).sort_by([(k, "ascending") for k in _EDGE_KEY])


def count_surfaces(batch: pa.Table) -> pa.Table:
    """mentions batch -> ``(text, label, count)`` per distinct surface:
    the integer-coded combiner (dictionary codes + np.unique)."""
    if batch.num_rows == 0:
        return SURFACE_COUNTS_SCHEMA.empty_table()
    si, sd = _dict_codes(batch.column("text"))
    li, ld = _dict_codes(batch.column("label"))
    uniq, counts = np.unique(si * len(ld) + li, return_counts=True)
    return pa.table(
        {
            "text": pa.array(sd, pa.string()).take(pa.array(uniq // len(ld))),
            "label": pa.array(ld, pa.string()).take(pa.array(uniq % len(ld))),
            "count": pa.array(counts.astype(np.int64)),
        },
        schema=SURFACE_COUNTS_SCHEMA,
    )


def _qid_of(linker: EntityLinker, surface: str, label: str) -> str:
    """Context-free link: the sole candidate entity, else "" (NIL or ambiguous)."""
    cands = linker.candidates(surface, label)
    return cands[0] if len(cands) == 1 else ""


def _node_partials(surfaces: pa.Table, canon_ids: list[str]) -> pa.Table:
    return surfaces.rename_columns(NODE_PARTIALS_SCHEMA.names[1:]).add_column(
        0, "canon_id", pa.array(canon_ids, pa.string())
    )


def canonize_mentions(batch: pa.Table, canon_map: dict) -> pa.Table:
    """mentions batch -> node partials ``(canon_id, surface, label,
    count)``; canon resolution runs once per distinct surface."""
    surfaces = count_surfaces(batch)
    linker = default_linker()
    canons = [
        canon_of(canon_map, t, l, _qid_of(linker, t, l))
        for t, l in zip(
            surfaces.column("text").to_pylist(), surfaces.column("label").to_pylist()
        )
    ]
    return _node_partials(surfaces, canons)


def resolve_surfaces(surfaces: pa.Table) -> tuple[pa.Table, dict, pa.Table]:
    """Merged ``(text, label, count)`` surface table -> ``(pairs,
    canon_map, mention node partials)``, linking each surface once.

    ``pairs`` (distinct ``(norm_surface, label, qid)``, sorted) equals
    the union of ``collect_surface_pairs`` over any blocking, because
    candidates depend only on ``(normalize_surface(text), label)``; the
    partials sum to ``canonize_mentions`` over the same mentions."""
    linker = default_linker()
    texts = surfaces.column("text").to_pylist()
    labels = surfaces.column("label").to_pylist()
    qids = [_qid_of(linker, t, l) for t, l in zip(texts, labels)]
    keys = sorted(
        {(world.normalize_surface(t), l, q) for t, l, q in zip(texts, labels, qids)}
    )
    pairs = pa.table(
        {
            name: pa.array([k[i] for k in keys], pa.string())
            for i, name in enumerate(("norm_surface", "label", "qid"))
        }
    )
    canon_map = build_canon_map(pairs)
    canons = [canon_of(canon_map, t, l, q) for t, l, q in zip(texts, labels, qids)]
    return pairs, canon_map, _node_partials(surfaces, canons)


def canonize_triple_endpoints(batch: pa.Table, canon_map: dict) -> pa.Table:
    """linked triples -> node partials for AMBIGUOUS endpoint surfaces.

    Mentions whose surface maps to several candidate entities cannot be
    attributed by ``canonize_mentions`` (no context) and fall into a NIL
    surface cluster.  Triple endpoints, however, were context-resolved
    by the linker — register their canon entities as nodes so every
    edge endpoint has a node row (referential integrity), counting the
    triple occurrences they appear in.  Rows of triple partials count
    ``count`` occurrences each; linked rows count one."""
    linker = default_linker()
    weight = (
        batch.column("count").to_numpy()
        if "count" in batch.column_names
        else np.ones(batch.num_rows, dtype=np.int64)
    )
    # vectorized combiner: count per distinct (surface, label, qid)
    # endpoint first (pandas), then resolve ambiguity/canon only over the
    # batch-distinct keys — the Python loop never touches raw rows
    frames = []
    for side in ("subj", "obj"):
        frame = (
            batch.select([side, side + "_label", side + "_qid"])
            .rename_columns(["surface", "label", "qid"])
            .to_pandas()
        )
        frame["n"] = weight
        frames.append(frame)
    df = pd.concat(frames, ignore_index=True)
    vc = (
        df[df["qid"] != ""]
        .groupby(["surface", "label", "qid"], sort=True)["n"]
        .sum()
    )
    agg: dict[tuple[str, str, str], int] = {}
    for (surface, label, qid), n in vc.items():
        if len(linker.candidates(surface, label)) <= 1:
            continue
        canon = canon_of(canon_map, surface, label, qid)
        key = (canon, surface, label)
        agg[key] = agg.get(key, 0) + int(n)
    keys = sorted(agg)
    return pa.table(
        {
            "canon_id": pa.array([k[0] for k in keys], pa.string()),
            "surface": pa.array([k[1] for k in keys], pa.string()),
            "label": pa.array([k[2] for k in keys], pa.string()),
            "count": pa.array([agg[k] for k in keys], pa.int64()),
        }
    )


def reduce_node_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """Node partials -> one node row per canon_id, sorted by canon_id:
    total mentions, modal label, and the first ``_ALIAS_CAP`` distinct
    surfaces in sorted order as aliases.

    Modal-label ties pick the LEXICALLY SMALLEST label (sort by count
    desc, label asc, keep the first row per canon_id).  Every aggregate
    is a sum or a sorted set per canon_id, so the result does not depend
    on how the partials were split or pre-summed."""
    by_cl = (
        g.groupby(["canon_id", "label"], sort=False)["count"].sum().reset_index()
    )
    label_of = (
        by_cl.sort_values(
            ["canon_id", "count", "label"], ascending=[True, False, True],
            kind="mergesort",
        )
        .drop_duplicates("canon_id")
        .set_index("canon_id")["label"]
    )
    counts = g.groupby("canon_id", sort=True)["count"].sum()
    aliases = g.groupby("canon_id", sort=True)["surface"].agg(
        lambda s: sorted(set(s))[:_ALIAS_CAP]
    )
    out = pd.DataFrame(
        {
            "canon_id": counts.index,
            "surface": counts.index,
            "label": label_of.reindex(counts.index).to_numpy(),
            "aliases": aliases.reindex(counts.index).to_numpy(),
            "mention_count": counts.to_numpy(np.int64),
        }
    )
    return out.reset_index(drop=True)


def reduce_nodes(partials: pa.Table) -> pa.Table:
    """Every node partial of a corpus -> its node table (NODES_SCHEMA),
    sorted by canon_id: one whole-table ``reduce_node_bucket`` call,
    bounded by the surface vocabulary like the canon map."""
    if partials.num_rows == 0:
        return NODES_SCHEMA.empty_table()
    nodes = reduce_node_bucket(partials.to_pandas())
    return pa.Table.from_pandas(
        nodes, schema=NODES_SCHEMA, preserve_index=False
    ).sort_by("canon_id")
