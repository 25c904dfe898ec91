"""Canonicalization (B9/B10) + graph materialization (B11-B13).

Stages:
1. ``SurfacePairCollector`` — Ray-side pre-aggregation: per batch,
   emit the DISTINCT ``(norm_surface, label, qid)`` link pairs (qid
   empty when the surface is NIL or ambiguous).  A tiny
   ``groupby``-distinct then reduces them globally; the reduced list is
   bounded by the surface vocabulary, not the corpus.
2. ``build_canon_map`` — driver-side union-find over the reduced pairs
   (gliner_cpp_ray.state.union_find): nodes are surfaces and qids,
   edges are unambiguous surface→qid links; each component gets a
   deterministic ``canon_id`` (the alias-dict canonical name of its
   minimal qid, else the minimal member surface).
3. ``edges_from_linked`` / ``nodes_from_mentions`` — rewrite to canon
   ids via the broadcast map, pre-aggregate per batch, then one
   ``groupby`` each; edges are sorted by subject before the sink (B13).

Shuffle keys (SURVEY.md §4): the pair-distinct key, the canon node key,
the (subj, pred, obj) triple key, and the final subject sort.
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

_PROVENANCE_CAP = 8
_ALIAS_CAP = 16


class SurfacePairCollector:
    """mentions batch -> distinct (norm_surface, label, qid) rows
    (actor form; see ``collect_surface_pairs`` for the task form)."""

    def __init__(self, alias_rows: list[dict] | None = None):
        self.linker = EntityLinker(alias_rows)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _surface_pairs(batch, self.linker)


def collect_surface_pairs(batch: pa.Table) -> pa.Table:
    """Stateless-task form using the cached default linker."""
    return _surface_pairs(batch, default_linker())


def _surface_pairs(batch: pa.Table, linker: EntityLinker) -> pa.Table:
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
            cands = linker.candidates(surface, label)
            out_s.append(norm)
            out_l.append(label)
            out_q.append(cands[0] if len(cands) == 1 else "")
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
    distinct triple per batch, not one per occurrence.  ``prov`` samples
    one doc id per triple per batch (merged + capped in the reduce).

    Entirely integer-coded (Arrow dictionary indices + np.unique): at
    millions of rows per block, pandas string hashing was the hot spot.
    """
    if batch.num_rows == 0:
        return pa.table(
            {
                "subj_canon": pa.array([], pa.string()),
                "pred": pa.array([], pa.string()),
                "obj_canon": pa.array([], pa.string()),
                "count": pa.array([], pa.int64()),
                "prov": pa.array([], pa.list_(pa.string())),
            }
        )
    canon_vocab: dict[str, int] = {}
    subj_c = _canon_codes(canon_map, batch, "subj", "subj_label", "subj_qid", canon_vocab)
    obj_c = _canon_codes(canon_map, batch, "obj", "obj_label", "obj_qid", canon_vocab)
    pred_i, pred_d = _dict_codes(batch.column("pred"))
    group = (subj_c * len(pred_d) + pred_i) * len(canon_vocab) + obj_c
    uniq, first_idx, counts = np.unique(group, return_index=True, return_counts=True)
    canon_arr = np.array(sorted(canon_vocab, key=canon_vocab.get), dtype=object)
    obj_u = uniq % len(canon_vocab)
    rest = uniq // len(canon_vocab)
    pred_u = rest % len(pred_d)
    subj_u = rest // len(pred_d)
    docs = batch.column("doc_id").take(pa.array(first_idx)).to_pylist()
    agg = pd.DataFrame(
        {
            "subj_canon": canon_arr[subj_u],
            "pred": np.array(pred_d, dtype=object)[pred_u],
            "obj_canon": canon_arr[obj_u],
            "count": counts.astype(np.int64),
            "prov": [[d] for d in docs],
        }
    )
    return pa.table(
        {
            "subj_canon": pa.array(agg["subj_canon"], pa.string()),
            "pred": pa.array(agg["pred"], pa.string()),
            "obj_canon": pa.array(agg["obj_canon"], pa.string()),
            "count": pa.array(agg["count"].to_numpy(np.int64)),
            "prov": pa.array(agg["prov"].tolist(), pa.list_(pa.string())),
        }
    )


def add_key_bucket(df: pd.DataFrame, key_cols: list[str], n_buckets: int) -> pd.DataFrame:
    """Deterministic hash bucket over string key columns (vectorized
    ``pd.util.hash_pandas_object`` — fixed internal hash key, so stable
    across processes/nodes).  Shuffling on the BUCKET instead of the key
    turns millions of per-key ``map_groups`` calls into ``n_buckets``
    whole-bucket vectorized reduces."""
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


class MentionCanonizer:
    """mentions batch -> per-batch partial (canon_id, surface, label, count)."""

    def __init__(self, canon_map: dict, alias_rows: list[dict] | None = None):
        self.canon_map = canon_map
        self.linker = EntityLinker(alias_rows)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _mention_partials(batch, self.canon_map, self.linker)


def canonize_mentions(batch: pa.Table, canon_map: dict) -> pa.Table:
    """Stateless-task form of MentionCanonizer (default linker)."""
    return _mention_partials(batch, canon_map, default_linker())


def _mention_partials(batch: pa.Table, canon_map: dict, linker: EntityLinker) -> pa.Table:
    # integer-coded combiner: count per (surface, label) via dictionary
    # codes + np.unique; canon resolution runs once per distinct surface
    if batch.num_rows == 0:
        return pa.table(
            {
                "canon_id": pa.array([], pa.string()),
                "surface": pa.array([], pa.string()),
                "label": pa.array([], pa.string()),
                "count": pa.array([], pa.int64()),
            }
        )
    si, sd = _dict_codes(batch.column("text"))
    li, ld = _dict_codes(batch.column("label"))
    combined = si * len(ld) + li
    uniq, counts = np.unique(combined, return_counts=True)
    surfaces, labels, canons = [], [], []
    for code in uniq:
        l = int(code) % len(ld)
        s = int(code) // len(ld)
        surface, label = sd[s], ld[l]
        cands = linker.candidates(surface, label)
        qid = cands[0] if len(cands) == 1 else ""
        surfaces.append(surface)
        labels.append(label)
        canons.append(canon_of(canon_map, surface, label, qid))
    return pa.table(
        {
            "canon_id": pa.array(canons, pa.string()),
            "surface": pa.array(surfaces, pa.string()),
            "label": pa.array(labels, pa.string()),
            "count": pa.array(counts.astype(np.int64)),
        }
    )


class TripleEndpointCanonizer:
    """linked triples -> node partials for AMBIGUOUS endpoint surfaces.

    Mentions whose surface maps to several candidate entities cannot be
    attributed by ``MentionCanonizer`` (no context) and fall into a NIL
    surface cluster.  Triple endpoints, however, were context-resolved by
    the linker — register their canon entities as nodes so every edge
    endpoint has a node row (referential integrity), counting the triple
    occurrences they appear in.
    """

    def __init__(self, canon_map: dict, alias_rows: list[dict] | None = None):
        self.canon_map = canon_map
        self.linker = EntityLinker(alias_rows)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _endpoint_partials(batch, self.canon_map, self.linker)


def canonize_triple_endpoints(batch: pa.Table, canon_map: dict) -> pa.Table:
    """Stateless-task form of TripleEndpointCanonizer (default linker)."""
    return _endpoint_partials(batch, canon_map, default_linker())


def _endpoint_partials(batch: pa.Table, canon_map: dict, linker: EntityLinker) -> pa.Table:
    # vectorized combiner: count per distinct (surface, label, qid)
    # endpoint first (pandas), then resolve ambiguity/canon only over the
    # batch-distinct keys — the Python loop never touches raw rows
    frames = []
    for side in ("subj", "obj"):
        frames.append(
            batch.select([side, side + "_label", side + "_qid"])
            .rename_columns(["surface", "label", "qid"])
            .to_pandas()
        )
    df = pd.concat(frames, ignore_index=True)
    vc = (
        df[df["qid"] != ""]
        .groupby(["surface", "label", "qid"], sort=True)
        .size()
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


def reduce_node_group(g: pd.DataFrame) -> pd.DataFrame:
    """Per canon_id: total mentions, modal label, distinct alias sample.
    (Per-key reference semantics for ``reduce_node_bucket``.)"""
    by_label = g.groupby("label")["count"].sum()
    label = by_label.sort_values(ascending=False).index[0]
    aliases = sorted(g["surface"].unique())[:_ALIAS_CAP]
    return pd.DataFrame(
        {
            "canon_id": [g["canon_id"].iloc[0]],
            "surface": [g["canon_id"].iloc[0]],
            "label": [label],
            "aliases": [aliases],
            "mention_count": np.array([int(g["count"].sum())], dtype=np.int64),
        }
    )


def reduce_node_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """Whole-bucket node reduce (vectorized analog of
    ``reduce_node_group`` over every canon_id in the bucket).

    Modal-label tie-break matches the per-key version: pandas
    ``groupby("label")`` sorts labels ascending and the descending
    count sort is stable, so ties pick the LEXICALLY SMALLEST label —
    replicated here by sorting (count desc, label asc) and keeping the
    first row per canon_id."""
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
