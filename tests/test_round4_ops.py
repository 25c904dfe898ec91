"""Round-4 operators: integer-exact BM25, KG relation composition,
intra-host link components.  E2E oracle equivalence is covered by
test_queries_oracle.py (parametrized over the registry); these pin the
operator-level semantics with hand-computed expectations.
"""

import numpy as np
import pyarrow as pa
import ray.data as rd


def _bm25_expected(docs: dict[str, str], terms: list[str], scale=10_000):
    """Closed-form reference: same scaled-int arithmetic, plain Python."""
    toks = {d: t.lower().split() for d, t in docs.items()}
    n = len(docs)
    tot = sum(len(v) for v in toks.values())
    av = (1000 * tot) // n
    out = {}
    for d, tt in toks.items():
        dl = len(tt)
        score = 0
        hit = False
        for term in terms:
            tf = tt.count(term)
            if tf == 0:
                continue
            hit = True
            df = sum(1 for v in toks.values() if term in v)
            w = (scale * n) // df
            score += (w * 22 * tf * av) // (10 * tf * av + 3 * av + 9000 * dl)
        if hit:
            out[d] = score
    return out


def test_bm25_scores_integer_exact(ray_session):
    from gliner_cpp_ray.stages.retrieval import bm25_topk

    docs = {
        "d1": "scan scan scan window",
        "d2": "scan agg",
        # long doc: length normalizer must penalize vs d2's same tf
        "d3": "scan " + "filler " * 60,
        "d4": "nothing relevant here",
    }
    terms = ["scan", "agg"]
    ds = rd.from_items(
        [{"doc_id": k, "text": v} for k, v in docs.items()]
    )
    got = {
        r["doc_id"]: r["score_micro"]
        for r in bm25_topk(ds, terms, k=10).take_all()
    }
    assert got == _bm25_expected(docs, terms)
    # saturation + length: d1 (tf=3, short) > d2 (tf=1+agg) handled by
    # exact values above; the long doc must score strictly below d2's
    # scan contribution
    assert got["d3"] < got["d2"]


def test_bm25_zero_floored_contribution_keeps_doc(ray_session):
    """A doc whose every per-term contribution floors to 0 must still
    rank (the SQL oracle keeps every doc with a tf row)."""
    from gliner_cpp_ray.stages.retrieval import Bm25Scorer

    batch = pa.table({"doc_id": ["a"], "text": ["scan " + "x " * 50]})
    out = Bm25Scorer({"scan": 0}, avgdl_milli=1000, k=5)(batch)
    assert out.num_rows == 1 and out.column("score_micro")[0].as_py() == 0


def test_intra_host_components_match_union_find(ray_session):
    from gliner_cpp_ray.sources.pages import N_HOSTS
    from gliner_cpp_ray.stages.graph import connected_components
    from gliner_cpp_ray.state.union_find import UnionFind

    rng = np.random.default_rng(5)
    n = 400
    src = rng.integers(0, n, 300)
    dst = rng.integers(0, n, 300)
    keep = (src % N_HOSTS) == (dst % N_HOSTS)
    # synthesize some guaranteed intra-host pairs (same residue class)
    extra_s = rng.integers(0, 2, 40) * N_HOSTS + 7
    extra_d = rng.integers(0, 2, 40) * N_HOSTS + 7
    src = np.concatenate([src[keep], extra_s])
    dst = np.concatenate([dst[keep], extra_d])
    edges = rd.from_arrow(
        pa.table({"src_id": src.astype("int64"), "dst_id": dst.astype("int64")})
    )
    cc = connected_components(edges, "src_id", "dst_id")
    got = dict(zip(cc.column("node").to_pylist(), cc.column("label").to_pylist()))
    uf = UnionFind()
    for a, b in zip(src.tolist(), dst.tolist()):
        uf.union(a, b)
    want = {x: uf.find(x) for x in set(src.tolist()) | set(dst.tolist())}
    assert got == want


def test_bm25_randomized_vs_closed_form(ray_session):
    """Random corpora: distributed BM25 == the plain-Python scaled-int
    reference for every doc, across batch splits."""
    from gliner_cpp_ray.stages.retrieval import bm25_topk

    rng = np.random.default_rng(11)
    vocab = ["scan", "agg", "dup", "alpha", "beta", "gamma"]
    for trial in range(5):
        docs = {
            f"d{i:03d}": " ".join(
                rng.choice(vocab, size=rng.integers(1, 40))
            )
            for i in range(int(rng.integers(5, 40)))
        }
        terms = ["scan", "agg"]
        ds = rd.from_items(
            [{"doc_id": k, "text": v} for k, v in docs.items()]
        ).repartition(3)  # force multi-batch stats + scoring
        got = {
            r["doc_id"]: r["score_micro"]
            for r in bm25_topk(ds, terms, k=1000).take_all()
        }
        assert got == _bm25_expected(docs, terms), f"trial {trial}"


def test_grouped_kmv_matches_direct_estimator(ray_session):
    """Grouped KMV per-group estimates == running the global estimator
    on each group's values directly, across batch splits."""
    from gliner_cpp_ray.stages.sketches import (
        _kmv_hashes,
        grouped_kmv_distinct,
        kmv_estimate_from_hashes,
    )

    rng = np.random.default_rng(3)
    groups = ["a", "b", "c"]
    rows = [
        {"g": groups[int(rng.integers(3))], "u": int(rng.integers(0, 500))}
        for _ in range(3000)
    ]
    ds = rd.from_items(rows).repartition(5)
    got = {
        r["g"]: (r["k"], r["estimate"])
        for r in grouped_kmv_distinct(ds, "g", "u", k=64).take_all()
    }
    for g in groups:
        vals = [r["u"] for r in rows if r["g"] == g]
        want = kmv_estimate_from_hashes(_kmv_hashes(vals, 64), 64)
        assert got[g] == (64, want)


def test_levenshtein_leq_matches_full_dp():
    from gliner_cpp_ray.stages.dedup import levenshtein_leq

    def lev(s, t):
        prev = list(range(len(t) + 1))
        for i, cs in enumerate(s, 1):
            cur = [i] + [0] * len(t)
            for j, ct in enumerate(t, 1):
                cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                             prev[j - 1] + (cs != ct))
            prev = cur
        return prev[-1]

    rng = np.random.default_rng(9)
    alpha = list("abc")
    for _ in range(300):
        s = "".join(rng.choice(alpha, size=rng.integers(0, 8)))
        t = "".join(rng.choice(alpha, size=rng.integers(0, 8)))
        for d in (0, 1, 2):
            assert levenshtein_leq(s, t, d) == (lev(s, t) <= d), (s, t, d)


def test_deletion_keys_complete_for_d():
    """FastSS completeness: any pair within ED<=d shares a deletion key."""
    from gliner_cpp_ray.stages.dedup import _deletion_keys, levenshtein_leq

    rng = np.random.default_rng(13)
    alpha = list("ab")
    for d in (1, 2):
        for _ in range(400):
            s = "".join(rng.choice(alpha, size=rng.integers(0, 7)))
            t = "".join(rng.choice(alpha, size=rng.integers(0, 7)))
            if levenshtein_leq(s, t, d):
                assert _deletion_keys(s, d) & _deletion_keys(t, d), (s, t, d)


def test_edit_distance_pairs_matches_all_pairs(ray_session):
    from gliner_cpp_ray.stages.dedup import edit_distance_pairs, levenshtein_leq

    names = [f"item-{i:04d}" for i in range(80)] + ["item-00x1", "widget"]
    ds = rd.from_items([{"s": v} for v in names]).repartition(3)
    got = {
        (r["a"], r["b"])
        for r in edit_distance_pairs(ds, "s", d=1).take_all()
    }
    want = {
        (a, b)
        for i, a in enumerate(sorted(set(names)))
        for b in sorted(set(names))[i + 1:]
        if levenshtein_leq(a, b, 1)
    }
    assert got == want and len(want) > 0


# ------------------------------------------------------- token chunking


def _chunk_reference(text, window, stride):
    import re

    toks = re.findall(r"\S+", text)
    if not toks:
        return []
    out = []
    i = 0
    start = 0
    while True:
        piece = toks[start:start + window]
        out.append((i, start, len(piece), " ".join(piece)))
        if start + window >= len(toks):
            break
        i += 1
        start += stride
    return out


def test_chunk_documents_matches_reference():
    import pyarrow as pa

    from gliner_cpp_ray.stages.packing import chunk_documents

    texts = [
        "a b  c d e f g",
        "",
        "   \t\n ",
        "one two",
        " ".join(f"t{i}" for i in range(200)),
        "x",
    ]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    for window, stride in [(3, 2), (5, 5), (64, 48), (1, 1)]:
        got = chunk_documents(t, window=window, stride=stride).to_pandas()
        rows = []
        for did, txt in enumerate(texts):
            for idx, start, n, s in _chunk_reference(txt, window, stride):
                rows.append((did, idx, start, n, s))
        assert (
            list(map(tuple, got.itertuples(index=False))) == rows
        ), (window, stride)


def test_chunk_documents_rejects_bad_stride():
    import pyarrow as pa
    import pytest as _pytest

    from gliner_cpp_ray.stages.packing import chunk_documents

    t = pa.table({"doc_id": [1], "text": ["a b"]})
    with _pytest.raises(ValueError):
        chunk_documents(t, window=3, stride=0)
    with _pytest.raises(ValueError):
        chunk_documents(t, window=3, stride=4)


def test_time_decayed_sum_matches_hand_computed(ray_session):
    """Each event's value halves per elapsed half-life (floor shift);
    per-key sums are order-independent and int64-exact."""
    from gliner_cpp_ray.stages.windows import time_decayed_sum

    hl = 100  # µs half-life for the toy timeline
    ref = 1_000
    rows = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "ts": pa.array(
                [1_000, 900, 750, 650, 2_000], pa.timestamp("us")
            ),
            "v": pa.array([8, 8, 8, 1024, 7], pa.int64()),
        }
    )
    # ages: 0, 100, 250, 350, clamp(-1000)->0 ; shifts: 0, 1, 2, 3, 0
    got = {
        r["k"]: r["decayed_micro"]
        for r in time_decayed_sum(
            rd.from_arrow(rows), "k", "ts", "v",
            halflife_us=hl, ref_ts_us=ref,
        ).take_all()
    }
    assert got == {1: 8 + 4 + 2, 2: 128 + 7}


def test_time_decayed_sum_rejects_negative_values(ray_session):
    import pytest

    from gliner_cpp_ray.stages.windows import time_decayed_sum

    rows = pa.table(
        {
            "k": pa.array([1], pa.int64()),
            "ts": pa.array([0], pa.timestamp("us")),
            "v": pa.array([-5], pa.int64()),
        }
    )
    with pytest.raises(Exception, match="non-negative"):
        time_decayed_sum(
            rd.from_arrow(rows), "k", "ts", "v",
            halflife_us=10, ref_ts_us=100,
        ).take_all()


def test_negative_samples_no_self_and_deterministic(ray_session):
    from gliner_cpp_ray.stages.sampling import negative_samples

    ids = pa.table({"doc_id": pa.array(list(range(100, 140)), pa.int64())})
    ds = rd.from_arrow(ids)
    rows = negative_samples(ds, "doc_id", k=3).take_all()
    assert len(rows) == 40 * 3
    for r in rows:
        assert r["neg_doc_id"] != r["doc_id"]
        assert 100 <= r["neg_doc_id"] < 140
    again = negative_samples(rd.from_arrow(ids), "doc_id", k=3).take_all()
    key = lambda r: (r["doc_id"], r["probe"])
    assert sorted(map(dict, rows), key=key) == sorted(map(dict, again), key=key)


def test_negative_samples_needs_two_docs(ray_session):
    import pytest

    from gliner_cpp_ray.stages.sampling import negative_samples

    one = rd.from_arrow(pa.table({"doc_id": pa.array([1], pa.int64())}))
    with pytest.raises(ValueError):
        negative_samples(one, "doc_id")


def test_golden_records_blocking_and_survivorship(ray_session):
    from gliner_cpp_ray.stages.survivorship import golden_records

    records = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "name": ["ann", "anx", "any", "bob", "cat"],
                "blk": pa.array([7, 7, 8, 7, 7], pa.int64()),
                "v": pa.array([10, 50, 30, 20, 40], pa.int64()),
            }
        )
    )
    # name pairs: ann-anx, ann-any, anx-any (distance 1 each)
    pairs = rd.from_arrow(
        pa.table(
            {
                "name_a": ["ann", "ann", "anx"],
                "name_b": ["anx", "any", "any"],
            }
        )
    )
    schema = pa.schema(
        [("k", pa.int64()), ("name", pa.string()), ("blk", pa.int64()),
         ("v", pa.int64())]
    )
    rows = {
        r["cluster_id"]: r
        for r in golden_records(
            records, pairs, "k", "name", take_min=["name"],
            take_max=["v"], records_schema=schema, block_col="blk",
        ).take_all()
    }
    # blocking keeps only ann-anx (blk 7); "any" (blk 8) stays single
    assert set(rows) == {1, 3, 4, 5}
    assert rows[1]["n_members"] == 2
    assert rows[1]["min_name"] == "ann" and rows[1]["max_v"] == 50
    assert rows[3]["n_members"] == 1 and rows[3]["max_v"] == 30


def test_per_key_window_ops_match_pandas_randomized(ray_session):
    """seq_numbers / session_ids / grouped median / decayed sum vs
    plain-pandas references on one random keyed event log."""
    import pandas as pd

    from gliner_cpp_ray.stages.sketches import grouped_exact_median
    from gliner_cpp_ray.stages.windows import (
        seq_numbers_per_key,
        session_ids_per_key,
        time_decayed_sum,
    )

    rng = np.random.RandomState(11)
    n = 600
    df = pd.DataFrame(
        {
            "k": rng.randint(0, 25, n).astype(np.int64),
            "ts": rng.randint(0, 5_000, n).astype(np.int64),
            "id": np.arange(n, dtype=np.int64),
            "v": rng.randint(0, 10_000, n).astype(np.int64),
        }
    )
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))

    srt = df.sort_values(["k", "ts", "id"])
    want_seq = srt.groupby("k").cumcount().to_numpy() + 1
    got = {r["id"]: r["seq"] for r in
           seq_numbers_per_key(ds, ["k"], "ts", "id").take_all()}
    assert [got[i] for i in srt["id"]] == want_seq.tolist()

    gap = 40
    new = (srt.groupby("k")["ts"].diff().fillna(gap + 1) > gap).to_numpy()
    want_sess = pd.Series(new).groupby(srt["k"].to_numpy()).cumsum()
    got = {r["id"]: r["session_seq"] for r in
           session_ids_per_key(ds, ["k"], "ts", "id", gap_us=gap).take_all()}
    assert [got[i] for i in srt["id"]] == want_sess.astype(int).tolist()

    want_med = df.groupby("k")["v"].apply(
        lambda s: int(np.sort(s.to_numpy())[(len(s) - 1) // 2])
    )
    got = {r["k"]: r["median"] for r in
           grouped_exact_median(ds, ["k"], "v").take_all()}
    assert got == want_med.to_dict()

    ref, hl = 5_000, 700
    dec = df.assign(
        d=df["v"].to_numpy() >> np.minimum((ref - df["ts"]) // hl, 62)
    )
    want_dec = dec.groupby("k")["d"].sum()
    ds_ts = rd.from_arrow(
        pa.table(
            {
                "k": pa.array(df["k"]),
                "ts": pa.array(df["ts"], pa.timestamp("us")),
                "v": pa.array(df["v"]),
            }
        )
    )
    got = {r["k"]: r["decayed_micro"] for r in
           time_decayed_sum(ds_ts, "k", "ts", "v", halflife_us=hl,
                            ref_ts_us=ref).take_all()}
    assert got == want_dec.to_dict()


def test_term_postings_bounded_heads(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from gliner_cpp_ray.stages.retrieval import term_postings

    t = pa.table(
        {
            "doc_id": pa.array([5, 1, 3, 9], pa.int64()),
            "text": pa.array(
                ["apple pear", "apple", "apple pear", "pear PEAR"],
                pa.string(),
            ),
        }
    )
    got = (
        term_postings(rd.from_arrow(t), head_k=2)
        .to_pandas()
        .set_index("term")
        .sort_index()
    )
    assert got.loc["apple", "df"] == 3
    assert got.loc["apple", "posting_head"] == "1,3"  # first 2 ascending
    assert got.loc["pear", "df"] == 3  # doc 9 counts once (lowercased)
    assert got.loc["pear", "posting_head"] == "3,5"


def test_ipc_roundtrip_exact(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from gliner_cpp_ray.sources.ipc import read_ipc, write_ipc

    t = pa.table(
        {
            "i": pa.array([1, 2, None, 4], pa.int64()),
            "s": pa.array(["a", None, "c", "d"], pa.string()),
            "ts": pa.array([10, 20, 30, None], pa.timestamp("us")),
        }
    )
    out = str(tmp_path / "ipc")
    manifest = write_ipc(rd.from_arrow(t), out).to_pandas()
    assert manifest["rows"].sum() == 4
    back = read_ipc(out).to_pandas().sort_values("i", na_position="last")
    orig = t.to_pandas().sort_values("i", na_position="last")
    pdt = __import__("pandas").testing
    pdt.assert_frame_equal(
        back.reset_index(drop=True), orig.reset_index(drop=True)
    )
    # schema survives bit-exact (dtypes incl. timestamp unit)
    assert read_ipc(out).schema().base_schema == t.schema


def test_zonemap_prune_semantics(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gliner_cpp_ray.stages.layout import parquet_zonemaps, zonemap_prune

    f1 = str(tmp_path / "a.parquet")  # [0, 10]
    f2 = str(tmp_path / "b.parquet")  # [20, 30]
    pq.write_table(pa.table({"v": pa.array([0, 10], pa.int64())}), f1)
    pq.write_table(pa.table({"v": pa.array([20, 30], pa.int64())}), f2)
    zones = parquet_zonemaps([f1, f2], "v").to_pandas()
    assert sorted(zip(zones["zmin"], zones["zmax"])) == [(0, 10), (20, 30)]
    # strict > 10 drops the [0,10] file (zmax <= lo is prunable)
    assert zonemap_prune(zones, lo=10) == [f2]
    # < 20 drops the [20,30] file
    assert zonemap_prune(zones, hi=20) == [f1]
    # overlap keeps both
    assert sorted(zonemap_prune(zones, lo=5, hi=25)) == sorted([f1, f2])


def test_read_parquet_union_null_fill(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gliner_cpp_ray.sources.union import read_parquet_union, union_schema

    d1, d2 = tmp_path / "v1", tmp_path / "v2"
    d1.mkdir(); d2.mkdir()
    pq.write_table(
        pa.table({"id": pa.array([1, 2], pa.int64()),
                  "x": pa.array(["a", "b"])}),
        str(d1 / "p.parquet"),
    )
    pq.write_table(
        pa.table({"id": pa.array([3], pa.int64()),
                  "y": pa.array([9.5], pa.float64())}),
        str(d2 / "p.parquet"),
    )
    sch = union_schema([str(d1), str(d2)])
    assert sch.names == ["id", "x", "y"]
    df = read_parquet_union([str(d1), str(d2)]).to_pandas().sort_values("id")
    assert df["x"].tolist()[:2] == ["a", "b"] and df["x"].isna().tolist()[2]
    assert df["y"].isna().tolist()[:2] == [True, True]
    assert df["y"].tolist()[2] == 9.5
    # column pruning keeps only requested fields
    pruned = read_parquet_union([str(d1), str(d2)], columns=["id", "y"])
    assert pruned.schema().names == ["id", "y"]


def test_contract_audit_counts(ray_session):
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from gliner_cpp_ray.stages.contract import contract_audit

    t = pa.table(
        {
            "x": pa.array([1, None, -3, 4], pa.int64()),
            "s": pa.array(["ok", "bad", "ok", None], pa.string()),
        }
    )
    rules = [
        ("x_positive", lambda b: pc.or_kleene(
            pc.is_null(b.column("x")),
            pc.less_equal(b.column("x"), pa.scalar(0, pa.int64())))),
        ("s_known", lambda b: pc.invert(
            pc.coalesce(pc.equal(b.column("s"), "ok"), pa.scalar(False)))),
    ]
    got = {r["rule"]: (r["n_checked"], r["n_violations"])
           for r in contract_audit(rd.from_arrow(t), rules).take_all()}
    assert got == {"x_positive": (4, 2), "s_known": (4, 2)}


def test_bucketed_join_preserves_60bit_payloads(ray_session):
    """Regression: null-padding one side's int64 columns made Ray's
    Arrow->pandas block conversion upcast the WHOLE unioned column to
    float64, silently rounding the REAL side's values past 2^53
    (md5-u60 ids corrupted; surfaced as a collapsed kg_entity_components)."""
    import pyarrow as pa
    import ray.data as rd

    from gliner_cpp_ray.stages.joins import bucketed_hash_join

    big = [2**60 + 1, 2**60 + 3, 2**59 + 7]  # not float64-representable
    l = rd.from_arrow(pa.table(
        {"k": pa.array([1, 2, 3], pa.int64()),
         "payload_l": pa.array(big, pa.int64())}))
    r = rd.from_arrow(pa.table(
        {"k": pa.array([1, 2, 3], pa.int64()),
         "payload_r": pa.array([v + 1 for v in big], pa.int64())}))
    out = bucketed_hash_join(l, r, on="k", n_buckets=4).to_pandas()
    got = out.sort_values("k")
    assert got["payload_l"].tolist() == big
    assert got["payload_r"].tolist() == [v + 1 for v in big]
