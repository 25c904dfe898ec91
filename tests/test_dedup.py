import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from gliner_cpp_ray.stages.dedup import (
    MinHashSigner,
    add_simhash,
    exact_dedup,
    hamming64,
    jaccard,
    minhash_dedup_clusters,
    simhash64,
    word_ngrams,
)


def _docs():
    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(500)]
    base = " ".join(rng.choice(vocab, 200))
    near = base.replace("w1 ", "w999 ", 1) + " tail"
    texts = [base, near, base]  # 2 near-dup + 1 exact dup of base
    for _ in range(20):
        texts.append(" ".join(rng.choice(vocab, 150)))
    return pa.table({"doc_id": list(range(len(texts))), "text": texts})


def test_jaccard_and_ngrams():
    a = word_ngrams("a b c d e", 3)
    assert a == {"a b c", "b c d", "c d e"}
    assert jaccard(a, a) == 1.0
    assert jaccard(set(), set()) == 1.0
    assert jaccard({"x"}, {"y"}) == 0.0


def test_minhash_signature_similarity_tracks_jaccard():
    signer = MinHashSigner(num_perm=128)
    s1 = signer.signature("the quick brown fox jumps over the lazy dog " * 10)
    s2 = signer.signature("the quick brown fox jumps over the lazy cat " * 10)
    s3 = signer.signature("completely different content about other things " * 10)
    sim12 = (s1 == s2).mean()
    sim13 = (s1 == s3).mean()
    assert sim12 > 0.5 > sim13


def test_exact_dedup_ray(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_docs())
    kept = exact_dedup(ds).to_pandas()
    # doc 2 is an exact dup of doc 0 -> dropped (min id kept)
    assert 0 in set(kept["doc_id"]) and 2 not in set(kept["doc_id"])
    assert len(kept) == _docs().num_rows - 1


def test_minhash_clusters_ray(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_docs())
    clusters = minhash_dedup_clusters(ds, threshold=0.7).to_pandas()
    by_id = dict(zip(clusters["doc_id"], clusters["cluster_id"]))
    # all three near/exact dups in one cluster rooted at min id 0
    assert by_id[0] == by_id[1] == by_id[2] == 0
    # unrelated docs keep singleton clusters
    assert by_id[10] == 10


def test_simhash_near_dup():
    base = "the quick brown fox jumps over the lazy dog " * 5
    near = base.replace("dog", "cat")
    far = "completely different words here entirely unrelated " * 5
    h1, h2, h3 = simhash64(base), simhash64(near), simhash64(far)
    assert hamming64(h1, h2) < 12 < hamming64(h1, h3)


def test_add_simhash_bands():
    t = pa.table({"doc_id": [1], "text": ["hello world example text"]})
    out = add_simhash(t)
    h = out.column("simhash")[0].as_py()
    for band in range(4):
        key = out.column(f"simhash_b{band}")[0].as_py()
        assert key == (h >> (16 * band)) & 0xFFFF


def test_simhash_near_dup_pairs_ray(ray_session):
    import ray.data as rd

    from gliner_cpp_ray.stages.dedup import simhash_near_dup_pairs

    ds = rd.from_arrow(_docs())
    pairs = simhash_near_dup_pairs(ds, max_hamming=3).to_pandas()
    got = set(map(tuple, pairs[["a", "b"]].to_numpy()))
    # doc 2 is an exact dup of doc 0 (hamming 0) and must be found via
    # band collision; doc 1 is a near-dup whose hamming may exceed 3
    assert (0, 2) in got
    # verified: every reported pair is within the hamming budget
    texts = _docs().column("text").to_pylist()
    for a, b in got:
        assert hamming64(simhash64(texts[a]), simhash64(texts[b])) <= 3


def test_cluster_assigner_preserves_ids_above_2_53():
    """The component lookup must stay pure int64: a pandas ``.map``
    round-trips misses through float64 and corrupts ids above 2^53."""
    from gliner_cpp_ray.stages.dedup import ClusterAssigner

    big = (1 << 53) + 1  # not float64-representable
    huge = (1 << 62) + 3
    stage = ClusterAssigner(np.array([5, big], np.int64), np.array([3, 7], np.int64))
    out = stage(pa.table({"doc_id": pa.array([big, huge, 5, 6], pa.int64())}))
    assert out.column("doc_id").to_pylist() == [big, huge, 5, 6]
    assert out.column("cluster_id").to_pylist() == [7, huge, 3, 6]
    # empty map: identity
    none = np.zeros(0, np.int64)
    out2 = ClusterAssigner(none, none)(pa.table({"doc_id": pa.array([huge], pa.int64())}))
    assert out2.column("cluster_id").to_pylist() == [huge]


def test_minhash_signature_matches_sql_oracle():
    """The signer's per-perm mins must equal the DuckDB transcription
    (hex-window shingles, Mersenne-31 universal family) bit-for-bit —
    including the short-text (<5 bytes), empty and multi-byte-UTF-8
    paths."""
    import duckdb

    from gliner_cpp_ray.pipelines.queries import _minhash_sql

    texts = [
        "the cat sat on the mat",
        "ab",  # < 5 bytes: whole-text pack
        "",  # empty: shingle 0
        "一 二 三 四",  # multi-byte UTF-8: byte windows, not codepoints
        "the cat sat on the mat!",
    ]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    signer = MinHashSigner()
    sql = _minhash_sql()
    mins_sql = sql[: sql.index("bkey AS")] + (
        "q AS (SELECT doc_id, p, mh FROM mins) "
        "SELECT doc_id, p, mh FROM q ORDER BY doc_id, p"
    )
    con = duckdb.connect()
    con.register("documents", t)
    rows = con.execute(mins_sql).fetchall()
    got = {}
    for doc, p, mh in rows:
        got.setdefault(doc, []).append(int(mh))
    for i, text in enumerate(texts):
        assert got[i] == [int(v) for v in signer.signature(text)], i


def test_minhash_clusters_match_sql_oracle(ray_session):
    """End-to-end: the distributed clustering (signatures -> banding ->
    hot-bucket prefilter -> verify -> union-find -> broadcast assign)
    must equal the recursive-CTE SQL fixpoint row-for-row."""
    import duckdb
    import ray.data as rd

    from gliner_cpp_ray.pipelines.queries import _minhash_sql

    t = _docs()
    got = (
        minhash_dedup_clusters(rd.from_arrow(t), threshold=0.8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", t)
    want = con.execute(
        _minhash_sql() + " ORDER BY doc_id"
    ).fetch_df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["cluster_id"].tolist() == want["cluster_id"].tolist()


def test_ngram_hash_set_semantics():
    """Pinned shingle semantics: RE2-\\s tokens, < n tokens -> one
    joined gram, empty -> sentinel {0}, output distinct + sorted."""
    from gliner_cpp_ray.stages.dedup import ngram_hash_set

    assert ngram_hash_set("").tolist() == [0]
    assert ngram_hash_set("   \t \n ").tolist() == [0]
    one = ngram_hash_set("one two", 3)
    assert len(one) == 1
    # tokens split on the RE2 class only: \x0b is NOT a separator
    joined = ngram_hash_set("a\x0bb", 3)
    assert len(joined) == 1 and joined.tolist() != ngram_hash_set("a b", 3).tolist()
    h = ngram_hash_set("w1 w2 w3 w4", 3)
    assert len(h) == 2 and list(h) == sorted(h) and (h >= 0).all()


def test_ngram_jaccard_pairs_match_sql_oracle(ray_session):
    """End-to-end: LSH candidate generation over hashed trigram sets +
    exact streamed Jaccard verify must equal the DuckDB literal replica
    row-for-row — including near-dup, disjoint and empty-doc cases."""
    import duckdb
    import ray.data as rd

    from gliner_cpp_ray.stages.dedup import ngram_jaccard_pairs
    from gliner_cpp_ray.pipelines.queries import _ngram_jaccard_sql

    texts = [
        "the quick brown fox jumps over the lazy dog today",
        "the quick brown fox jumps over the lazy dog tonight",
        "completely different content with no overlap at all whatsoever",
        "the quick brown fox jumps over the lazy dog today",
        "", "", "ab", "one two",
    ]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    got = (
        ngram_jaccard_pairs(rd.from_arrow(t), threshold=0.5, n=3)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", t)
    want = con.execute(_ngram_jaccard_sql() + " ORDER BY a, b").fetch_df()
    assert got["a"].tolist() == want["a"].tolist()
    assert got["b"].tolist() == want["b"].tolist()
    assert got["jaccard"].tolist() == want["jaccard"].tolist()  # bit-exact
    # the two identical docs and the two empty docs are exact pairs
    assert {(0, 3), (4, 5)} <= set(zip(got["a"], got["b"]))


def test_simhash_batch_matches_reference_and_sql_oracle():
    """The vectorized batch SimHash must equal the one-text reference
    AND the DuckDB transcription (md5-u64 votes, bit votes, banding)."""
    import duckdb

    texts = [
        "the cat sat", "the cat sat on the mat", "the cat sat",
        "completely different words here", "", "  \t ", "一 二 三 四",
    ]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    # the column is the int64 BIT VIEW (shuffle-safe); undo it for the
    # uint64 reference comparison
    got = [v & 0xFFFFFFFFFFFFFFFF for v in add_simhash(t).column("simhash").to_pylist()]
    assert got == [simhash64(x) for x in texts]

    from gliner_cpp_ray.pipelines.queries import _simhash_sql

    sql = _simhash_sql()
    # reuse only the signature CTEs: project sh
    sig_sql = sql[: sql.index("SELECT x.doc_id")] + (
        "SELECT doc_id, sim FROM sh ORDER BY doc_id"
    )
    con = duckdb.connect()
    con.register("documents", t)
    assert [int(r[1]) for r in con.execute(sig_sql).fetchall()] == got


def test_minhash_clusters_distributed_cc_gate(ray_session):
    """An all-duplicates corpus (a quadratic verified pair list) through
    ``connected_components`` must agree exactly with the driver
    union-find over the same verified pairs."""
    import ray.data as rd

    from gliner_cpp_ray.stages.dedup import (
        MinHashSigner,
        _lsh_candidates,
        verify_pairs,
    )
    from gliner_cpp_ray.state.union_find import UnionFind

    text = "the same boilerplate page body repeated across every mirror host"
    docs = pa.table(
        {
            "doc_id": pa.array(list(range(24)), pa.int64()),
            "text": pa.array(
                [text + (" extra" if i % 2 else "") for i in range(24)]
            ),
        }
    )
    ds = rd.from_arrow(docs).repartition(4)
    got = (
        minhash_dedup_clusters(ds, threshold=0.7)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    sigs = ds.map_batches(MinHashSigner(), batch_format="pyarrow").materialize()
    pairs = _lsh_candidates(sigs).map_batches(
        verify_pairs, fn_kwargs={"threshold": 0.7}, batch_format="pyarrow"
    ).to_pandas()
    assert len(pairs) > 24  # the pair list outgrows the docs
    uf = UnionFind()
    for a, b in zip(pairs["a"].tolist(), pairs["b"].tolist()):
        uf.union(a, b)
    want = pd.DataFrame(
        {
            "doc_id": np.arange(24, dtype=np.int64),
            "cluster_id": np.array([uf.find(i) for i in range(24)], np.int64),
        }
    )
    pd.testing.assert_frame_equal(got, want)
    # the corpus really is duplicate-heavy: one giant cluster
    assert (got["cluster_id"] == 0).sum() >= 12


def test_group_set_overlap_exact_jaccard(ray_session):
    import ray.data as rd

    from gliner_cpp_ray.stages.dedup import group_set_overlap

    t = pa.table(
        {
            "g": pa.array(["x", "x", "x", "y", "y", "y", "z"], pa.string()),
            "k": pa.array([1, 2, 3, 2, 3, 4, 9], pa.int64()),
        }
    )
    got = (
        group_set_overlap(rd.from_arrow(t), "g", "k")
        .to_pandas()
        .set_index(["src_a", "src_b"])
    )
    assert len(got) == 1
    row = got.loc[("x", "y")]
    assert row["n_common"] == 2
    assert row["n_union"] == 4
    assert row["jaccard_micro"] == 500_000


def test_group_set_overlap_empty_keeps_schema(ray_session):
    import ray.data as rd

    from gliner_cpp_ray.stages.dedup import group_set_overlap

    t = pa.table(
        {
            "g": pa.array(["x", "y"], pa.string()),
            "k": pa.array([1, 2], pa.int64()),
        }
    )
    got = group_set_overlap(rd.from_arrow(t), "g", "k")
    # Ray's to_pandas() drops columns entirely on 0-row datasets; the
    # schema'd empty union block keeps the Dataset-level schema stable
    assert got.schema().names == [
        "src_a", "src_b", "n_common", "n_union", "jaccard_micro"
    ]
    assert got.count() == 0


def test_source_mirror_overlap_detects_shared_fragments(ray_session):
    import ray.data as rd

    from gliner_cpp_ray.stages.dedup import source_mirror_overlap

    shared = "the quick brown fox jumps over the lazy dog again"
    t = pa.table(
        {
            "source": pa.array(["s1", "s2", "s3"], pa.string()),
            "text": pa.array(
                [shared + " alpha", shared + " omega", "zz" * 30],
                pa.string(),
            ),
        }
    )
    got = source_mirror_overlap(rd.from_arrow(t), k=24).to_pandas()
    pairs = set(zip(got["src_a"], got["src_b"]))
    assert ("s1", "s2") in pairs
    assert not any("s3" in p for p in pairs)
    row = got.set_index(["src_a", "src_b"]).loc[("s1", "s2")]
    assert row["n_common"] >= 1
    assert row["n_union"] > row["n_common"]


def test_edit_distance_pairs_blocked_equals_postfiltered(ray_session):
    import ray.data as rd

    from gliner_cpp_ray.stages.dedup import edit_distance_pairs

    names = ["abcd", "abce", "abcf", "xbcd", "abgd"]
    blks = [1, 1, 2, 1, 1]
    t = pa.table(
        {
            "name": pa.array(names, pa.string()),
            "blk": pa.array(blks, pa.int64()),
        }
    )
    blocked = edit_distance_pairs(
        rd.from_arrow(t), "name", d=1, block_col="blk"
    ).to_pandas()
    un = edit_distance_pairs(
        rd.from_arrow(t.select(["name"])), "name", d=1
    ).to_pandas()
    blk_of = dict(zip(names, blks))
    want = {
        (a, b)
        for a, b in zip(un["a"], un["b"])
        if blk_of[a] == blk_of[b]
    }
    got = set(zip(blocked["a"], blocked["b"]))
    assert got == want
    assert ("abcd", "abcf") not in got  # cross-block dist-1 pair cut


def test_segment_dedup_stats_boundaries(ray_session):
    """Chunking edge cases: exact multiple of seg_len, short partial
    tail, whole-doc shorter than seg_len, within-doc repeat (counted
    in n_segments, NOT cross-doc dup), and a genuine cross-doc dup."""
    import ray.data as rd

    from gliner_cpp_ray.stages.dedup import segment_dedup_stats

    seg = "a b c d e f g h"          # one full 8-token segment
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(4, dtype=np.int64),
            "text": [
                seg + " " + seg,      # doc0: same segment twice (within-doc)
                seg + " tail only",   # doc1: full seg (cross-dup w/ doc0) + partial
                "tiny doc",           # doc2: single partial segment, unique
                "tail only",          # doc3: equals doc1's partial 2-token segment
            ],
        }
    )
    got = (
        segment_dedup_stats(rd.from_pandas(docs).repartition(3), seg_len=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # doc0: 2 segments, both instances of a hash that doc1 also has -> 2 dup
    # doc1: seg (dup w/ doc0) + 'tail only' (dup w/ doc3) -> 2/2
    # doc2: 1 unique partial -> 0 dup
    # doc3: 'tail only' dup w/ doc1 -> 1/1
    assert got["n_segments"].tolist() == [2, 2, 1, 1]
    assert got["n_dup_segments"].tolist() == [2, 2, 0, 1]
    assert got["dup_ppm"].tolist() == [1_000_000, 1_000_000, 0, 1_000_000]
