"""The key-hash exchanges (``stages.joins.keyed_exchange``, its
ordered per-key form ``keyed_runs`` and its two-input form
``keyed_cogroup``) and their bucket hash (``add_group_bucket``), plus
ratchets that keep the hand-written ``groupby("__bucket")``, run-mask
and ``__side`` idioms, the ``n_buckets`` knob and inline bucket-count
formulas from growing back."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gliner_cpp_ray.stages.joins import add_group_bucket, run_starts

PKG = pathlib.Path(__file__).resolve().parents[1] / "gliner_cpp_ray"


def _rows(n: int = 600) -> pa.Table:
    rng = np.random.default_rng(3)
    return pa.table(
        {
            "i": pa.array(rng.integers(-40, 40, n), pa.int64()),
            "j": pa.array(rng.integers(0, 5, n), pa.int32()),
            "s": pa.array([f"k{v}" for v in rng.integers(0, 30, n)]),
            "v": pa.array(rng.integers(0, 1000, n), pa.int64()),
        }
    )


@pytest.mark.parametrize("keys", [["i"], ["i", "j"], ["s"], ["s", "i"]])
def test_keyed_exchange_result_independent_of_bucket_count(ray_session, keys):
    import ray.data as rd

    from gliner_cpp_ray.stages.joins import keyed_exchange

    tbl = _rows()

    def reduce(g: pd.DataFrame) -> pd.DataFrame:
        assert "__bucket" not in g.columns
        out = g.groupby(keys, sort=False)["v"].agg(["sum", "size"])
        return out.reset_index()

    want = (
        tbl.to_pandas().groupby(keys)["v"].agg(["sum", "size"]).reset_index()
    )
    for n_buckets in (1, 3, 16):
        got = (
            keyed_exchange(
                rd.from_arrow(tbl).repartition(4), keys, reduce, n_buckets
            )
            .to_pandas()
            .sort_values(keys)
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_keyed_exchange_empty_input(ray_session):
    import ray.data as rd

    from gliner_cpp_ray.stages.joins import keyed_exchange

    empty = _rows().slice(0, 0)
    assert keyed_exchange(rd.from_arrow(empty), ["s"], lambda g: g, 4).take_all() == []


@pytest.mark.parametrize(
    "keys,n_keys,n_buckets",
    [(["i"], 0, 4), (["i", "j"], 2, 16), (["s", "i", "j"], 3, 32), (["s"], 5, 64)],
)
def test_keyed_exchange_never_reduces_zero_rows(ray_session, keys, n_keys, n_buckets):
    # Ray 2.49's map_groups calls the UDF once per group boundary, and
    # an empty block has none: no bucket reaches a reduce with zero rows,
    # even with far more buckets than keys (most buckets get no row)
    import ray.data as rd

    from gliner_cpp_ray.stages.joins import keyed_exchange

    def call_size(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [len(g)]})

    tbl = pa.table({
        "i": pa.array(np.arange(n_keys) * 7, pa.int64()),
        "j": pa.array(np.arange(n_keys) % 2, pa.int32()),
        "s": pa.array([f"k{v}" for v in range(n_keys)], pa.string()),
    })
    ds = rd.from_arrow(pa.concat_tables([tbl] * 3)).repartition(3)
    sizes = [r["n"] for r in keyed_exchange(ds, keys, call_size, n_buckets).take_all()]
    assert all(n > 0 for n in sizes), sizes
    assert sum(sizes) == 3 * n_keys
    assert len(sizes) <= n_keys


_RUN_KEYS = [["i"], ["s"], ["s", "j"]]


@settings(max_examples=8, deadline=None)
@given(
    keys=st.sampled_from(_RUN_KEYS),
    order=st.sampled_from([["o"], ["o", "v"]]),
    seed=st.integers(0, 2**16),
    n_buckets=st.integers(1, 12),
)
def test_keyed_runs_sort_and_first_match_pandas_groupby(ray_session, keys, order,
                                                        seed, n_buckets):
    import ray.data as rd

    from gliner_cpp_ray.stages.joins import keyed_runs

    rng = np.random.default_rng(seed)
    n = 300
    tbl = pa.table({
        "i": pa.array(rng.integers(-20, 20, n), pa.int64()),
        "s": pa.array([f"k{v}" for v in rng.integers(0, 15, n)]),
        "j": pa.array(rng.integers(0, 3, n), pa.int32()),
        "o": pa.array(rng.integers(0, 4, n), pa.int64()),  # many ties
        "v": pa.array(rng.integers(0, 1000, n), pa.int64()),
    })

    def reduce(g: pd.DataFrame, first: np.ndarray) -> pd.DataFrame:
        out = g[list(dict.fromkeys([*keys, *order, "v"]))].reset_index(drop=True)
        out["first"] = first
        out["ord"] = np.arange(len(g)) - run_starts(first)
        out["call"] = int(np.random.default_rng().integers(2**62))
        out["pos"] = np.arange(len(g))
        return out

    # four input blocks: every key's rows arrive from several of them
    got = keyed_runs(
        rd.from_arrow(tbl).repartition(4), keys, order, reduce, n_buckets
    ).to_pandas()
    assert len(got) == n

    want = tbl.to_pandas().sort_values([*keys, *order], kind="stable")
    grp = want.groupby(keys, sort=False)
    for _, call in got.groupby("call"):
        call = call.sort_values("pos")
        # the call's rows are sorted by (keys, order)
        ranked = call[[*keys, *order]].reset_index(drop=True)
        pd.testing.assert_frame_equal(
            ranked,
            ranked.sort_values([*keys, *order], kind="stable")
            .reset_index(drop=True),
        )
        # first is True exactly where the key tuple changes
        kt = list(call[keys].itertuples(index=False))
        assert call["first"].tolist() == [
            i == 0 or kt[i] != kt[i - 1] for i in range(len(kt))
        ]
    # each key is one run of one call, holding all its rows in order
    assert int(got["first"].sum()) == grp.ngroups
    assert got.groupby(keys)["call"].nunique().max() == 1
    runs = got.sort_values(["call", "pos"])
    for key, rows in runs.groupby(keys, sort=False):
        ref = grp.get_group(key)
        assert rows["ord"].tolist() == list(range(len(ref)))
        assert rows[order].values.tolist() == ref[order].values.tolist()
        assert sorted(rows["v"]) == sorted(ref["v"])


def test_run_starts_broadcasts_each_runs_first_position():
    first = np.array([True, False, False, True, True, False])
    assert run_starts(first).tolist() == [0, 0, 0, 3, 4, 4]


def test_single_int_key_bucket_is_knuth_multiply():
    # integer-keyed exchanges and joins keep the buckets the single-key
    # hash gave them: (k * 2654435761 >> 16) % n_buckets
    k = np.array([-7, 0, 1, 2**40, 123456789], np.int64)
    got = add_group_bucket(pa.table({"k": k}), ["k"], 13)
    want = (k.astype(np.uint64) * np.uint64(2654435761) >> np.uint64(16)) % 13
    assert got.column("__bucket").to_pylist() == want.astype(np.int64).tolist()


_BUCKETS_SCRIPT = """
import json, pyarrow as pa
from gliner_cpp_ray.stages.joins import add_group_bucket
t = pa.table({"i": pa.array([3, -1, 99, 2**33], pa.int64()),
              "s": ["a", "bb", "été", ""]})
print(json.dumps({
    ",".join(k): add_group_bucket(t, k, 16).column("__bucket").to_pylist()
    for k in (["i"], ["s"], ["s", "i"])
}))
"""


def test_buckets_stable_across_interpreters():
    """Bucket ids are a pure function of the key: two fresh interpreters
    with different ``PYTHONHASHSEED`` agree (Python's ``hash()`` would
    not), so a reduce may recompute ownership with the same function."""
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(PKG.parent), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-c", _BUCKETS_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert len(set(runs[0]["s"])) > 1


def test_nul_in_string_keys_does_not_collapse_buckets():
    # the pandas hash stops at the first NUL: without the substitution
    # all 64 keys land in one bucket
    t = pa.table({"k": [f"a\x00{i}" for i in range(64)]})
    assert len(set(add_group_bucket(t, ["k"], 1024).column("__bucket").to_pylist())) > 32
    # NUL-free keys keep exactly the buckets they had before
    t = pa.table(
        {"s": ["a", "bb", "été", "", "k17", "http://x.org/p?q=1"],
         "i": pa.array([3, -1, 99, 2**33, 0, 5], pa.int64())}
    )
    assert add_group_bucket(t, ["s"], 1024).column("__bucket").to_pylist() == [
        1011, 604, 546, 309, 1007, 274,
    ]
    assert add_group_bucket(t, ["s", "i"], 1024).column("__bucket").to_pylist() == [
        1011, 289, 13, 311, 647, 528,
    ]


def test_bloom_key_hash_keeps_bytes_after_nul():
    # the Bloom prefilter's key hash: without the NUL substitution all 64
    # keys get one hash, so every one passes the prefilter
    from gliner_cpp_ray.stages.joins import _key_hash_u64

    keys = pa.array([f"a\x00{i}" for i in range(64)])
    assert len(set(_key_hash_u64(keys).tolist())) >= 60
    # NUL-free keys keep exactly the hashes they had before
    plain = pa.array(["a", "bb", "été", "", "k17", "http://x.org/p?q=1"])
    assert _key_hash_u64(plain).tolist() == [
        13950350942979735504, 618927398078992371, 5908516111345628981,
        1760245841805064774, 3432087725838773636, 6929932849343994341,
    ]


def _sides() -> tuple[pa.Table, pa.Table]:
    rng = np.random.default_rng(7)
    lt = _rows(500)
    n = 200
    rt = pa.table(
        {
            "i": pa.array(rng.integers(-40, 40, n), pa.int64()),
            "s": pa.array([f"k{v}" for v in rng.integers(0, 30, n)]),
            "w": pa.array(rng.integers(0, 1000, n), pa.int64()),
        }
    )
    return lt, rt


@pytest.mark.parametrize("keys", [["i"], ["s"], ["s", "i"]])
def test_keyed_cogroup_result_independent_of_bucket_count(ray_session, keys):
    import ray.data as rd

    from gliner_cpp_ray.stages.joins import keyed_cogroup

    lt, rt = _sides()

    def merge(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        assert list(lg.columns) == lt.schema.names
        assert list(rg.columns) == rt.schema.names
        nl = lg.groupby(keys).size().rename("nl")
        nr = rg.groupby(keys).size().rename("nr")
        return pd.concat([nl, nr], axis=1).fillna(0).astype(np.int64).reset_index()

    l_df, r_df = lt.to_pandas(), rt.to_pandas()
    want = (
        pd.concat(
            [l_df.groupby(keys).size().rename("nl"),
             r_df.groupby(keys).size().rename("nr")],
            axis=1,
        )
        .fillna(0).astype(np.int64).reset_index()
        .sort_values(keys).reset_index(drop=True)
    )
    for n_buckets in (1, 3, 16):
        got = (
            keyed_cogroup(
                rd.from_arrow(lt).repartition(3), rd.from_arrow(rt), keys,
                merge, n_buckets,
            )
            .to_pandas()
            .sort_values(keys)
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_keyed_cogroup_keeps_padded_int64_exact(ray_session):
    # each side's int64 columns are padded on the other side; values
    # past 2^53 must reach merge_fn as exact ints, not float64
    import ray.data as rd

    from gliner_cpp_ray.stages.joins import keyed_cogroup

    big = 2**60 + np.arange(4, dtype=np.int64)
    lt = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()), "a": pa.array(big)})
    rt = pa.table({"k": pa.array([2, 3, 9], pa.int64()), "b": pa.array(big[:3] + 7)})

    def merge(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        for df, col in ((lg, "a"), (rg, "b")):
            assert df[col].dtype.kind == "i", df.dtypes
            assert "__side" not in df.columns and "__bucket" not in df.columns
        return pd.DataFrame(
            {"k": np.concatenate([lg["k"], rg["k"]]),
             "v": np.concatenate([lg["a"], rg["b"]])}
        )

    got = keyed_cogroup(rd.from_arrow(lt), rd.from_arrow(rt), "k", merge, 4)
    got = got.to_pandas().sort_values(["k", "v"])
    assert got["v"].dtype.kind == "i"
    want = sorted(zip([1, 2, 3, 4, 2, 3, 9], big.tolist() + (big[:3] + 7).tolist()))
    assert list(zip(got["k"].tolist(), got["v"].tolist())) == want


@pytest.mark.parametrize("empty_side", ["left", "right"])
def test_keyed_cogroup_empty_side(ray_session, empty_side):
    import ray.data as rd

    from gliner_cpp_ray.stages.joins import keyed_cogroup

    lt, rt = _sides()
    if empty_side == "left":
        lt = lt.slice(0, 0)
    else:
        rt = rt.slice(0, 0)

    def merge(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        assert list(lg.columns) == lt.schema.names
        assert list(rg.columns) == rt.schema.names
        return pd.DataFrame({"nl": [len(lg)], "nr": [len(rg)]})

    got = keyed_cogroup(rd.from_arrow(lt), rd.from_arrow(rt), ["s"], merge, 5)
    got = got.to_pandas()
    assert int(got["nl"].sum()) == lt.num_rows
    assert int(got["nr"].sum()) == rt.num_rows


# Sites that still spell ``groupby("__bucket")`` out, and why: the
# range and rank buckets are contiguous value/id ranges whose reduce
# reads its bucket id to add a driver-computed offset — not key hashes.
# stages/joins.py holds _bucket_groups, the one bucket shuffle behind
# keyed_exchange, keyed_cogroup and range_merge_join (whose buckets are
# equi-depth key ranges, not hashes).
_BUCKET_GROUPBY_ALLOWED = {
    "stages/joins.py": 1,
    "stages/packing.py": 6,  # pack_sequences, global_shuffle_positions, global_order_rank
    "stages/sampling.py": 2,  # weighted probe sampling over id ranges
}


def test_bucket_groupby_idiom_does_not_grow_back():
    counts = {}
    for path in PKG.rglob("*.py"):
        rel = path.relative_to(PKG).as_posix()
        src = path.read_text()
        n = sum(
            1 for line in src.splitlines()
            if 'groupby("__bucket")' in line
            and not line.strip().startswith(("#", "``"))
            and "``groupby" not in line
        )
        if n:
            counts[rel] = n
    for rel, n in counts.items():
        assert rel in _BUCKET_GROUPBY_ALLOWED, (
            f"{rel} spells out groupby(\"__bucket\"); use keyed_exchange"
        )
        assert n <= _BUCKET_GROUPBY_ALLOWED[rel], (rel, n)


# The sort-and-mark-runs prologue of an ordered per-key reduce lives
# in ``joins.keyed_runs``; no other function spells it out.
_RUN_MASK_IDIOMS = ("kv[1:] == kv[:-1]", "sort_values([*key_cols")
_RUN_MASK_ALLOWED = {("stages/joins.py", "keyed_runs")}


def _enclosing_functions(tree: ast.AST) -> list[tuple[int, int, str]]:
    return [
        (node.lineno, node.end_lineno, node.name)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def test_run_mask_idiom_lives_only_in_keyed_runs():
    sites = set()
    for path in PKG.rglob("*.py"):
        rel = path.relative_to(PKG).as_posix()
        src = path.read_text()
        spans = _enclosing_functions(ast.parse(src))
        for lineno, line in enumerate(src.splitlines(), 1):
            if any(idiom in line for idiom in _RUN_MASK_IDIOMS):
                owner = next(
                    (name for lo, hi, name in spans if lo <= lineno <= hi),
                    "<module>",
                )
                sites.add((rel, owner))
    assert sites <= _RUN_MASK_ALLOWED, (
        f"{sorted(sites - _RUN_MASK_ALLOWED)} sort and mark key runs by "
        "hand; use joins.keyed_runs"
    )
    assert sites == _RUN_MASK_ALLOWED


def test_no_package_module_imports_add_key_bucket():
    for path in PKG.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                assert "add_key_bucket" not in names, path


def test_side_tag_lives_only_in_joins():
    # two-input exchanges go through keyed_cogroup; no other module
    # tags or splits sides by hand
    users = sorted(
        path.relative_to(PKG).as_posix()
        for path in PKG.rglob("*.py")
        if '"__side"' in path.read_text()
    )
    assert users == ["stages/joins.py"]


# Bucket counts are decided in ``stages/sizing.py``: only the shuffle
# primitives whose callers pin them (to 8, or a bytes- or rows-scaled
# count) still take an ``n_buckets`` argument.  ``bucketed_anti_join``
# is one because ``graph.bfs_hop_distance`` passes its rows-scaled count.
_N_BUCKETS_ALLOWED = {
    "keyed_exchange", "keyed_runs", "keyed_cogroup", "bucketed_group_agg",
    "bucketed_hash_join", "bucketed_anti_join", "bloom_semi_join",
    "asof_join_bucketed", "interval_join_bucketed", "nearest_join_bucketed",
    "cooccurrence_counts", "grouped_top_k", "seq_numbers_per_key",
    "default_buckets",
}
_SIZING_FORMULAS = ("// 250_000", "// 100_000", "10 * cluster_cpus()")


def _defaulted_params(fn: ast.FunctionDef) -> set[str]:
    a = fn.args
    pos = a.posonlyargs + a.args
    names = {p.arg for p in pos[len(pos) - len(a.defaults):]}
    return names | {
        k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
    }


def test_n_buckets_knob_only_on_the_shuffle_primitives():
    owners = set()
    for path in PKG.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and (
                "n_buckets" in _defaulted_params(node)
            ):
                owners.add(node.name)
    assert owners <= _N_BUCKETS_ALLOWED, (
        f"{sorted(owners - _N_BUCKETS_ALLOWED)} take n_buckets; size "
        "buckets with stages/sizing.py"
    )
    assert owners == _N_BUCKETS_ALLOWED


def test_sizing_formulas_live_only_in_sizing():
    sites = sorted(
        (path.relative_to(PKG).as_posix(), formula)
        for path in PKG.rglob("*.py")
        if path.name != "sizing.py"
        for formula in _SIZING_FORMULAS
        if formula in path.read_text()
    )
    assert not sites, f"{sites} inline a sizing formula; call stages/sizing.py"
    defaulted = {
        node.name: _defaulted_params(node)
        for node in ast.parse((PKG / "stages" / "sizing.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    assert defaulted == {
        "cluster_cpus": set(),
        "default_buckets": {"n_buckets"},
        "rows_scaled_buckets": {"rows_per_bucket"},
        "range_buckets": set(),
        "default_concurrency": set(),
        "bytes_scaled_partitions": set(),
    }


@pytest.mark.parametrize("cpus", [1, 4, 32, 4096])
def test_sizing_rules(monkeypatch, cpus):
    from gliner_cpp_ray.stages import sizing

    monkeypatch.setattr(sizing, "cluster_cpus", lambda: cpus)
    cap = max(8, min(4096, 2 * cpus))
    assert sizing.default_buckets() == cap
    assert sizing.default_buckets(5) == 5
    assert sizing.range_buckets() == max(8, 10 * cpus)
    for rows in (0, 1_999_999, 2_250_000, 10**9):
        assert sizing.rows_scaled_buckets(rows) == max(
            8, min(cap, rows // 250_000)
        )
        assert sizing.rows_scaled_buckets(rows, 100_000) == max(
            8, min(cap, rows // 100_000)
        )
    assert sizing.default_concurrency() == (1, max(4, cpus))
    for nbytes in (0, 64 << 20, 10 << 30):
        assert sizing.bytes_scaled_partitions(nbytes) == max(
            8, min(2 * cpus, nbytes // (64 << 20) + 1)
        )
