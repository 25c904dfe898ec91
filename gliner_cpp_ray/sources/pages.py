"""Synthetic Common-Crawl-style ``pages`` corpus (deterministic, seeded).

Emits the exact input_hint schema (BASELINE.json:15):
``url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string``
where ``text`` is the ground-truth extraction target — the HTML→text
stage must reproduce it byte-identically per url.

Every page is a pure function of ``(seed, page_index)``, so:
* generation can run distributed (Ray ``range → map_batches →
  write_parquet``) or driver-side, with identical content;
* the *expected* KG triples are computable in closed form at generation
  time (the generator knows which relation sentences it injected) and
  are written alongside as ``expected_triples`` — the pipeline must
  rediscover them from HTML alone.  This is the P/R parity target.

Row-size skew is built in (FIXTURES.md F1): a small fraction of pages
repeat their body 100-300x, exercising byte-size repartitioning.
"""

from __future__ import annotations

import os
from html import escape

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from gliner_cpp_ray.sources import world
from gliner_cpp_ray.stages.html_to_text import doc_id_of, normalize_text

_EPOCH_2024_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in microseconds

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

EXPECTED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("url", pa.string()),
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("subj_canon", pa.string()),
        ("obj_canon", pa.string()),
        ("subj_label", pa.string()),
        ("obj_label", pa.string()),
    ]
)

# one row per injected mention OCCURRENCE on an en page (relation
# endpoints + mention-only sentences, × the skew repeat factor).
# ``canon_mention`` is the canon id the CONTEXT-FREE mention
# canonicalizer must assign: the entity canon when the (surface, label)
# is unambiguous in the alias dictionary, else the normalized surface
# (ambiguous mentions form a NIL surface cluster whose display name is
# the surface itself — see canonicalize.build_canon_map).
MENTIONS_EXPECTED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("url", pa.string()),
        ("text", pa.string()),
        ("label", pa.string()),
        ("canon_mention", pa.string()),
    ]
)

# one row per AMBIGUOUS triple-endpoint occurrence: the linker resolves
# these from sentence context, so the node table additionally registers
# the true entity (canonicalize.canonize_triple_endpoints).
ENDPOINTS_EXPECTED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("canon_id", pa.string()),
        ("surface", pa.string()),
        ("label", pa.string()),
    ]
)

_LANGS = ["en", "de", "uk", "zh", "es"]
_LANG_P = [0.80, 0.05, 0.05, 0.05, 0.05]

# crawl spans N_HOSTS distinct sites; host assignment is a pure function
# of the page index so every table builder (and the SQL oracles) can
# recompute a page's url without coordination
N_HOSTS = 199
_LINK_P = 0.35  # per-rendered-paragraph probability of one outbound link


def url_of(i: int) -> str:
    """Canonical url of page ``i`` — the single definition shared by the
    page builder, the expected-table builders, and link-target rendering."""
    return f"https://site{i % N_HOSTS:03d}.example.org/p/{i:08d}"

_CAPITAL_CITIES = sorted(world.CAPITALS)
_ALL_CITIES = sorted(world.CITIES)
_ALL_PEOPLE = sorted(world.PEOPLE)
_ALL_ORGS = sorted(world.ORGS)
_PREDS = sorted(world.RELATIONS)


def _surface(rng: np.random.Generator, canon: str, aliases: list[str]) -> str:
    opts = world.written_surfaces(canon, aliases)
    if len(opts) > 1 and rng.random() < 0.3:
        return opts[int(rng.integers(1, len(opts)))]
    return opts[0]


def _relation_sentence(rng: np.random.Generator):
    """Returns (sentence, record) where record matches EXPECTED_SCHEMA tail."""
    pred = _PREDS[int(rng.integers(0, len(_PREDS)))]
    subj_label, connective, obj_label = world.RELATIONS[pred]
    if pred == "capital_of":
        c = _CAPITAL_CITIES[int(rng.integers(0, len(_CAPITAL_CITIES)))]
        country, c_alias = world.CITIES[c]
        s = _surface(rng, c, c_alias)
        o = _surface(rng, country, world.COUNTRIES[country])
        sc, oc = c, country
    elif pred == "located_in":
        c = _ALL_CITIES[int(rng.integers(0, len(_ALL_CITIES)))]
        country, c_alias = world.CITIES[c]
        s = _surface(rng, c, c_alias)
        o = _surface(rng, country, world.COUNTRIES[country])
        sc, oc = c, country
    elif pred == "born_in":
        p = _ALL_PEOPLE[int(rng.integers(0, len(_ALL_PEOPLE)))]
        city, p_alias = world.PEOPLE[p]
        s = _surface(rng, p, p_alias)
        o = _surface(rng, city, world.CITIES[city][1])
        sc, oc = p, city
    elif pred == "headquartered_in":
        g = _ALL_ORGS[int(rng.integers(0, len(_ALL_ORGS)))]
        city, g_alias = world.ORGS[g]
        s = _surface(rng, g, g_alias)
        o = _surface(rng, city, world.CITIES[city][1])
        sc, oc = g, city
    else:  # acquired
        a, b = world.ACQUISITIONS[int(rng.integers(0, len(world.ACQUISITIONS)))]
        s = _surface(rng, a, world.ORGS[a][1])
        o = _surface(rng, b, world.ORGS[b][1])
        sc, oc = a, b
    sentence = s + connective + o + "."
    return sentence, (s, pred, o, sc, oc, subj_label, obj_label)


def _mention_sentence(rng: np.random.Generator):
    """Returns (sentence, (surface, label)) — same rng draws as before,
    so page content is unchanged; only the mention record is new."""
    tmpl, label, kind = world.MENTION_ONLY_TEMPLATES[
        int(rng.integers(0, len(world.MENTION_ONLY_TEMPLATES)))
    ]
    if kind == "city":
        c = _ALL_CITIES[int(rng.integers(0, len(_ALL_CITIES)))]
        s = _surface(rng, c, world.CITIES[c][1])
    elif kind == "person":
        p = _ALL_PEOPLE[int(rng.integers(0, len(_ALL_PEOPLE)))]
        s = _surface(rng, p, world.PEOPLE[p][1])
    elif kind == "org":
        g = _ALL_ORGS[int(rng.integers(0, len(_ALL_ORGS)))]
        s = _surface(rng, g, world.ORGS[g][1])
    else:
        c = sorted(world.COUNTRIES)[int(rng.integers(0, len(world.COUNTRIES)))]
        s = _surface(rng, c, world.COUNTRIES[c])
    return tmpl.format(**{kind: s}), (s, label)


def _filler_sentence(rng: np.random.Generator, lang: str) -> str:
    pool = world.FILLER_EN if lang == "en" else world.FILLER_BY_LANG[lang]
    n = int(rng.integers(4, 12))
    idx = rng.integers(0, len(pool), size=n)
    return " ".join(pool[j] for j in idx) + "."


def _page_plan(i: int, seed: int):
    """Deterministic plan:
    (lang, title, paragraphs, records, mention_records, repeat) where
    ``mention_records`` lists every injected (surface, label) occurrence
    per single paragraph pass — relation subj/obj AND mention-only
    sentences — in sentence order."""
    rng = np.random.default_rng([seed, i])
    lang = _LANGS[int(rng.choice(len(_LANGS), p=_LANG_P))]
    title = f"Crawl page {i}"
    paragraphs: list[str] = []
    records: list[tuple] = []
    mention_records: list[tuple[str, str]] = []
    n_para = int(rng.integers(2, 6))
    for _ in range(n_para):
        sents: list[str] = []
        for _ in range(int(rng.integers(1, 5))):
            u = rng.random()
            if lang == "en" and u < 0.35:
                sent, rec = _relation_sentence(rng)
                sents.append(sent)
                records.append(rec)
                s, _p, o, _sc, _oc, sl, ol = rec
                mention_records.append((s, sl))
                mention_records.append((o, ol))
            elif lang == "en" and u < 0.55:
                sent, mrec = _mention_sentence(rng)
                sents.append(sent)
                mention_records.append(mrec)
            else:
                sents.append(_filler_sentence(rng, lang))
        paragraphs.append(" ".join(sents))
    repeat = 1
    if rng.random() < 0.005:  # long-tail skew: html 100-300x median
        repeat = int(rng.integers(100, 301))
    return lang, title, paragraphs, records, mention_records, repeat


def _render_html(
    rng: np.random.Generator, title: str, paragraphs: list[str], n_pages: int
) -> str:
    parts = [
        "<!DOCTYPE html>\n<html><head><title>", escape(title, quote=False),
        "</title>\n<style>body { font: 14px sans-serif; }</style>\n",
        "<script>var tracker = 1 < 2;</script></head>\n<body>\n",
        '<nav><a href="/">Home</a> | <a href="/about">About</a></nav>\n',
        "<!-- crawler boilerplate -->\n<main>\n<h1>",
        escape(title, quote=False), "</h1>\n",
    ]
    for para in paragraphs:
        body = escape(para, quote=False)
        # outbound link: wrap the LAST word in an anchor to another page
        # — html-layer only (the tag strips to its inner text, so the
        # extracted-text byte-identity contract is untouched)
        if rng.random() < _LINK_P:
            j = int(rng.integers(0, max(1, n_pages)))
            head, sep, last = body.rpartition(" ")
            if sep:
                body = f'{head} <a href="{url_of(j)}">{last}</a>'
        style = rng.random()
        if style < 0.25:  # inline markup around the first word
            head, _, tail = body.partition(" ")
            body = "<b>" + head + "</b> " + tail if tail else "<b>" + body + "</b>"
            parts.append("<p>" + body + "</p>\n")
        elif style < 0.35:  # malformed: unclosed <p>
            parts.append("<p>" + body + "\n")
        elif style < 0.45:  # div + <br>
            parts.append("<div>" + body + "<br></div>\n")
        else:
            parts.append("<p>" + body + "</p>\n")
    parts.append("</main>\n<footer>&copy; 2024 crawler corp</footer>\n</body></html>")
    return "".join(parts)


def _plans(indices: np.ndarray, seed: int):
    """One _page_plan evaluation per page, shared by all four expected-
    table builders (generation of large scaling corpora would otherwise
    pay the plan cost once per table)."""
    return [(int(i), _page_plan(int(i), seed)) for i in indices]


def make_page_batch(
    indices: np.ndarray, seed: int, plans=None, n_pages: int | None = None
) -> pa.Table:
    # link targets are drawn from [0, n_pages); direct small-scale callers
    # (tests) may omit it, in which case the local index range is the world
    if n_pages is None:
        n_pages = int(indices.max()) + 1 if len(indices) else 1
    urls, ts, htmls, texts, langs = [], [], [], [], []
    for i, (lang, title, paragraphs, _, _, repeat) in (plans or _plans(indices, seed)):
        body_paras = paragraphs * repeat
        rng = np.random.default_rng([seed, i, 1])  # render-only randomness
        html = _render_html(rng, title, body_paras, n_pages)
        text = normalize_text(title + "\n" + "\n".join(body_paras))
        urls.append(url_of(i))
        ts.append(_EPOCH_2024_US + i * 1_000_000)
        htmls.append(html.encode("utf-8"))
        texts.append(text)
        langs.append(lang)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )


def make_expected_batch(indices: np.ndarray, seed: int, plans=None) -> pa.Table:
    cols: dict[str, list] = {f.name: [] for f in EXPECTED_SCHEMA}
    for i, (lang, _, _, records, _, repeat) in (plans or _plans(indices, seed)):
        if lang != "en" or not records:
            continue  # pipeline filters to the 'en' allowlist
        url = url_of(i)
        did = doc_id_of(url)
        for _ in range(repeat):
            for s, pred, o, sc, oc, sl, ol in records:
                cols["doc_id"].append(did)
                cols["url"].append(url)
                cols["subj"].append(s)
                cols["pred"].append(pred)
                cols["obj"].append(o)
                cols["subj_canon"].append(sc)
                cols["obj_canon"].append(oc)
                cols["subj_label"].append(sl)
                cols["obj_label"].append(ol)
    return pa.table(cols, schema=EXPECTED_SCHEMA)


_SURFACE_INDEX = None


def _surface_index():
    """(norm_surface, label) -> (is_ambiguous, canon_or_None), built once
    from the alias dictionary — the SAME source the linker uses, so the
    expected tables and the pipeline agree by construction."""
    global _SURFACE_INDEX
    if _SURFACE_INDEX is None:
        canons: dict[tuple[str, str], set[str]] = {}
        for lbl, entries in world.all_surfaces().items():
            for surface, canon, _qid in entries:
                canons.setdefault(
                    (world.normalize_surface(surface), lbl), set()
                ).add(canon)
        _SURFACE_INDEX = {
            k: (len(v) > 1, min(v)) for k, v in canons.items()
        }
    return _SURFACE_INDEX


def canon_mention_of(surface: str, label: str) -> str:
    """Context-free canon a mention resolves to (see MENTIONS_EXPECTED_
    SCHEMA): entity canon when unambiguous, normalized surface when the
    alias dictionary offers several candidates (NIL surface cluster)."""
    norm = world.normalize_surface(surface)
    hit = _surface_index().get((norm, label))
    if hit is None or hit[0]:
        return norm
    return hit[1]


def is_ambiguous_surface(surface: str, label: str) -> bool:
    hit = _surface_index().get((world.normalize_surface(surface), label))
    return bool(hit and hit[0])


def make_expected_mentions_batch(indices: np.ndarray, seed: int, plans=None) -> pa.Table:
    cols: dict[str, list] = {f.name: [] for f in MENTIONS_EXPECTED_SCHEMA}
    for i, (lang, _, _, _, mention_records, repeat) in (plans or _plans(indices, seed)):
        if lang != "en" or not mention_records:
            continue
        url = url_of(i)
        did = doc_id_of(url)
        for _ in range(repeat):
            for surface, label in mention_records:
                cols["doc_id"].append(did)
                cols["url"].append(url)
                cols["text"].append(surface)
                cols["label"].append(label)
                cols["canon_mention"].append(canon_mention_of(surface, label))
    return pa.table(cols, schema=MENTIONS_EXPECTED_SCHEMA)


def make_expected_endpoints_batch(indices: np.ndarray, seed: int, plans=None) -> pa.Table:
    cols: dict[str, list] = {f.name: [] for f in ENDPOINTS_EXPECTED_SCHEMA}
    for i, (lang, _, _, records, _, repeat) in (plans or _plans(indices, seed)):
        if lang != "en" or not records:
            continue
        url = url_of(i)
        did = doc_id_of(url)
        for _ in range(repeat):
            for s, _pred, o, sc, oc, sl, ol in records:
                for surface, label, canon in ((s, sl, sc), (o, ol, oc)):
                    if is_ambiguous_surface(surface, label):
                        cols["doc_id"].append(did)
                        cols["canon_id"].append(canon)
                        cols["surface"].append(surface)
                        cols["label"].append(label)
    return pa.table(cols, schema=ENDPOINTS_EXPECTED_SCHEMA)


# --- corpus materialization ---------------------------------------------

# bump when generator/world semantics change: stale cached corpora under
# /tmp would otherwise silently disagree with the code that reads them
GEN_VERSION = 4


def corpus_dir_for(n_pages: int, seed: int = 7, root: str = "/tmp/kgray_corpus") -> str:
    return os.path.join(root, f"n{n_pages}_s{seed}_g{GEN_VERSION}")


def ensure_corpus(
    n_pages: int,
    seed: int = 7,
    root: str = "/tmp/kgray_corpus",
    rows_per_file: int = 2048,
) -> str:
    """Generate (idempotently) and return the corpus directory with
    ``pages/`` and ``expected_triples/`` parquet subdirs."""
    out = corpus_dir_for(n_pages, seed, root)
    marker = os.path.join(out, "_SUCCESS")
    if os.path.exists(marker):
        return out
    pages_dir = os.path.join(out, "pages")
    expected_dir = os.path.join(out, "expected_triples")
    os.makedirs(pages_dir, exist_ok=True)
    os.makedirs(expected_dir, exist_ok=True)
    os.makedirs(os.path.join(out, "expected_mentions"), exist_ok=True)
    os.makedirs(os.path.join(out, "expected_endpoints"), exist_ok=True)
    shard = rows_per_file
    bounds = [(lo, min(lo + shard, n_pages)) for lo in range(0, n_pages, shard)]

    use_ray = False
    if n_pages >= 20_000:
        try:
            import ray

            use_ray = ray.is_initialized()
        except ImportError:
            pass
    if use_ray:
        # page content is a pure function of (seed, index) — shard
        # generation parallelizes trivially
        import ray

        @ray.remote
        def gen(lo: int, hi: int) -> None:
            _write_shard(lo, hi, seed, pages_dir, expected_dir, n_pages)

        ray.get([gen.remote(lo, hi) for lo, hi in bounds])
    else:
        for lo, hi in bounds:
            _write_shard(lo, hi, seed, pages_dir, expected_dir, n_pages)
    with open(marker, "w") as f:
        f.write(f"n_pages={n_pages} seed={seed}\n")
    return out


def _write_shard(
    lo: int, hi: int, seed: int, pages_dir: str, expected_dir: str,
    n_pages: int | None = None,
) -> None:
    idx = np.arange(lo, hi, dtype=np.int64)
    plans = _plans(idx, seed)
    pq.write_table(
        make_page_batch(idx, seed, plans, n_pages=n_pages),
        os.path.join(pages_dir, f"part-{lo:08d}.parquet"),
    )
    pq.write_table(
        make_expected_batch(idx, seed, plans),
        os.path.join(expected_dir, f"part-{lo:08d}.parquet"),
    )
    root = os.path.dirname(pages_dir)
    pq.write_table(
        make_expected_mentions_batch(idx, seed, plans),
        os.path.join(root, "expected_mentions", f"part-{lo:08d}.parquet"),
    )
    pq.write_table(
        make_expected_endpoints_batch(idx, seed, plans),
        os.path.join(root, "expected_endpoints", f"part-{lo:08d}.parquet"),
    )


def n_pages_for_sf(sf_dir: str) -> int:
    """Corpus size tied to the driver's scale factor directories."""
    name = os.path.basename(os.path.normpath(sf_dir))
    table = {"sf0.001": 200, "sf0.01": 2000, "sf0.1": 20000}
    return table.get(name, 2000)
