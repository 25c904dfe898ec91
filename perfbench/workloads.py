"""The benchmark's workloads, their set-up and their output checks.

Each workload is a closed loop: one job at a time, the next starting when
the previous one finishes, repeated until the run's measuring time is
spent.  Inputs come from ``sources.pages.ensure_corpus(n_pages, seed)``
with the generator seed ``Ctx.corpus_seed`` picks for ``--seed``; the
package sees only the generated pages.  Each job's output is checked
against the generator's closed-form expectations after the job, outside
its timing and its ``peak_rss_mb`` window.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

import tracing

# Ray host set-up: two logical CPUs is the smallest session where the NER
# actor and the read/write tasks that feed it can both run.
NUM_CPUS = 2
NER_POOL = 1
NER_NUM_CPUS = 1.0
NER_BATCH = 128  # docs per Arrow batch, as a pipeline NER actor receives them
SCAN_BLOCKS = max(8, 4 * NUM_CPUS)  # blocks per downstream scan, as the pipeline reads them
OBJECT_STORE_BYTES = 512 << 20
WARM_PAGES = 200
WARM_BATCHES = 8  # ner_inproc warm-up; the NER layers keep no per-input caches
BASE_SHARE = 0.8  # kg_delta_ingest: base = first 80% of the page files
FILES_PER_CORPUS = 10
KEEP_CORPORA = 64  # cached corpora (~10 MB per 20k pages) kept, newest first
ITERATION_DEADLINE_S = 140.0  # from process start; the run must end < 180 s
MIN_JOBS = 3  # per untraced run, however long a job takes

# Generator seeds whose 20k-page corpora hold within 1% of the median
# English word count of seeds 1-240 (generator version 4), so that job
# times do not follow the seed's share of 100-300x repeated pages; made by
# ``perfbench/corpus_seeds.py``, which says why.
TYPICAL_SEEDS = (
    11, 18, 27, 31, 41, 43, 58, 59, 61, 67, 85, 87, 89, 91, 93, 108,
    123, 134, 136, 138, 156, 177, 178, 179, 181, 187, 205, 208, 210, 216,
    239, 240,
)
TYPICAL_SEEDS_GEN = 4

NER_MODULES = "gliner_cpp_ray.stages.ner"
KG_MODULES = "ray, ray.data, gliner_cpp_ray.pipelines.kg, gliner_cpp_ray.stages.ner"

_SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import {modules}
gliner_cpp_ray.stages.ner.GlinerNERStage()
print(time.perf_counter() - t0)
"""


class BenchSetupError(RuntimeError):
    """The benchmark cannot run as configured on this host."""


@dataclass
class Ctx:
    root: str  # checkout root; every file the run touches is below it
    pages: int
    seed: int
    seconds: float
    trace: bool
    corrupt: bool  # self-test: drop one output row before each check
    started: float = field(default_factory=time.perf_counter)

    @property
    def corpus_seed(self) -> int:
        """The generator seed of ``--seed``: one of ``TYPICAL_SEEDS``."""
        return TYPICAL_SEEDS[self.seed % len(TYPICAL_SEEDS)]

    @property
    def cache(self) -> str:
        return os.path.join(self.root, ".perfbench_cache")

    @property
    def work(self) -> str:
        return os.path.join(self.cache, f"work-{os.getpid()}")


@dataclass
class Outcome:
    walls: list[float]  # seconds per iteration that returned
    attempted: int
    failed: int
    docs: int
    setup_s: float
    peak_rss_mb: float
    host: dict
    layers: dict[str, float] = field(default_factory=dict)
    stage_walls: list[dict] = field(default_factory=list)  # per Ray job


# --- set-up ---------------------------------------------------------------

def setup_probe_s(ctx: Ctx, modules: str, n: int = 3) -> float:
    """Median time a fresh interpreter takes to import ``modules`` and
    construct ``GlinerNERStage()``."""
    code = _SETUP_PROBE.format(modules=modules)
    env = {**os.environ, "PYTHONPATH": ctx.root}
    samples = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ctx.root, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def check_pool(cpus: float, pool: int, cpus_per_actor: float) -> None:
    """The NER pool must leave a logical CPU for the read and write tasks
    that feed it; with none left the pipeline stalls instead of failing."""
    free = cpus - pool * cpus_per_actor
    if pool < 1 or free < 1:
        raise BenchSetupError(
            f"NER pool of {pool} actor(s) x {cpus_per_actor} CPU leaves "
            f"{free:g} of {cpus:g} logical CPUs for read/write tasks; at "
            "least 1 must stay free or the pipeline makes no progress"
        )


def _ray_temp_dir(ctx: Ctx) -> str | None:
    # Ray puts AF_UNIX sockets (at most 107 bytes) under
    # <temp>/session_<timestamp>_<pid>/sockets/; fall back to Ray's default
    # temp dir when the checkout path is too long for that.
    temp = os.path.join(ctx.cache, "ray")
    return temp if len(temp) + 80 <= 107 else None


@contextmanager
def ray_session(ctx: Ctx):
    """Local Ray session; yields its start time in seconds."""
    import logging

    import ray

    check_pool(NUM_CPUS, NER_POOL, NER_NUM_CPUS)
    # Ray workers import the package from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ctx.root, os.environ.get("PYTHONPATH")) if p
    )
    temp = _ray_temp_dir(ctx)
    t0 = time.perf_counter()
    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=temp,
    )
    start_s = time.perf_counter() - t0
    # outside the checkout (the fallback), remove only this session's files
    session = temp or ray._private.worker._global_node.get_session_dir_path()
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray").setLevel(logging.ERROR)
        check_pool(ray.cluster_resources().get("CPU", 0), NER_POOL, NER_NUM_CPUS)
        yield start_s
    finally:
        ray.shutdown()
        shutil.rmtree(session, ignore_errors=True)


def kg_config():
    from gliner_cpp_ray.pipelines.kg import KGPipelineConfig

    return KGPipelineConfig(
        ner_concurrency=(NER_POOL, NER_POOL),  # fixed pool: no autoscaling ramp
        ner_num_cpus=NER_NUM_CPUS,
        link_concurrency=(1, 1),
        shards=1,
    )


def corpus(ctx: Ctx, n_pages: int) -> str:
    """The seeded corpus, generated once per checkout and reused.  It is
    generated in a child process, so the benchmark process's memory is
    the same whether or not the corpus was cached."""
    root = os.path.join(ctx.cache, "corpus")
    code = (
        "from gliner_cpp_ray.sources.pages import GEN_VERSION, ensure_corpus\n"
        f"print(ensure_corpus({n_pages}, {ctx.corpus_seed}, root={root!r}, "
        f"rows_per_file={max(1, n_pages // FILES_PER_CORPUS)}))\n"
        "print(GEN_VERSION)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ctx.root, capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": ctx.root},
    )
    if proc.returncode != 0:
        raise BenchSetupError(f"corpus generation failed:\n{proc.stderr[-2000:]}")
    out, gen_version = proc.stdout.split()[-2:]
    if int(gen_version) != TYPICAL_SEEDS_GEN:
        print(f"perfbench: TYPICAL_SEEDS were chosen for generator version "
              f"{TYPICAL_SEEDS_GEN}, not {gen_version}; rerun "
              "perfbench/corpus_seeds.py", file=sys.stderr)
    os.utime(out)
    by_age = sorted(
        (os.path.join(root, d) for d in os.listdir(root)),
        key=os.path.getmtime, reverse=True,
    )
    for old in by_age[KEEP_CORPORA:]:
        shutil.rmtree(old, ignore_errors=True)
    return out


def page_files(corpus_dir: str) -> list[str]:
    return tracing.parquet_files(os.path.join(corpus_dir, "pages"))


def reduce_parts(corpus_dir: str) -> int:
    """The pipeline's shuffle partition count for the corpus's pages."""
    all_bytes = sum(os.path.getsize(f) for f in page_files(corpus_dir))
    return kg_config().resolved_reduce_partitions(all_bytes)


def en_pages(files: list[str]) -> pa.Table:
    return pads.dataset(files).to_table(
        columns=["url", "html", "lang"], filter=pc.field("lang") == "en"
    )


def en_docs(files: list[str]) -> int:
    return pads.dataset(files).count_rows(filter=pc.field("lang") == "en")


def _nproc() -> int:
    # the coreutils tool, which also honours OMP_NUM_THREADS and CPU quotas
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return int(out.stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return os.cpu_count() or 0


def host_record(ctx: Ctx, corpus_dir: str, docs: int, ray_cpus) -> dict:
    from importlib.metadata import version

    return {
        "nproc": _nproc(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "ray_num_cpus": ray_cpus,
        "ner_pool": NER_POOL if ray_cpus else None,
        "ray_version": version("ray"),
        "python_version": sys.version.split()[0],
        "corpus_pages": ctx.pages,
        "corpus_seed": ctx.corpus_seed,
        "corpus_dir": os.path.relpath(corpus_dir, ctx.root),
        "docs": docs,
    }


# --- the measuring loop -----------------------------------------------------

class _IterationTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _IterationTimeout("job ran past the run's deadline")


@dataclass
class Job:
    wall_s: float | None  # None: the job raised or overran the deadline
    rss_mb: float  # peak resident set of this process during the job
    ok: bool  # the output check passed
    out: object = None  # the job's output, when the caller keeps it


def _reset_peak_rss() -> None:
    # Linux: writing 5 resets this process's resident-set high-water mark,
    # which getrusage reports as ru_maxrss
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # the peak then covers the whole process lifetime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(ctx: Ctx, iterate, check, keep_output: bool = False) -> list[Job]:
    """Run ``iterate(i) -> (wall_s, output)`` until ``ctx.seconds`` have
    passed and at least ``MIN_JOBS`` jobs ran, checking each output with
    ``check(output)`` before the next job starts."""
    jobs: list[Job] = []
    deadline = ctx.started + ITERATION_DEADLINE_S
    # a traced run needs one job
    seconds, min_jobs = (0.0, 1) if ctx.trace else (ctx.seconds, MIN_JOBS)
    t0 = time.perf_counter()
    prev = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        while len(jobs) < min_jobs or time.perf_counter() - t0 < seconds:
            left = deadline - time.perf_counter()
            if jobs and left < 1.5 * (jobs[-1].wall_s or 0.0):
                break
            _reset_peak_rss()
            signal.setitimer(signal.ITIMER_REAL, max(left, 1.0))
            try:
                wall, out = iterate(len(jobs))
            except Exception as exc:  # a failed job is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                jobs.append(Job(None, peak_rss_mb(), False))
                if isinstance(exc, _IterationTimeout):
                    break
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            rss = peak_rss_mb()
            try:
                ok = check(out)
            except Exception:  # a malformed output fails its check
                traceback.print_exc(file=sys.stderr)
                ok = False
            jobs.append(Job(wall, rss, ok, out if keep_output else None))
            del out
    finally:
        signal.signal(signal.SIGALRM, prev)
    return jobs


# --- output checks ----------------------------------------------------------

def _multiset(df, key):
    return df.groupby(key).size().sort_index()


def _drop_one(tbl: pa.Table) -> pa.Table:
    return tbl.slice(1)


def expected_mentions(corpus_dir: str):
    import pandas as pd

    exp = pd.read_parquet(os.path.join(corpus_dir, "expected_mentions"))
    return _multiset(exp, ["doc_id", "text", "label"])


def check_mentions(mentions: pa.Table, want, corrupt: bool) -> bool:
    """The multiset of (doc_id, text, label) equals ``expected_mentions``."""
    if corrupt:
        mentions = _drop_one(mentions)
    cols = mentions.select(["doc_id", "text", "label"]).to_pandas()
    return _multiset(cols, ["doc_id", "text", "label"]).equals(want)


def expected_kg(corpus_dir: str):
    import pandas as pd

    exp = pd.read_parquet(os.path.join(corpus_dir, "expected_triples"))
    triples = _multiset(exp, ["doc_id", "subj", "pred", "obj"])
    weights = _multiset(exp, ["subj_canon", "pred", "obj_canon"])
    return triples, weights


def check_kg(out_root: str, want, corrupt: bool) -> bool:
    """Linked triples equal ``expected_triples`` as a multiset, edge
    weights equal its (subj_canon, pred, obj_canon) group-by, and the
    edges are sorted by ``subj_canon``."""
    triples, weights = want
    linked = tracing.read_stage(out_root, "linked", ["doc_id", "subj", "pred", "obj"])
    if corrupt:
        linked = _drop_one(linked)
    edges = tracing.read_stage(
        out_root, "edges", ["subj_canon", "pred", "obj_canon", "weight"]
    ).to_pandas()
    got_w = edges.set_index(["subj_canon", "pred", "obj_canon"])["weight"].sort_index()
    subj = edges["subj_canon"]
    return (
        _multiset(linked.to_pandas(), ["doc_id", "subj", "pred", "obj"]).equals(triples)
        and got_w.index.is_unique
        and got_w.astype("int64").equals(weights.astype("int64"))
        and subj.is_monotonic_increasing
    )


# --- in-process NER ---------------------------------------------------------

def ner_batches(docs: pa.Table) -> list[pa.Table]:
    return [docs.slice(o, NER_BATCH) for o in range(0, docs.num_rows, NER_BATCH)]


def ner_pass(stage, batches) -> tuple[float, pa.Table]:
    t0 = time.perf_counter()
    out = pa.concat_tables([stage(b) for b in batches])
    return time.perf_counter() - t0, out


def ner_layers(stage, pages: pa.Table, untraced_wall_s: float, seconds: float) -> dict:
    """Traced in-process HTML->text + NER passes over ``pages`` for
    ``seconds`` (at least one); per-layer medians over the passes."""
    samples = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        tr = tracing.Tracer()
        docs = tracing.traced_html_to_docs(tr, pages)
        with tracing.ner_traced(tr, stage):
            wall, _ = ner_pass(stage, ner_batches(docs))
        m = tracing.ner_layer_metrics(tr)
        m["trace.overhead_s"] = wall - untraced_wall_s
        samples.append(m)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def inproc_downstream_layers(stage, pages: pa.Table, ner_wall_s: float,
                             corpus_dir: str) -> dict:
    """The KG stages run in-process, without Ray, after an untraced
    HTML->text + NER pass over ``pages``: the downstream layers' metrics
    and ``kg.*`` of that in-process run."""
    from gliner_cpp_ray.stages.html_to_text import html_to_docs

    parts = reduce_parts(corpus_dir)
    t0 = time.perf_counter()
    _, mentions = ner_pass(stage, ner_batches(html_to_docs(pages)))
    mentions_s = time.perf_counter() - t0
    layers, stages = tracing.replay_downstream(mentions, None, SCAN_BLOCKS, parts)
    stages["mentions"] = (mentions_s, mentions)
    total_s = time.perf_counter() - t0
    layers.update(tracing.inproc_kg_metrics(stages, total_s, ner_wall_s))
    return layers


# --- workloads --------------------------------------------------------------

def _outcome(jobs: list[Job], docs: int, setup_s: float, host: dict,
             layers: dict) -> Outcome:
    done = [j for j in jobs if j.wall_s is not None]
    return Outcome(
        walls=[j.wall_s for j in done],
        attempted=len(jobs),
        failed=sum(not j.ok for j in jobs),
        docs=docs,
        setup_s=setup_s,
        peak_rss_mb=statistics.median(j.rss_mb for j in done) if done else 0.0,
        host=host,
        layers=layers,
    )


def ner_inproc(ctx: Ctx) -> Outcome:
    """GlinerNERStage in-process over every en doc, in 128-doc batches."""
    setup_s = setup_probe_s(ctx, NER_MODULES, n=5)  # ~0.2 s each
    from gliner_cpp_ray.stages.html_to_text import html_to_docs
    from gliner_cpp_ray.stages.ner import GlinerNERStage

    cdir = corpus(ctx, ctx.pages)
    pages = en_pages(page_files(cdir))
    docs = html_to_docs(pages)  # untimed
    batches = ner_batches(docs)
    stage = GlinerNERStage()
    want = expected_mentions(cdir)
    ner_pass(stage, batches[:WARM_BATCHES])  # untimed warm-up: lazy tables
    jobs = measure(
        ctx, lambda i: ner_pass(stage, batches),
        lambda out: check_mentions(out, want, ctx.corrupt),
    )
    layers = {}
    done = [j.wall_s for j in jobs if j.wall_s is not None]
    if ctx.trace and done:
        untraced = statistics.median(done)
        layers = ner_layers(stage, pages, untraced, ctx.seconds)
        layers.update(inproc_downstream_layers(stage, pages, untraced, cdir))
    return _outcome(jobs, docs.num_rows, setup_s,
                    host_record(ctx, cdir, docs.num_rows, None), layers)


def _kg_workload(ctx: Ctx, prepare, job, untimed=None) -> Outcome:
    """Shared body of the Ray workloads.  ``prepare(cfg, cdir, files)``
    builds untimed state and returns the files whose en docs the job
    processes; ``untimed(out_root)`` readies each job's output directory
    and ``job(cfg, corpus_dir, out_root)`` is the timed call."""
    probe_s = setup_probe_s(ctx, KG_MODULES)
    cdir = corpus(ctx, ctx.pages)
    os.makedirs(ctx.work, exist_ok=True)
    try:
        with ray_session(ctx) as start_s:
            cfg = kg_config()
            job_files = prepare(cfg, cdir, page_files(cdir))
            docs = en_docs(job_files)
            want = expected_kg(cdir)

            def iterate(i):
                out = os.path.join(ctx.work, f"run-{i}")
                if untimed is not None:
                    untimed(out)
                called = time.time()
                t0 = time.perf_counter()
                summary = job(cfg, cdir, out)
                return time.perf_counter() - t0, (out, summary, called)

            jobs = measure(
                ctx, iterate, lambda r: check_kg(r[0], want, ctx.corrupt),
                keep_output=True,
            )
            layers = {}
            done = [j for j in jobs if j.wall_s is not None]
            if ctx.trace and done:
                layers = _kg_layers(cdir, job_files, done[-1])
        res = _outcome(jobs, docs, probe_s + start_s,
                       host_record(ctx, cdir, docs, NUM_CPUS), layers)
        res.stage_walls = [
            {stage: man.get("wall_sec") for stage, man in j.out[1].items()}
            for j in done
        ]
        return res
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def _kg_layers(cdir, job_files, last: Job) -> dict:
    """Per-layer metrics of the Ray workloads, from the last completed job."""
    from gliner_cpp_ray.stages.html_to_text import html_to_docs
    from gliner_cpp_ray.stages.ner import GlinerNERStage

    out, summary, called = last.out
    pages = en_pages(job_files)
    stage = GlinerNERStage()
    batches = ner_batches(html_to_docs(pages))
    ner_pass(stage, batches[:WARM_BATCHES])
    ner_wall, _ = ner_pass(stage, batches)
    layers = ner_layers(stage, pages, ner_wall, 0)
    replayed, _ = tracing.replay_downstream(
        tracing.read_stage(out, "mentions"), tracing.read_stage(out, "linked"),
        SCAN_BLOCKS, reduce_parts(cdir),
    )
    layers.update(replayed)
    layers.update(tracing.kg_metrics(out, summary, last.wall_s, called, ner_wall))
    return layers


def kg_full_build(ctx: Ctx) -> Outcome:
    """A fresh run_kg_pipeline over the whole corpus."""
    from gliner_cpp_ray.pipelines.kg import run_kg_pipeline

    def prepare(cfg, cdir, files):
        # warm the Ray workers (untimed): task workers import the package once
        warm = os.path.join(ctx.work, "warm")
        run_kg_pipeline(os.path.join(corpus(ctx, WARM_PAGES), "pages"), warm, cfg)
        shutil.rmtree(warm)
        return files

    def job(cfg, cdir, out):
        return run_kg_pipeline(os.path.join(cdir, "pages"), out, cfg)

    return _kg_workload(ctx, prepare, job)


def kg_delta_ingest(ctx: Ctx) -> Outcome:
    """run_kg_delta of the last 20% of page files into a copy of a KG
    built from the first 80%."""
    from gliner_cpp_ray.pipelines.kg import run_kg_delta, run_kg_pipeline

    base = os.path.join(ctx.work, "base")
    delta: list[str] = []

    def prepare(cfg, cdir, files):
        cut = max(1, int(len(files) * BASE_SHARE))
        if cut >= len(files):
            raise BenchSetupError("kg_delta_ingest needs at least two page files")
        base_pages = os.path.join(ctx.work, "base_pages")
        os.makedirs(base_pages)
        for f in files[:cut]:
            shutil.copy(f, base_pages)
        # the untimed base build also warms the Ray workers
        run_kg_pipeline(base_pages, base, cfg)
        delta.extend(files[cut:])
        return delta

    def untimed(out):
        shutil.copytree(base, out)  # keeps mtimes: the base shard reads as reused

    def job(cfg, cdir, out):
        return run_kg_delta(delta, out, cfg)

    return _kg_workload(ctx, prepare, job, untimed)


WORKLOADS = {
    "ner_inproc": ner_inproc,
    "kg_full_build": kg_full_build,
    "kg_delta_ingest": kg_delta_ingest,
}
