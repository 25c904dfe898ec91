#!/usr/bin/env python3
"""Choose the generator seeds the benchmark's ``--seed`` maps to.

    python3 perfbench/corpus_seeds.py [--pages 20000] [--scan 240] [--keep 32]

The generator gives 0.5% of its pages a body repeated 100-300 times.  Those
pages hold about half of the words in a 20k-page corpus, and their number
varies with the seed, so the English words per corpus spread by about 8%
between quartiles from seed to seed, and the job time follows them.  This
script plans the corpus of each seed in ``1..scan`` (the generator's page
plans, without rendering HTML), counts its English words, and prints the
``keep`` seeds whose word counts lie closest to the median of the scan, as
the ``TYPICAL_SEEDS`` table of ``workloads.py``.  The table is valid for the
generator version it prints; rerun the script when that version changes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from multiprocessing import Pool

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def en_words(args: tuple[int, int]) -> tuple[int, int, int]:
    """(seed, en docs, en words) of the corpus ``ensure_corpus(pages, seed)``
    would write; words are whitespace-split words of the text paragraphs,
    times the page's repeat factor."""
    import numpy as np

    from gliner_cpp_ray.sources import pages as gen

    seed, n_pages = args
    plans = [p for _, p in gen._plans(np.arange(n_pages), seed)]
    en = [p for p in plans if p[0] == "en"]
    words = sum(sum(len(para.split()) for para in p[2]) * p[5] for p in en)
    return seed, len(en), words


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pages", type=int, default=20_000)
    p.add_argument("--scan", type=int, default=240, help="seeds 1..N to plan")
    p.add_argument("--keep", type=int, default=32)
    p.add_argument("--procs", type=int, default=3)
    args = p.parse_args(argv)
    sys.path.insert(0, ROOT)
    from gliner_cpp_ray.sources.pages import GEN_VERSION

    with Pool(args.procs) as pool:
        rows = pool.map(en_words, [(s, args.pages) for s in range(1, args.scan + 1)])
    median = statistics.median(w for _, _, w in rows)
    kept = sorted(rows, key=lambda r: (abs(r[2] - median), r[0]))[: args.keep]
    worst = max(abs(w - median) / median for _, _, w in kept)
    print(json.dumps({
        "generator_version": GEN_VERSION,
        "pages": args.pages,
        "scanned": args.scan,
        "median_en_words": median,
        "kept_max_deviation": round(worst, 4),
        "seeds": sorted(s for s, _, _ in kept),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
