"""Per-stage / per-shard checkpointing with lineage manifests (B14).

Layout: every pipeline stage writes to ``<out_root>/<stage>/`` (or
``<out_root>/<stage>/shard=<k>/`` for sharded stages), followed by a
``manifest.json`` (input lineage, per-file row counts + bytes, wall
time, config fingerprint) and a ``_SUCCESS`` marker.  A stage may also
own a sibling ``parts`` directory outside its own; the manifest lists
those files too (``parts``, paths relative to the stage directory).

A rerun skips any directory whose marker exists, whose config matches
and whose listed files all still have their recorded bytes — that is
what "resumable from checkpoint" means for a batch pipeline.  A
directory without a marker is presumed a torn partial write and is
removed before re-running; a missing or resized listed file re-runs the
stage.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import time

log = logging.getLogger(__name__)


def is_done(path: str) -> bool:
    return os.path.exists(os.path.join(path, "_SUCCESS"))


def prepare_dir(path: str) -> None:
    """Clear torn partial output; create fresh."""
    if os.path.isdir(path) and not is_done(path):
        shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)


def _parquet_entries(root: str, rel_to: str) -> list[dict]:
    """``{file, bytes, rows}`` of every parquet file under ``root``, with
    ``file`` relative to ``rel_to``."""
    files = []
    for sub, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(".parquet"):
                fp = os.path.join(sub, name)
                entry = {
                    "file": os.path.relpath(fp, rel_to),
                    "bytes": os.path.getsize(fp),
                }
                try:
                    import pyarrow.parquet as pq

                    entry["rows"] = pq.ParquetFile(fp).metadata.num_rows
                except Exception:
                    pass
                files.append(entry)
    return files


def mark_done(path: str, manifest: dict, parts: str | None = None) -> None:
    files = _parquet_entries(path, path)
    manifest = dict(manifest)
    manifest["files"] = files
    if parts is not None:
        manifest["parts"] = _parquet_entries(parts, path)
    manifest["total_rows"] = sum(f.get("rows", 0) for f in files)
    manifest["total_bytes"] = sum(f["bytes"] for f in files)
    with open(os.path.join(path, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    with open(os.path.join(path, "_SUCCESS"), "w") as f:
        f.write("ok\n")


def _fault(path: str, manifest: dict) -> str | None:
    """Why a finished stage's listed files no longer match its manifest
    (one is missing or has other bytes), or None if they all match."""
    for entry in manifest.get("files", []) + manifest.get("parts", []):
        try:
            size = os.path.getsize(os.path.join(path, entry["file"]))
        except OSError:
            return f"{entry['file']} is missing"
        if size != entry["bytes"]:
            return f"{entry['file']} has {size} bytes, the manifest {entry['bytes']}"
    return None


def run_stage(path: str, manifest: dict, producer, parts: str | None = None) -> dict:
    """Run ``producer(path)`` (which must write parquet under ``path``,
    and may write parquet under ``parts``) unless the stage is already
    checkpointed WITH the same config fingerprint and intact files.  A
    checkpoint written under a different config (e.g. changed lang
    allowlist or batch size) is stale — silently reusing it would return
    outputs of a different pipeline — and one whose files were deleted
    or truncated since is broken: either is discarded and the stage
    re-runs.  ``parts`` is cleared before the producer runs.  Returns
    the manifest."""
    mpath = os.path.join(path, "manifest.json")
    if is_done(path):
        try:
            with open(mpath) as f:
                prev = json.load(f)
        except (OSError, json.JSONDecodeError):
            prev = None
        if prev is not None and prev.get("config") == manifest.get("config"):
            fault = _fault(path, prev)
            if fault is None:
                return prev
            log.warning("re-running checkpoint %s: %s", path, fault)
        shutil.rmtree(path, ignore_errors=True)
    prepare_dir(path)
    if parts is not None:
        shutil.rmtree(parts, ignore_errors=True)
        os.makedirs(parts)
    t0 = time.perf_counter()
    extra = producer(path) or {}
    manifest = {**manifest, **extra, "wall_sec": round(time.perf_counter() - t0, 3)}
    mark_done(path, manifest, parts)
    with open(mpath) as f:
        return json.load(f)
