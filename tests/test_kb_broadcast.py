"""KB broadcast and worker state live for one Ray session, keyed by KB
content: the same content reuses one ObjectRef (and so one worker
state), a rewritten KB gets fresh state, a new session starts clean,
and the per-name LRU bounds what a long-lived worker holds."""

import json
import os
import shutil
import subprocess
import sys
import zlib
from collections import OrderedDict

import pyarrow.parquet as pq

from table_annotation_ray.state.kb import KB_FILES

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _kb_variant(src: str, dst: str, drop: int | None) -> str:
    """Copy the KB at ``src`` to ``dst``; with ``drop`` set, remove the
    labels of every entity whose crc32 % 3 equals it, so lookup misses
    those entities and the triples change."""
    os.makedirs(dst, exist_ok=True)
    for name in KB_FILES:
        shutil.copyfile(os.path.join(src, name), os.path.join(dst, name))
    if drop is not None:
        labels = pq.read_table(os.path.join(src, "kb_labels.parquet"))
        keep = [zlib.crc32(e.encode()) % 3 != drop for e in labels["entity"].to_pylist()]
        pq.write_table(labels.filter(keep), os.path.join(dst, "kb_labels.parquet"))
    return dst


def _triples(transcripts: str, kb_dir: str) -> list:
    """Sorted (subj, pred, obj, score, conv_id) rows of one flagship job."""
    from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline

    out = run_kg_pipeline(transcripts, kb_dir).to_pandas()
    return sorted(out[["subj", "pred", "obj", "score", "conv_id"]].itertuples(index=False, name=None))


def test_worker_state_lru_per_name(monkeypatch):
    """At most MAX_PER_NAME entries per key[0]; a hit refreshes an entry,
    so the least recently USED one goes; other names are untouched."""
    from table_annotation_ray.state import worker_state

    monkeypatch.setattr(worker_state, "_STATE", OrderedDict())
    built = []

    def get(*key):
        return worker_state.get_worker_state(key, lambda: built.append(key) or key)

    get("a", 1), get("a", 2), get("b", 1)
    get("a", 1)  # hit: ("a", 2) is now the least recently used
    get("a", 3)
    assert set(worker_state._STATE) == {("a", 1), ("a", 3), ("b", 1)}
    get("a", 2)  # evicted earlier: rebuilt, and evicts ("a", 1)
    assert built == [("a", 1), ("a", 2), ("b", 1), ("a", 3), ("a", 2)]
    assert set(worker_state._STATE) == {("a", 3), ("a", 2), ("b", 1)}
    assert worker_state.MAX_PER_NAME == 2
    assert worker_state.pop_state("a", lambda k: k[1] == 3) == [("a", 3)]
    assert set(worker_state._STATE) == {("a", 2), ("b", 1)}


def test_broadcast_kb_is_content_addressed(ray_session, synth_root, tmp_path):
    """Same content → the same ObjectRef, from any directory; a file
    rewritten under the same kb_dir → a new ref holding the new KB."""
    import ray

    from table_annotation_ray.state.kb import broadcast_kb

    src = os.path.join(synth_root, "kb")
    kb_dir = _kb_variant(src, str(tmp_path / "kb"), None)
    ref = broadcast_kb(kb_dir)
    assert broadcast_kb(kb_dir) is ref
    assert broadcast_kb(_kb_variant(src, str(tmp_path / "copy"), None)) is ref
    n_rows = len(ray.get(ref).label_rows)

    _kb_variant(src, kb_dir, 0)
    changed = broadcast_kb(kb_dir)
    assert changed.hex() != ref.hex()
    assert 0 < len(ray.get(changed).label_rows) < n_rows


def test_kb_on_file_uri(ray_session, synth_root, tmp_path):
    """A ``file://`` kb_dir (any pyarrow filesystem URI, like the
    ``s3://`` of a cluster job) loads, hashes and broadcasts like the
    plain path, and the flagship job on it gives the same triples."""
    import pathlib

    from table_annotation_ray.state.kb import broadcast_kb, kb_digest, load_kb

    kb_dir = _kb_variant(os.path.join(synth_root, "kb"), str(tmp_path / "kb"), 2)
    uri = pathlib.Path(kb_dir).as_uri()
    assert uri.startswith("file:///")
    assert load_kb(uri) == load_kb(kb_dir)
    assert kb_digest(uri) == kb_digest(kb_dir)
    ref = broadcast_kb(uri)
    assert broadcast_kb(kb_dir) is ref
    transcripts = os.path.join(synth_root, "transcripts.parquet")
    assert _triples(transcripts, uri) == _triples(transcripts, kb_dir)


def test_kb_table_as_directory_of_parts(synth_root, tmp_path):
    """A KB table written as a directory of part files (as Spark or Ray
    Data write it) loads like the single file, and the digest covers
    every part: rewriting one changes it, a copy elsewhere does not."""
    from table_annotation_ray.state.kb import kb_digest, load_kb

    flat = _kb_variant(os.path.join(synth_root, "kb"), str(tmp_path / "flat"), None)
    parted = _kb_variant(flat, str(tmp_path / "parted"), None)
    edges = pq.read_table(os.path.join(flat, "kb_edges.parquet"))
    os.remove(os.path.join(parted, "kb_edges.parquet"))
    os.makedirs(os.path.join(parted, "kb_edges.parquet"))
    half = edges.num_rows // 2
    for i, part in enumerate((edges.slice(0, half), edges.slice(half))):
        pq.write_table(part, os.path.join(parted, "kb_edges.parquet", f"part-{i}.parquet"))
    assert load_kb(parted) == load_kb(flat)

    digest = kb_digest(parted)
    assert kb_digest(shutil.copytree(parted, str(tmp_path / "copy"))) == digest
    pq.write_table(edges.slice(half + 1), os.path.join(parted, "kb_edges.parquet", "part-1.parquet"))
    assert kb_digest(parted) != digest


def test_one_cell_typer_per_kb(ray_session, synth_root, tmp_path, monkeypatch):
    """In one process and for one broadcast KB, the typing stage and the
    table-preprocess body type cells with the same CellTyper, whose
    gazetteer is built once; a rewritten KB gets a new typer."""
    import pyarrow as pa

    from table_annotation_ray.pipelines.table_pipeline import _preprocess_group
    from table_annotation_ray.stages.preprocess import CellTyper
    from table_annotation_ray.stages.typing_stage import typing_batch
    from table_annotation_ray.state import worker_state
    from table_annotation_ray.state.kb import KBReader, broadcast_kb

    monkeypatch.setattr(worker_state, "_STATE", OrderedDict())
    builds, typers = [], set()
    build_gazetteer, call = KBReader.build_gazetteer, CellTyper.__call__
    monkeypatch.setattr(KBReader, "build_gazetteer",
                        lambda self: builds.append(1) or build_gazetteer(self))
    monkeypatch.setattr(CellTyper, "__call__",
                        lambda self, cell: typers.add(self) or call(self, cell))
    mentions = pa.table({"mention": ["Paris", "1994", None]})
    tables = pa.table({"table_id": ["t", "t"], "row_idx": [0, 1],
                       "cells": [["city", "year"], ["Paris", "1994"]]})

    def both(ref):
        typing_batch(mentions, ref)
        _preprocess_group(tables, ref, 42)

    src = os.path.join(synth_root, "kb")
    kb_dir = _kb_variant(src, str(tmp_path / "kb"), None)
    ref = broadcast_kb(kb_dir)
    both(ref)
    assert (len(builds), len(typers)) == (1, 1)
    both(broadcast_kb(kb_dir))  # same content, same ref: nothing rebuilt
    assert (len(builds), len(typers)) == (1, 1)

    _kb_variant(src, kb_dir, 0)
    changed = broadcast_kb(kb_dir)
    assert changed.hex() != ref.hex()
    both(changed)
    assert (len(builds), len(typers)) == (2, 2)


def test_worker_annotate_state_bounded_across_kbs(ray_session, synth_root, tmp_path):
    """Four jobs over three KB contents: every worker holds at most two
    ``annotate`` entries, and the job after an eviction (KB A again)
    rebuilds the same triples as the first."""
    import ray

    src = os.path.join(synth_root, "kb")
    transcripts = os.path.join(synth_root, "transcripts.parquet")
    kbs = [_kb_variant(src, str(tmp_path / f"kb{d}"), d) for d in (None, 0, 1)]
    runs = [_triples(transcripts, kb) for kb in kbs + kbs[:1]]
    assert runs[0] == runs[3]
    assert runs[0] != runs[1] and runs[1] != runs[2]

    @ray.remote(num_cpus=0.25)
    def annotate_entries():
        from table_annotation_ray.state import worker_state

        return os.getpid(), sum(k[0] == "annotate" for k in worker_state._STATE)

    seen = dict(ray.get([annotate_entries.remote() for _ in range(16)]))
    assert sum(seen.values()) > 0  # the probes reached annotate workers
    assert max(seen.values()) <= 2, seen


_SESSIONS_SCRIPT = r"""
import gc, json, os, sys
import ray
sys.path.insert(0, sys.argv[1])
from table_annotation_ray.state import kb as kb_mod, worker_state
from table_annotation_ray.state.kb import broadcast_kb
from tests.test_kb_broadcast import _kb_variant, _triples

src, transcripts, work = sys.argv[2:5]
kw = dict(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")

kb = os.path.join(work, "kb")
ray.init(**kw)
a = _triples(transcripts, _kb_variant(src, kb, None))
b_same_session = _triples(transcripts, _kb_variant(src, kb, 0))
ended = [v.hex() for k, v in worker_state._STATE.items() if k[0] == "kb"]
ray.shutdown()

ray.init(**kw)
b_fresh_session = _triples(transcripts, kb)
# two more KB contents push the first session's refs out of the LRU
for d in (1, 2):
    broadcast_kb(_kb_variant(src, os.path.join(work, f"kb{d}"), d))
gc.collect()
again = _triples(transcripts, kb)
ctx = ray.get_runtime_context()
session = (ctx.get_node_id(), ctx.get_job_id())
ray.shutdown()
print(json.dumps({
    "changed": a != b_same_session,
    "fresh_equal": b_same_session == b_fresh_session,
    "again_equal": again == b_fresh_session,
    "rows": len(b_fresh_session),
    "ended_refs": len(ended),
    # object ids repeat across local sessions, so releasing an ended
    # session's ref here would decrement a live object of this one
    "ended_refs_held": set(ended) <= {r.hex() for r in kb_mod._ENDED_SESSION_REFS},
    "stale_keys": sum(k[0] == "kb" and k[1] != session for k in worker_state._STATE),
}))
"""


def test_kb_change_and_session_restart(synth_root, tmp_path):
    """In a separate process (it restarts Ray): a KB rewritten between
    two jobs of one session gives the new KB's triples, equal to a run
    on a fresh session; after ``ray.shutdown()`` + ``ray.init()`` a job
    on the same kb_dir works, and the ended session's refs leave the
    cache without being released into the new session."""
    out = subprocess.run(
        [sys.executable, "-c", _SESSIONS_SCRIPT, REPO,
         os.path.join(synth_root, "kb"),
         os.path.join(synth_root, "transcripts.parquet"), str(tmp_path)],
        capture_output=True, text=True, timeout=600, cwd=REPO,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    assert "Traceback" not in out.stderr, out.stderr[-3000:]
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got == {"changed": True, "fresh_equal": True, "again_equal": True,
                   "rows": got["rows"], "ended_refs": 2, "ended_refs_held": True,
                   "stale_keys": 0}
    assert got["rows"] > 0
