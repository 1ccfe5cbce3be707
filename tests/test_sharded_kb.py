"""Sharded KB tier's subgraphs ≡ broadcast KB image (state/sharded_kb.py);
tests/test_sharded_lookup.py covers its label index."""

import os

import pandas as pd
import pytest


@pytest.fixture(scope="module")
def tier(ray_session, synth_root):
    from table_annotation_ray.state.sharded_kb import shard_kb

    return shard_kb(os.path.join(synth_root, "kb"), num_shards=4)


@pytest.fixture(scope="module")
def parquet_tier(ray_session, synth_root):
    from table_annotation_ray.state.sharded_kb import shard_kb

    return shard_kb(os.path.join(synth_root, "kb"), num_shards=3)


def _sample_entities(kb, n=40):
    ents = sorted(kb.subgraphs)[:n]
    return ents + ["Q999999999", "Qnope"]  # misses get defaults


def test_reader_primitives_equal(tier, kb_objects):
    kb, kbr, _ = kb_objects
    reader = tier.make_reader()
    for eid in _sample_entities(kb):
        assert reader.get_subgraph_of_entity(eid) == kbr.get_subgraph_of_entity(eid), eid
        assert reader.get_label_of_entity(eid) == kbr.get_label_of_entity(eid), eid
        assert reader.get_num_edges(eid) == kbr.get_num_edges(eid), eid


def test_derived_getters_equal(tier, kb_objects):
    kb, kbr, _ = kb_objects
    reader = tier.make_reader()
    for eid in _sample_entities(kb, 25):
        assert reader.get_types_of_entity(eid, 3) == kbr.get_types_of_entity(eid, 3)
        assert reader.get_supertypes_of_type(eid) == kbr.get_supertypes_of_type(eid)
        assert reader.get_symbol_of_unit_entity(eid) == kbr.get_symbol_of_unit_entity(eid)


def test_prefetch_then_local_hits(tier, kb_objects):
    kb, kbr, _ = kb_objects
    reader = tier.make_reader()
    ents = sorted(kb.subgraphs)[:10]
    reader.prefetch(ents)
    # after prefetch, everything the type walk touches is cached
    for eid in ents:
        assert eid in reader._cache
        h = kbr.get_types_of_entity(eid, 3)
        for lvl in ("level_1", "level_2"):
            for t in h.get(lvl, {}):
                assert t in reader._cache, (eid, lvl, t)


def test_gazetteer_equal(tier, kb_objects):
    _, kbr, _ = kb_objects
    assert tier.make_reader().build_gazetteer() == kbr.build_gazetteer()


def test_parquet_shards_partition_kb(parquet_tier, kb_objects):
    import ray

    kb, _, _ = kb_objects
    sizes = ray.get([a.num_entities.remote() for a in parquet_tier.actors])
    assert sum(sizes) == len(kb.subgraphs)
    reader = parquet_tier.make_reader()
    for eid in _sample_entities(kb, 15):
        assert reader.get_subgraph_of_entity(eid) == kb.subgraphs.get(eid, {})


def _bucketize_kb(synth_root, out_dir, num_buckets, manifest=True):
    """Re-shard the flat synth KB into the kb_build `edges/bucket=i/`
    layout with an arbitrary bucket modulus (to exercise shard routing
    when num_shards does NOT divide num_buckets)."""
    import json
    import shutil
    import zlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    src_dir = os.path.join(synth_root, "kb")
    os.makedirs(out_dir, exist_ok=True)
    for f in ("kb_entity_meta.parquet", "kb_labels.parquet"):
        shutil.copy(os.path.join(src_dir, f), os.path.join(out_dir, f))
    edges = pq.read_table(os.path.join(src_dir, "kb_edges.parquet"))
    buckets = [zlib.crc32(s.encode()) % num_buckets for s in edges["src"].to_pylist()]
    edges_dir = os.path.join(out_dir, "edges")
    os.makedirs(edges_dir, exist_ok=True)
    for b in range(num_buckets):
        sub = edges.filter(pa.array([x == b for x in buckets]))
        if len(sub):
            d = os.path.join(edges_dir, f"bucket={b}")
            os.makedirs(d, exist_ok=True)
            pq.write_table(sub, os.path.join(d, "part-0.parquet"))
    if manifest:
        with open(os.path.join(edges_dir, "_bucket_manifest.json"), "w") as f:
            json.dump({"num_buckets": num_buckets, "hash": "crc32"}, f)
    return out_dir


@pytest.mark.parametrize(
    "num_buckets,num_shards,manifest",
    [
        (5, 3, True),   # non-divisible: CRT prune degenerates, owner filter must save it
        (6, 3, True),   # divisible: exact dir prune, no row filter
        (4, 3, False),  # legacy layout without manifest: conservative read-all + filter
    ],
)
def test_bucketed_routing_any_shard_count(
    ray_session, synth_root, kb_objects, tmp_path, num_buckets, num_shards, manifest
):
    """Regression for the bucket%shards vs crc32%shards routing mismatch:
    every entity must be loaded on exactly the shard the reader routes
    its fetch to, for ANY (num_buckets, num_shards) combination."""
    import ray

    from table_annotation_ray.state.sharded_kb import shard_kb

    kb, _, _ = kb_objects
    kb_dir = _bucketize_kb(
        synth_root, str(tmp_path / f"kb_b{num_buckets}"), num_buckets, manifest
    )
    tier = shard_kb(kb_dir, num_shards=num_shards)
    sizes = ray.get([a.num_entities.remote() for a in tier.actors])
    assert sum(sizes) == len(kb.subgraphs)  # no entity lost or duplicated
    reader = tier.make_reader()
    for eid in _sample_entities(kb, 25):
        assert reader.get_subgraph_of_entity(eid) == kb.subgraphs.get(eid, {}), eid
        assert reader.get_num_edges(eid) == kb.num_edges.get(eid, 0), eid


def test_reader_cache_is_true_lru(tier, kb_objects):
    """Hot entries survive eviction (move-to-end on hit), and hit/miss
    counters are exposed via cache_stats()."""
    kb, _, _ = kb_objects
    ents = sorted(kb.subgraphs)[:4]
    a, b, c, d = ents
    reader = tier.make_reader(cache_size=3)
    for e in (a, b, c):
        reader.get_subgraph_of_entity(e)  # 3 misses, cache [a, b, c]
    reader.get_subgraph_of_entity(a)  # hit — a bumped to MRU: [b, c, a]
    reader.get_subgraph_of_entity(d)  # miss + evict LRU (b): [c, a, d]
    assert a in reader._cache and d in reader._cache
    assert b not in reader._cache  # FIFO would have evicted a instead
    stats = reader.cache_stats()
    assert stats["misses"] == 4 and stats["hits"] == 1
    assert stats["hit_rate"] == pytest.approx(0.2)


def test_triples_identical_with_tier(ray_session, synth_root, kb_objects):
    """The flagship output is byte-identical with the sharded KB tier
    enabled (kb image never shipped to workers)."""
    import ray

    from table_annotation_ray.pipelines.kg_pipeline import (
        read_transcripts,
        triples_from_turns,
    )
    from table_annotation_ray.state.sharded_kb import shard_kb

    kb, _, _ = kb_objects
    path = os.path.join(synth_root, "transcripts.parquet")

    kb_ref = ray.put(kb)
    base = (
        triples_from_turns(read_transcripts(path), kb_ref)
        .to_pandas()
        .sort_values(["subj", "pred", "obj", "conv_id"])
        .reset_index(drop=True)
    )

    kb_dir = os.path.join(synth_root, "kb")
    tier = shard_kb(kb_dir, num_shards=4)
    tiered = (
        triples_from_turns(read_transcripts(path), None, tier=tier)
        .to_pandas()
        .sort_values(["subj", "pred", "obj", "conv_id"])
        .reset_index(drop=True)
    )
    assert len(base) > 0
    pd.testing.assert_frame_equal(base, tiered)


def _sink_rows(synth_root, out, **kwargs) -> list[tuple]:
    """Sorted (subj, pred, obj, score, conv_id) rows of one flagship job's sink."""
    import pyarrow.parquet as pq

    from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline

    run_kg_pipeline(os.path.join(synth_root, "transcripts.parquet"),
                    os.path.join(synth_root, "kb"), out_dir=str(out), **kwargs)
    df = pq.read_table(str(out)).to_pandas()
    return sorted(df[["subj", "pred", "obj", "score", "conv_id"]].itertuples(index=False))


def test_sharded_path_reads_cfg_lookup(ray_session, synth_root, tmp_path):
    """The tier's label index is built with the job's ``cfg.lookup``: a
    non-default lookup config gives the broadcast path's sink rows on the
    sharded path, and those rows differ from the default config's."""
    from dataclasses import replace

    from table_annotation_ray.config import DEFAULT_CONFIG

    cfg = replace(DEFAULT_CONFIG, lookup=replace(
        DEFAULT_CONFIG.lookup, label_token_diff=0, label_length_max_factor=1.0))
    broadcast = _sink_rows(synth_root, tmp_path / "broadcast", cfg=cfg)
    sharded = _sink_rows(synth_root, tmp_path / "sharded", cfg=cfg, sharded_kb=True)
    assert len(broadcast) > 0
    assert sharded == broadcast
    assert _sink_rows(synth_root, tmp_path / "default", sharded_kb=True) != broadcast


_TWO_JOBS_SCRIPT = r"""
import json, os, sys, threading, time
sys.path.insert(0, sys.argv[1])
import ray
import psutil  # Ray's bundled copy, on sys.path once ray is imported
from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline

transcripts, kb = sys.argv[2:4]
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
actors, done = set(), threading.Event()

def watch():
    me = psutil.Process()
    while not done.is_set():
        for p in me.children(recursive=True):
            try:
                if " ".join(p.cmdline()).startswith("ray::KBShardActor"):
                    actors.add(p.pid)
            except psutil.Error:
                pass
        time.sleep(0.05)

watcher = threading.Thread(target=watch, daemon=True)
watcher.start()

def rows(**kw):
    df = run_kg_pipeline(transcripts, kb, **kw).to_pandas()
    return sorted(map(list, df[["subj", "pred", "obj", "score", "conv_id"]].itertuples(index=False)))

sharded = [rows(sharded_kb=True), rows(sharded_kb=True)]
done.set()
watcher.join()
broadcast = rows()
ray.shutdown()
print(json.dumps({"sharded": sharded, "broadcast": broadcast, "actors": len(actors)}))
"""


def test_two_sharded_jobs_on_one_cpu(synth_root):
    """In a separate 1-CPU Ray session: two default-argument sharded jobs
    finish, give the broadcast path's rows, and share one tier — only K
    shard-actor processes ever exist.  Shard actors that reserved CPUs
    left the session's tasks none, and every job started new ones."""
    import json
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _TWO_JOBS_SCRIPT, repo,
         os.path.join(synth_root, "transcripts.parquet"), os.path.join(synth_root, "kb")],
        capture_output=True, text=True, timeout=300, cwd=repo,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert len(got["broadcast"]) > 0
    assert got["sharded"] == [got["broadcast"]] * 2
    assert got["actors"] == 4  # run_kg_pipeline's default num_kb_shards
