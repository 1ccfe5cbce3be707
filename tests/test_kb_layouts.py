"""One KB loader for every path (state/kb.py::load_kb): the flat layout,
its parted-directory variant and the dump layout kb_build writes give
the same KB on the broadcast and the sharded paths, on any filesystem,
and ``load_kb(kb, K, i)`` shards partition ``load_kb(kb)``."""

import json
import os
from collections import defaultdict

import pandas as pd
import pyarrow.parquet as pq
import pytest

from table_annotation_ray.state.kb import load_kb, owner

SORT = ["subj", "pred", "obj", "conv_id"]


def _write_dumps(kb_dir: str, graph_path: str, labels_path: str) -> None:
    """The two reference dumps (wd_hashmap_indexing.py / entity_indexing.py
    input lines) that hold the flat KB at ``kb_dir``."""
    graph: dict = defaultdict(dict)
    for m in pq.read_table(os.path.join(kb_dir, "kb_entity_meta.parquet")).to_pylist():
        graph[m["entity"]]["labels"] = {"en-us": [m["en_label"]] if m["en_label"] else []}
    for e in pq.read_table(os.path.join(kb_dir, "kb_edges.parquet")).to_pylist():
        graph[e["src"]].setdefault(e["pid"], {})[e["obj"]] = e["obj_kind"]
    with open(graph_path, "w") as f:
        f.writelines(json.dumps({qid: infos}) + ",\n" for qid, infos in graph.items())

    lookup: dict = {}
    keys = {"LABEL": "labels", "MAIN_ALIAS": "main_aliases", "SUB_ALIAS": "sub_aliases"}
    for r in pq.read_table(os.path.join(kb_dir, "kb_labels.parquet")).to_pylist():
        item = lookup.setdefault(r["entity"], {
            "ID": r["entity"], "page_rank": r["pr"],
            "labels": [], "main_aliases": [], "sub_aliases": [],
        })
        item[keys[r["origin"]]].append(r["label"])
    with open(labels_path, "w") as f:
        f.writelines(json.dumps(item) + "\n" for item in lookup.values())


@pytest.fixture(scope="module")
def dump_kb(ray_session, synth_root, tmp_path_factory):
    """(dump-layout KB built by kb_build from the synth KB's dumps, a
    flat single-file copy of the same KB)."""
    from table_annotation_ray.state.kb_build import build_edges_from_dump, build_labels_from_dump

    root = tmp_path_factory.mktemp("dump_kb")
    graph, labels = str(root / "graph.jsonl"), str(root / "labels.jsonl")
    _write_dumps(os.path.join(synth_root, "kb"), graph, labels)
    kb_dir, flat = str(root / "kb"), str(root / "flat")
    build_edges_from_dump(graph, kb_dir, num_buckets=4)
    build_labels_from_dump(labels, os.path.join(kb_dir, "kb_labels.parquet"))
    os.makedirs(flat)
    edges = pq.read_table(os.path.join(kb_dir, "edges"))
    pq.write_table(edges.select(["src", "pid", "obj", "obj_kind"]),
                   os.path.join(flat, "kb_edges.parquet"))
    for src, name in (("meta", "kb_entity_meta.parquet"), ("kb_labels.parquet", "kb_labels.parquet")):
        pq.write_table(pq.read_table(os.path.join(kb_dir, src)), os.path.join(flat, name))
    return kb_dir, flat


@pytest.fixture(scope="module")
def parted_kb(synth_root, tmp_path_factory):
    """The synth KB with every table a directory of three part files."""
    out = tmp_path_factory.mktemp("parted_kb")
    for name in ("kb_edges.parquet", "kb_entity_meta.parquet", "kb_labels.parquet"):
        table = pq.read_table(os.path.join(synth_root, "kb", name))
        os.makedirs(out / name)
        step = -(-len(table) // 3)
        for i in range(3):
            pq.write_table(table.slice(i * step, step), str(out / name / f"part-{i}.parquet"))
    return str(out)


def _rows(synth_root, kb_dir, **kwargs) -> pd.DataFrame:
    from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline

    triples = run_kg_pipeline(os.path.join(synth_root, "transcripts.parquet"), kb_dir, **kwargs)
    return triples.to_pandas().sort_values(SORT).reset_index(drop=True)


def test_dump_built_kb_gives_the_flat_copys_rows(ray_session, synth_root, dump_kb):
    """A KB written by build_edges_from_dump + build_labels_from_dump runs
    the flagship with the broadcast KB and with the sharded tier, and
    both give the rows of a flat copy of the same KB."""
    kb_dir, flat = dump_kb
    want = _rows(synth_root, flat)
    assert len(want) > 0
    pd.testing.assert_frame_equal(_rows(synth_root, kb_dir), want)
    pd.testing.assert_frame_equal(
        _rows(synth_root, kb_dir, sharded_kb=True), want
    )


def test_file_uri_kb_on_the_sharded_path(ray_session, synth_root):
    """A ``file://`` kb_dir with sharded_kb=True gives the local path's rows."""
    kb_dir = os.path.join(synth_root, "kb")
    want = _rows(synth_root, kb_dir)
    assert len(want) > 0
    got = _rows(synth_root, "file://" + kb_dir, sharded_kb=True)
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("layout", ["flat", "parted", "dump"])
@pytest.mark.parametrize("num_shards", [1, 3, 4])
def test_shards_partition_the_kb(synth_root, dump_kb, parted_kb, layout, num_shards):
    """The shards ``load_kb(kb, K, i)`` together equal ``load_kb(kb)``, each
    entity's rows on its owner shard.  Over the 4-bucket dump, K=4 prunes
    buckets exactly and K=3 reads every bucket and filters rows."""
    kb_dir = {"flat": os.path.join(synth_root, "kb"), "parted": parted_kb, "dump": dump_kb[0]}[layout]
    full = load_kb(kb_dir)
    if layout == "dump":
        assert full == load_kb(dump_kb[1])
    elif layout == "parted":
        assert full == load_kb(os.path.join(synth_root, "kb"))
    subgraphs, labels, num_edges, label_rows = {}, {}, {}, []
    for i in range(num_shards):
        shard = load_kb(kb_dir, num_shards, i)
        for part, union in ((shard.subgraphs, subgraphs), (shard.labels, labels),
                            (shard.num_edges, num_edges)):
            assert all(owner(e, num_shards) == i for e in part)
            assert not part.keys() & union.keys()
            union.update(part)
        assert all(owner(r[0], num_shards) == i for r in shard.label_rows)
        label_rows += shard.label_rows
    assert subgraphs == full.subgraphs
    assert labels == full.labels
    assert num_edges == full.num_edges
    assert sorted(label_rows) == sorted(full.label_rows)
    assert len(full.subgraphs) > 100 and len(full.label_rows) > 100
