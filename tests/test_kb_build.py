"""Offline KB builders (state/kb_build.py) — dump-quirk semantics."""

import gzip
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from table_annotation_ray.state.kb_build import (
    build_edges_from_dump,
    build_labels_from_dump,
    edges_rows_from_item,
    label_rows_from_item,
)


def test_edges_quirks():
    item = {
        "Q90": {
            "labels": {"en-us": ["Paris"]},
            "aliases": {"en-us": ["City of Light"]},
            "descriptions": {"en-us": ["capital of France"]},
            "P17": {"Q142": "NORMAL"},
            "P571": {"1163-00-00": "DateTime-Gregorian"},
            "P1889": {"Q830149": "NORMAL"},  # different-from → dropped
            "(-)P36": {"Q142": "PREFERRED"},
        }
    }
    rows, meta = edges_rows_from_item(item)
    pids = {r[1] for r in rows}
    assert "P1889" not in pids
    assert "(-)P36" in pids
    date_rows = [r for r in rows if r[1] == "P571"]
    assert date_rows[0][2] == "1163"  # -00-00 stripped
    assert meta == ("Q90", "Paris", 3)


def test_label_rows_dedup():
    item = {
        "ID": "Q18656",
        "page_rank": 12.5,
        "labels": ["Manchester United F.C."],
        "main_aliases": ["MUFC", "Manchester United F.C."],  # dup of label skipped
        "sub_aliases": ["Man United", "MUFC"],  # dup of main alias skipped
    }
    rows = label_rows_from_item(item)
    origins = [(r[1], r[3]) for r in rows]
    assert origins == [
        ("Manchester United F.C.", "LABEL"),
        ("MUFC", "MAIN_ALIAS"),
        ("Man United", "SUB_ALIAS"),
    ]
    assert all(r[4] == 12.5 for r in rows)


def test_build_end_to_end(ray_session, tmp_path):
    graph = [
        {"Q1": {"labels": {"en-us": ["one"]}, "P31": {"Q2": "NORMAL"}}},
        {"Q2": {"labels": {"en-us": ["two"]}, "P279": {"Q3": "NORMAL"}}},
    ]
    dump = tmp_path / "graph.jsonl"
    dump.write_text("\n".join(json.dumps(g) + "," for g in graph))  # trailing commas
    out = tmp_path / "kb"
    build_edges_from_dump(str(dump), str(out), num_buckets=4)
    edges = pq.read_table(str(out / "edges")).to_pylist()
    assert {(e["src"], e["pid"], e["obj"]) for e in edges} == {
        ("Q1", "P31", "Q2"), ("Q2", "P279", "Q3"),
    }
    meta = pq.read_table(str(out / "meta")).to_pylist()
    assert {m["entity"]: m["en_label"] for m in meta} == {"Q1": "one", "Q2": "two"}

    lookup_dump = tmp_path / "labels.jsonl"
    lookup_dump.write_text(
        json.dumps({"ID": "Q1", "page_rank": 1.0, "labels": ["one"],
                    "main_aliases": ["uno"], "sub_aliases": []})
    )
    labels_out = tmp_path / "labels"
    build_labels_from_dump(str(lookup_dump), str(labels_out))
    labels = pq.read_table(str(labels_out)).to_pylist()
    assert {(l["label"], l["origin"]) for l in labels} == {("one", "LABEL"), ("uno", "MAIN_ALIAS")}


def _write_labels(kb_dir, entities):
    pq.write_table(
        pa.table({
            "entity": entities, "label": entities, "length": [len(e) for e in entities],
            "origin": ["LABEL"] * len(entities), "pr": [1.0] * len(entities),
        }),
        os.path.join(str(kb_dir), "kb_labels.parquet"),
    )


def test_load_kb_shard_dump_layout_and_null_labels(ray_session, tmp_path):
    """load_kb(kb_dir, K, i) must read the meta/ directory
    build_edges_from_dump actually writes (the flat
    kb_entity_meta.parquet name is the synth layout), and must skip null
    en_label rows in a shard as in the whole KB (review r4)."""
    from table_annotation_ray.state.kb import load_kb, owner

    graph = [
        {"Q1": {"labels": {"en-us": ["one"]}, "P31": {"Q2": "NORMAL"}}},
        {"Q2": {"labels": {"en-us": ["two"]}, "P279": {"Q3": "NORMAL"}}},
        {"Q3": {"labels": {}, "P31": {"Q1": "NORMAL"}}},
    ]
    dump = tmp_path / "graph.jsonl"
    dump.write_text("\n".join(json.dumps(g) for g in graph))
    out = tmp_path / "kb"
    build_edges_from_dump(str(dump), str(out), num_buckets=4)
    _write_labels(out, ["Q1", "Q2", "Q3"])

    num_shards = 2
    shards = [load_kb(str(out), num_shards, k) for k in range(num_shards)]
    # every entity's meta landed on exactly its owner shard
    for ent, lab in (("Q1", "one"), ("Q2", "two")):
        k = owner(ent, num_shards)
        assert shards[k].labels[ent] == lab
        assert ent not in shards[1 - k].labels
    # all edges present across shards, owned by src
    all_edges = {
        (s, p, o)
        for sh in shards
        for s, subs in sh.subgraphs.items()
        for p, objs in subs.items()
        for o in objs
    }
    assert all_edges == {("Q1", "P31", "Q2"), ("Q2", "P279", "Q3"), ("Q3", "P31", "Q1")}

    # a NULL en_label in the flat layout is skipped (reader default
    # "No English Label" applies), never stored as None
    flat = tmp_path / "flat_kb"
    flat.mkdir()
    pq.write_table(
        pa.table(
            {
                "src": ["Q9"], "pid": ["P31"], "obj": ["Q1"],
                "obj_kind": ["NORMAL"],
            }
        ),
        str(flat / "kb_edges.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "entity": ["Q9", "Q8"],
                "en_label": pa.array([None, "eight"], pa.string()),
                "num_edges": pa.array([1, 0], pa.int64()),
            }
        ),
        str(flat / "kb_entity_meta.parquet"),
    )
    _write_labels(flat, ["Q9", "Q8"])
    sh = load_kb(str(flat), 1, 0)
    assert "Q9" not in sh.labels and sh.labels["Q8"] == "eight"
    assert sh.num_edges["Q9"] == 1


def test_meta_from_item_matches_edges_rows_meta():
    """meta_from_item (the lightweight second-pass extractor) must agree
    with edges_rows_from_item's meta on every quirk: P1889 drop, (-)
    reverse edges, DateTime literals, missing labels."""
    from table_annotation_ray.state.kb_build import (
        edges_rows_from_item,
        meta_from_item,
    )

    items = [
        {"Q1": {"labels": {"en-us": ["one", "uno"]}, "P31": {"Q2": "NORMAL"},
                "P1889x": {"Q9": "NORMAL"}}},
        {"Q2": {"labels": {}, "(-)P31": {"Q1": "NORMAL", "Q3": "PREFERRED"},
                "P569": {"1952-01-01": "DateTime-x"}}},
        {"Q3": {"descriptions": {"en-us": ["d"]}, "aliases": {"en-us": ["a"]}}},
        {"Q4": {"labels": ["plainlist"], "(-)P279": ["Q1", "Q2"]}},
    ]
    for item in items:
        _rows, meta = edges_rows_from_item(item)
        assert meta_from_item(item) == meta, item
