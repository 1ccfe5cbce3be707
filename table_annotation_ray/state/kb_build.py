"""Offline KB construction — the reference's two dump indexers as Ray
Data jobs writing hash-partitioned Parquet instead of LMDB / ES.

* :func:`build_edges_from_dump` — `data/hashmap/wd_hashmap_indexing.py:45-78`
  semantics: one JSON object per line ``{QID: {pid: {obj: rank_or_type},
  "labels"/"aliases"/"descriptions": {...}}}``; drops P1889
  (different-from) edges, strips ``-00-00`` / ``-01-01`` suffixes from
  DateTime literals, keeps ``(-)`` reverse edges as-is, extracts en
  labels/aliases into the entity-meta table.
* :func:`build_labels_from_dump` — `data/lookup/entity_indexing.py:76-107`
  semantics: ``{ID, page_rank, labels, main_aliases, sub_aliases}`` per
  line → (entity, label, length, origin, pr) rows with the reference's
  dedup rules (aliases already present as labels are skipped).

Both stream: ``read_json`` (or ``read_text`` for trailing-comma dumps)
→ vectorized ``map_batches`` → ``write_parquet`` partitioned by a
crc32(entity) bucket, so a 100 TB dump shreds into uniformly-sized
shards that KB actors can load selectively.
"""

from __future__ import annotations

import json
import os
import zlib

import pyarrow as pa

import ray.data as rd

from .. import schemas


def _parse_dump_line(line: str):
    line = line.strip()
    if not line or line in ("[", "]"):
        return None
    if line.endswith(","):
        line = line[:-1]
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        return None


def edges_rows_from_item(item: dict) -> tuple[list[tuple], tuple | None]:
    """One dump object → (edge rows, meta row).  Reference quirks applied
    (wd_hashmap_indexing.py:60-75)."""
    qid = next(iter(item))
    infos = item[qid]
    rows: list[tuple] = []
    labels: list[str] = []
    n_edges = 0
    for pid, objs in infos.items():
        if pid in ("labels", "descriptions", "aliases"):
            if pid == "labels":
                labels = list(objs.get("en-us", []) if isinstance(objs, dict) else objs)
            continue
        if "P1889" in pid:
            continue
        if pid.startswith("(-)"):
            for obj in objs:
                kind = objs[obj] if isinstance(objs, dict) else "NORMAL"
                rows.append((qid, pid, obj, kind))
                n_edges += 1
            continue
        for obj, kind in objs.items():
            if isinstance(kind, str) and kind.split("-")[0] == "DateTime":
                obj = obj.replace("-00-00", "").replace("-01-01", "")
            rows.append((qid, pid, obj, kind))
            n_edges += 1
    meta = (qid, labels[0] if labels else "No English Label", n_edges)
    return rows, meta


def meta_from_item(item: dict) -> tuple[str, str, int]:
    """One dump object → meta row ONLY — counts edges without
    materializing the row tuples.  The meta pass over a 100 TB dump
    used to call :func:`edges_rows_from_item` and throw the rows away,
    doubling the edge-expansion allocation cost of the most expensive
    offline job (code-review r4, pass 7).  Both passes stay streaming
    (no shuffle, no materialization); the remaining shared cost is the
    per-line JSON parse."""
    qid = next(iter(item))
    infos = item[qid]
    label = "No English Label"
    n_edges = 0
    for pid, objs in infos.items():
        if pid in ("labels", "descriptions", "aliases"):
            if pid == "labels":
                labels = objs.get("en-us", []) if isinstance(objs, dict) else objs
                if labels:
                    label = labels[0]
            continue
        if "P1889" in pid:
            continue
        n_edges += len(objs)
    return qid, label, n_edges


def build_edges_from_dump(
    dump_path: str, out_dir: str, num_buckets: int = 64
) -> None:
    """Graph dump (jsonl, optionally with trailing commas) →
    ``out_dir/edges`` + ``out_dir/meta`` Parquet, bucketed by
    crc32(src) % num_buckets."""
    lines = rd.read_text(dump_path)

    def to_edges(batch: pa.Table) -> pa.Table:
        srcs, pids, objs, kinds = [], [], [], []
        for line in batch["text"].to_pylist():
            item = _parse_dump_line(line)
            if not item:
                continue
            rows, _meta = edges_rows_from_item(item)
            for s, p, o, k in rows:
                srcs.append(s)
                pids.append(p)
                objs.append(o)
                kinds.append(k)
        t = pa.table(
            {
                "src": pa.array(srcs, pa.string()),
                "pid": pa.array(pids, pa.string()),
                "obj": pa.array(objs, pa.string()),
                "obj_kind": pa.array(kinds, pa.string()),
            },
            schema=schemas.KB_EDGES,
        )
        bucket = [zlib.crc32(s.encode()) % num_buckets for s in srcs]
        return t.append_column("bucket", pa.array(bucket, pa.int32()))

    def to_meta(batch: pa.Table) -> pa.Table:
        ents, labels, counts = [], [], []
        for line in batch["text"].to_pylist():
            item = _parse_dump_line(line)
            if not item:
                continue
            ent, lab, n = meta_from_item(item)
            ents.append(ent)
            labels.append(lab)
            counts.append(n)
        return pa.table(
            {
                "entity": pa.array(ents, pa.string()),
                "en_label": pa.array(labels, pa.string()),
                "num_edges": pa.array(counts, pa.int64()),
            },
            schema=schemas.KB_ENTITY_META,
        )

    lines.map_batches(to_edges, batch_format="pyarrow").write_parquet(
        f"{out_dir}/edges", partition_cols=["bucket"]
    )
    # Record the bucket modulus so shard loaders can prune exactly:
    # bucket = crc32(src) % num_buckets, and a reader routing by
    # crc32(src) % num_shards can only skip bucket dirs safely when it
    # knows num_buckets (see state/kb.py::_bucket_files).
    with open(os.path.join(out_dir, "edges", "_bucket_manifest.json"), "w") as f:
        json.dump({"num_buckets": num_buckets, "hash": "crc32"}, f)
    lines.map_batches(to_meta, batch_format="pyarrow").write_parquet(f"{out_dir}/meta")


def label_rows_from_item(item: dict) -> list[tuple]:
    """One lookup-dump object → label rows (entity_indexing.py:88-97)."""
    qid = item["ID"]
    pr = float(item.get("page_rank", 0.0))
    labels = list(item.get("labels", []))
    rows = [(qid, lab, len(lab), "LABEL", pr) for lab in labels]
    seen = set(labels)
    for alias in item.get("main_aliases", []):
        if alias not in seen:
            rows.append((qid, alias, len(alias), "MAIN_ALIAS", pr))
            seen.add(alias)
    for alias in item.get("sub_aliases", []):
        if alias not in seen:
            rows.append((qid, alias, len(alias), "SUB_ALIAS", pr))
    return rows


def build_labels_from_dump(dump_path: str, out_dir: str) -> None:
    lines = rd.read_text(dump_path)

    def to_rows(batch: pa.Table) -> pa.Table:
        out = {"entity": [], "label": [], "length": [], "origin": [], "pr": []}
        for line in batch["text"].to_pylist():
            item = _parse_dump_line(line)
            if not item:
                continue
            for qid, lab, length, origin, pr in label_rows_from_item(item):
                out["entity"].append(qid)
                out["label"].append(lab)
                out["length"].append(length)
                out["origin"].append(origin)
                out["pr"].append(pr)
        return pa.table(
            {
                "entity": pa.array(out["entity"], pa.string()),
                "label": pa.array(out["label"], pa.string()),
                "length": pa.array(out["length"], pa.int32()),
                "origin": pa.array(out["origin"], pa.string()),
                "pr": pa.array(out["pr"], pa.float64()),
            },
            schema=schemas.KB_LABELS,
        )

    lines.map_batches(to_rows, batch_format="pyarrow").write_parquet(out_dir)
