"""Generic resumable partitioned-Parquet sink.

The KG pipeline's triple sink (stages/triples.py) established the
layout contract this module generalizes to any keyed Dataset:

* ``out_dir/part=N/*.parquet`` — one directory per hash partition, so
  a 100 TB job never produces one giant file and a failed run resumes
  by skipping finished partitions;
* ``out_dir/part=N/_SUCCESS`` — per-partition commit marker written
  AFTER the partition's rows are fully on disk;
* ``out_dir/_MANIFEST.json`` — per-partition row counts + lineage
  sidecar (the north_rule metrics surface).

Resume = partitions with ``_SUCCESS`` are filtered OUT of the write
(one streaming ``filter``, no recompute of finished output); partial
directories from a crashed run are removed first so a rerun cannot
double-write.
"""

from __future__ import annotations

import json
import os
import time
import zlib

import numpy as np
import pyarrow as pa

import ray.data as rd

_MULT = np.uint64(0x9E3779B97F4A7C15)  # splitmix64 multiplier


def assign_part_int(batch: pa.Table, key_col: str, num_partitions: int) -> pa.Table:
    """Overflow-safe multiplicative hash partition for int64 keys
    (uint64 wraparound is exact mod 2^64; int64 math would overflow)."""
    u = batch[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
    parts = ((u * _MULT) >> np.uint64(32)).astype(np.int64) % num_partitions
    return batch.append_column("part", pa.array(parts.astype(np.int32)))


def str_partitions(
    keys: pa.Array | pa.ChunkedArray, num_partitions: int, what: str
) -> np.ndarray:
    """``crc32(utf8(key)) % num_partitions`` per row as int32 — the one
    string-key partition rule (conv_id buckets, triple dedup, sink).
    crc32 is stable across processes, unlike Python's salted hash().
    Hashes once per DISTINCT key (keys repeat heavily) and maps back via
    dictionary-encode indices.  Null keys raise ``ValueError`` naming
    ``what``: the key routes the row, and a null has no partition."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if keys.null_count:
        raise ValueError(
            f"{keys.null_count} null {what} value(s); {what} is a partition "
            "key and must be non-null (filter or impute upstream)"
        )
    encoded = keys.dictionary_encode()
    uniq = encoded.dictionary.to_pylist()
    uniq_parts = np.fromiter(
        (zlib.crc32(k.encode()) % num_partitions for k in uniq),
        dtype=np.int32,
        count=len(uniq),
    )
    return uniq_parts[encoded.indices.to_numpy(zero_copy_only=False)]


def assign_part_str(batch: pa.Table, key_col: str, num_partitions: int) -> pa.Table:
    """crc32 hash partition for string keys (the triple sink's rule)."""
    parts = str_partitions(batch[key_col], num_partitions, key_col)
    return batch.append_column("part", pa.array(parts, pa.int32()))


def _check_resume_partitions(out_dir: str, num_partitions: int) -> None:
    """Refuse to resume into a directory written under a DIFFERENT
    partition count: the hash-mod scheme changes, so trusting the old
    _SUCCESS markers would silently drop every row whose new-scheme
    part id collides with a completed old-scheme id (code-review r4)."""
    mpath = os.path.join(out_dir, "_MANIFEST.json")
    if not os.path.exists(mpath):
        return
    try:
        with open(mpath) as f:
            prior = json.load(f).get("num_partitions")
    except (OSError, json.JSONDecodeError):
        return
    if prior is not None and prior != num_partitions:
        raise ValueError(
            f"{out_dir} was written with num_partitions={prior}; resuming "
            f"with num_partitions={num_partitions} would lose rows — "
            "rerun with the original count or clear the directory"
        )


def completed_partitions(out_dir: str) -> set[int]:
    """Partitions with a ``_SUCCESS`` marker; incomplete leftovers from
    a crashed run are removed so a rerun cannot double-write."""
    import shutil

    done: set[int] = set()
    if not os.path.isdir(out_dir):
        return done
    for name in os.listdir(out_dir):
        if not name.startswith("part="):
            continue
        part = int(name.split("=")[1])
        part_dir = os.path.join(out_dir, name)
        if os.path.exists(os.path.join(part_dir, "_SUCCESS")):
            done.add(part)
        else:
            shutil.rmtree(part_dir)
    return done


def write_partitioned(
    ds: rd.Dataset,
    out_dir: str,
    key_col: str,
    num_partitions: int = 16,
    key_kind: str = "int",
    lineage: dict | None = None,
) -> dict:
    """Write ``ds`` hash(``key_col``)-partitioned under ``out_dir`` in
    ONE streaming pass; returns the run manifest (see module docstring
    for the layout/resume contract).  ``key_kind``: ``"int"`` (int64
    multiplicative hash) or ``"str"`` (crc32)."""
    t_start = time.time()
    os.makedirs(out_dir, exist_ok=True)
    _check_resume_partitions(out_dir, num_partitions)
    done = completed_partitions(out_dir)
    assign = assign_part_int if key_kind == "int" else assign_part_str
    ds = ds.map_batches(
        assign,
        batch_format="pyarrow",
        fn_kwargs={"key_col": key_col, "num_partitions": num_partitions},
    )
    if done:
        done_list = sorted(done)
        ds = ds.filter(expr=f"part not in {done_list}")
    ds.write_parquet(out_dir, partition_cols=["part"])

    import pyarrow.parquet as pq_mod

    manifest: dict = {"num_partitions": num_partitions, "partitions": {}}
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("part="):
            continue
        part = int(name.split("=")[1])
        part_dir = os.path.join(out_dir, name)
        n_rows = 0
        for f in os.listdir(part_dir):
            if f.endswith(".parquet"):
                n_rows += pq_mod.ParquetFile(os.path.join(part_dir, f)).metadata.num_rows
        status = "resumed(skip)" if part in done else "written"
        if part not in done:
            with open(os.path.join(part_dir, "_SUCCESS"), "w") as f:
                json.dump({"partition": part, "rows": n_rows}, f)
        manifest["partitions"][str(part)] = {"status": status, "rows": n_rows}
    manifest["total_rows"] = sum(p["rows"] for p in manifest["partitions"].values())
    manifest["resumed_partitions"] = sorted(done)
    manifest["write_wall_sec"] = round(time.time() - t_start, 3)
    manifest["lineage"] = lineage or {}
    with open(os.path.join(out_dir, "_MANIFEST.json"), "w") as f:
        json.dump(manifest, f, indent=2)
    return manifest
