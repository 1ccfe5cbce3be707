"""SQLite source/sink — the embedded-database on-ramp (stdlib
``sqlite3``, no extra deps): many labeling tools, scrapers and app
exports hand you a ``.db`` file; this reads one into a Ray Dataset
with PARALLEL range readers and writes one back.

Read shape: the driver opens the file once for metadata (max rowid,
declared columns), splits ``[1, max_rowid]`` into ``partitions``
ranges, and each range becomes one task that opens the file READ-ONLY
(SQLite allows unlimited concurrent readers) and emits an Arrow table
— so a multi-GB db scans with full cluster parallelism.  Rowid ranges
may be sparse (deleted rows); tasks emit whatever their range holds.

Write shape: SQLite is single-writer, so the sink streams
``iter_batches`` through ONE driver-side connection with
``executemany`` per batch — the bottleneck is inherent to the format
(documented), use parquet for scale-out output.

No reference counterpart (SURVEY §2 source/sink breadth beyond the
reference's csv/xlsx loaders).
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

_STORAGE_TYPES = {"integer": pa.int64(), "real": pa.float64(),
                  "text": pa.string(), "blob": pa.binary()}


def read_sqlite(
    path: str,
    table: str,
    columns: list[str] | None = None,
    partitions: int = 16,
) -> rd.Dataset:
    """Parallel-read ``table`` from the SQLite db at ``path``."""
    con = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        cols_info = con.execute(f'PRAGMA table_info("{table}")').fetchall()
        if not cols_info:
            raise ValueError(f"no such table: {table}")
        all_cols = [c[1] for c in cols_info]
        cols = columns or all_cols
        missing = set(cols) - set(all_cols)
        if missing:
            raise ValueError(f"unknown columns: {sorted(missing)}")
        # a range with no rows (sparse rowids after deletes) emits an
        # empty block typed by each column's first non-NULL value, as
        # the populated blocks are, not a NULL-typed one
        first = [con.execute(f'SELECT typeof("{c}") FROM "{table}" '
                             f'WHERE "{c}" IS NOT NULL LIMIT 1').fetchone()
                 for c in cols]
        schema = pa.schema([(c, _STORAGE_TYPES.get(f and f[0], pa.null()))
                            for c, f in zip(cols, first)])
        row = con.execute(f'SELECT max(rowid) FROM "{table}"').fetchone()
        max_rid = int(row[0]) if row and row[0] is not None else 0
    finally:
        con.close()

    if max_rid == 0:
        return rd.from_arrow(schema.empty_table())

    bounds = np.linspace(0, max_rid, num=min(partitions, max_rid) + 1,
                         dtype=np.int64)
    ranges = [
        {"lo": int(bounds[i]) + 1, "hi": int(bounds[i + 1])}
        for i in range(len(bounds) - 1)
        if bounds[i + 1] > bounds[i]
    ]
    collist = ", ".join(f'"{c}"' for c in cols)

    def read_range(b: pd.DataFrame) -> pa.Table:
        frames = []
        c = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            for lo, hi in zip(b["lo"], b["hi"]):
                cur = c.execute(
                    f'SELECT {collist} FROM "{table}" '
                    f"WHERE rowid >= ? AND rowid <= ?",
                    (int(lo), int(hi)),
                )
                frames.append(
                    pd.DataFrame(cur.fetchall(), columns=cols)
                )
        finally:
            c.close()
        out = pd.concat(frames, ignore_index=True)
        if out.empty:
            return schema.empty_table()
        return pa.Table.from_pandas(out, preserve_index=False)

    return rd.from_items(ranges).map_batches(
        read_range, batch_format="pandas", batch_size=1
    )


def write_sqlite(
    ds: rd.Dataset,
    path: str,
    table: str,
    if_exists: str = "replace",
    batch_size: int = 65536,
) -> int:
    """Stream the dataset into one SQLite table; returns rows written.
    Single-writer by format design (module docstring)."""
    if if_exists not in ("replace", "append", "fail"):
        raise ValueError("if_exists must be replace|append|fail")
    n = 0
    first = True
    con = sqlite3.connect(path)
    try:
        for batch in ds.iter_batches(batch_format="pandas",
                                     batch_size=batch_size):
            if first:
                exists = con.execute(
                    "SELECT name FROM sqlite_master WHERE type='table' "
                    "AND name=?", (table,)
                ).fetchone()
                if exists and if_exists == "fail":
                    raise ValueError(f"table exists: {table}")
                if exists and if_exists == "replace":
                    con.execute(f'DROP TABLE "{table}"')
                    exists = None
                if not exists:
                    defs = ", ".join(f'"{c}"' for c in batch.columns)
                    con.execute(f'CREATE TABLE "{table}" ({defs})')
                first = False
            ph = ", ".join("?" * len(batch.columns))
            con.executemany(
                f'INSERT INTO "{table}" VALUES ({ph})',
                batch.itertuples(index=False, name=None),
            )
            n += len(batch)
        con.commit()
    finally:
        con.close()
    return n
