#!/usr/bin/env python
"""Cluster job entrypoint for GENERIC-TABLE annotation — the reference's
three public services (`preprocessing/api_preprocessing.py`,
`annotation/table_annotation.py`) as one batch job over a directory of
table files (csv/tsv/txt/xlsx; xlsx workbooks yield every segmented
table).

    python jobs/run_tables.py --tables /data/tables --kb /data/kb \
        --out /tmp/annotated --mode annotate

Modes:
  preprocess  → (table_id, preprocessed JSON)  [orientation/header/types]
  annotate    → (table_id, annotated JSON)     [CEA/CTA/CPA, entity URIs]

Output is one Parquet dir; stdout gets a single JSON summary line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tables", required=True, help="directory of table files")
    parser.add_argument("--kb", required=True, help="KB parquet directory")
    parser.add_argument("--out", required=True, help="output parquet directory")
    parser.add_argument("--mode", choices=("preprocess", "annotate"), default="annotate")
    args = parser.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data.context import DataContext, ShuffleStrategy

    DataContext.get_current().shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    from table_annotation_ray.pipelines.table_pipeline import (
        annotate_tables,
        preprocess_tables,
    )
    from table_annotation_ray.sources.delimited import read_tables_from_files
    from table_annotation_ray.state.kb import broadcast_kb

    kb_ref = broadcast_kb(args.kb)
    tables = read_tables_from_files(args.tables)
    if args.mode == "preprocess":
        out = preprocess_tables(tables, kb_ref)
    else:
        out = annotate_tables(tables, kb_ref)
    out.write_parquet(args.out)

    import pyarrow.parquet as pq

    # metadata-only count — read_table would materialize every
    # annotation JSON on the driver just to count rows (the sinks
    # manifest idiom, stages/sinks.py)
    n = sum(
        pq.ParquetFile(os.path.join(args.out, f)).metadata.num_rows
        for f in os.listdir(args.out)
        if f.endswith(".parquet")
    )
    print(json.dumps({"mode": args.mode, "tables": n, "out": args.out}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
