#!/usr/bin/env python
"""Cluster job entrypoint for the KG-construction pipeline.

Submit to a Ray cluster (the north_rule deployment path)::

    ray job submit --working-dir . -- \
        python jobs/run_kg.py --transcripts s3://bucket/transcripts \
            --kb s3://bucket/kb --out s3://bucket/triples --partitions 4096

In this sandbox it runs against a local session::

    python jobs/run_kg.py --transcripts /tmp/.../transcripts.parquet \
        --kb /tmp/.../kb --out /tmp/triples

The job is idempotent/resumable: partitions with a ``_SUCCESS`` marker
under ``--out`` are skipped on re-submission (see stages/triples.py).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    from table_annotation_ray.config import DEFAULT_CONFIG

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transcripts", required=True, help="parquet path/dir of transcripts")
    parser.add_argument("--kb", required=True,
                        help="KB directory or URI: flat kb_*.parquet tables or the kb_build dump layout")
    parser.add_argument("--out", required=True, help="output directory for triple partitions")
    parser.add_argument("--partitions", type=int,
                        default=DEFAULT_CONFIG.runtime.triple_partitions,
                        help="hash(subj) output partitions")
    parser.add_argument("--buckets", type=int, default=DEFAULT_CONFIG.runtime.num_buckets,
                        help="conv_id shuffle buckets")
    parser.add_argument("--k", type=int, default=DEFAULT_CONFIG.annotation.k,
                        help="candidates per mention")
    parser.add_argument(
        "--sharded-kb", action="store_true",
        help="serve the KB from an entity-hash actor tier instead of a "
             "broadcast image (the real-KB scale path; identical output)",
    )
    parser.add_argument("--kb-shards", type=int, default=4,
                        help="shard actors for --sharded-kb: each holds one "
                             "entity-hash shard's subgraphs and label index "
                             "and reserves no CPU")
    args = parser.parse_args()

    import ray

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS points at the cluster;
        # standalone it starts a local session
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data.context import DataContext, ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    from dataclasses import replace

    from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline

    cfg = replace(
        DEFAULT_CONFIG,
        annotation=replace(DEFAULT_CONFIG.annotation, k=args.k),
        runtime=replace(
            DEFAULT_CONFIG.runtime,
            num_buckets=args.buckets,
            triple_partitions=args.partitions,
        ),
    )
    run_kg_pipeline(
        args.transcripts, args.kb, out_dir=args.out, cfg=cfg,
        sharded_kb=args.sharded_kb, num_kb_shards=args.kb_shards,
    )
    with open(os.path.join(args.out, "_MANIFEST.json")) as f:
        manifest = json.load(f)
    print(json.dumps({"total_rows": manifest["total_rows"],
                      "partitions": len(manifest["partitions"]),
                      "resumed": manifest["resumed_partitions"]}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
