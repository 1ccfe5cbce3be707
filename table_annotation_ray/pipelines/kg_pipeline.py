"""End-to-end KG-construction pipeline (the flagship DAG).

    read_parquet(transcripts: conv_id, turn_idx, text)   [column-pruned scan]
      → filter(turn_idx < max_rows_per_conv)             [pre-shuffle skew cap]
      → map_batches(add_bucket)                          [crc32(conv_id) % B]
      → groupby(bucket).map_groups(annotate)             [task-based, per-worker
            encoding repair → cell split → typing →       state: cell typer,
            fuzzy lookup → 4-loop CEA/CTA/CPA model]      label index, KB image]
      → triples → per-block Arrow (s,p,o) max/min        [combine, fused into
            + tag part = crc32(subj) % P                   the annotate task]
      → sort(part, R = min(P, max(2, CPUs)) contiguous   [one exchange, keyed on
            part ranges) → per-block (s,p,o) max/min       the sink's own rule;
            reduce                                         fan-out sized to the
                                                           cluster, not the sink]
      → write hash(subj)-partitioned Parquet + manifests [resumable; one file
                                                          per partition]

Entries: :func:`triples_from_turns` (the DAG up to the sink) and
:func:`annotations_dataset` (the CEA/CTA/CPA relations) share one
bucketed annotate path (:func:`_annotate_buckets`) and differ only in
the emitter; :func:`mentions_dataset` is the stateless typed-mention
view (clean + explode + typing) behind the ``kg_mentions`` and
``kg_candidates`` queries; :func:`run_kg_pipeline` is the job.

The streaming re-expression of the reference's per-table
``table_annotation`` entry point (annotation/table_annotation.py:22-148)
over 10^12-turn transcript shards.  The bucket exchange moves ONE ROW
PER TURN (cell splitting happens post-shuffle, inside the annotate
worker); no stage materializes the full dataset; the only all-to-alls
are the bucket groupby (key cardinality = num_buckets) and the triple
dedup, whose exchange is the sink's hash(subj) partitioning: every copy
of a triple shares its subj, so deduplicating per sink partition is
exact and each partition arrives at the sink whole, inside one
reducer's block.  See docs/SCALING.md for the 100 TB arithmetic.

Nothing here calls ray.init() — the caller owns the session.
"""

from __future__ import annotations

import ray.data as rd

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..state.kb import broadcast_kb
from ..stages.annotate_stage import AnnotateBucket, add_bucket, get_annotate_stage
from ..stages.clean import clean_and_explode
from ..stages.triples import dedup_triples, write_triples_partitioned
from ..stages.typing_stage import typing_batch


def read_transcripts(path: str, columns: list[str] | None = None) -> rd.Dataset:
    """Prune at the read: the KG pipeline needs only the table-bearing
    columns (conv_id, turn_idx, text)."""
    return rd.read_parquet(path, columns=columns or ["conv_id", "turn_idx", "text"])


def mentions_dataset(
    transcripts: rd.Dataset,
    kb_ref,
    cfg: PipelineConfig = DEFAULT_CONFIG,
) -> rd.Dataset:
    """transcripts → typed mentions (stages 1-2)."""
    cells = transcripts.map_batches(clean_and_explode, batch_format="pyarrow")
    # task-based stateful stage: state cached per worker process
    # (state/worker_state.py) — elastic scheduling, no reserved pool
    return cells.map_batches(
        typing_batch,
        batch_format="pyarrow",
        batch_size=cfg.runtime.typing_batch_size,
        fn_kwargs={"kb_ref": kb_ref},
    )


def _annotate_bucket(bucket, emitter, kb_ref, config, tier):
    """map_groups body: ``emitter`` (an :class:`AnnotateBucket` method)
    on one bucket of turns, run by the worker's cached stage."""
    return emitter(get_annotate_stage(kb_ref, config, tier), bucket)


def _annotate_buckets(
    transcripts: rd.Dataset, emitter, kb_ref, cfg: PipelineConfig, tier=None
) -> rd.Dataset:
    """Bucket WHOLE TURNS by conv_id and run ``emitter`` per bucket.

    Skew guard: the annotate worker DROPS turns past the per-conversation
    cap and derives its table dims from the rows within it, so applying
    the identical predicate map-side is output-identical for any
    turn_idx distribution and keeps a hot conversation from shipping
    millions of rows into one bucket of the exchange
    (tests/test_pipeline.py::test_hot_conversation_prefilter_identical)."""
    bucketed = transcripts.filter(
        expr=f"turn_idx < {cfg.runtime.max_rows_per_conv}"
    ).map_batches(
        add_bucket,
        batch_format="pyarrow",
        fn_kwargs={"num_buckets": cfg.runtime.num_buckets},
    )
    return bucketed.groupby("bucket").map_groups(
        _annotate_bucket,
        batch_format="pyarrow",
        fn_kwargs={"emitter": emitter, "kb_ref": kb_ref, "config": cfg, "tier": tier},
    )


def annotations_dataset(
    transcripts: rd.Dataset,
    kb_ref,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    tier=None,
) -> rd.Dataset:
    """transcripts → the CEA/CTA/CPA annotation relations as one tall
    Dataset (kind ∈ {cea, cta, cpa}); same bucketed execution as the
    triple path."""
    return _annotate_buckets(
        transcripts, AnnotateBucket.annotations_table, kb_ref, cfg, tier
    )


def triples_from_turns(
    transcripts: rd.Dataset,
    kb_ref,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    tier=None,
) -> rd.Dataset:
    """transcripts → deduplicated triples: the flagship DAG up to the
    sink (encoding repair, cell splitting and typing all happen inside
    the annotate worker, post-shuffle)."""
    raw = _annotate_buckets(
        transcripts, AnnotateBucket.annotate_turns_table, kb_ref, cfg, tier
    )
    return dedup_triples(raw, cfg.runtime.triple_partitions)


def run_kg_pipeline(
    transcripts_path: str,
    kb_dir: str,
    out_dir: str | None = None,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    sharded_kb: bool = False,
    num_kb_shards: int = 4,
) -> rd.Dataset:
    """Full DAG; returns the deduplicated triples Dataset (lazy).  When
    ``out_dir`` is given, also writes the partitioned, resumable sink.

    ``sharded_kb=True`` is the real-KB scale path: the KB subgraphs and
    the label index are served by a
    :class:`~..state.sharded_kb.ShardedKB` of ``num_kb_shards`` actors,
    each loading its own entity-hash shard (neither the calling process
    nor the annotate workers hold the full KB image), built with ``cfg.lookup`` once
    per Ray session and KB.  Output is identical to the broadcast path
    (tests/test_sharded_kb.py)."""
    kb_ref = tier = None
    if sharded_kb:
        from ..state.sharded_kb import shard_kb

        tier = shard_kb(kb_dir, num_kb_shards, cfg.lookup)
    else:
        kb_ref = broadcast_kb(kb_dir)
    triples = triples_from_turns(read_transcripts(transcripts_path), kb_ref, cfg, tier)
    # a task's own error reaches the caller as its type (wrapped in
    # RayTaskError), not as UserCodeException: a null conv_id is a
    # ValueError.  Set on this job's DataContext copy, not the global one.
    triples.context.raise_original_map_exception = True
    if out_dir is not None:
        from dataclasses import asdict
        from datetime import datetime, timezone

        lineage = {
            "input": transcripts_path,
            "kb_dir": kb_dir,
            "started_utc": datetime.now(timezone.utc).isoformat(),
            "config": asdict(cfg),
            "engine_version": __import__("table_annotation_ray").__version__,
        }
        write_triples_partitioned(
            triples, out_dir, cfg.runtime.triple_partitions, lineage=lineage
        )
    return triples
