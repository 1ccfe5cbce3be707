"""End-to-end KG-construction pipeline (the flagship DAG).

    read_parquet(transcripts: conv_id, turn_idx, text)   [column-pruned scan]
      → map_batches(add_bucket)                          [crc32(conv_id) % B]
      → groupby(bucket).map_groups(annotate)             [task-based, per-worker
            encoding repair → cell explode → typing →     state: gazetteer NER,
            fuzzy lookup → 4-loop CEA/CTA/CPA model]      label index, KB image]
      → triples → per-block Arrow (s,p,o) max/min        [combine, fused into
            + tag part = crc32(subj) % P                   the annotate task]
      → sort(part, fixed boundaries) → per-partition     [one exchange, keyed on
            (s,p,o) max/min reduce                         the sink's own rule]
      → write hash(subj)-partitioned Parquet + manifests [resumable; one file
                                                          per partition]

The streaming re-expression of the reference's per-table
``table_annotation`` entry point (annotation/table_annotation.py:22-148)
over 10^12-turn transcript shards.  The bucket exchange moves ONE ROW
PER TURN (cell explosion happens post-shuffle, inside the annotate
worker); no stage materializes the full dataset; the only all-to-alls
are the bucket groupby (key cardinality = num_buckets) and the triple
dedup, whose exchange is the sink's hash(subj) partitioning: every copy
of a triple shares its subj, so deduplicating per sink partition is
exact and each partition arrives at the sink as one block.  See
docs/SCALING.md for the 100 TB arithmetic.

Nothing here calls ray.init() — the caller owns the session.
"""

from __future__ import annotations

import ray
import ray.data as rd

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..state.kb import load_kb
from ..stages.annotate_stage import add_bucket, annotate_bucket_batch
from ..stages.clean import clean_and_explode
from ..stages.triples import dedup_triples, write_triples_partitioned
from ..stages.typing_stage import typing_batch


def read_transcripts(path: str, columns: list[str] | None = None) -> rd.Dataset:
    """Prune at the read: the KG pipeline needs only the table-bearing
    columns (conv_id, turn_idx, text)."""
    return rd.read_parquet(path, columns=columns or ["conv_id", "turn_idx", "text"])


def _prefilter_cap(ds: rd.Dataset, cfg: PipelineConfig) -> rd.Dataset:
    """Pre-shuffle per-conversation cap (skew guard) — output-identical
    to the in-worker cap for any turn_idx distribution (the worker's
    table dims come from capped rows only; RuntimeConfig
    .prefilter_turn_cap docstring).  Disabled → the in-worker cap (D4)
    alone governs."""
    if not cfg.runtime.prefilter_turn_cap:
        return ds
    return ds.filter(expr=f"turn_idx < {cfg.runtime.max_rows_per_conv}")


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


def triples_dataset(
    cells: rd.Dataset,
    kb_ref,
    cfg: PipelineConfig = DEFAULT_CONFIG,
) -> rd.Dataset:
    """cells (typed or untyped) → deduplicated triples (stages 3-4).

    The flagship path feeds UNTYPED cells: typing happens inside the
    annotate worker (memoized per worker process), so the conv_id
    shuffle carries only primitive columns — list<string> typing columns
    through an all-to-all roughly doubles its byte volume for nothing."""
    # same pre-shuffle skew guard as triples_from_turns (see
    # RuntimeConfig.prefilter_turn_cap for the dense-turn_idx contract)
    bucketed = _prefilter_cap(cells, cfg).map_batches(
        add_bucket,
        batch_format="pyarrow",
        fn_kwargs={"num_buckets": cfg.runtime.num_buckets},
    )
    raw = bucketed.groupby("bucket").map_groups(
        annotate_bucket_batch,
        batch_format="pyarrow",
        fn_kwargs={"kb_ref": kb_ref, "config": cfg},
    )
    return dedup_triples(raw, cfg.runtime.triple_partitions)


def annotations_dataset(
    cells: rd.Dataset,
    kb_ref,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    kb_tier=None,
    lookup_tier=None,
) -> rd.Dataset:
    """cells → the CEA/CTA/CPA annotation relations as one tall Dataset
    (kind ∈ {cea, cta, cpa}); same bucketed execution as the triple path."""

    def run(bucket, kb_ref=None, config=None, kb_tier=None, lookup_tier=None):
        from ..stages.annotate_stage import get_annotate_stage

        return get_annotate_stage(
            kb_ref, config, kb_tier, lookup_tier
        ).annotations_table(bucket)

    bucketed = _prefilter_cap(cells, cfg).map_batches(
        add_bucket,
        batch_format="pyarrow",
        fn_kwargs={"num_buckets": cfg.runtime.num_buckets},
    )
    return bucketed.groupby("bucket").map_groups(
        run,
        batch_format="pyarrow",
        fn_kwargs={"kb_ref": kb_ref, "config": cfg,
                   "kb_tier": kb_tier, "lookup_tier": lookup_tier},
    )


def triples_from_turns(
    transcripts: rd.Dataset,
    kb_ref,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    kb_tier=None,
    lookup_tier=None,
) -> rd.Dataset:
    """Flagship shuffle layout: bucket WHOLE TURNS by conv_id; encoding
    repair + cell explosion + typing all happen inside the annotate
    worker (post-shuffle) — the exchange moves one row per turn."""

    def run(bucket, kb_ref=None, config=None, kb_tier=None, lookup_tier=None):
        from ..stages.annotate_stage import get_annotate_stage

        return get_annotate_stage(
            kb_ref, config, kb_tier, lookup_tier
        ).annotate_turns_table(bucket)

    # skew guard: the annotate worker DROPS turns past the per-conv cap
    # (their cells entries are never read), so applying the identical
    # predicate map-side keeps a hot conversation from shipping millions
    # of rows into one bucket of the exchange — output-identical under
    # the dense-turn_idx input contract (RuntimeConfig.prefilter_turn_cap;
    # tests/test_pipeline.py::test_hot_conversation_prefilter_identical)
    bucketed = _prefilter_cap(transcripts, cfg).map_batches(
        add_bucket,
        batch_format="pyarrow",
        fn_kwargs={"num_buckets": cfg.runtime.num_buckets},
    )
    raw = bucketed.groupby("bucket").map_groups(
        run,
        batch_format="pyarrow",
        fn_kwargs={"kb_ref": kb_ref, "config": cfg,
                   "kb_tier": kb_tier, "lookup_tier": lookup_tier},
    )
    return dedup_triples(raw, cfg.runtime.triple_partitions)


def run_kg_pipeline(
    transcripts_path: str,
    kb_dir: str,
    out_dir: str | None = None,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    sharded_kb: bool = False,
    num_kb_shards: int = 4,
    num_cpus_per_shard: float = 0.25,
) -> rd.Dataset:
    """Full DAG; returns the deduplicated triples Dataset (lazy).  When
    ``out_dir`` is given, also writes the partitioned, resumable sink.

    ``sharded_kb=True`` is the real-KB scale path: the edge/meta store is
    served by a :class:`~..state.sharded_kb.ShardedKBTier` (each shard
    actor loads its own hash bucket from Parquet — the driver and the
    annotate workers never hold the full KB image) and the label index by
    a :class:`~..state.sharded_lookup.ShardedLookupTier`.  Output is
    identical to the broadcast path (tests/test_sharded_kb.py)."""
    transcripts = read_transcripts(transcripts_path)
    if sharded_kb:
        from ..state.sharded_kb import ShardedKBTier
        from ..state.sharded_lookup import ShardedLookupTier

        kb_tier = ShardedKBTier.create_from_parquet(
            kb_dir, num_shards=num_kb_shards, num_cpus_per_shard=num_cpus_per_shard
        )
        # fully driverless: shard actors load their own label slices,
        # global IDF stats merge from disjoint shard partials
        lookup_tier = ShardedLookupTier.create_from_parquet(
            kb_dir, num_shards=num_kb_shards,
            num_cpus_per_shard=num_cpus_per_shard,
        )
        triples = triples_from_turns(
            transcripts, None, cfg, kb_tier=kb_tier, lookup_tier=lookup_tier
        )
    else:
        kb_ref = ray.put(load_kb(kb_dir))
        triples = triples_from_turns(transcripts, kb_ref, cfg)
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
