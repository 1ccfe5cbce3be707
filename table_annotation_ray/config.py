"""Typed pipeline configuration.

Replaces the reference's env-var + params-dict configuration surface
(`lookup/settings.py:22-49`, `annotation/table_annotation.py:46`,
`annotation/annot_scripts/annotation_models.py:103-111`) with one
dataclass shipped to workers by value (it is tiny and picklable).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LookupConfig:
    """Fuzzy entity-lookup knobs (reference: lookup/settings.py:22-49)."""

    adaptive_ratio_min_threshold: float = 0.70
    adaptive_ratio_max_gap: float = 0.25
    main_alias_factor: float = 0.94
    sub_alias_factor: float = 0.88
    page_rank_factor: float = 0.1
    bm25_factor: float = 0.2
    label_length_min_factor: float = 0.25
    label_length_max_factor: float = 4.0
    label_token_diff: int = 4
    max_hits: int = 10_000  # ES "size" cap (es_lookup.py:76)
    cache_size: int = 65_536  # per-actor LRU over normalized mentions (ours)
    # ES fuzziness AUTO allows 2 edits for tokens ≥ 6 chars
    # (es_lookup.py:30-44); tokens at least this long get depth-2
    # deletion neighborhoods.  0 disables (smaller index for huge KBs).
    two_edit_min_token_len: int = 6


@dataclass(frozen=True)
class AnnotationConfig:
    """Disambiguation-model knobs (annotation_models.py:103-111,151;
    table_annotation.py:46)."""

    k: int = 20  # candidates kept per mention
    semantic_context_weight: float = 1.0
    literal_context_weight: float = 0.3
    cta_weight_level1: float = 1.0
    cta_weight_level2: float = 0.7
    cta_weight_level3: float = 0.2


@dataclass(frozen=True)
class RuntimeConfig:
    """Ray-side execution knobs; sized per stage, not global."""

    typing_batch_size: int = 4096
    # per-conversation row cap (D4), the one source of it: the annotate
    # worker ignores turns with turn_idx >= cap and sizes its table from
    # the rest, and the pipeline drops the same turns map-side BEFORE
    # the conv_id exchange (output-identical for any turn_idx
    # distribution, pytest-pinned).  Raise it when full-row annotation
    # matters more than skew-bounded tail latency.
    max_rows_per_conv: int = 400
    # conv_id hash buckets for the annotate shuffle.  128 measured best
    # at 352k turns on both 32 CPUs (11.0 s vs 11.8–13.2 s @ 64; group-
    # task skew max/mean drops ~2x) and 8 CPUs (38.2 vs 40.3 s) — finer
    # buckets pack the heavyweight annotate tasks better and the sort
    # itself is insensitive.  Scale num_buckets with cluster cores
    # (≈ 4x total cores) on a real cluster.
    num_buckets: int = 128
    triple_partitions: int = 16  # hash(subj) output partitions


@dataclass(frozen=True)
class PipelineConfig:
    lookup: LookupConfig = field(default_factory=LookupConfig)
    annotation: AnnotationConfig = field(default_factory=AnnotationConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)


DEFAULT_CONFIG = PipelineConfig()
