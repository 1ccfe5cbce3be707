"""Stage 3 — distributed annotation: bucketed shuffle + per-conversation model.

Ray mapping (SURVEY.md §3.3 "our lifecycle"):

    turns.map_batches(add_bucket)                     # hash(conv_id) % B
         .groupby("bucket")
         .map_groups(annotate_bucket_batch, ...)      # tasks + per-worker state

One group = one bucket of whole conversations — NOT one conversation —
so the shuffle key cardinality is bounded (``num_buckets``) and each
worker amortizes its state (lookup index, KB, caches — built once per
worker process via state/worker_state.py) across many conversations.
Inside a group the conversations are annotated sequentially by
:class:`TableAnnotator`; the 4-loop model is inherently per-table
sequential (SURVEY §7) and is never parallelized within.

Skew: conversations are bounded by ``max_rows_per_conv`` (divergence
D4: the reference subsamples to 400 rows only for PREPROCESSING stats,
table_preprocessing.py:47-55, but then annotates every row; we apply
the same bound as a hard per-conversation cap so one hot conversation
cannot stall a bucket — the annotation loops are O(rows·K²·cols²) and
unbounded rows is exactly the skew the north_rule asks us to handle).
Raise ``max_rows_per_conv`` when full-row annotation matters more than
tail latency; buckets spread hot conversations uniformly by hash either
way.  Because the cap DROPS rows with ``turn_idx >= max_rows`` (their
``cells`` entries are never read — triples.py only probes rows that
carry CEA, all < max_rows), the flagship applies the SAME predicate
map-side BEFORE the conv shuffle (:data:`DEFAULT_MAX_ROWS_PER_CONV`
filter in pipelines/kg_pipeline.py): a 10M-turn hot conversation ships
400 rows through the exchange instead of 10M, with byte-identical
output (pytest-pinned).

The worker pulls the broadcast KB image from the object store ONCE
(ray.put on the driver → zero extra copies per node) and builds the
label index + gazetteer from it — the reference's ES server + LMDB
mmap collapsed into per-worker state (ST3/ST4).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray

from ..config import PipelineConfig
from ..state.kb import KBData, KBReader
from ..state.lookup_index import LabelIndex
from .annotator import ActorCaches, AnnotationResult, TableAnnotator
from .sinks import str_partitions
from .triples import conversation_outputs_to_rows


# the per-conversation row cap (see module docstring); shared by the
# annotate worker and the flagship's pre-shuffle skew filter
DEFAULT_MAX_ROWS_PER_CONV = 400


def add_bucket(batch: pa.Table, num_buckets: int) -> pa.Table:
    """Deterministic hash bucket per conv_id (``crc32 % num_buckets``,
    stages/sinks.py::str_partitions); a null conv_id raises ValueError."""
    buckets = str_partitions(batch["conv_id"], num_buckets, "conv_id")
    return batch.append_column("bucket", pa.array(buckets, pa.int32()))


class AnnotateBucket:
    """map_groups callable: one bucket of conversations → annotation rows."""

    def __init__(self, kb_ref, config: PipelineConfig | None = None,
                 max_rows_per_conv: int | None = None,
                 kb_tier=None, lookup_tier=None):
        """``kb_ref`` is the broadcast KB image (small-KB fast path).  At
        real-KB scale pass ``kb_tier`` (state/sharded_kb.ShardedKBTier)
        and/or ``lookup_tier`` (state/sharded_lookup.ShardedLookupTier)
        instead — with both tiers set, ``kb_ref`` may be None and the
        worker never holds the KB image (annotation output is identical,
        tests/test_sharded_kb.py)."""
        from functools import lru_cache

        from ..functions.typing_rules import GazetteerNER, type_cell

        self.cfg = config or PipelineConfig()
        kb: KBData | None = None
        if kb_ref is not None:
            kb = ray.get(kb_ref) if not isinstance(kb_ref, KBData) else kb_ref
        if kb is None and (kb_tier is None or lookup_tier is None):
            # a missing tier falls back to the KB image — with kb_ref
            # None too, the fallback used to die later with an opaque
            # AttributeError on NoneType.label_rows deep in the ctor
            # (code-review r4, pass 7)
            missing = "kb_tier" if kb_tier is None else "lookup_tier"
            raise ValueError(
                f"kb_ref=None requires BOTH tiers; {missing} is None "
                "(pass the broadcast KB image, or both ShardedKBTier "
                "and ShardedLookupTier)"
            )
        if kb_tier is not None:
            self.kbr = kb_tier.make_reader()
        else:
            self.kbr = KBReader(kb)
        if lookup_tier is not None:
            self.index = lookup_tier
        else:
            self.index = LabelIndex(kb, self.cfg.lookup)
        self.caches = ActorCaches()
        self.annotator = TableAnnotator(
            self.index, self.kbr, self.cfg.annotation, self.caches
        )
        # cap precedence: explicit ctor arg > config knob (the plumbed
        # path — the flagship entries build AnnotateBucket from config,
        # so RuntimeConfig.max_rows_per_conv is reachable end-to-end)
        self.max_rows = (
            max_rows_per_conv
            if max_rows_per_conv is not None
            else getattr(self.cfg.runtime, "max_rows_per_conv",
                         DEFAULT_MAX_ROWS_PER_CONV)
        )
        # in the fused flagship path the shuffle carries only primitive
        # columns; cells are typed HERE, memoized per worker
        self.ner = GazetteerNER(self.kbr.build_gazetteer())
        ner = self.ner
        self._type_cell = lru_cache(maxsize=262_144)(
            lambda cell: tuple(map(tuple, type_cell(cell, ner)))
        )

    def _annotate_rows(
        self,
        rows: list[tuple[int, int, str]],
        typed: dict[str, tuple] | None = None,
    ) -> tuple[AnnotationResult, dict[tuple[int, int], str]]:
        """rows = [(turn_idx, col_slot, mention)] of ONE conversation."""
        # dims from the rows WITHIN the cap only: a capped-away turn with
        # a wider col_slot must not widen the annotated table, or the
        # in-worker cap diverges from the map-side prefilter
        # (code-review r4; empty columns flip the num_columns>1 context
        # machinery)
        kept = [r for r in rows if r[0] < self.max_rows]
        if not kept:
            # fully capped-away conversation: the prefilter path never
            # sees it — emit the matching empty result directly
            empty = AnnotationResult(cea={}, cta={}, cpa={},
                                     entity_cols=[], literal_cols=[])
            return empty, {(t, s): m for t, s, m in rows}
        n_rows = max(r[0] for r in kept) + 1
        n_cols = max(r[1] for r in kept) + 1
        table = [[""] * n_cols for _ in range(n_rows)]
        cells: dict[tuple[int, int], str] = {}
        typings: dict[str, list[str]] = {}
        datatypes: dict[str, list[str]] = {}
        for turn, slot, mention in rows:
            cells[(turn, slot)] = mention
            if turn >= self.max_rows:
                continue  # per-conversation cap (see module docstring)
            table[turn][slot] = mention
            if mention not in typings:
                if typed is not None:
                    typ, dt = typed[mention]
                else:
                    typ, dt = self._type_cell(mention)
                typings[mention] = list(typ)
                datatypes[mention] = list(dt)
        return self.annotator.annotate(table, typings, datatypes), cells

    def annotate_conversation(self, group: pd.DataFrame) -> AnnotationResult:
        """pandas convenience entry (tests / pre-typed mentions path)."""
        typed = None
        if "typing" in group.columns:
            typed = {
                m: (list(t), list(d))
                for m, t, d in zip(group["mention"], group["typing"], group["datatype"])
            }
        rows = list(
            zip(map(int, group["turn_idx"]), map(int, group["col_slot"]), group["mention"])
        )
        result, _ = self._annotate_rows(rows, typed)
        return result

    def _triples_table(
        self, by_conv: dict[str, list[tuple[int, int, str]]]
    ) -> pa.Table:
        """Annotate every conversation and materialize the 5-column
        triple table — the shared tail of ``__call__`` and
        ``annotate_turns_table`` (was duplicated verbatim; a schema
        change had to be applied twice, code-review r4 pass 7)."""
        out_rows: list[tuple[str, str, str, str, float]] = []
        for conv_id in sorted(by_conv):
            result, cells = self._annotate_rows(by_conv[conv_id])
            out_rows.extend(conversation_outputs_to_rows(conv_id, result, cells))
        return pa.table(
            {
                "subj": pa.array([r[0] for r in out_rows], pa.string()),
                "pred": pa.array([r[1] for r in out_rows], pa.string()),
                "obj": pa.array([r[2] for r in out_rows], pa.string()),
                "conv_id": pa.array([r[3] for r in out_rows], pa.string()),
                "score": pa.array([r[4] for r in out_rows], pa.float64()),
            }
        )

    def __call__(self, bucket: pa.Table) -> pa.Table:
        """One bucket of conversations (Arrow in / Arrow out — no pandas
        conversion of the wide string blocks)."""
        conv = bucket["conv_id"].to_pylist()
        turn = bucket["turn_idx"].to_pylist()
        slot = bucket["col_slot"].to_pylist()
        mention = bucket["mention"].to_pylist()
        by_conv: dict[str, list[tuple[int, int, str]]] = {}
        for c, t, s, m in zip(conv, turn, slot, mention):
            by_conv.setdefault(c, []).append((t, s, m))
        return self._triples_table(by_conv)

    def annotate_turns_table(self, bucket: pa.Table) -> pa.Table:
        """Turns-mode entry: bucket rows are (conv_id, turn_idx, text) —
        encoding repair + cell splitting happen HERE, after the shuffle,
        so the conv_id exchange moves one row per TURN instead of one
        per cell (the explode multiplies rows ~4x; at 10^12 turns that
        factor is the difference between shuffling 60 TB and 250 TB)."""
        from ..functions.text import fix_encoding
        from ..schemas import CELL_SEP

        conv = bucket["conv_id"].to_pylist()
        turn = bucket["turn_idx"].to_pylist()
        text = bucket["text"].to_pylist()
        by_conv: dict[str, list[tuple[int, int, str]]] = {}
        for c, t, x in zip(conv, turn, text):
            fixed = fix_encoding(x) if x else ""
            for s, cell in enumerate(fixed.split(CELL_SEP)):
                by_conv.setdefault(c, []).append((t, s, cell.strip()))
        return self._triples_table(by_conv)

    def annotations_table(self, bucket: pa.Table) -> pa.Table:
        """Alternative output mode: the three annotation relations as one
        tall table (kind ∈ {cea, cta, cpa}) — SURVEY §1.2's CEA/CTA/CPA
        Datasets, for consumers that want annotations rather than triples."""
        conv = bucket["conv_id"].to_pylist()
        turn = bucket["turn_idx"].to_pylist()
        slot = bucket["col_slot"].to_pylist()
        mention = bucket["mention"].to_pylist()
        by_conv: dict[str, list[tuple[int, int, str]]] = {}
        for c, t, s, m in zip(conv, turn, slot, mention):
            by_conv.setdefault(c, []).append((t, s, m))
        rows = {
            "conv_id": [], "kind": [], "row": [], "col": [], "col2": [],
            "id": [], "score": [], "coverage": [],
        }

        def emit(conv_id, kind, row, col, col2, id_, score, coverage):
            rows["conv_id"].append(conv_id)
            rows["kind"].append(kind)
            rows["row"].append(row)
            rows["col"].append(col)
            rows["col2"].append(col2)
            rows["id"].append(id_)
            rows["score"].append(score)
            rows["coverage"].append(coverage)

        for conv_id in sorted(by_conv):
            result, _cells = self._annotate_rows(by_conv[conv_id])
            for (r, c), (eid, score) in sorted(result.cea.items()):
                emit(conv_id, "cea", r, c, -1, eid, score, 1.0)
            for col, annots in sorted(result.cta.items()):
                t, s, cov = annots[0]
                emit(conv_id, "cta", -1, col, -1, t, s, cov)
            for (h, t_), annots in sorted(result.cpa.items()):
                pid, s, cov = annots[0]
                emit(conv_id, "cpa", -1, h, t_, pid, s, cov)
        return pa.table(
            {
                "conv_id": pa.array(rows["conv_id"], pa.string()),
                "kind": pa.array(rows["kind"], pa.string()),
                "row": pa.array(rows["row"], pa.int32()),
                "col": pa.array(rows["col"], pa.int32()),
                "col2": pa.array(rows["col2"], pa.int32()),
                "id": pa.array(rows["id"], pa.string()),
                "score": pa.array(rows["score"], pa.float64()),
                "coverage": pa.array(rows["coverage"], pa.float64()),
            }
        )


def get_annotate_stage(
    kb_ref, config=None, kb_tier=None, lookup_tier=None
) -> "AnnotateBucket":
    """Per-worker-process :class:`AnnotateBucket` (state/worker_state.py):
    built once per (KB ref, tier identity) per worker, reused across
    tasks.  Tier handles pickle into the task; their ``key()`` (actor
    ids) keeps the cache key stable across unpickling."""
    from ..state.worker_state import get_worker_state, ref_key

    key = (
        "annotate",
        ref_key(kb_ref) if kb_ref is not None else None,
        kb_tier.key() if kb_tier is not None else None,
        lookup_tier.key() if lookup_tier is not None else None,
        # config fingerprint: two pipelines in one Ray session with
        # different knobs must not share a cached stage (frozen
        # dataclasses repr deterministically; code-review r4)
        repr(config) if config is not None else None,
    )
    return get_worker_state(
        key, lambda: AnnotateBucket(kb_ref, config, kb_tier=kb_tier,
                                    lookup_tier=lookup_tier)
    )


def annotate_bucket_batch(
    bucket: pa.Table, kb_ref, config=None, kb_tier=None, lookup_tier=None
) -> pa.Table:
    """Task-based variant of :class:`AnnotateBucket` — stage state (label
    index, KB reader, KB-derived caches) is built once per worker process
    (state/worker_state.py) so annotation runs as elastic tasks and never
    reserves CPUs while idle."""
    return get_annotate_stage(kb_ref, config, kb_tier, lookup_tier)(bucket)
