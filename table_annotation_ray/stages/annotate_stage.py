"""Stage 3 — distributed annotation: bucketed shuffle + per-conversation model.

Ray mapping (SURVEY.md §3.3 "our lifecycle"), pipelines/kg_pipeline.py:

    turns.filter(turn_idx < max_rows_per_conv)        # pre-shuffle cap
         .map_batches(add_bucket)                     # hash(conv_id) % B
         .groupby("bucket")
         .map_groups(<emitter>, ...)                  # tasks + per-worker state

One group = one bucket of whole conversations — NOT one conversation —
so the shuffle key cardinality is bounded (``num_buckets``) and each
worker amortizes its state (lookup index, KB, caches — built once per
worker process via state/worker_state.py) across many conversations.
A bucket holds (conv_id, turn_idx, text) rows, one per TURN: one reader
(:func:`_conversations`) repairs the encoding and splits each turn into
cells after the shuffle, and the conversations are annotated
sequentially by :class:`TableAnnotator` (the 4-loop model is inherently
per-table sequential, SURVEY §7).  Two emitters share that reader:
:meth:`AnnotateBucket.annotate_turns_table` (triples, the flagship) and
:meth:`AnnotateBucket.annotations_table` (the CEA/CTA/CPA relations).

Skew: conversations are bounded by ``RuntimeConfig.max_rows_per_conv``
(divergence D4: the reference subsamples to 400 rows only for
PREPROCESSING stats, table_preprocessing.py:47-55, but then annotates
every row; we apply the same bound as a hard per-conversation cap so
one hot conversation cannot stall a bucket — the annotation loops are
O(rows·K²·cols²) and unbounded rows is exactly the skew the north_rule
asks us to handle).  Raise the cap when full-row annotation matters
more than tail latency.  The worker derives its table dims from the
rows within the cap only, so the pipeline's map-side ``turn_idx < cap``
filter before the conv shuffle is output-identical for any turn_idx
distribution: a 10M-turn hot conversation ships 400 rows through the
exchange instead of 10M (pytest-pinned).

The worker pulls the broadcast KB image from the object store ONCE
(ray.put on the driver → zero extra copies per node) and builds the
label index + cell typer from it — the reference's ES server + LMDB
mmap collapsed into per-worker state (ST3/ST4).
"""

from __future__ import annotations

import pyarrow as pa

import ray

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..state.kb import KBData, KBReader
from ..state.lookup_index import LabelIndex
from .annotator import ActorCaches, AnnotationResult, TableAnnotator
from .preprocess import CellTyper, parse_table
from .sinks import str_partitions
from .triples import conversation_outputs_to_rows


def add_bucket(batch: pa.Table, num_buckets: int) -> pa.Table:
    """Deterministic hash bucket per conv_id (``crc32 % num_buckets``,
    stages/sinks.py::str_partitions); a null conv_id raises ValueError."""
    buckets = str_partitions(batch["conv_id"], num_buckets, "conv_id")
    return batch.append_column("bucket", pa.array(buckets, pa.int32()))


def _conversations(bucket: pa.Table) -> dict[str, list[tuple[int, int, str]]]:
    """The bucket reader: (conv_id, turn_idx, text) rows → per conv_id,
    its [(turn_idx, col_slot, mention)].  Encoding repair + cell
    splitting happen HERE, after the shuffle, so the conv_id exchange
    moves one row per TURN instead of one per cell (the explode
    multiplies rows ~4x; at 10^12 turns that factor is the difference
    between shuffling 60 TB and 250 TB).  A null or empty text is one
    empty cell at slot 0, as in stages/clean.py::explode_cells_batch."""
    from ..functions.text import fix_encoding
    from ..schemas import CELL_SEP

    conv = bucket["conv_id"].to_pylist()
    turn = bucket["turn_idx"].to_pylist()
    text = bucket["text"].to_pylist()
    by_conv: dict[str, list[tuple[int, int, str]]] = {}
    for c, t, x in zip(conv, turn, text):
        fixed = fix_encoding(x) if x else ""
        rows = by_conv.setdefault(c, [])
        for s, cell in enumerate(fixed.split(CELL_SEP)):
            rows.append((t, s, cell.strip()))
    return by_conv


class AnnotateBucket:
    """Per-worker annotate stage: one bucket of turns → triples
    (:meth:`annotate_turns_table`) or annotation relations
    (:meth:`annotations_table`)."""

    def __init__(self, kb_ref, config: PipelineConfig | None = None, tier=None):
        """``kb_ref`` is the broadcast KB image (small-KB fast path).  At
        real-KB scale pass ``tier`` (state/sharded_kb.py::ShardedKB,
        built with ``config.lookup``) instead: it serves the KB reader
        and the label index, and the worker never holds the KB image
        (annotation output is identical, tests/test_sharded_kb.py)."""
        self.cfg = config or PipelineConfig()
        if tier is not None:
            if tier.cfg != self.cfg.lookup:
                raise ValueError("the ShardedKB tier was built with another lookup config")
            self.kbr = tier.make_reader()
            self.index = tier
        elif kb_ref is not None:
            kb: KBData = ray.get(kb_ref) if not isinstance(kb_ref, KBData) else kb_ref
            self.kbr = KBReader(kb)
            self.index = LabelIndex(kb, self.cfg.lookup)
        else:
            raise ValueError(
                "AnnotateBucket needs a KB: the broadcast KB image (kb_ref) "
                "or a ShardedKB tier (tier)"
            )
        self.caches = ActorCaches()
        self.annotator = TableAnnotator(
            self.index, self.kbr, self.cfg.annotation, self.caches
        )
        # the shuffle carries only primitive columns; cells are typed
        # HERE, memoized per worker
        self._type_cell = CellTyper(self.kbr.build_gazetteer())

    def _annotate_rows(
        self, rows: list[tuple[int, int, str]]
    ) -> tuple[AnnotationResult, dict[tuple[int, int], str]]:
        """rows = [(turn_idx, col_slot, mention)] of ONE conversation."""
        cap = self.cfg.runtime.max_rows_per_conv
        # dims from the rows WITHIN the cap only: a capped-away turn with
        # a wider col_slot must not widen the annotated table, or the
        # in-worker cap diverges from the map-side prefilter
        # (code-review r4; empty columns flip the num_columns>1 context
        # machinery)
        # (a negative turn_idx is no row of the table: dropped likewise)
        kept = [r for r in rows if 0 <= r[0] < cap]
        if not kept:
            # fully capped-away conversation (only reachable without the
            # pipeline's prefilter): emit the empty result it would give
            empty = AnnotationResult(cea={}, cta={}, cpa={},
                                     entity_cols=[], literal_cols=[])
            return empty, {(t, s): m for t, s, m in rows}
        n_rows = max(r[0] for r in kept) + 1
        n_cols = max(r[1] for r in kept) + 1
        table = [[""] * n_cols for _ in range(n_rows)]
        cells: dict[tuple[int, int], str] = {}
        for turn, slot, mention in rows:
            cells[(turn, slot)] = mention
            if 0 <= turn < cap:  # per-conversation cap (see module docstring)
                table[turn][slot] = mention
        typings, datatypes = parse_table(table, self._type_cell)
        return self.annotator.annotate(table, typings, datatypes), cells

    def annotate_turns_table(self, bucket: pa.Table) -> pa.Table:
        """Triples emitter (the flagship): one bucket of turns → the
        5-column raw triple table, conversations in conv_id order."""
        out: list[tuple] = []
        for conv_id, rows in sorted(_conversations(bucket).items()):
            result, cells = self._annotate_rows(rows)
            out.extend(conversation_outputs_to_rows(conv_id, result, cells))
        return _rows_table(out, _RAW_TRIPLE_SCHEMA)

    def annotations_table(self, bucket: pa.Table) -> pa.Table:
        """Annotations emitter: one bucket of turns → the three annotation
        relations as one tall table (kind ∈ {cea, cta, cpa}) — SURVEY
        §1.2's CEA/CTA/CPA Datasets, for consumers that want annotations
        rather than triples.  CTA/CPA carry their top annotation only."""
        out: list[tuple] = []
        for conv_id, rows in sorted(_conversations(bucket).items()):
            result, _cells = self._annotate_rows(rows)
            out.extend((conv_id, "cea", r, c, -1, eid, score, 1.0)
                       for (r, c), (eid, score) in sorted(result.cea.items()))
            out.extend((conv_id, "cta", -1, col, -1, *annots[0])
                       for col, annots in sorted(result.cta.items()))
            out.extend((conv_id, "cpa", -1, h, t, *annots[0])
                       for (h, t), annots in sorted(result.cpa.items()))
        return _rows_table(out, _ANNOTATION_SCHEMA)


_RAW_TRIPLE_SCHEMA = pa.schema([
    ("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string()),
    ("conv_id", pa.string()), ("score", pa.float64()),
])
# (id, score, coverage) = (entity, score, 1.0) for cea, the top
# (type | property, score, coverage) for cta / cpa; -1 = not applicable
_ANNOTATION_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("kind", pa.string()),
    ("row", pa.int32()), ("col", pa.int32()), ("col2", pa.int32()),
    ("id", pa.string()), ("score", pa.float64()), ("coverage", pa.float64()),
])


def _rows_table(rows: list[tuple], schema: pa.Schema) -> pa.Table:
    """Row tuples → an Arrow table of ``schema`` (typed when empty too)."""
    cols = list(zip(*rows)) or [()] * len(schema)
    return pa.table([pa.array(c, f.type) for c, f in zip(cols, schema)], schema=schema)


def get_annotate_stage(kb_ref, config=None, tier=None) -> "AnnotateBucket":
    """Per-worker-process :class:`AnnotateBucket` (state/worker_state.py),
    the one holder of a worker's label index: the flagship, the table
    pipelines and the lookup stages (stages/lookup_stage.py,
    pipelines/table_pipeline.py::lookup_labels) all read it.

    The key is what the build reads: the KB ref, the tier's ``key()``
    (actor ids, stable across unpickling), ``config.lookup``,
    ``config.annotation`` and ``config.runtime.max_rows_per_conv``;
    frozen dataclasses hash by value, and None means
    :data:`DEFAULT_CONFIG`.  A job that changes only a knob the stage
    does not read (``num_buckets``, ``triple_partitions``,
    ``typing_batch_size``) reuses the stage; a changed lookup,
    annotation or cap knob gets a new one.  The ref from
    state/kb.py::broadcast_kb and the tier from
    state/sharded_kb.py::shard_kb are one per KB content per Ray
    session, so later jobs over the same KB reuse the stage."""
    from ..state.worker_state import get_worker_state, ref_key

    config = config or DEFAULT_CONFIG
    key = (
        "annotate",
        ref_key(kb_ref),
        tier.key() if tier is not None else None,
        config.lookup,
        config.annotation,
        config.runtime.max_rows_per_conv,
    )
    return get_worker_state(key, lambda: AnnotateBucket(kb_ref, config, tier))
