"""Standalone candidate generation: mentions → entity candidates.

The actor-pool fuzzy lookup of SURVEY.md §2.4 (J1/J2) as its own
``map_batches`` stage.  It builds no index of its own: it reads the
worker's annotate stage (stages/annotate_stage.py::get_annotate_stage,
the one label index per worker, KB and config — the ES cluster
replaced by in-worker state), whose index is the sharded KB tier
(state/sharded_kb.py) at real-KB scale.  Either way one emitter,
:func:`candidates_table`, deduplicates each batch's mentions and sends
them through the index's ``search_batch``; repeats across batches are
memoized by the index's LRU.

The flagship pipeline fuses this into the annotate stage (the model
needs lookup coverage to classify columns, annotation_models.py:262-284),
but the standalone stage is the right shape when candidates are a
materialized intermediate (e.g. reuse across model versions).
"""

from __future__ import annotations

import pyarrow as pa

from ..config import DEFAULT_CONFIG, PipelineConfig
from .annotate_stage import _rows_table, get_annotate_stage

_CANDIDATES_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()), ("col_slot", pa.int32()),
    ("mention", pa.string()), ("entity_id", pa.string()),
    ("lookup_score", pa.float64()), ("rank", pa.int32()),
])


def candidates_table(batch: pa.Table, index, k: int) -> pa.Table:
    """(conv_id, turn_idx, col_slot, mention, ...) →
    (conv_id, turn_idx, col_slot, mention, entity_id, lookup_score, rank).

    ``index`` is a LabelIndex or a ShardedKB.  Each distinct
    lower-cased mention longer than one char is searched once per batch
    and its top ``k`` replicated to every row that holds it; a null
    mention has no candidates."""
    conv = batch["conv_id"].to_pylist()
    turn = batch["turn_idx"].to_pylist()
    slot = batch["col_slot"].to_pylist()
    mentions = batch["mention"].to_pylist()
    norms = [(m or "").lower() for m in mentions]
    uniq = [n for n in dict.fromkeys(norms) if len(n) > 1]
    by_norm = dict(zip(uniq, index.search_batch(uniq, k)))
    rows = [
        (c, t, s, m, eid, score, rank)
        for c, t, s, m, n in zip(conv, turn, slot, mentions, norms)
        for rank, (eid, score) in enumerate(by_norm.get(n, ()), 1)
    ]
    return _rows_table(rows, _CANDIDATES_SCHEMA)


def lookup_candidates(mentions, kb_ref, config: PipelineConfig | None = None, tier=None):
    """Task-based candidate generation: :func:`candidates_table` with
    ``k = config.annotation.k`` over the worker's annotate-stage index
    for (``kb_ref``, ``config``, ``tier``): the sharded KB tier itself
    when ``tier`` is given.

    A fixed actor pool caps parallelism at its size and holds CPUs for
    the stage lifetime (the repo-wide starvation hazard); plain tasks
    scale to every core and the per-worker cache gives the same
    build-once lifecycle. The sf0.1 standalone stage dropped 8.2 s → the
    annotate-stage-equivalent wall after this conversion.
    """
    cfg = config or DEFAULT_CONFIG

    def task(batch: pa.Table) -> pa.Table:
        index = get_annotate_stage(kb_ref, cfg, tier).index
        return candidates_table(batch, index, cfg.annotation.k)

    return mentions.map_batches(task, batch_format="pyarrow")
