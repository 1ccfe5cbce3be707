"""Stage 2 — per-cell typing (task-based map_batches).

Reference computation: ``text_parser`` over the set of unique cell
strings (`prp_scripts/utils.py:64-112`, dedup at :221-224).
:func:`typing_batch` types each batch with a per-batch unique-string
dedup; the cells go through the worker's one
:class:`~.preprocess.CellTyper` (:func:`worker_typer`), whose gazetteer
NER (the spaCy stand-in, SURVEY §2.3 ST1) is built once per worker
process from the broadcast KB and whose memo makes a mention repeated
across batches cost a dict hit.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray

from .preprocess import CellTyper


def worker_typer(kb_ref) -> CellTyper:
    """The worker process's :class:`CellTyper` for ``kb_ref`` (the
    broadcast KB, or None for an empty gazetteer), built once and shared
    by every stage in the process that types cells against that KB
    (state/worker_state.py)."""
    from ..state.worker_state import get_worker_state, ref_key

    def build() -> CellTyper:
        if kb_ref is None:
            return CellTyper({})
        from ..state.kb import KBReader

        return CellTyper(KBReader(ray.get(kb_ref)).build_gazetteer())

    return get_worker_state(("typer", ref_key(kb_ref)), build)


def typing_batch(batch: pa.Table, kb_ref) -> pa.Table:
    """mentions(conv_id, turn_idx, col_slot, mention) → + typing, datatype."""
    typer = worker_typer(kb_ref)
    mentions = batch["mention"].combine_chunks()
    # dedup within the batch (reference dedups per table, utils.py:221-224)
    mapping = {
        cell: typer(cell)
        for cell in pc.unique(mentions).to_pylist()
        if cell is not None
    }
    typed = [mapping.get(cell, ((), ())) for cell in mentions.to_pylist()]
    return batch.append_column(
        "typing", pa.array([t for t, _ in typed], pa.list_(pa.string()))
    ).append_column("datatype", pa.array([d for _, d in typed], pa.list_(pa.string())))
