"""Generic-table pipelines — the reference's three public entry points
(`table_preprocessing`, `entity_lookup`, `table_annotation`) as Ray
Data stages over a Dataset of logical tables.

A logical table is rows (table_id, row_idx, cells:list<string>) — the
output of sources/delimited.read_tables_from_files or any equivalent.
Per-table computations run inside ``map_groups(table_id)``-style tasks;
per-worker state (cell typer, lookup index, KB) follows the
task-based worker-state pattern of the flagship pipeline.
"""

from __future__ import annotations

import json

import pyarrow as pa

import ray.data as rd

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..stages import preprocess as pp
from ..stages.agg import map_bucket_ranges
from ..stages.sinks import str_partitions

TABLE_BUCKETS = 128


def _bucket_tables(ds: rd.Dataset, num_buckets: int = TABLE_BUCKETS) -> rd.Dataset:
    """Tag each row with ``crc32(table_id) % num_buckets`` — the
    flagship conv-bucket idiom (stages/annotate_stage.py): the exchange
    groups over ≤``num_buckets`` values instead of one Ray group per
    table, which pays a per-key UDF call at corpus table counts
    (CLAUDE.md r3: map_groups degrades past ~20k groups).  The group
    UDFs already iterate ``_group_tables`` so multi-table groups are
    free.  A null ``table_id`` raises ``ValueError``
    (stages/sinks.py::str_partitions)."""

    def tag(batch: pa.Table) -> pa.Table:
        buckets = str_partitions(batch["table_id"], num_buckets, "table_id")
        return batch.append_column("__tb_bkt", pa.array(buckets, pa.int32()))

    return ds.map_batches(tag, batch_format="pyarrow")


def _map_table_buckets(ds: rd.Dataset, fn, num_buckets: int = TABLE_BUCKETS) -> rd.Dataset:
    """``fn`` over whole buckets of tables (stages/agg.py::
    map_bucket_ranges)."""
    return map_bucket_ranges(_bucket_tables(ds, num_buckets), "__tb_bkt", num_buckets, fn)


def _group_tables(batch: pa.Table) -> dict[str, list[list[str]]]:
    tables: dict[str, list[tuple[int, list[str]]]] = {}
    for tid, idx, cells in zip(
        batch["table_id"].to_pylist(),
        batch["row_idx"].to_pylist(),
        batch["cells"].to_pylist(),
    ):
        tables.setdefault(tid, []).append((idx, cells))
    return {
        tid: [cells for _, cells in sorted(rows)] for tid, rows in tables.items()
    }


def _preprocess_group(batch: pa.Table, kb_ref, seed: int) -> pa.Table:
    """map_groups body of :func:`preprocess_tables`: the group's tables
    typed by the worker's one cell typer for ``kb_ref``."""
    from ..stages.typing_stage import worker_typer

    typer = worker_typer(kb_ref)
    ids, infos = [], []
    for tid, table in _group_tables(batch).items():
        out = pp.preprocess_table(table, typer, seed=seed)
        ids.append(tid)
        infos.append(json.dumps(out["preprocessed"]))
    return pa.table(
        {"table_id": pa.array(ids, pa.string()), "preprocessed": pa.array(infos, pa.string())}
    )


def preprocess_tables(
    tables_ds: rd.Dataset, kb_ref=None, seed: int = 42
) -> rd.Dataset:
    """Dataset of table rows → one row per table with the preprocessing
    JSON (orientation/header/key/typing) as a string column."""
    return _map_table_buckets(
        tables_ds, lambda batch: _preprocess_group(batch, kb_ref, seed)
    )


_LOOKUP_SCHEMA = pa.schema([
    ("label", pa.string()), ("entity", pa.string()),
    ("score", pa.float64()), ("rank", pa.int32()),
])


def lookup_labels(
    labels_ds: rd.Dataset,
    kb_ref,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    label_col: str = "label",
) -> rd.Dataset:
    """The ``entity_lookup`` service (lookup/entity_lookup.py:74-76) as a
    batch stage: (label) → (label, entity, score, rank) rows, every
    candidate of each lower-cased label from the worker's annotate-stage
    index (stages/annotate_stage.py::get_annotate_stage).  A null label
    has no rows."""

    def run(batch: pa.Table) -> pa.Table:
        from ..stages.annotate_stage import _rows_table, get_annotate_stage

        index = get_annotate_stage(kb_ref, cfg).index
        labels = batch[label_col].to_pylist()
        hits = index.search_batch([(label or "").lower() for label in labels])
        return _rows_table(
            [(label, eid, score, rank)
             for label, found in zip(labels, hits)
             for rank, (eid, score) in enumerate(found, 1)],
            _LOOKUP_SCHEMA,
        )

    return labels_ds.map_batches(run, batch_format="pyarrow")


def annotate_single(raw_table: list[list[str]], stage) -> dict | None:
    """One generic table → the reference-shaped CEA/CTA/CPA dict
    (table_annotation.py:22-148), shared by the Dataset stage below and
    the serving endpoint (jobs/serve_api.py).  ``stage`` is an
    AnnotateBucket, or a view with its ``_type_cell``, ``kbr`` and
    ``annotator``.  Returns None for tables that preprocessing filters
    away.

    The preprocessing steps are read from the module at call time, so a
    wrapper installed there (a tracer) sees every call."""
    # the reference's annotation flow runs preprocessing first
    # (annotation_models.py:80-93): clean → orientation (transpose
    # if VERTICAL) → header → first_data_row
    table = pp.table_filtering(raw_table)
    if len(table) <= 1:
        return None
    # the sample's typings are the full table's, looked up by cell
    typings, datatypes = pp.parse_table(table, stage._type_cell)
    sample = pp.subsample_rows(table)
    whole = sample is table
    orientation = pp.detect_orientation(sample, datatypes, typings)
    if orientation.orientation == "VERTICAL":
        table = pp.transpose(table)
        sample = table if whole else pp.transpose(sample)
    header = pp.detect_header(sample, orientation.score, typings)
    first_data_row = 1 if header.has_header else 0
    # the header's column typing covers the rows below the first: the
    # annotator's data rows, when the sample is the whole table and its
    # first row is the header
    result = stage.annotator.annotate(
        table, typings, datatypes, first_data_row=first_data_row,
        primitive_typing=header.column_typing if whole and first_data_row == 1 else None,
    )
    return annotation_payload(result, stage.kbr)


def annotation_payload(result, kbr) -> dict:
    """An :class:`~..stages.annotator.AnnotationResult` → the reference's
    CEA/CTA/CPA payload, entity ids as labels and prefixed URIs."""
    cea = [
        {
            "row": r,
            "column": c,
            "annotation": {
                "label": kbr.get_label_of_entity(eid),
                "uri": kbr.prefixing_entity(eid),
                "score": round(score, 2),
            },
        }
        for (r, c), (eid, score) in sorted(result.cea.items())
    ]
    cta = [
        {
            "column": col,
            "annotation": [
                {
                    "label": kbr.get_label_of_entity(t),
                    "uri": kbr.prefixing_entity(t),
                    "score": round(s, 2),
                    "coverage": round(cov, 2),
                }
                for t, s, cov in annots
            ],
        }
        for col, annots in sorted(result.cta.items())
    ]
    cpa = []
    for (h, t), annots in sorted(result.cpa.items()):
        rel_id = annots[0][0]
        components = set(
            rel_id.replace("(-)", "").replace("(", "").replace(")", "").split("::")
        )
        uri, label = rel_id, rel_id
        for comp in components:
            if kbr.is_valid_id(comp):
                uri = uri.replace(comp, kbr.prefixing_entity(comp))
                label = label.replace(comp, kbr.get_label_of_entity(comp))
        cpa.append(
            {
                "headColumn": h,
                "tailColumn": t,
                "annotation": {
                    "label": label,
                    "uri": uri,
                    "score": round(annots[0][1], 2),
                    "coverage": round(annots[0][2], 2),
                },
            }
        )
    return {
        "CEA": cea,
        "CTA": cta,
        "CPA": cpa,
        "avgLookupCandidate": result.avg_lookup_candidates,
    }


def annotate_tables(
    tables_ds: rd.Dataset,
    kb_ref,
    cfg: PipelineConfig = DEFAULT_CONFIG,
) -> rd.Dataset:
    """The full ``table_annotation`` (table_annotation.py:22-148) over a
    Dataset of generic tables → one row per table with CEA/CTA/CPA JSON
    (entity URIs + labels, reference output shape)."""

    def run(batch: pa.Table) -> pa.Table:
        from ..stages.annotate_stage import get_annotate_stage

        # the flagship's per-worker stage: one label index and cell typer
        # per (KB, config) in a worker that runs both pipelines
        stage = get_annotate_stage(kb_ref, cfg)
        ids, payloads = [], []
        for tid, raw_table in _group_tables(batch).items():
            payload = annotate_single(raw_table, stage)
            if payload is None:
                continue
            ids.append(tid)
            payloads.append(json.dumps(payload))
        return pa.table(
            {"table_id": pa.array(ids, pa.string()), "annotated": pa.array(payloads, pa.string())}
        )

    return _map_table_buckets(tables_ds, run)
