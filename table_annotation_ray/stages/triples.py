"""Stage 4 — triple emission, canonicalization, dedup, partitioned sink.

The reference stops at per-table CEA/CTA/CPA JSON
(`annotation/table_annotation.py:114-143`); the triple materialization
is ours (north_rule): annotations → (subj, pred, obj) →
exact dedup inside the hash(subj) sink exchange → partitioned adjacency Parquet
with per-partition commit manifests (resume support).

Emission rules (mirrored by synth goldens):
  * CPA: for each column pair, the TOP annotation only (the reference
    output also exposes only ``cpa[0]``, table_annotation.py:133-143);
    per row, subj = CEA(head), obj = CEA(tail) URI for entity tails or
    the cleaned cell text for literal tails.  ``(-)P`` predicates emit
    reversed (obj, P, subj); composite ``a::b`` paths are recorded in
    the CPA dataset but are NOT materialized as triples (a 2-hop path
    is not a KG edge).
  * CTA: (entity URI, P31 URI, top type URI) for every resolved cell of
    the column.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data as rd

from .annotator import AnnotationResult
from .sinks import str_partitions, write_partitioned

_PREFIX_E = "http://www.wikidata.org/entity/"
_PREFIX_P = "http://www.wikidata.org/prop/direct/"

_KEY = ["subj", "pred", "obj"]
# deduplicated triple schema (column order = the dedup output)
_TRIPLE_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("score", pa.float64()),
        ("conv_id", pa.string()),
    ]
)


def conversation_outputs_to_rows(
    conv_id: str,
    result: AnnotationResult,
    cells: dict[tuple[int, int], str],
) -> list[tuple[str, str, str, str, float]]:
    """Annotation result of one conversation → deduplicated triple rows."""
    seen: dict[tuple[str, str, str], float] = {}

    def emit(subj: str, pred: str, obj: str, score: float):
        key = (subj, pred, obj)
        prev = seen.get(key)
        if prev is None or score > prev:
            seen[key] = score

    entity_col_set = set(result.entity_cols)
    # one pass over cea builds the col -> rows index; rescanning the
    # full cea dict per CPA pair / CTA column was O(pairs x |cea|) in
    # the flagship's hottest loop (code-review r4)
    rows_by_col: dict[int, list[int]] = {}
    for (r, c) in result.cea:
        rows_by_col.setdefault(c, []).append(r)
    for (head_col, tail_col), cpas in result.cpa.items():
        pid, score, _cov = cpas[0]
        if "::" in pid:
            continue
        tail_is_entity = tail_col in entity_col_set
        reverse = pid.startswith("(-)")
        bare = pid[3:] if reverse else pid
        rows = rows_by_col.get(head_col, ())
        for row in rows:
            head = result.cea.get((row, head_col))
            if head is None:
                continue
            subj = _PREFIX_E + head[0]
            if tail_is_entity:
                tail = result.cea.get((row, tail_col))
                if tail is None:
                    continue
                obj = _PREFIX_E + tail[0]
            else:
                obj = cells.get((row, tail_col), "")
                if not obj:
                    continue
            if reverse:
                if not tail_is_entity:
                    continue
                emit(obj, _PREFIX_P + bare, subj, score)
            else:
                emit(subj, _PREFIX_P + bare, obj, score)

    for col, ctas in result.cta.items():
        type_id, score, _cov = ctas[0]
        for row in rows_by_col.get(col, ()):
            eid, _s = result.cea[(row, col)]
            emit(_PREFIX_E + eid, _PREFIX_P + "P31", _PREFIX_E + type_id, score)

    return [(s, p, o, conv_id, sc) for (s, p, o), sc in sorted(seen.items())]


# ---------------------------------------------------------------------------
# global canonicalization + partitioned sink
# ---------------------------------------------------------------------------

def dedup_triples(ds: rd.Dataset, num_partitions: int = 16) -> rd.Dataset:
    """Exact global dedup on (subj, pred, obj), keeping the max score and
    the lexicographically-first emitting conv_id.

    The dedup shares the sink's exchange: every copy of a triple has the
    same subj, so it lands in the same ``crc32(subj) % num_partitions``
    sink partition and deduplicating within a partition is exact.  Two
    steps: a map-side Arrow combine per block (fused into the producing
    task) that tags rows with their sink partition, then one sort on
    ``part`` with fixed boundaries — exactly one sink partition per
    output block — and the same Arrow reduce per partition.  Pass the
    sink's partition count; a different count costs extra sink files,
    never correctness (the sink recomputes ``part`` per row)."""

    def combine(batch: pa.Table) -> pa.Table:
        t = _reduce(batch)
        parts = str_partitions(t["subj"], num_partitions, "subj")
        return t.append_column("part", pa.array(parts, pa.int32()))

    def finalize(part: pa.Table) -> pa.Table:
        return _reduce(part).sort_by([(k, "ascending") for k in _KEY])

    return (
        ds.map_batches(combine, batch_format="pyarrow", batch_size=None)
        .sort("part", boundaries=list(range(1, num_partitions)))
        .map_batches(finalize, batch_format="pyarrow", batch_size=None)
    )


def _reduce(batch: pa.Table) -> pa.Table:
    """(Max score, Min conv_id) per triple — associative, so it serves as
    both the map-side partial and the final reduce.  Output always has
    ``_TRIPLE_SCHEMA``: an empty pandas block's object columns reach
    Arrow as type NULL, and null-typed blocks do not unify in the
    exchange."""
    if batch.num_rows == 0:
        return _TRIPLE_SCHEMA.empty_table()
    t = batch.select(_TRIPLE_SCHEMA.names).cast(_TRIPLE_SCHEMA)
    out = t.group_by(_KEY, use_threads=False).aggregate(
        [("score", "max"), ("conv_id", "min")]
    )
    return pa.Table.from_arrays(out.columns, schema=_TRIPLE_SCHEMA)


def write_triples_partitioned(
    ds: rd.Dataset, out_dir: str, num_partitions: int = 16,
    lineage: dict | None = None,
) -> dict:
    """Write hash(subj)-partitioned adjacency Parquet in ONE streaming
    pass with per-partition commit markers; returns the run manifest.

    Thin wrapper over the generic resumable sink (stages/sinks.py —
    layout, resume and manifest contract live THERE, once; the two
    implementations used to drift, code-review r4): partitions by
    ``crc32(subj) % num_partitions``."""
    return write_partitioned(
        ds, out_dir, key_col="subj", num_partitions=num_partitions,
        key_kind="str", lineage=lineage,
    )
