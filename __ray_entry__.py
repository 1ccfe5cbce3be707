"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG pipeline (transcripts → triples) on a
small deterministic synthetic transcript set (the testdata star schema
has no transcript table; BASELINE.json input_hint mandates the shape,
synthesized by table_annotation_ray.synth).

``queries()`` exposes the engine's operators over the driver's parquet
tables (sf_dir); SQL-expressible ones have DuckDB oracles in
``oracle_sql()`` with IDENTICAL column names; KG/model/sketch operators
are rows-only checked (documented per entry).

Ray is initialised by the driver BEFORE importing this module — nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

_ENGLISH_STOPS = "('the','and','of','to','a','in','is','it','you','that','was','for')"

# Minhash near-dup victims at sf0.01 (threshold 0.8), injected into the
# curation_funnel oracle as a literal — the one curation sub-stage with
# no SQL equivalent.  Deterministic (seeded hashes); pinned by
# tests/test_curation.py::test_curation_victim_literal_matches_pipeline,
# which recomputes the set through exact_dedup + minhash_dedup.
_CURATION_VICTIMS_SF001 = (
    "(134, 178, 185, 245, 267, 290, 293, 301, 323, 332, 374, 377, 383, "
    "387, 389, 413, 420, 446, 447, 450, 455, 457, 462, 486)"
)

# per-sf recomputed victim literals (sf0.01 pre-seeded with the pinned
# constant so the driver's oracle_sql() path never pays a recompute)
_VICTIMS_CACHE = {
    os.path.realpath("/root/testdata/sf0.01"): _CURATION_VICTIMS_SF001,
}

# MinHash near-dup component mapping at sf0.01 (threshold 0.8, raw
# documents), injected into the near_dedup_keep_best oracle as a VALUES
# literal — the one non-SQL sub-stage of that composition; the
# survivor-by-score pick itself is SQL.  Pinned by
# tests/test_dedup_keepers.py::test_near_dup_components_literal.
_NEAR_DUP_COMPONENTS_SF001 = (
    "(8, 8), (26, 26), (31, 31), (44, 44), (45, 45), (58, 58), (61, 61), "
    "(70, 70), (72, 72), (87, 87), (92, 92), (98, 98), (107, 107), "
    "(120, 120), (134, 87), (152, 152), (166, 166), (178, 152), (185, 61), "
    "(245, 8), (267, 45), (285, 285), (290, 98), (293, 58), (295, 295), "
    "(301, 285), (310, 310), (323, 166), (326, 326), (332, 120), "
    "(374, 295), (377, 72), (383, 31), (387, 107), (389, 310), (393, 393), "
    "(413, 45), (420, 393), (435, 435), (446, 44), (447, 70), (450, 92), "
    "(455, 26), (457, 326), (458, 458), (462, 458), (486, 435)"
)

_NEAR_DUP_COMPONENTS_CACHE = {
    os.path.realpath("/root/testdata/sf0.01"): _NEAR_DUP_COMPONENTS_SF001,
}


# table_preprocess / table_annotate rows at sf0.01, injected into their
# oracles as VALUES literals: the generic-table heuristics have no SQL
# form, so the oracle is the same tables preprocessed / annotated in
# process, without Ray.  Pinned by
# tests/test_sources_and_tables.py::test_table_oracle_literals_match_in_process,
# which recomputes both.
_TABLE_LITERALS_SF001 = {
    "table_preprocess": "('nation', 'HORIZONTAL', true), ('region', 'HORIZONTAL', true)",
    "table_annotate": "('cities', 32, 2, 4), ('films', 12, 2, 3), ('mayors', 24, 3, 4)",
}
_TABLE_LITERAL_CACHE: "dict[tuple[str, str], str]" = {}


def _sql_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return str(v)


def table_rows_in_process(name: str, sf_dir: str) -> "list[tuple]":
    """The rows of the ``table_preprocess`` or ``table_annotate`` query at
    ``sf_dir``, computed in this process through ``preprocess_table`` /
    ``annotate_single`` on the query's tables and KB (no Ray)."""
    from table_annotation_ray.state.kb import KBReader, load_kb

    kb = load_kb(os.path.join(_synth_root_for(sf_dir), "kb"))
    if name == "table_preprocess":
        from table_annotation_ray.stages.preprocess import CellTyper, preprocess_table

        typer = CellTyper(KBReader(kb).build_gazetteer())
        return [
            (tid, *_preprocess_summary(preprocess_table(table, typer)["preprocessed"]))
            for tid, table in _nation_region_tables(sf_dir).items()
        ]
    from table_annotation_ray.config import DEFAULT_CONFIG
    from table_annotation_ray.pipelines.table_pipeline import annotate_single
    from table_annotation_ray.stages.annotate_stage import AnnotateBucket

    stage = AnnotateBucket(kb, DEFAULT_CONFIG)
    payloads = {tid: annotate_single(table, stage) for tid, table in _template_tables().items()}
    return [(tid, *_annotate_summary(p)) for tid, p in payloads.items() if p is not None]


def values_literal(rows: "list[tuple]") -> str:
    """SQL VALUES body of ``rows`` (strings, ints and bools)."""
    return ", ".join("(" + ", ".join(map(_sql_value, row)) + ")" for row in rows)


def table_literal(name: str, sf_dir: str) -> str:
    """SQL VALUES body of :func:`table_rows_in_process`, cached per
    query and directory; at sf0.01 the pinned constant, so a change to
    the table code fails the gate there instead of moving the oracle."""
    if _sf_of(sf_dir) == 0.01:
        return _TABLE_LITERALS_SF001[name]
    key = (name, os.path.realpath(sf_dir))
    lit = _TABLE_LITERAL_CACHE.get(key)
    if lit is None:
        lit = _TABLE_LITERAL_CACHE[key] = values_literal(table_rows_in_process(name, sf_dir))
    return lit


def near_dup_components_literal(sf_dir: str) -> str:
    """SQL VALUES body of the minhash near-dup (doc_id, component)
    mapping at ``sf_dir`` (threshold 0.8 over raw documents), recomputed
    through :func:`minhash_dedup` and cached per directory — keeps the
    ``near_dedup_keep_best`` oracle scale-parametric (the
    curation-victims pattern).  Requires an initialized Ray session."""
    key = os.path.realpath(sf_dir)
    lit = _NEAR_DUP_COMPONENTS_CACHE.get(key)
    if lit is None:
        import ray.data as rd

        from table_annotation_ray.stages.dedup import minhash_dedup

        docs = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        comps = minhash_dedup(docs, threshold=0.8).to_pandas().sort_values("doc_id")
        lit = (
            ", ".join(
                f"({int(r.doc_id)}, {int(r.component)})" for r in comps.itertuples()
            )
            or "(-1, -1)"
        )
        _NEAR_DUP_COMPONENTS_CACHE[key] = lit
    return lit


def curation_victims_literal(sf_dir: str) -> str:
    """SQL IN-list of the minhash near-dup victims at ``sf_dir``,
    recomputed through the actual pipeline stages (exact_dedup →
    minhash_dedup, threshold 0.8) and cached per directory — makes the
    ``curation_funnel`` oracle scale-parametric instead of sf0.01-pinned
    (VERDICT r4 #4).  Requires an initialized Ray session (callers are
    check_oracles / tests, both of which own one)."""
    key = os.path.realpath(sf_dir)
    lit = _VICTIMS_CACHE.get(key)
    if lit is None:
        import ray.data as rd

        from table_annotation_ray.stages.dedup import exact_dedup, minhash_dedup

        docs = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        survivors = exact_dedup(docs, keep_text=True).materialize()
        comps = minhash_dedup(survivors, threshold=0.8)
        victims = sorted(
            int(x)
            for x in comps.filter(expr="doc_id != component")
            .select_columns(["doc_id"])
            .to_pandas()["doc_id"]
        )
        lit = "(" + ", ".join(map(str, victims)) + ")" if victims else "(-1)"
        _VICTIMS_CACHE[key] = lit
    return lit


def oracle_sql_at(sf_dir: str) -> "dict[str, str]":
    """:func:`oracle_sql` with scale-dependent literals recomputed for
    ``sf_dir`` — the full sweep passes at any sf, not just the driver's
    sf0.01."""
    sqls = oracle_sql()
    sqls["curation_funnel"] = sqls["curation_funnel"].replace(
        _CURATION_VICTIMS_SF001, curation_victims_literal(sf_dir)
    )
    sqls["near_dedup_keep_best"] = sqls["near_dedup_keep_best"].replace(
        _NEAR_DUP_COMPONENTS_SF001, near_dup_components_literal(sf_dir)
    )
    for name, lit in _TABLE_LITERALS_SF001.items():
        sqls[name] = sqls[name].replace(lit, table_literal(name, sf_dir))
    return sqls


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _round_ha(s: pd.Series, d: int) -> pd.Series:
    """Round-half-away-from-zero to match DuckDB/SQL ROUND (pandas/numpy
    round is half-even)."""
    f = 10.0**d
    return np.sign(s) * np.floor(np.abs(s) * f + 0.5) / f


def _sf_of(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", os.path.basename(os.path.normpath(sf_dir)))
    return float(m.group(1)) if m else 0.01


def _synth_root_for(sf_dir: str) -> str:
    """Deterministic transcripts+KB sized by sf (cached under /tmp)."""
    from table_annotation_ray import synth

    n_convs = int(4000 * _sf_of(sf_dir)) + 30
    return synth.default_dataset(n_convs=n_convs, seed=42)


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


# ---------------------------------------------------------------------------
# driver entry points
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: transcripts → clean/explode → typing → annotate → triples."""
    from table_annotation_ray import synth
    from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline

    root = synth.default_dataset(n_convs=34, seed=42)
    return run_kg_pipeline(
        os.path.join(root, "transcripts.parquet"), os.path.join(root, "kb")
    )


# ---- relational / aggregate operators (engine plumbing, SQL-verified) -----

def _q_pricing_summary(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Mean, Sum

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"])

    def with_disc(b: pa.Table) -> pa.Table:
        disc = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return b.append_column("disc_price", disc)

    out = (
        ds.map_batches(with_disc, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Sum("disc_price", alias_name="sum_disc_price"),
            Mean("l_quantity", alias_name="avg_qty"),
            Count(alias_name="count_order"),
        )
        .to_pandas()
    )
    for c in ("sum_qty", "sum_base_price", "sum_disc_price", "avg_qty"):
        out[c] = _round_ha(out[c], 2)
    out["count_order"] = out["count_order"].astype("int64")
    return out


def _q_orders_by_segment(sf_dir: str):
    """Broadcast join: customer (dimension) shipped once via ray.put."""
    import ray

    from table_annotation_ray.state.worker_state import get_worker_state, ref_key

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    seg_ref = ray.put(dict(zip(cust.c_custkey, cust.c_mktsegment)))

    def attach_and_combine(b: pd.DataFrame) -> "pa.Table":
        # map-side combine: 5 segment partial rows per batch cross the
        # wire instead of every order row (and Arrow out — shuffling
        # 150k pandas rows into a 5-key builtin aggregate was 8-10 s;
        # this shape is <1 s)
        import pyarrow as pa

        seg = get_worker_state(("seg", ref_key(seg_ref)), lambda: ray.get(seg_ref))
        g = (
            pd.DataFrame(
                {
                    "c_mktsegment": b["o_custkey"].map(seg),
                    "p": b["o_totalprice"],
                }
            )
            .groupby("c_mktsegment", as_index=False)
            .agg(n_orders=("p", "size"), total_price=("p", "sum"))
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    partials = ds.map_batches(attach_and_combine, batch_format="pandas").to_pandas()
    out = (
        partials.sort_values(["c_mktsegment", "n_orders", "total_price"])
        .groupby("c_mktsegment", as_index=False)
        .agg(n_orders=("n_orders", "sum"), total_price=("total_price", "sum"))
    )
    out["total_price"] = _round_ha(out["total_price"], 2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.reset_index(drop=True)


def _q_top_parts_by_revenue(sf_dir: str):
    """20k-key revenue rollup through stages/agg.py::grouped_reduce —
    ray 2.49's builtin groupby().aggregate() is per-key Python and
    pathological at this cardinality (CLAUDE.md r3 note)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from table_annotation_ray.stages.agg import grouped_reduce

    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def rev(b: pa.Table) -> pa.Table:
        r = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return pa.table({"l_partkey": b["l_partkey"], "revenue": r})

    agg = grouped_reduce(
        ds.map_batches(rev, batch_format="pyarrow"),
        ["l_partkey"], {"revenue": ("revenue", "sum")},
    )
    top = agg.sort("revenue", descending=True).limit(10).to_pandas()
    top["revenue"] = _round_ha(top["revenue"], 2)
    return top


def _q_events_hourly(sf_dir: str):
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def hour(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "hour": b["ts"].dt.floor("h").dt.strftime("%Y-%m-%d %H:00:00"),
                "event_type": b["event_type"],
                "value": b["value"],
            }
        )

    from table_annotation_ray.stages.agg import grouped_reduce

    out = grouped_reduce(
        ds.map_batches(hour, batch_format="pandas"),
        ["hour", "event_type"],
        {"n": (None, "count"), "sum_value": ("value", "sum")},
    ).to_pandas()
    # sum of 2-decimal values rounded at 2dp can never sit on a rounding
    # boundary, unlike avg — keeps the float compare exact vs the oracle
    out["sum_value"] = _round_ha(out["sum_value"], 2)
    out["n"] = out["n"].astype("int64")
    return out


def _q_sliding_window_events(sf_dir: str):
    """Sliding-window aggregate (1 h window, 15 min hop) via
    stages/windows.py: map-side hop-explode + combine, size-gated final
    merge (driver below a partial-row threshold, distributed
    groupby-Sum above — both paths pytest-identical).  SQL oracle:
    cross join with the hop offsets."""
    from table_annotation_ray.stages.windows import sliding_window_counts

    ds = _read(sf_dir, "events", ["event_type", "ts"])
    out = sliding_window_counts(ds, "ts", "event_type").to_pandas()
    out["window_start"] = pd.to_datetime(out.pop("wstart"), unit="s").dt.strftime(
        "%Y-%m-%d %H:%M:%S"
    )
    out["n"] = out["n"].astype("int64")
    return out[["window_start", "event_type", "n"]]


def _q_user_sessions(sf_dir: str):
    """Sessionization: 30-min-gap sessions per user via
    stages/windows.py::session_counts — hash(user)%64 bucket exchange +
    one vectorized in-bucket scan (a Ray group per user is the per-key
    pathology CLAUDE.md r3 measures; this was the last raw-key
    map_groups in the query file, review r4)."""
    from table_annotation_ray.stages.windows import session_counts

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    out = session_counts(ds, "user_id", "ts", pd.Timedelta(minutes=30)).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["n_sessions"] = out["n_sessions"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    return out


# ---- text / dedup / similarity operators ----------------------------------

def _q_dedup_exact(sf_dir: str):
    from table_annotation_ray.stages.dedup import exact_dedup

    out = exact_dedup(_read(sf_dir, "documents", ["doc_id", "text"])).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


def _q_token_stats(sf_dir: str):
    from table_annotation_ray.stages.textstats import token_stats

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(token_stats, batch_format="pandas")
        .to_pandas()
    )


def _q_quality_scores(sf_dir: str):
    from table_annotation_ray.stages.textstats import quality_scores

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(quality_scores, batch_format="pandas")
        .to_pandas()
    )


def _q_fingerprint(sf_dir: str):
    from table_annotation_ray.stages.textstats import fingerprint

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(fingerprint, batch_format="pandas")
        .to_pandas()
    )


def _q_quality_filter(sf_dir: str):
    """Quality-gate filter (the training-data pipeline composition:
    score → threshold → keep ids): docs with enough English stopword
    signal and sane token lengths."""
    from table_annotation_ray.stages.textstats import quality_scores

    scored = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        quality_scores, batch_format="pandas"
    )

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        mask = (b["stopword_ratio"] >= 0.05) & (b["mean_token_len"] < 8.0)
        return b.loc[mask, ["doc_id"]]

    out = scored.map_batches(keep, batch_format="pandas").to_pandas()
    if "doc_id" not in out.columns:
        out = pd.DataFrame({"doc_id": pd.Series([], dtype="int64")})
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


def _q_lang_id(sf_dir: str):
    """Heuristic language ID by stopword voting — SQL-verified: the
    strict-greater update rule equals "first language attaining the
    positive maximum", which is a CASE chain over per-language
    list_filter counts."""
    from table_annotation_ray.stages.textstats import lang_id

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(lang_id, batch_format="pandas")
        .to_pandas()
    )


def _q_ann_topk(sf_dir: str):
    from table_annotation_ray.stages.similarity import brute_force_topk

    out = brute_force_topk(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), [0, 1, 2, 3], k=5
    )
    out = out.copy()
    out["cosine"] = _round_ha(out["cosine"], 4)
    for c in ("query_id", "neighbor_id", "rank"):
        out[c] = out[c].astype("int64")
    return out


def _q_ann_lsh(sf_dir: str):
    """LSH-bucketed ANN (rows-only: approximate by design)."""
    from table_annotation_ray.stages.similarity import lsh_topk

    return lsh_topk(_read(sf_dir, "embeddings", ["vec_id", "embedding"]), [0, 1, 2, 3], k=5)


def _q_embedding_near_dup(sf_dir: str):
    """Embedding-cosine near-duplicate pairs over the corpus plus 32
    planted perturbed copies (cos ≈ 0.9988; the raw table is random
    vectors with no true near-dups, so without planting the result is
    empty and verifies nothing — VERDICT r1 #6).  ``planted`` marks the
    ground-truth pairs recovered; rows-only (LSH recall probabilistic)."""
    from table_annotation_ray.stages.similarity import (
        embedding_near_dup_pairs,
        plant_near_dups,
    )

    seeded = plant_near_dups(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), n_planted=32
    )
    out = embedding_near_dup_pairs(seeded, threshold=0.9).to_pandas()
    out = out.sort_values(["a", "b"]).reset_index(drop=True)
    out["planted"] = (out["b"] - out["a"]) == 1_000_000_000
    for c in ("a", "b"):
        out[c] = out[c].astype("int64")
    return out


def _q_ann_ivf(sf_dir: str):
    """IVF approximate top-k (coarse k-means quantizer + nprobe bucket
    search; rows-only: approximate by design, recall asserted in
    pytest against brute force)."""
    from table_annotation_ray.stages.similarity import ivf_topk

    return ivf_topk(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), [0, 1, 2, 3], k=5
    )


def _q_ann_ivfpq(sf_dir: str):
    """IVF-PQ composed approximate top-k (the FAISS-standard index):
    coarse quantizer routes to inverted lists, members stored only as
    residual PQ codes, per-(query, bucket) ADC lookup tables — the
    co-located state is m codes per vector, never raw vectors (64×
    smaller than ivf_topk's exchange at 64-dim/m=8).  Rows-only
    (approximate by design; recall measured by ann_ivfpq_recall and
    pytest-pinned)."""
    from table_annotation_ray.stages.similarity import ivfpq_topk

    return ivfpq_topk(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), [0, 1, 2, 3], k=5
    )


def _q_ann_ivfpq_recall(sf_dir: str):
    """Recall of the IVF-PQ index vs exact brute force (every
    approximate index ships with its measurement)."""
    from table_annotation_ray.stages.similarity import ivfpq_recall

    return ivfpq_recall(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        [0, 1, 2, 3], k=5, nprobe=8,
    )


def _q_mmr_rerank(sf_dir: str):
    """Maximal Marginal Relevance diverse top-k (stages/similarity.py::
    mmr_topk): exact top-pool candidates from the distributed brute
    force, greedy relevance-vs-redundancy selection on the
    driver-bounded pool.  Rows-only (greedy selection has no SQL
    equivalent); diversity property pytest-pinned."""
    from table_annotation_ray.stages.similarity import mmr_topk

    return mmr_topk(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        [0, 1, 2, 3], k=5, pool=25, lam=0.7,
    )


def _q_ann_pq(sf_dir: str):
    """Product-quantization ADC top-k (Jégou et al. 2011): sample-trained
    per-subspace codebooks, per-query inner-product LUT broadcast, corpus
    scored by m table lookups instead of d-dim dot products, ADC
    shortlist exact-reranked per batch — the compressed-index ANN scale
    path beside IVF/LSH.  Rows-only (approximate by design; m=1
    exactness and measured rerank recall are pytest-pinned)."""
    from table_annotation_ray.stages.similarity import pq_topk

    return pq_topk(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), [0, 1, 2, 3], k=5
    )


def _q_ann_pq_recall(sf_dir: str):
    """Measured recall of the PQ/ADC index vs exact brute force
    (rows-only: the number is the point)."""
    from table_annotation_ray.stages.similarity import pq_recall

    return pq_recall(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), [0, 1, 2, 3], k=5
    )


def _q_ann_lsh_recall(sf_dir: str):
    """Measured recall of the LSH index vs the exact brute-force top-k
    (rows-only: the number is the point)."""
    from table_annotation_ray.stages.similarity import lsh_recall

    return lsh_recall(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), [0, 1, 2, 3], k=5
    )


def _q_pii_scrub(sf_dir: str):
    """PII redaction (emails → <EMAIL>, IPv4 → <IP>, phone runs →
    <PHONE>) with per-kind counts; RE2-safe regexes shared verbatim with
    the SQL oracle."""
    from table_annotation_ray.stages.datapipe import pii_scrub

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(pii_scrub, batch_format="pandas")
        .to_pandas()
    )


def _q_hash_sample(sf_dir: str):
    """Deterministic 20% corpus sample by multiplicative id hash (the
    stratified mixing primitive; pure int arithmetic = SQL-identical)."""
    from table_annotation_ray.stages.datapipe import hash_sample

    out = (
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(hash_sample, batch_format="pandas")
        .to_pandas()
    )
    if "doc_id" not in out.columns:
        out = pd.DataFrame({"doc_id": pd.Series([], dtype="int64")})
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


def _q_dataset_split(sf_dir: str):
    """Deterministic train/val/test assignment (90/5/5 by the same
    multiplicative id hash as hash_sample) — the corpus-split primitive;
    reproducible run-to-run and in SQL."""
    from table_annotation_ray.stages.datapipe import id_hash_bucket

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        h = id_hash_bucket(b["doc_id"])
        split = np.where(h < 90, "train", np.where(h < 95, "val", "test"))
        return pd.DataFrame({"doc_id": b["doc_id"], "split": split})

    out = (
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(assign, batch_format="pandas")
        .to_pandas()
    )
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


_STRATA_RATES = {"en": 80, "fr": 40, "de": 30, "es": 20, "zh": 10}


def _q_stratified_sample(sf_dir: str):
    """Per-language deterministic corpus-mixing sample (en 80% … zh 10%)
    by the same multiplicative id hash as hash_sample — SQL-identical
    via a CASE over the hash expression."""
    from table_annotation_ray.stages.datapipe import stratified_sample

    out = (
        _read(sf_dir, "documents", ["doc_id", "lang", "source"])
        .map_batches(
            stratified_sample,
            batch_format="pandas",
            fn_kwargs={"rates": _STRATA_RATES},
        )
        .to_pandas()
    )
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.reset_index(drop=True)


def _q_shuffle_order(sf_dir: str):
    """Deterministic global training-shuffle rank (order by hash(id),
    id) — distributed prefix-sum over order-aligned hash buckets, no
    global sort barrier; SQL mirror is row_number() OVER (ORDER BY
    hash, id) - 1."""
    from table_annotation_ray.stages.datapipe import shuffle_order

    out = shuffle_order(_read(sf_dir, "documents", ["doc_id"])).to_pandas()
    return out.astype({"doc_id": "int64", "position": "int64"})


def _q_vocab_topk(sf_dir: str):
    """Corpus vocabulary: top-100 tokens by frequency (ties by token) —
    per-batch combiner → groupby sum → vocabulary-cardinality sort."""
    from table_annotation_ray.stages.textstats import vocab_topk

    out = vocab_topk(_read(sf_dir, "documents", ["doc_id", "text"]), k=100).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: corpus docs sharing any word-13-gram
    with the benchmark slice (docs whose id hash bucket < 5) — the
    GPT-3-style test-set-overlap rule; broadcast gram-set path."""
    from table_annotation_ray.stages.datapipe import id_hash_bucket
    from table_annotation_ray.stages.decontam import decontaminate

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    bench = docs.map_batches(
        lambda b: b[id_hash_bucket(b["doc_id"]) < 5], batch_format="pandas"
    )
    out = decontaminate(docs, bench, n=13).to_pandas()
    return (
        out.astype({"doc_id": "int64", "n_hits": "int64"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_decontaminate_dist(sf_dir: str):
    """Decontamination FORCED through the co-location groupby path
    (broadcast_below=0) so the distributed variant — the one a huge
    benchmark would take — is the one the SQL oracle hash-verifies."""
    from table_annotation_ray.stages.datapipe import id_hash_bucket
    from table_annotation_ray.stages.decontam import decontaminate

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    bench = docs.map_batches(
        lambda b: b[id_hash_bucket(b["doc_id"]) < 5], batch_format="pandas"
    )
    out = decontaminate(docs, bench, n=13, broadcast_below=0).to_pandas()
    return (
        out.astype({"doc_id": "int64", "n_hits": "int64"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_curation_funnel(sf_dir: str):
    """End-to-end curation pipeline (exact dedup → minhash near-dup
    removal → quality/lang gate → PII scrub → pack → partitioned sink)
    over the documents table; returns the curated docs' provenance
    columns.  SQL-verified: every deterministic sub-stage (exact dedup,
    quality/lang gate, PII counts) is mirrored in the oracle; only the
    minhash victim set has no SQL equivalent, so it is injected into
    the oracle as a literal (``_CURATION_VICTIMS_SF001``) — the list is
    itself pinned by pytest, which recomputes it through the pipeline
    at sf0.01 (tests/test_curation.py)."""
    import shutil
    import tempfile

    import ray.data as rd

    from table_annotation_ray.pipelines.curation_pipeline import run_curation_pipeline

    out_dir = tempfile.mkdtemp(prefix="ta_ray_curation_")
    try:
        run_curation_pipeline(
            os.path.join(sf_dir, "documents.parquet"),
            out_dir,
            minhash_threshold=0.8,
            num_partitions=4,
        )
        curated = rd.read_parquet(os.path.join(out_dir, "docs")).to_pandas()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return (
        curated[["doc_id", "pred_lang", "n_email", "n_ip", "n_phone"]]
        .astype({"doc_id": "int64"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_sample_per_lang(sf_dir: str):
    """Per-group fixed-k uniform sampling (stages/datapipe.py::
    grouped_uniform_sample): the 20 lowest-hash docs per language —
    per-group bottom-k-of-hash through the grouped_topk combiner shape
    (≤k rows per (group, batch) survive the exchange).  SQL mirror:
    row_number() over (partition by lang order by hash, id) <= k."""
    from table_annotation_ray.stages.datapipe import grouped_uniform_sample

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    out = grouped_uniform_sample(docs, ["lang"], "doc_id", k=20).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values(["lang", "doc_id"]).reset_index(drop=True)


def _q_split_leakage_safe(sf_dir: str):
    """Leakage-safe train/val/test split (stages/dedup.py::
    leakage_safe_split): duplicates are injected as re-keyed (+2000)
    exact copies of docs 0-99 — each copy must inherit its ORIGINAL's
    split (rep-id hash), never its own doc-id hash, so no duplicate
    cluster straddles train and test.  SQL hash-exact."""
    import pyarrow as pa

    from table_annotation_ray.stages.dedup import leakage_safe_split

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def rekey(b: pd.DataFrame) -> "pa.Table":
        out = b[b["doc_id"] < 100].copy()
        out["doc_id"] = out["doc_id"] + 2000
        return pa.Table.from_pandas(out, preserve_index=False)

    both = docs.union(docs.map_batches(rekey, batch_format="pandas"))
    out = leakage_safe_split(both).to_pandas()
    for c in ("doc_id", "rep_id"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_inverted_postings(sf_dir: str):
    """Sharded inverted-index construction (stages/retrieval.py::
    inverted_postings): (term, doc_id, tf, df) posting rows co-located
    by term hash — per-(term, doc) tf is final map-side (a doc never
    splits across batches), so the single exchange only attaches df.
    SQL hash-exact via the token-explode + two-level GROUP BY."""
    from table_annotation_ray.stages.retrieval import inverted_postings

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = inverted_postings(docs).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values(["term", "doc_id"]).reset_index(drop=True)


def _q_dedup_keep_best(sf_dir: str):
    """Quality-keeper exact dedup (stages/dedup.py::exact_dedup_keep_best):
    one survivor per normalized-text cluster chosen by SCORE (raw char
    length here — 'keep the longest'), not min id.  Duplicates are
    injected as re-keyed (+2000) copies of docs 0-49 padded with
    trailing spaces: normalization collapses the padding (same cluster)
    but the raw length differs, so the COPY must win — distinguishing
    keeper-by-score from keeper-by-min-id.  SQL hash-exact."""
    import pyarrow as pa

    from table_annotation_ray.stages.dedup import exact_dedup_keep_best

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def rekey(b: pd.DataFrame) -> "pa.Table":
        out = b[b["doc_id"] < 50].copy()
        out["doc_id"] = out["doc_id"] + 2000
        out["text"] = out["text"] + "  "
        return pa.Table.from_pandas(out, preserve_index=False)

    def score(b: pd.DataFrame) -> "pa.Table":
        out = b.assign(score=b["text"].fillna("").str.len().astype("int64"))
        return pa.Table.from_pandas(out, preserve_index=False)

    # both union branches emit Arrow blocks (mixed-block unions break
    # downstream batchers — CLAUDE.md r3)
    both = docs.union(docs.map_batches(rekey, batch_format="pandas")).map_batches(
        score, batch_format="pandas"
    )
    out = exact_dedup_keep_best(both, "score").to_pandas()
    for c in ("doc_id", "score"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_users_all_event_types(sf_dir: str):
    """Relational DIVISION: users who performed EVERY event type in the
    table (events ÷ types).  Composition: distinct_count_by_key
    (stages/agg.py — pair-dedup exchange + count) filtered against the
    global distinct-type count (a 5-row driver-side unique on a
    pre-shrunk projection).  SQL hash-exact (HAVING count(DISTINCT) =
    scalar subquery)."""
    from table_annotation_ray.stages.agg import distinct_count_by_key

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    n_types = len(
        ev.map_batches(
            lambda b: b.select(["event_type"]).combine_chunks().group_by(
                ["event_type"]
            ).aggregate([]),
            batch_format="pyarrow",
        ).unique("event_type")
    )
    per_user = distinct_count_by_key(ev, ["user_id"], "event_type")
    out = (
        per_user.filter(expr=f"n_distinct == {n_types}")
        .to_pandas()[["user_id"]]
        .astype({"user_id": "int64"})
    )
    return out.sort_values("user_id").reset_index(drop=True)


def _q_user_top_event_type(sf_dir: str):
    """Per-key MODE (stages/agg.py::mode_by_key): each user's most
    frequent event type (ties → lexicographically smallest type).
    Two (key, value, n)-partial exchanges, never raw events.  SQL
    hash-exact (counts + row_number window)."""
    from table_annotation_ray.stages.agg import mode_by_key

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    out = mode_by_key(ev, "user_id", "event_type").to_pandas()
    out = out.rename(columns={"event_type": "mode"})
    for c in ("user_id", "n"):
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_line_dedup(sf_dir: str):
    """CCNet-style cross-corpus line dedup (stages/dedup.py::
    line_dedup): 5-line documents built from consecutive documents rows
    (line i of doc g = documents row g*5+i), with boilerplate planted —
    rows with doc_id % 5 == 0 become 'COOKIE BANNER', % 5 == 4 become
    'footer: subscribe now' — then every line whose normalized form
    occurs ≥2 times corpus-wide is removed from all docs (the planted
    header/footer vanish everywhere, the unique middles survive).
    SQL hash-exact (count + anti-join + ordered string_agg)."""
    from table_annotation_ray.stages.dedup import line_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def tag(b: pd.DataFrame) -> pa.Table:
        ids = b["doc_id"].to_numpy(dtype=np.int64)
        txt = b["text"].fillna("").to_numpy(dtype=object)
        txt = np.where(ids % 5 == 0, "COOKIE BANNER", txt)
        txt = np.where(ids % 5 == 4, "footer: subscribe now", txt)
        return pa.table(
            {
                "gdoc": pa.array(ids // 5, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(txt.astype(object), pa.string()),
            }
        )

    def build(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("doc_id", kind="mergesort")
        out = g.groupby("gdoc", sort=True)["text"].agg("\n".join).reset_index()
        return pa.table(
            {
                "doc_id": pa.array(out["gdoc"].to_numpy(dtype=np.int64), pa.int64()),
                "text": pa.array(out["text"].to_numpy(dtype=object), pa.string()),
            }
        )

    grouped = (
        docs.map_batches(tag, batch_format="pandas").groupby("gdoc").map_groups(
            build, batch_format="pandas"
        )
    )
    out = line_dedup(grouped, min_count=2).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_embedding_decontam(sf_dir: str):
    """Embedding-space decontamination (stages/decontam.py::
    embedding_decontam): corpus vectors within cosine ≥ 0.99 of any
    benchmark vector are flagged.  Bench = vec_id % 20 == 0; corpus =
    the rest PLUS re-keyed (+10000) copies of the bench — the planted
    contamination the flag must catch (cosine exactly 1.0).  Map-only
    (benchmark matrix broadcast once); SQL hash-exact via DuckDB
    list_cosine_similarity over double-cast lists, both sides rounding
    half-away to 6 dp BEFORE the threshold compare."""
    from table_annotation_ray.stages.decontam import embedding_decontam

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def split(keep_bench: bool):
        def f(b: pa.Table) -> pa.Table:
            m = (b["vec_id"].to_numpy() % 20) == 0
            return b.filter(pa.array(m if keep_bench else ~m))

        return f

    def rekey(b: pa.Table) -> pa.Table:
        m = (b["vec_id"].to_numpy() % 20) == 0
        kept = b.filter(pa.array(m))
        return pa.table(
            {
                "vec_id": pa.array(
                    kept["vec_id"].to_numpy() + 10000, pa.int64()
                ),
                "embedding": kept["embedding"],
            }
        )

    bench = emb.map_batches(split(True), batch_format="pyarrow")
    corpus = emb.map_batches(split(False), batch_format="pyarrow").union(
        emb.map_batches(rekey, batch_format="pyarrow")
    )
    out = embedding_decontam(corpus, bench, threshold=0.99).to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    out["n_hits"] = out["n_hits"].astype("int64")
    out["max_sim"] = _round_ha(out["max_sim"], 6)
    return out.sort_values("vec_id").reset_index(drop=True)


def _q_dsir_select(sf_dir: str):
    """DSIR data selection (stages/dsir.py — Xie et al. 2023): hashed
    unigram+bigram count vectors on raw vs target corpora (bounded-dim
    grouped_reduce), broadcast log-ratio scoring (map-only), Gumbel
    top-k resample.  Target = docs with doc_id % 10 == 0; raw = the
    rest; k = 100.  Rows-only (feature hashing has no SQL equivalent);
    planted-target recovery + determinism are pytest-pinned."""
    from table_annotation_ray.stages.dsir import dsir_sample

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def split(keep_target: bool):
        def f(b: pa.Table) -> pa.Table:
            is_tgt = (b["doc_id"].to_numpy() % 10) == 0
            return b.filter(pa.array(is_tgt if keep_target else ~is_tgt))

        return f

    raw = docs.map_batches(split(False), batch_format="pyarrow").materialize()
    tgt = docs.map_batches(split(True), batch_format="pyarrow")
    out = dsir_sample(raw, tgt, k=100).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["logw"] = _round_ha(out["logw"], 6)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_event_transitions(sf_dir: str):
    """Clickstream Markov transition matrix (stages/windows.py::
    transition_counts): per-user consecutive event-type pairs ordered
    by (ts, event_id), counted — SQL LEAD OVER (PARTITION BY user)
    + GROUP BY.  One hash(user)-bucket exchange (lag_by_key) + a tiny
    pair-cardinality merge of block-local partial counts."""
    from table_annotation_ray.stages.windows import transition_counts

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    out = transition_counts(ev, "user_id", ["ts", "event_id"], "event_type").to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["from_type", "to_type"]).reset_index(drop=True)


def _q_near_dedup_keep_best(sf_dir: str):
    """Quality-keeper NEAR dedup (stages/dedup.py::near_dedup_keep_best):
    MinHash clusters (threshold 0.8) → one survivor per cluster by raw
    char length ('keep the longest'), ties → min id.  SQL hash-exact
    via the pinned component-mapping literal (curation-victims pattern:
    the minhash stage enters the oracle as a VALUES literal pinned by
    pytest; the survivor pick itself is SQL)."""
    from table_annotation_ray.stages.dedup import near_dedup_keep_best

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: pa.Table.from_pandas(
            b.assign(score=b["text"].fillna("").str.len().astype("int64")),
            preserve_index=False,
        ),
        batch_format="pandas",
    )
    out = near_dedup_keep_best(docs, "score", threshold=0.8).to_pandas()
    for c in ("component", "doc_id", "score", "n_members"):
        out[c] = out[c].astype("int64")
    return out.sort_values("component").reset_index(drop=True)


def _q_token_shards(sf_dir: str):
    """Balanced training-shard assignment (stages/datapipe.py::
    shard_by_token_budget): docs in id order cut into 8 contiguous
    shards of ~equal token budget by floor-dividing each doc's global
    start offset.  Rides the pack_documents distributed prefix sum;
    SQL hash-exact (window running sum + identical integer division)."""
    from table_annotation_ray.stages.datapipe import shard_by_token_budget

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = shard_by_token_budget(docs, n_shards=8).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_lang_temperature_sample(sf_dir: str):
    """Temperature-balanced corpus sampling (stages/datapipe.py::
    temperature_sample, alpha=0.5): per-language quotas ∝ sqrt(n_lang)
    flatten the language mix toward uniform (the multilingual-LM
    sampling rule), each quota filled by the lang's lowest-hash docs.
    SQL hash-exact — at alpha=0.5 the quota math is pure integer
    arithmetic (floor(sqrt(n)) weights, floor division), and selection
    is the established row_number-over-hash window."""
    from table_annotation_ray.stages.datapipe import temperature_sample

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    out = temperature_sample(docs, total_k=120, alpha=0.5).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values(["lang", "doc_id"]).reset_index(drop=True)


def _q_incremental_exact_dedup(sf_dir: str):
    """Incremental EXACT dedup (stages/dedup.py::cross_corpus_exact_dups
    — the exact twin of the minhash incremental path): an incoming
    batch (docs 0-99 re-keyed +1000, i.e. re-ingested copies — the sf
    corpus itself has zero exact dups, curation funnel manifest) paired
    against the base corpus; every pair is (id+1000, base min-id rep).
    One digest-bucket co-location; base×base never materializes.
    SQL-verified via the normalization-expression join."""
    from table_annotation_ray.stages.dedup import cross_corpus_exact_dups

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def rekey(b: pd.DataFrame) -> pd.DataFrame:
        out = b[b["doc_id"] < 100].copy()
        out["doc_id"] = out["doc_id"] + 1000
        return out

    new = docs.map_batches(rekey, batch_format="pandas")
    out = cross_corpus_exact_dups(new, docs).to_pandas()
    for c in ("new_id", "base_id"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["new_id", "base_id"]).reset_index(drop=True)


def _q_user_counts_cms(sf_dir: str):
    """Count-Min point counts (stages/sketches.py::cms_point_counts):
    per-batch CM partials over events.user_id, tree-reduced elementwise,
    queried for a fixed id list.  Rows-only: the sketch may legally
    overestimate (never under; ≤ (e/width)·N whp — pytest pins both
    bounds and merge-exactness)."""
    from table_annotation_ray.stages.sketches import cms_point_counts

    ev = _read(sf_dir, "events", ["user_id"])
    out = cms_point_counts(ev, "user_id", queries=list(range(1, 41)), width=16384)
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_repetition_stats(sf_dir: str):
    from table_annotation_ray.stages.datapipe import repetition_stats

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(repetition_stats, batch_format="pandas")
        .to_pandas()
    )


def _q_char_entropy(sf_dir: str):
    """Character-entropy quality proxy.  SQL-verified: the oracle
    explodes chars positionally (the ngram-oracle trick) and computes
    -Σ (c/n)·log2(c/n) per doc; both sides are float64 rounded at 6dp —
    identical at sf0.01 AND sf0.1 (verified; log values land nowhere
    near a 5e-7 rounding boundary for real alphabets)."""
    from table_annotation_ray.stages.datapipe import char_entropy

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(char_entropy, batch_format="pandas")
        .to_pandas()
    )


def _q_pack_documents(sf_dir: str):
    """Fixed-size sequence packing via distributed prefix sum (per-chunk
    aggregate → driver scan → broadcast offsets); SQL oracle is a window
    running sum."""
    from table_annotation_ray.stages.datapipe import pack_documents

    # collection happens HERE, at known-small sf scale — the stage
    # itself returns a Dataset (one row per doc = corpus cardinality)
    return (
        pack_documents(_read(sf_dir, "documents", ["doc_id", "text"]), max_tokens=512)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_minhash_components(sf_dir: str):
    from table_annotation_ray.stages.dedup import minhash_dedup

    return (
        minhash_dedup(_read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_simhash_pairs(sf_dir: str):
    from table_annotation_ray.stages.dedup import simhash_near_pairs, simhash_signatures

    sigs = simhash_signatures(_read(sf_dir, "documents", ["doc_id", "text"]))
    return simhash_near_pairs(sigs, max_hamming=3).to_pandas()


def _q_ngram_jaccard(sf_dir: str):
    """Exact char-5-gram Jaccard near-dup pairs (stages/dedup.py::
    ngram_jaccard_pairs): inverted-index candidates (2 ≤ df ≤ 20 grams
    only), full-set verify ≥ 0.5.  SQL-verified — the deterministic
    dedup flavor next to probabilistic MinHash/SimHash."""
    from table_annotation_ray.stages.dedup import ngram_jaccard_pairs

    return (
        ngram_jaccard_pairs(
            _read(sf_dir, "documents", ["doc_id", "text"]), k=5, max_df=20, threshold=0.5
        )
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )


# ---- KG pipeline operators over synthesized transcripts (rows-only) -------

def _q_heavy_parts(sf_dir: str):
    """Exact heavy hitters via Misra-Gries sketch + verification pass
    (stages/sketches.py): parts ordered at least max(40, N/1500) times.
    SQL-verified — the sketch guarantees a candidate superset, the
    verify pass makes the output exact."""
    import math

    from table_annotation_ray.stages.sketches import heavy_hitters

    ds = _read(sf_dir, "lineitem", ["l_partkey"])
    # callable threshold: resolved from the sketch pass's piggybacked row
    # count — the whole query is two scans (sketch, verify), not four
    return heavy_hitters(
        ds, "l_partkey", min_count=lambda total: max(40, math.ceil(total / 1500))
    )


def _q_approx_distinct_users(sf_dir: str):
    """HyperLogLog distinct count of events.user_id (rows-only: the
    estimate is approximate by design; the row carries the exact count
    and relative error so the check is self-evident)."""
    from table_annotation_ray.stages.agg import bucketed_distinct
    from table_annotation_ray.stages.sketches import approx_distinct

    ds = _read(sf_dir, "events", ["user_id"])
    est = approx_distinct(ds, "user_id")
    # exact baseline via the bucketed-distinct exchange + a distributed
    # count — ds.unique() ships the whole distinct list to the driver
    # (10^9 ids at corpus scale; review r4)
    exact = bucketed_distinct(
        _read(sf_dir, "events", ["user_id"]), ["user_id"]
    ).count()
    return pd.DataFrame(
        {
            "approx": [round(est)],
            "exact": [exact],
            "rel_error": [round(abs(est - exact) / max(1, exact), 4)],
        }
    )


def _q_kg_mentions(sf_dir: str):
    from table_annotation_ray.pipelines.kg_pipeline import mentions_dataset, read_transcripts
    from table_annotation_ray.state.kb import broadcast_kb

    root = _synth_root_for(sf_dir)
    kb_ref = broadcast_kb(os.path.join(root, "kb"))
    ds = mentions_dataset(read_transcripts(os.path.join(root, "transcripts.parquet")), kb_ref)
    out = ds.to_pandas()
    out["typing"] = out["typing"].map(lambda xs: ",".join(xs))
    out["datatype"] = out["datatype"].map(lambda xs: ",".join(xs))
    return out


def _q_kg_candidates(sf_dir: str):
    from table_annotation_ray.pipelines.kg_pipeline import read_transcripts
    from table_annotation_ray.stages.clean import clean_and_explode
    from table_annotation_ray.stages.lookup_stage import lookup_candidates
    from table_annotation_ray.state.kb import broadcast_kb

    root = _synth_root_for(sf_dir)
    kb_ref = broadcast_kb(os.path.join(root, "kb"))
    mentions = read_transcripts(os.path.join(root, "transcripts.parquet")).map_batches(
        clean_and_explode, batch_format="pyarrow"
    )
    return lookup_candidates(mentions, kb_ref).to_pandas()


def _q_kg_annotations(sf_dir: str):
    """The CEA/CTA/CPA annotation relations from the flagship pipeline
    (rows-only: model-driven)."""
    from table_annotation_ray.pipelines.kg_pipeline import (
        annotations_dataset,
        read_transcripts,
    )
    from table_annotation_ray.state.kb import broadcast_kb

    root = _synth_root_for(sf_dir)
    kb_ref = broadcast_kb(os.path.join(root, "kb"))
    transcripts = read_transcripts(os.path.join(root, "transcripts.parquet"))
    return annotations_dataset(transcripts, kb_ref).to_pandas()


def _q_parts_never_ordered(sf_dir: str):
    """Anti-join: parts never ordered in bulk (no lineitem with
    quantity > 45).  Size-gated in stages/relational.py — broadcast key
    set below the threshold, co-location groupby-aggregate above (the
    bulk-ordered key set approaches the part-dimension size at scale, a
    multi-GB ray.put per worker if always broadcast)."""
    import pyarrow.compute as pc

    from table_annotation_ray.stages.relational import anti_join_keys

    bulk = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"]).map_batches(
        lambda t: t.filter(pc.greater(t["l_quantity"], 45.0)).select(["l_partkey"]),
        batch_format="pyarrow",
    )
    out = anti_join_keys(
        _read(sf_dir, "part", ["p_partkey"]), bulk, "p_partkey", "l_partkey"
    ).to_pandas()
    if "p_partkey" not in out.columns:  # empty anti-join loses columns
        out = pd.DataFrame({"p_partkey": pd.Series([], dtype="int64")})
    out["p_partkey"] = out["p_partkey"].astype("int64")
    return out.sort_values("p_partkey").reset_index(drop=True)


def _q_parts_bulk_ordered(sf_dir: str):
    """Semi-join twin of parts_never_ordered, FORCED through the
    co-location groupby-aggregate path (broadcast_below=0) so the
    distributed variant — the one a 100 TB run takes — is the one the
    SQL oracle hash-verifies."""
    import pyarrow.compute as pc

    from table_annotation_ray.stages.relational import semi_join_keys

    bulk = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"]).map_batches(
        lambda t: t.filter(pc.greater(t["l_quantity"], 45.0)).select(["l_partkey"]),
        batch_format="pyarrow",
    )
    out = semi_join_keys(
        _read(sf_dir, "part", ["p_partkey"]), bulk, "p_partkey", "l_partkey",
        broadcast_below=0,
    ).to_pandas()
    out["p_partkey"] = out["p_partkey"].astype("int64")
    return out.sort_values("p_partkey").reset_index(drop=True)


def _q_kg_triples(sf_dir: str):
    from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline

    root = _synth_root_for(sf_dir)
    return run_kg_pipeline(
        os.path.join(root, "transcripts.parquet"), os.path.join(root, "kb")
    ).to_pandas()


def _q_join_size_cms(sf_dir: str):
    """Query-planner join-cardinality estimation without running the
    join (stages/sketches.py::join_size_estimate — CMS inner product,
    Cormode & Muthukrishnan §4.2): the lineitem self-join size on
    l_partkey (Σ per-part count², the skew statistic that decides
    broadcast vs shuffle vs salting).  Rows-only: the row carries the
    estimate, the exact size, and the relative error, so the check is
    self-evident; the never-underestimates guarantee is pytest-pinned."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.sketches import join_size_estimate

    li = _read(sf_dir, "lineitem", ["l_partkey"])
    approx = join_size_estimate(li, "l_partkey", li, "l_partkey", width=16384)
    counts = grouped_reduce(li, ["l_partkey"], {"n": (None, "count")})
    exact = int(
        counts.map_batches(
            lambda b: pd.DataFrame({"s": [int((b["n"].to_numpy() ** 2).sum())]}),
            batch_format="pandas",
        ).to_pandas()["s"].sum()
    )
    return pd.DataFrame(
        {
            "approx": [int(approx)],
            "exact": [exact],
            "rel_error": [round((approx - exact) / max(1, exact), 6)],
        }
    )


def _q_audience_overlap(sf_dir: str):
    """Segment co-audience analysis (stages/relational.py::
    audience_overlap): distinct users per event-type pair + Jaccard —
    one bucketed_distinct exchange, map-side pair explosion bounded by
    the category domain, grouped_reduce counts.  SQL hash-exact."""
    from table_annotation_ray.stages.relational import audience_overlap

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    return audience_overlap(ev, "user_id", "event_type")


def _q_basket_rules(sf_dir: str):
    """Market-basket association rules (stages/relational.py::
    association_rules): directed part→part rules over order baskets
    with support/confidence/lift — pair counts via hash(basket)
    co-location + grouped_reduce, dictionary-bounded item supports
    broadcast (ray.put) into one map-only rule pass, no join exchange.
    SQL hash-exact."""
    from table_annotation_ray.stages.relational import association_rules

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    out = association_rules(
        li, "l_orderkey", "l_partkey", min_pair_count=2
    ).to_pandas()
    for c in ("support", "confidence", "lift"):
        out[c] = _round_ha(out[c], 6)
    return out.sort_values(["antecedent", "consequent"]).reset_index(drop=True)


def _q_user_state_intervals(sf_dir: str):
    """SCD-type-2 dimension build (stages/windows.py::scd2_intervals):
    collapse each user's time-ordered event-type sequence into validity
    intervals [valid_from, valid_to) with a null valid_to on the
    current run — one hash(user) exchange, vectorized shift-compare +
    cumsum run detection per bucket.  SQL hash-exact vs a LAG/LEAD
    window walk."""
    from table_annotation_ray.stages.windows import scd2_intervals

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])
    out = scd2_intervals(ev, "user_id", "event_type", "ts", "event_id").to_pandas()
    return out.sort_values(
        ["user_id", "valid_from", "event_type"]
    ).reset_index(drop=True)


def _q_rolling_active_users(sf_dir: str):
    """Rolling 3-hour distinct active users per window-end hour
    (stages/windows.py::rolling_active): bounded ×3 event→window
    explode + one exact distinct_count_by_key — SQL COUNT(DISTINCT)
    OVER has no engine support; the explode IS the scale shape.
    SQL hash-exact vs an unnest-offset mirror."""
    from table_annotation_ray.stages.windows import rolling_active

    ev = _read(sf_dir, "events", ["ts", "user_id"])
    out = rolling_active(ev, "ts", "user_id", window_hours=3).to_pandas()
    out["n_active"] = out["n_active"].astype("int64")
    return out.sort_values("win_end").reset_index(drop=True)


def _q_value_twa(sf_dir: str):
    """Per-user time-weighted average of event values (stages/windows.py
    ::time_weighted_avg): each value holds until the user's next event,
    integrated over the user's active span — the telemetry aggregate a
    plain mean gets wrong on bursty streams.  One hash(user)%64
    exchange + vectorized grouped shift/sum."""
    from table_annotation_ray.stages.windows import time_weighted_avg

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    out = time_weighted_avg(ev, "user_id", "ts", "value").to_pandas()
    out["span_seconds"] = _round_ha(out["span_seconds"], 6)
    return out.sort_values("user_id").reset_index(drop=True)


def _q_value_ffill(sf_dir: str):
    """Per-user forward-fill imputation (stages/windows.py::
    ffill_by_key — LOCF): every 7th event's value nulled, then filled
    from the user's most recent prior value in ts order; leading nulls
    stay null.  One hash(user)%64 exchange + vectorized in-bucket
    groupby ffill; SQL oracle is last_value(... IGNORE NULLS)."""
    from table_annotation_ray.stages.windows import ffill_by_key

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def poke(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b.loc[b["event_id"] % 7 == 0, "value"] = np.nan
        return b

    out = ffill_by_key(
        ev.map_batches(poke, batch_format="pandas"),
        "user_id",
        ["ts"],
        ["value"],
    ).to_pandas()
    out = out[["event_id", "user_id", "value"]].rename(
        columns={"value": "value_filled"}
    )
    return out.sort_values("event_id").reset_index(drop=True)


def _q_retrieval_eval(sf_dir: str):
    """Retrieval quality evaluation (stages/retrieval.py::
    ranking_metrics): NDCG@10 / MRR / recall@10 of the deterministic
    term-frequency ranker (term_tf_topk) against a narrower ground
    truth (relevant = ENGLISH docs containing the term — the ranker is
    lang-agnostic, so the metrics are non-trivial).  One streaming
    pass builds the relevance set flags + per-term relevant counts (no
    exchange); metric arithmetic runs on the driver over terms x k
    rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from table_annotation_ray.stages.retrieval import (
        ranking_metrics,
        term_tf_topk,
    )
    from table_annotation_ray.stages.textstats import _ws_tokens

    terms = ["hash", "join", "vector"]
    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    ranked = term_tf_topk(docs, terms, k=10)

    def relv(b: pd.DataFrame) -> pa.Table:
        toks, _ = _ws_tokens(b["text"])
        flat = toks.flatten()
        off = toks.offsets.to_numpy()
        en = (b["lang"] == "en").to_numpy()
        ids_np = b["doc_id"].to_numpy()
        qs, ds_ = [], []
        for t in terms:
            hit = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            c = np.r_[0, np.cumsum(hit.astype(np.int64))]
            nz = ((c[off[1:]] - c[off[:-1]]) > 0) & en
            qs.append(np.full(int(nz.sum()), t, object))
            ds_.append(ids_np[nz])
        return pa.table(
            {
                "term": pa.array(np.concatenate(qs), pa.string()),
                "doc_id": pa.array(
                    np.concatenate(ds_).astype(np.int64), pa.int64()
                ),
            }
        )

    rel = docs.map_batches(relv, batch_format="pandas")
    out = ranking_metrics(rel, ranked, k=10)
    out["n_rel"] = out["n_rel"].astype("int64")
    return out.sort_values("term").reset_index(drop=True)


def _q_user_active_periods(sf_dir: str):
    """Per-user merged activity intervals (stages/windows.py::
    merge_intervals — the gaps-and-islands union): each event opens a
    30-minute activity window; overlapping/touching windows merge into
    islands.  One hash(user)%64 exchange, in-bucket grouped
    cummax-shift island detection, all vectorized."""
    from table_annotation_ray.stages.windows import merge_intervals

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def widen(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": b["user_id"],
                "st": b["ts"],
                "en": b["ts"] + pd.Timedelta(minutes=30),
            }
        )

    out = merge_intervals(
        ev.map_batches(widen, batch_format="pandas"), "user_id", "st", "en"
    ).to_pandas()
    for c in ("start", "end"):  # duckdb timestamps come back as [us]
        out[c] = out[c].astype("datetime64[us]")
    return out.sort_values(["user_id", "start"]).reset_index(drop=True)


def _q_events_hourly_filled(sf_dir: str):
    """Gap-FILLED hourly resample (stages/windows.py::resample_counts):
    counts per (hour, event_type) over the corpus-global hour range
    with explicit zero rows for empty periods.  One skinny
    grouped_reduce exchange; the zero-fill happens on the driver over
    the collected aggregate (bounded by types x hours — a dimension
    grid, not data)."""
    from table_annotation_ray.stages.windows import resample_counts

    ev = _read(sf_dir, "events", ["ts", "event_type"])
    return resample_counts(ev, "ts", "event_type", freq="h")


def _q_negative_samples(sf_dir: str):
    """Deterministic contrastive negative sampling (stages/datapipe.py::
    ring_negative_samples): each doc gets its first 2 different-lang
    neighbours among the next 8 positions on the md5 ring.  Scale shape
    is a HALO exchange (each row ships at most twice) resolving anchors
    locally with searchsorted ring probes — the SQL oracle instead pays
    the O(N*lookahead) range self-join, which is exactly why the
    distributed shape exists."""
    from table_annotation_ray.stages.datapipe import ring_negative_samples

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    out = ring_negative_samples(docs, "doc_id", "lang", k=2, lookahead=8)
    return (
        out.to_pandas()
        .sort_values(["doc_id", "neg_rank"])
        .reset_index(drop=True)
    )


def _q_zorder_layout(sf_dir: str):
    """Z-order (Morton) clustering layout audit (stages/datapipe.py::
    zorder_key + global_rank): events quantized to (user_id mod 1024,
    epoch-hour mod 1024), bit-interleaved into a Morton key, range-
    partitioned into 500-row files by global rank, then each file's
    2-D bounding box reported — the Delta/Iceberg OPTIMIZE ZORDER
    shape whose per-file min/max stats prune two-dimensional range
    scans at 100 TB.  One range-partition exchange (TeraSort shape);
    the final 20-key box aggregate is a trivial groupby."""
    from table_annotation_ray.stages.datapipe import global_rank, zorder_key

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def quantize(b: pd.DataFrame) -> pd.DataFrame:
        hr = b["ts"].to_numpy().astype("datetime64[h]").astype(np.int64)
        return pd.DataFrame(
            {
                "event_id": b["event_id"].to_numpy(),
                "uid": b["user_id"].to_numpy() % 1024,
                "hr": hr % 1024,
            }
        )

    z = zorder_key(ev.map_batches(quantize, batch_format="pandas"), "uid", "hr")
    r = global_rank(z, ["zkey"], "event_id", out_col="position")

    def to_part(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "part": b["position"].to_numpy() // 500,
                "uid": b["uid"],
                "hr": b["hr"],
            }
        )

    import ray.data.aggregate as agg_mod

    boxes = (
        r.map_batches(to_part, batch_format="pandas")
        .groupby("part")
        .aggregate(
            agg_mod.Count(alias_name="n_rows"),
            agg_mod.Min("uid", alias_name="min_uid"),
            agg_mod.Max("uid", alias_name="max_uid"),
            agg_mod.Min("hr", alias_name="min_hr"),
            agg_mod.Max("hr", alias_name="max_hr"),
        )
        .to_pandas()
    )
    for c in boxes.columns:
        boxes[c] = boxes[c].astype("int64")
    return boxes.sort_values("part").reset_index(drop=True)


def _q_value_acf(sf_dir: str):
    """Per-user autocorrelation of event values at lags 1–3
    (stages/windows.py::acf_by_key): Pearson corr between each user's
    ts-ordered value series and its lag-L shift — SQL corr(v, LAG(v, L))
    per user.  One hash(user)%64 exchange; in-bucket stable sort + a
    single vectorized groupby-sum of pair moments per lag.  (user, ts)
    is unique in events, so the lag order is total."""
    from table_annotation_ray.stages.windows import acf_by_key

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    out = acf_by_key(ev, "user_id", ["ts"], "value", lags=(1, 2, 3)).to_pandas()
    return out.sort_values(["user_id", "lag"]).reset_index(drop=True)


def _q_doc_repetition(sf_dir: str):
    """Gopher-style within-doc repetition signals (stages/textstats.py::
    ngram_repetition_stats): top-bigram char mass + duplicated-5-gram span
    coverage per document, map-only (zero exchanges).  Integer char
    counts keep the oracle compare exact (no float rounding boundary).
    SQL oracle rebuilds both via list-slice n-grams + window counts."""
    from table_annotation_ray.stages.textstats import ngram_repetition_stats

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ngram_repetition_stats(docs).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_dup_ngram_audit(sf_dir: str):
    """Cross-corpus exact-substring duplication audit (stages/dedup.py::
    duplicate_ngram_coverage — Lee et al. 2021 ExactSubstr at token-
    5-gram granularity): per doc, occurrences of corpus-duplicated
    5-grams and the char mass their span union covers.  Grams travel as
    strings bucketed by hash(gram)%64 (exact, collision-free); span
    reassembly co-locates skinny hits with token-LENGTH lists by
    hash(doc)%64 — two exchanges, no document text crosses either."""
    from table_annotation_ray.stages.dedup import duplicate_ngram_coverage

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = duplicate_ngram_coverage(docs, n=5).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_html_extract(sf_dir: str):
    """Web-document text extraction (stages/extract.py::extract_html):
    documents wrapped in deterministic HTML (title/style/script chrome,
    escaped body paragraph, doc_id-dependent link footer), then the
    stdlib extractor recovers text/link/paragraph/block counts in one
    streaming map — per-row error degradation, no exchange.  SQL
    hash-exact because the oracle reconstructs the expected extraction
    directly from the raw documents table."""
    import html as _html

    from table_annotation_ray.stages.extract import extract_html

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def wrap(b: pd.DataFrame) -> pd.DataFrame:
        out = []
        for i, t in zip(b["doc_id"], b["text"]):
            k = 1 + int(i) % 3
            links = " ".join(
                f'<a href="https://ex.invalid/{i}/{j}">ref {j}</a>'
                for j in range(k)
            )
            out.append(
                f"<html><head><title>t{i}</title>"
                f"<style>p{{color:red}}</style></head>"
                f"<body><h1>Doc {i}</h1><p>{_html.escape(str(t))}</p>"
                f"<p>{links}</p><script>var x = 1 < 2;</script>"
                f"</body></html>"
            )
        return pd.DataFrame({"doc_id": b["doc_id"], "html": out})

    wrapped = docs.map_batches(wrap, batch_format="pandas")
    out = extract_html(wrapped).to_pandas()
    assert bool(out["ok"].all())
    out = out[["doc_id", "text", "n_links", "n_paragraphs", "n_blocks"]]
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_value_ks_test(sf_dir: str):
    """Exact two-sample Kolmogorov–Smirnov drift test (stages/stats.py::
    ks_test): D = max |F_view − F_purchase| over event values — distinct-
    value counts through one grouped_reduce, quantile-cut chunked prefix
    sums (no global sort), per-chunk CDF maxima.  SQL hash-exact vs a
    window-cumulative mirror."""
    from table_annotation_ray.stages.stats import ks_test

    ev = _read(sf_dir, "events", ["event_type", "value"])
    out = ks_test(ev, "event_type", "value", "view", "purchase")
    out["ks_d"] = _round_ha(out["ks_d"], 6)
    out["n1"] = out["n1"].astype("int64")
    out["n2"] = out["n2"].astype("int64")
    return out


def _q_value_mad_outliers(sf_dir: str):
    """Robust per-type outliers (stages/stats.py::mad_outliers): flag
    events with |value − median| > 2.5·1.4826·MAD within their event
    type — two exact grouped-median passes (histogram refinement, no
    per-group sort) + one map-only flag pass.  SQL hash-exact vs the
    ranked-window order-statistic medians."""
    from table_annotation_ray.stages.stats import mad_outliers

    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    out = mad_outliers(ev, "event_type", "value", k=2.5)
    out["med"] = out["med"].map(lambda v: _round_ha(v, 6))
    out["mad"] = out["mad"].map(lambda v: _round_ha(v, 6))
    out["event_id"] = out["event_id"].astype("int64")
    return (
        out[["event_id", "event_type", "value", "med", "mad"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def _q_signup_to_purchase(sf_dir: str):
    """Funnel timing / survival-lite (stages/windows.py::
    conversion_lag): per user, the first signup and the first purchase
    at-or-after it — unconverted users stay with a null purchase ts
    (right-censored).  One hash(user) exchange; boundary lookups
    vectorized per bucket.  SQL hash-exact, including the censored
    rows and the floor-hours delta."""
    from table_annotation_ray.stages.windows import conversion_lag

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    out = conversion_lag(
        ev, "user_id", "ts", "event_type", "signup", "purchase"
    ).to_pandas()
    delta = (out["to_ts"] - out["from_ts"]).dt.total_seconds()
    out["hours_to_convert"] = np.floor(delta / 3600)
    out["from_ts"] = out["from_ts"].dt.strftime("%Y-%m-%d %H:%M:%S.%f")
    out["to_ts"] = out["to_ts"].dt.strftime("%Y-%m-%d %H:%M:%S.%f")
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_embedding_audit(sf_dir: str):
    """Embedding-column health gate (stages/dq.py::embedding_audit):
    dimension/finiteness violations + L2-norm stats, one partial row
    per batch.  The corpus embeddings are unit-norm, so the query
    perturbs deterministically (scale by 1 + vec_id % 5) to give the
    audit real spread; the identical list_transform runs in the SQL
    mirror.  SQL hash-exact."""
    import pyarrow as pa

    from table_annotation_ray.stages.dq import embedding_audit

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def perturb(b: pd.DataFrame) -> pa.Table:
        scale = (1 + (b["vec_id"].to_numpy() % 5)).astype(np.float64)
        vecs = [
            (np.asarray(v, dtype=np.float64) * s).tolist()
            for v, s in zip(b["embedding"], scale)
        ]
        return pa.table(
            {
                "vec_id": pa.array(b["vec_id"].to_numpy(), pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float64())),
            }
        )

    out = embedding_audit(emb.map_batches(perturb, batch_format="pandas"))
    for c in ("n_rows", "n_bad_dim", "n_nonfinite"):
        out[c] = out[c].astype("int64")
    return out


def _q_conv_windows(sf_dir: str):
    """Chat-format training-example generation over the flagship's own
    transcripts (stages/datapipe.py::conversation_windows): sliding
    4-turn windows, stride 2, role-prefixed rendering — one hash(conv)
    exchange, per-conv vectorized slicing.  Rows-only (the transcript
    table is synth-root, not a DuckDB view); window semantics
    pytest-pinned against a single-process reference."""
    from table_annotation_ray.pipelines.kg_pipeline import read_transcripts
    from table_annotation_ray.stages.datapipe import conversation_windows

    root = _synth_root_for(sf_dir)
    turns = read_transcripts(
        os.path.join(root, "transcripts.parquet"),
        columns=["conv_id", "turn_idx", "role", "text"],
    )
    out = conversation_windows(
        turns, window=4, stride=2, role_col="role"
    ).to_pandas()
    for c in ("window_idx", "first_turn", "last_turn", "n_turns"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["conv_id", "window_idx"]).reset_index(drop=True)


def _q_kg_entity_pagerank(sf_dir: str):
    """Entity salience over the flagship KG output: PageRank on the
    subj→obj entity-entity triples (stages/graph.py::pagerank_labels —
    string URIs hashed to int64, ranked via the engine-dispatching
    pagerank_auto, labels re-attached with one size-gated equi_join; no
    driver-side id map).  Rows-only: the KG edges are model-driven."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline
    from table_annotation_ray.stages.graph import pagerank_labels

    root = _synth_root_for(sf_dir)
    triples = run_kg_pipeline(
        os.path.join(root, "transcripts.parquet"), os.path.join(root, "kb")
    )

    def entity_edges(t: pa.Table) -> pa.Table:
        m = pc.starts_with(t["obj"], "http://www.wikidata.org/entity/")
        keep = t.filter(m)
        return keep.select(["subj", "obj"])

    edges = triples.map_batches(entity_edges, batch_format="pyarrow")
    out = pagerank_labels(edges, "subj", "obj", iters=5).to_pandas()
    out["rank"] = out["rank"].map(lambda v: _round_ha(v, 8))
    return out.sort_values("node").reset_index(drop=True)


def _q_entity_lookup(sf_dir: str):
    """The reference's entity_lookup service (lookup/entity_lookup.py) as
    a batch stage over the distinct mentions of the synthesized
    transcripts (rows-only: fuzzy scoring has no SQL oracle).

    The distinct-mention shuffle is SURVEY §2 J5/D1 made concrete and
    models the scale-safe shape: map-side per-batch unique + Arrow
    partials → hash(label) % 64 bucket exchange → ONE vectorized
    drop_duplicates per bucket (stages/agg.py::bucketed_distinct) —
    never one Ray group per distinct label, which is per-key Python at
    corpus cardinality (10^8+ distinct mentions at 100 TB)."""
    import ray.data as rd

    from table_annotation_ray.pipelines.table_pipeline import lookup_labels
    from table_annotation_ray.stages.agg import bucketed_distinct
    from table_annotation_ray.state.kb import broadcast_kb

    root = _synth_root_for(sf_dir)
    kb_ref = broadcast_kb(os.path.join(root, "kb"))
    tr = rd.read_parquet(os.path.join(root, "transcripts.parquet"), columns=["text"])

    def distinct_labels(b):
        import pandas as pd

        cells = b["text"].str.split(" \\| ", regex=True).explode()
        return pd.DataFrame({"label": cells.dropna().unique()})

    labels = bucketed_distinct(
        tr.map_batches(distinct_labels, batch_format="pandas"), ["label"]
    )
    return lookup_labels(labels, kb_ref).to_pandas()


def _nation_region_tables(sf_dir: str) -> "dict[str, list[list[str]]]":
    """The generic tables of ``table_preprocess``: the nation and region
    files as header row + string cells."""
    import pyarrow.parquet as pq

    tables = {}
    for tname in ("nation", "region"):
        t = pq.read_table(os.path.join(sf_dir, f"{tname}.parquet"))
        body = [[str(v) for v in row.values()] for row in t.to_pylist()]
        tables[tname] = [list(t.column_names)] + body
    return tables


def _template_tables() -> "dict[str, list[list[str]]]":
    """The generic tables of ``table_annotate``: one per synth template."""
    from table_annotation_ray import synth

    return {
        template["name"]: [cells for cells, _truth in synth._rows_for_template(template, None)]
        for template in synth.TEMPLATES
    }


def _table_rows_ds(tables: "dict[str, list[list[str]]]"):
    import ray.data as rd

    return rd.from_items([
        {"table_id": tid, "row_idx": i, "cells": cells}
        for tid, table in tables.items() for i, cells in enumerate(table)
    ])


def _preprocess_summary(preprocessed: dict) -> "tuple[str, bool]":
    """(orientation, has_header) of one ``preprocessed`` payload."""
    if not preprocessed:
        return "", False
    return (preprocessed["tableOrientation"]["orientationLabel"],
            bool(preprocessed["headerInfo"]["hasHeader"]))


def _annotate_summary(annotated: dict) -> "tuple[int, int, int]":
    """(CEA, CTA, CPA) counts of one ``annotated`` payload."""
    return len(annotated["CEA"]), len(annotated["CTA"]), len(annotated["CPA"])


def _q_table_preprocess(sf_dir: str):
    """Generic-table preprocessing over tables derived from the nation /
    region testdata.  Oracle: the in-process preprocessing's rows as a
    pinned literal (:func:`table_literal`)."""
    import json

    from table_annotation_ray.pipelines.table_pipeline import preprocess_tables
    from table_annotation_ray.state.kb import broadcast_kb

    root = _synth_root_for(sf_dir)
    kb_ref = broadcast_kb(os.path.join(root, "kb"))
    out = preprocess_tables(_table_rows_ds(_nation_region_tables(sf_dir)), kb_ref).to_pandas()
    summary = out["preprocessed"].map(lambda s: _preprocess_summary(json.loads(s)))
    out["orientation"] = summary.map(lambda r: r[0])
    out["has_header"] = summary.map(lambda r: r[1])
    return out[["table_id", "orientation", "has_header"]]


def _q_table_annotate(sf_dir: str):
    """Full generic-table annotation (reference table_annotation.py shape)
    over the synth template tables.  Oracle: the in-process annotation's
    counts as a pinned literal (:func:`table_literal`)."""
    import json

    from table_annotation_ray.pipelines.table_pipeline import annotate_tables
    from table_annotation_ray.state.kb import broadcast_kb

    root = _synth_root_for(sf_dir)
    kb_ref = broadcast_kb(os.path.join(root, "kb"))
    out = annotate_tables(_table_rows_ds(_template_tables()), kb_ref).to_pandas()
    counts = out["annotated"].map(lambda s: _annotate_summary(json.loads(s)))
    for i, col in enumerate(("n_cea", "n_cta", "n_cpa")):
        out[col] = counts.map(lambda r, i=i: r[i])
    return out[["table_id", "n_cea", "n_cta", "n_cpa"]]


def _q_media_features(sf_dir: str):
    """Multimodal image branch: binary payload column → per-media
    features via the REAL stdlib PNG/BMP codec (functions/codecs.py);
    image rows are decoded=True with pixel-derived features, opaque
    formats fall back to byte stats (rows-only: no SQL decoder)."""
    import ray.data as rd

    from table_annotation_ray.stages.multimodal import (
        RECOMMENDED_BATCH_SIZE,
        DecodeImage,
        synth_media_table,
    )

    ds = rd.from_arrow(synth_media_table(n=128, seed=5))
    return ds.map_batches(
        DecodeImage,
        batch_format="pyarrow",
        batch_size=RECOMMENDED_BATCH_SIZE,
        concurrency=(1, 2),
    ).to_pandas()


def _q_image_resize(sf_dir: str):
    """Multimodal preprocessing branch: decode → bilinear resample →
    PNG re-encode, all real stdlib/numpy kernels
    (stages/multimodal.py::ResizeImage; codecs.resize_bilinear is the
    align-corners=False pixel-center convention).  Undecodable rows
    pass through resized=False.  Rows-only (no SQL codec); payload
    replaced by its crc so the result frame stays hashable."""
    import zlib

    import ray.data as rd

    from table_annotation_ray.stages.multimodal import (
        RECOMMENDED_BATCH_SIZE,
        ResizeImage,
        synth_media_table,
    )

    ds = rd.from_arrow(synth_media_table(n=128, seed=5))
    out = ds.map_batches(
        ResizeImage,
        batch_format="pyarrow",
        batch_size=RECOMMENDED_BATCH_SIZE,
        concurrency=(1, 2),
    ).to_pandas()
    out["payload_crc"] = [
        zlib.crc32(p) if p else 0 for p in out["payload"]
    ]
    out = out.drop(columns=["payload"])
    for c in ("media_id", "payload_crc"):
        out[c] = out[c].astype("int64")
    return out.sort_values("media_id").reset_index(drop=True)


def _q_bpe_merges(sf_dir: str):
    """BPE tokenizer training (stages/bpe.py): one distributed
    word-count exchange, then the size-gated merge loop (driver engine
    at this scale; the dataset engine is pytest-pinned byte-identical).
    Returns the ordered merge table.  Rows-only (iterative training);
    byte-identity to a single-process Sennrich reference is pinned by
    tests/test_curation.py::test_bpe_merges_match_reference_and_engines_agree."""
    from table_annotation_ray.stages.bpe import train_bpe

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    merges = train_bpe(docs, num_merges=60)
    return pd.DataFrame(
        {
            "rank": pd.Series(range(len(merges)), dtype="int64"),
            "left": [a for a, _ in merges],
            "right": [b for _, b in merges],
        }
    )


def _q_bpe_token_counts(sf_dir: str):
    """Per-document token counts under the TRAINED BPE tokenizer —
    train + one broadcast scoring pass with a per-worker encode memo.
    Rows-only (the trained tokenizer is not SQL-expressible)."""
    from table_annotation_ray.stages.bpe import bpe_token_counts, train_bpe

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    merges = train_bpe(docs, num_merges=60)
    out = bpe_token_counts(docs, merges).to_pandas()
    return (
        out.astype({"doc_id": "int64", "n_tokens": "int64"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_bpe_encode(sf_dir: str):
    """Corpus tokenization to id sequences under the trained BPE
    tokenizer (stages/bpe.py::bpe_encode — bounded merge+vocab
    broadcast, per-worker distinct-word memo, flat-buffer ListArray
    assembly): the pretraining step between tokenizer training and
    packing.  Rows-only; pytest pins per-word agreement with
    encode_word and count-consistency with bpe_token_counts.  The id
    list is surfaced as a stable comma-joined string (the driver's
    hash compare needs scalar columns)."""
    from table_annotation_ray.stages.bpe import (
        bpe_encode,
        bpe_vocab,
        corpus_alphabet,
        train_bpe,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    merges = train_bpe(docs, num_merges=60)
    vocab = bpe_vocab(merges, corpus_alphabet(docs))
    out = bpe_encode(docs, merges, vocab).to_pandas()
    out["token_ids"] = out["token_ids"].map(
        lambda xs: ",".join(str(int(x)) for x in xs)
    )
    return (
        out.astype({"doc_id": "int64", "n_tokens": "int64"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_pack_token_blocks(sf_dir: str):
    """End-to-end pretraining sequence assembly: train BPE → encode the
    corpus to ids → pack into fixed 256-token blocks with EOS joints
    (stages/datapipe.py::pack_token_ids — skinny prefix-sum exchange,
    one payload exchange by chunk, one assembly exchange by block).
    Rows-only; pytest pins block content against a single-process
    reference including straddling docs and the partial-block flavor."""
    from table_annotation_ray.stages.bpe import (
        bpe_encode,
        bpe_vocab,
        corpus_alphabet,
        train_bpe,
    )
    from table_annotation_ray.stages.datapipe import pack_token_ids

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    merges = train_bpe(docs, num_merges=60)
    vocab = bpe_vocab(merges, corpus_alphabet(docs))
    enc = bpe_encode(docs, merges, vocab)
    eos = len(vocab)  # one past the largest symbol id: never collides
    out = pack_token_ids(enc, block_len=256, eos_id=eos).to_pandas()
    out["token_ids"] = out["token_ids"].map(
        lambda xs: ",".join(str(int(x)) for x in xs)
    )
    return (
        out.astype({"block_id": "int64", "n_docs": "int64"})
        .sort_values("block_id")
        .reset_index(drop=True)
    )


def _q_quality_classifier(sf_dir: str):
    """Distributed fastText-shape quality classifier
    (stages/classifier.py): weak labels from the heuristic quality gate
    (stopword_ratio ≥ 0.05 ∧ mean_token_len < 8 — the curation funnel's
    own rule), hashed-n-gram logistic training with one grouped_reduce
    gradient exchange per epoch, then a broadcast scoring pass.
    Rows-only (iterative training has no SQL equivalent); planted-signal
    recovery + layout invariance pinned by
    tests/test_curation.py::test_quality_classifier_planted_signal."""
    from table_annotation_ray.stages.classifier import (
        score_quality_classifier,
        train_quality_classifier,
    )
    from table_annotation_ray.stages.textstats import quality_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def label(b):
        q = quality_scores(b)
        b = b.copy()
        b["label"] = (
            (q["stopword_ratio"] >= 0.05) & (q["mean_token_len"] < 8.0)
        ).astype("int64")
        return b

    labeled = docs.map_batches(label, batch_format="pandas").materialize()
    model = train_quality_classifier(labeled, dim=1 << 16, epochs=4, lr=1.0)
    out = score_quality_classifier(labeled, model).to_pandas()
    return (
        out.astype({"doc_id": "int64"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_image_near_dup(sf_dir: str):
    """Perceptual image near-duplicate detection: DCT pHash over REAL
    decoded PNG pixels + the banded-Hamming pair machinery (8×8-bit
    bands ⇒ every pair within Hamming ≤ 7 is found — pigeonhole).
    Planted noise-perturbed copies give the deterministic ground truth;
    rows-only (no SQL image decoder), recall pinned by
    tests/test_codecs.py::test_image_near_dup_planted_recall."""
    import ray.data as rd

    from table_annotation_ray.stages.multimodal import (
        image_near_dup_pairs,
        plant_perturbed_images,
        synth_media_table,
    )

    planted = plant_perturbed_images(
        synth_media_table(n=120, seed=5), n_planted=16, noise=1
    )
    out = image_near_dup_pairs(rd.from_arrow(planted)).to_pandas()
    return (
        out.astype({"a": "int64", "b": "int64", "hamming": "int64"})
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )


def _q_audio_near_dup(sf_dir: str):
    """Acoustic near-duplicate detection: 64-bit band-energy
    fingerprints over REAL decoded WAV PCM
    (functions/codecs.py::afp64) + the banded-Hamming pair machinery —
    the audio twin of image_near_dup.  Planted noise-perturbed copies
    give the deterministic ground truth; rows-only (no SQL audio
    decoder), recall pinned by
    tests/test_codecs.py::test_audio_near_dup_planted_recall."""
    import ray.data as rd

    from table_annotation_ray.stages.multimodal import (
        audio_near_dup_pairs,
        plant_perturbed_audio,
        synth_media_table,
    )

    planted = plant_perturbed_audio(
        synth_media_table(n=120, seed=5), n_planted=16, noise=0.01
    )
    out = audio_near_dup_pairs(rd.from_arrow(planted)).to_pandas()
    return (
        out.astype({"a": "int64", "b": "int64", "hamming": "int64"})
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )


def _q_audio_features(sf_dir: str):
    """Audio branch of the multimodal family via the REAL stdlib
    WAV/PCM codec: per-window RMS energy over actual samples for WAV
    rows (decoded=True), byte-energy fallback otherwise (rows-only)."""
    import ray.data as rd

    from table_annotation_ray.stages.multimodal import (
        RECOMMENDED_BATCH_SIZE,
        ExtractAudioFeatures,
        synth_media_table,
    )

    ds = rd.from_arrow(synth_media_table(n=96, seed=11))
    out = ds.map_batches(
        ExtractAudioFeatures,
        batch_format="pyarrow",
        batch_size=RECOMMENDED_BATCH_SIZE,
        concurrency=(1, 2),
    ).to_pandas()
    out["energy_profile"] = out["energy_profile"].map(
        lambda xs: ",".join(str(x) for x in xs)
    )
    return out


# ---- time-keyed joins / order statistics (SQL-verified) -------------------

def _q_asof_view_before_purchase(sf_dir: str):
    """As-of join: for each purchase event, the latest view by the same
    user at or before the purchase (ties: max view_id).  One
    groupby(user_id) co-location, vectorized searchsorted per group —
    no inequality join, no global sort (stages/joins.py::asof_join)."""
    from table_annotation_ray.stages.joins import asof_join

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def side(etype: str, id_name: str, ts_name: str):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            m = b[b["event_type"] == etype]
            return pd.DataFrame(
                {id_name: m["event_id"], "user_id": m["user_id"], ts_name: m["ts"]}
            )

        return f

    left = ev.map_batches(side("purchase", "purchase_id", "purchase_ts"),
                          batch_format="pandas")
    right = ev.map_batches(side("view", "view_id", "view_ts"),
                           batch_format="pandas")
    out = asof_join(
        left, right, key="user_id",
        left_ts="purchase_ts", right_ts="view_ts",
        left_cols=["purchase_id", "user_id", "purchase_ts"],
        right_cols=["user_id", "view_id", "view_ts"],
        right_tiebreak="view_id", how="inner",
    ).to_pandas()
    for c in ("purchase_ts", "view_ts"):
        out[c] = out[c].dt.strftime("%Y-%m-%d %H:%M:%S.%f")
    for c in ("purchase_id", "user_id", "view_id"):
        out[c] = out[c].astype("int64")
    return out.sort_values("purchase_id").reset_index(drop=True)


def _q_error_click_window(sf_dir: str):
    """Interval (range) join: clicks within 1 hour after an error by
    the same user, counted per error.  Intervals replicate to the time
    buckets they overlap; each click lives in exactly one bucket, so
    every pair is tested once (stages/joins.py::interval_join)."""
    from ray.data.aggregate import Count

    from table_annotation_ray.stages.joins import interval_join

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    WINDOW = pd.Timedelta(hours=1)

    def errors(b: pd.DataFrame) -> pd.DataFrame:
        m = b[b["event_type"] == "error"]
        return pd.DataFrame(
            {"error_id": m["event_id"], "user_id": m["user_id"],
             "wstart": m["ts"], "wend": m["ts"] + WINDOW}
        )

    def clicks(b: pd.DataFrame) -> pd.DataFrame:
        m = b[b["event_type"] == "click"]
        return pd.DataFrame({"user_id": m["user_id"], "click_ts": m["ts"]})

    pairs = interval_join(
        ev.map_batches(errors, batch_format="pandas"),
        ev.map_batches(clicks, batch_format="pandas"),
        start="wstart", end="wend", right_ts="click_ts",
        left_cols=["error_id", "user_id", "wstart", "wend"],
        right_cols=["user_id", "click_ts"],
        key="user_id",
        bucket_width_us=3_600_000_000,
    )
    from table_annotation_ray.stages.agg import grouped_reduce

    out = grouped_reduce(
        pairs, ["error_id", "user_id"], {"n_clicks": (None, "count")}
    ).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("error_id").reset_index(drop=True)


def _q_top_orders_per_customer(sf_dir: str):
    """Group-wise top-k without a global sort: map-side per-(group,
    batch) k-row combiner, then a per-group finalizer
    (stages/relational.py::grouped_topk) — the shuffle moves ≤ k rows
    per group per batch instead of the whole fact table."""
    from table_annotation_ray.stages.relational import grouped_topk

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    out = grouped_topk(
        orders, ["o_custkey"], "o_totalprice", k=2,
        descending=True, tiebreak="o_orderkey",
    ).to_pandas()
    out["o_custkey"] = out["o_custkey"].astype("int64")
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    return out.sort_values(
        ["o_custkey", "o_totalprice", "o_orderkey"],
        ascending=[True, False, True],
    ).reset_index(drop=True)


def _q_latest_event_per_user(sf_dir: str):
    """Latest-wins snapshot (upsert/CDC compaction): newest event per
    user via grouped_topk k=1 descending (ts, event_id tiebreak) — the
    map-side ≤1-per-(key,batch) combiner means the shuffle moves one
    row per user per batch, never the event stream."""
    from table_annotation_ray.stages.relational import grouped_topk

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    out = grouped_topk(
        ev, ["user_id"], "ts", k=1, descending=True, tiebreak="event_id",
    ).to_pandas()
    # ordering is (ts DESC, event_id ASC): ts ties resolve to the
    # smallest event_id — mirrored exactly in the SQL window
    out["ts"] = out["ts"].dt.strftime("%Y-%m-%d %H:%M:%S.%f")
    for c in ("user_id", "event_id"):
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape — cheapest supplier per part in one region:
    groupwise argmin (grouped_topk k=1 ascending with suppkey
    tiebreak — the map-side combiner ships one row per (part, batch),
    never the fact table) composed with three dimension joins
    (supplier, nation, part via size-gated equi_join; region filter via
    filter_rows_by_keys).  SQL hash-exact."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from table_annotation_ray.stages.relational import (
        equi_join,
        filter_rows_by_keys,
        grouped_topk,
    )

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"])
    m = grouped_topk(
        li, ["l_partkey"], "l_extendedprice", k=1,
        descending=False, tiebreak="l_suppkey",
    )
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name", "s_nationkey"])
    j = equi_join(m, sup, "l_suppkey", "s_suppkey")
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    j = equi_join(j, nat, "s_nationkey", "n_nationkey")
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).map_batches(
        lambda t: t.filter(pc.equal(t["r_name"], pa.scalar("EUROPE"))),
        batch_format="pyarrow",
    )
    j = filter_rows_by_keys(j, reg, "n_regionkey", "r_regionkey")
    part = _read(sf_dir, "part", ["p_partkey", "p_name"])
    j = equi_join(j, part, "l_partkey", "p_partkey")
    out = j.to_pandas()
    out = out.rename(columns={"l_extendedprice": "min_price"})
    out["p_partkey"] = out["l_partkey"].astype("int64")
    out = out[["p_partkey", "p_name", "s_name", "n_name", "min_price"]]
    return out.sort_values("p_partkey").reset_index(drop=True)


def _q_dq_audit(sf_dir: str):
    """Declarative data-quality audit (stages/dq.py::dq_audit): exact
    violation counts for null/range/accepted-value checks (one shared
    map-only pass per table), uniqueness (bucketed_distinct exchange)
    and referential integrity (size-gated anti_join_keys).  SQL
    hash-exact vs plain COUNT/filter aggregates."""
    from table_annotation_ray.stages.dq import Check, dq_audit

    tables = {
        "orders": _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]),
        "lineitem": _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity", "l_discount"]),
        "events": _read(sf_dir, "events", ["event_id", "event_type"]),
        "customer": _read(sf_dir, "customer", ["c_custkey"]),
    }
    checks = [
        Check("lineitem_quantity_range", "lineitem", "in_range",
              col="l_quantity", lo=1, hi=50),
        Check("lineitem_discount_range", "lineitem", "in_range",
              col="l_discount", lo=0.0, hi=0.08),
        Check("orders_custkey_not_null", "orders", "not_null", col="o_custkey"),
        Check("orders_totalprice_positive", "orders", "in_range",
              col="o_totalprice", lo=0.0, hi=float("inf")),
        Check("orders_orderkey_unique", "orders", "unique", col="o_orderkey"),
        Check("events_type_accepted", "events", "accepted_values",
              col="event_type",
              values=["click", "view", "purchase", "signup"]),
        Check("lineitem_orderkey_fk", "lineitem", "foreign_key",
              col="l_orderkey", parent_table="orders", parent_col="o_orderkey"),
        Check("orders_custkey_fk", "orders", "foreign_key",
              col="o_custkey", parent_table="customer", parent_col="c_custkey"),
    ]
    out = dq_audit(tables, checks)
    for c in ("n_rows", "n_violations"):
        out[c] = out[c].astype("int64")
    out["passed"] = out["passed"].astype(bool)
    return out


def _q_snapshot_diff(sf_dir: str):
    """Snapshot reconciliation (stages/dq.py::snapshot_diff): per-key
    added/removed/changed/unchanged between two table versions — the
    second version derived deterministically from orders (drop %13
    keys, bump price on %7 keys, add %11 keys under new ids).  One
    hash(key) exchange of (key, compare col) rows; counts aggregated
    with grouped_reduce.  SQL hash-exact vs the FULL OUTER JOIN."""
    import pyarrow as pa

    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.dq import snapshot_diff

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def make_new(b: pd.DataFrame) -> pa.Table:
        kept = b[b["o_orderkey"] % 13 != 0].copy()
        bump = kept["o_orderkey"] % 7 == 0
        kept.loc[bump, "o_totalprice"] += 10
        added = b[b["o_orderkey"] % 11 == 0].copy()
        added["o_orderkey"] += 10_000_000
        return pa.Table.from_pandas(
            pd.concat([kept, added]), preserve_index=False
        )

    new = orders.map_batches(make_new, batch_format="pandas")
    d = snapshot_diff(orders, new, "o_orderkey", ["o_totalprice"])
    out = grouped_reduce(d, ["status"], {"n": (None, "count")}).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("status").reset_index(drop=True)


def _q_compression_ratio(sf_dir: str):
    """Per-document zlib compression ratio (stages/textstats.py::
    compression_stats — map-only, one C zlib call per doc): the
    repetition/boilerplate quality signal of the Gopher rule family.
    Rows-only (no SQL zlib); pytest pins the repetitive-text ordering
    property and exact zlib agreement."""
    from table_annotation_ray.stages.textstats import compression_stats

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(compression_stats, batch_format="pandas").to_pandas()
    for c in ("doc_id", "n_bytes", "n_compressed"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_psi_drift(sf_dir: str):
    """Population Stability Index of event values, first half vs second
    half of the month (stages/stats.py::psi_drift — baseline decile
    edges via the exact-quantile histogram refinement, one map-only
    counting pass per side against the broadcast cuts).  SQL hash-exact
    vs the ranked-window quantile + count(c < value) binning."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from table_annotation_ray.stages.stats import psi_drift

    CUT = pd.Timestamp("2024-01-16")
    ev = _read(sf_dir, "events", ["ts", "value"])
    base = ev.map_batches(
        lambda t: t.filter(pc.less(t["ts"], pa.scalar(CUT))).select(["value"]),
        batch_format="pyarrow",
    )
    cur = ev.map_batches(
        lambda t: t.filter(pc.greater_equal(t["ts"], pa.scalar(CUT))).select(["value"]),
        batch_format="pyarrow",
    )
    out = psi_drift(base, cur, "value", n_bins=10)
    for c in ("bin", "n_base", "n_cur"):
        out[c] = out[c].astype("int64")
    return out.sort_values("bin").reset_index(drop=True)


def _q_debounce_events(sf_dir: str):
    """Windowed stream dedup (debounce): drop an event when the
    previous event of the same (user, type) — by (ts, event_id) order —
    is within 10 minutes.  Composition of stages/windows.py::lag_by_key
    (hash-bucket exchange, vectorized in-bucket groupby-shift) and a
    map-only interval filter.  SQL hash-exact vs the LAG window."""
    import pyarrow as pa

    from table_annotation_ray.stages.windows import lag_by_key

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])

    def keyed(b: pd.DataFrame) -> pa.Table:
        b = b.copy()
        b["k"] = b["user_id"].astype(str) + "|" + b["event_type"]
        return pa.Table.from_pandas(b, preserve_index=False)

    lag = lag_by_key(
        ev.map_batches(keyed, batch_format="pandas"),
        "k", ["ts", "event_id"], ["ts"],
    )

    def keep(b: pd.DataFrame) -> pa.Table:
        m = b["ts_prev"].isna() | (
            (b["ts"] - b["ts_prev"]) > pd.Timedelta(seconds=600)
        )
        out = b.loc[m, ["user_id", "event_id", "ts", "event_type"]]
        return pa.Table.from_pandas(out, preserve_index=False)

    out = lag.map_batches(keep, batch_format="pandas").to_pandas()
    out["ts"] = out["ts"].dt.strftime("%Y-%m-%d %H:%M:%S.%f")
    for c in ("user_id", "event_id"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


def _q_events_ohlc(sf_dir: str):
    """Hourly OHLC candles over event values (stages/windows.py::
    ohlc_by_key — associative first/last-by-(ts, tiebreak) partials,
    one row per (key, batch) into a single hash(key) exchange; the
    event stream never shuffles).  SQL hash-exact vs row_number
    boundary windows."""
    import pyarrow as pa

    from table_annotation_ray.stages.windows import ohlc_by_key

    ev = _read(sf_dir, "events", ["event_id", "ts", "value"])

    def hour(b: pd.DataFrame) -> pa.Table:
        b = b.copy()
        b["hour"] = b["ts"].dt.floor("h")
        return pa.Table.from_pandas(
            b[["hour", "ts", "event_id", "value"]], preserve_index=False
        )

    out = ohlc_by_key(
        ev.map_batches(hour, batch_format="pandas"),
        ["hour"], "ts", "value", tiebreak="event_id",
    ).to_pandas()
    out["hour"] = out["hour"].dt.strftime("%Y-%m-%d %H:%M:%S")
    out["n_events"] = out["n_events"].astype("int64")
    return out.sort_values("hour").reset_index(drop=True)


def _q_events_cdc_merge(sf_dir: str):
    """Lakehouse CDC MERGE (stages/relational.py::merge_upsert):
    latest-wins upsert of a change stream onto a base snapshot with
    delete tombstones — base = newest first-half event per user
    (grouped_topk), changes = second-half events, a winning 'error'
    event deletes the user.  Map-side ≤1-per-(key,batch) combiner, one
    hash(key) exchange.  SQL hash-exact vs the row_number window."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from table_annotation_ray.stages.relational import grouped_topk, merge_upsert

    COLS = ["user_id", "event_id", "ts", "event_type", "value", "is_delete"]
    CUT = pd.Timestamp("2024-01-16")
    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type", "value"])

    def first_half(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["ts"], pa.scalar(CUT)))

    def add_no_delete(t: pa.Table) -> pa.Table:
        t = t.append_column(
            "is_delete", pa.array(np.zeros(t.num_rows, bool), pa.bool_())
        )
        return t.select(COLS)

    def changes_half(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["ts"], pa.scalar(CUT)))
        t = t.append_column(
            "is_delete", pc.equal(t["event_type"], pa.scalar("error"))
        )
        return t.select(COLS)

    base = grouped_topk(
        ev.map_batches(first_half, batch_format="pyarrow"),
        ["user_id"], "ts", k=1, descending=True, tiebreak="event_id",
    ).map_batches(add_no_delete, batch_format="pyarrow")
    changes = ev.map_batches(changes_half, batch_format="pyarrow")
    out = merge_upsert(
        base, changes, "user_id", "ts", "event_id", delete_col="is_delete"
    ).to_pandas()
    out = out.drop(columns=["is_delete"])
    out["ts"] = out["ts"].dt.strftime("%Y-%m-%d %H:%M:%S.%f")
    for c in ("user_id", "event_id"):
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape — two composed equi-joins (customer⋈orders on
    custkey, then ⋈lineitem on orderkey) + revenue aggregate + top-10:
    exercises join composition with the broadcast/bucketed gate."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.relational import equi_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def seg(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["c_mktsegment"], pa.scalar("BUILDING"))).select(
            ["c_custkey"]
        )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    co = equi_join(orders, cust.map_batches(seg, batch_format="pyarrow"),
                   "o_custkey", "c_custkey")
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    j = equi_join(li, co.select_columns(["o_orderkey", "o_orderdate"]),
                  "l_orderkey", "o_orderkey")

    def rev(b: pd.DataFrame) -> "pa.Table":
        import pyarrow as pa

        return pa.table(
            {
                "l_orderkey": b["l_orderkey"].to_numpy(dtype=np.int64),
                "o_orderdate": b["o_orderdate"].to_numpy(),
                "revenue": (
                    b["l_extendedprice"].to_numpy()
                    * (1.0 - b["l_discount"].to_numpy())
                ),
            }
        )

    agg = grouped_reduce(
        j.map_batches(rev, batch_format="pandas"),
        ["l_orderkey", "o_orderdate"],
        {"revenue": ("revenue", "sum")},
    ).to_pandas()
    agg["revenue"] = _round_ha(agg["revenue"], 2)
    out = agg.sort_values(
        ["revenue", "l_orderkey"], ascending=[False, True]
    ).head(10).reset_index(drop=True)
    out["o_orderdate"] = pd.to_datetime(out["o_orderdate"]).dt.strftime("%Y-%m-%d")
    out["l_orderkey"] = out["l_orderkey"].astype("int64")
    return out


def _q_order_priority_revenue(sf_dir: str, broadcast_below: int = 2_000_000):
    """Large-large payload-preserving equi-join (lineitem ⋈ orders on
    orderkey) then aggregate — stages/relational.py::equi_join.  At sf
    scale the orders side fits the broadcast gate; `_dist` forces the
    bucketed co-location path (the only shape that survives when BOTH
    sides are fact-table-sized)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from table_annotation_ray.stages.relational import equi_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = equi_join(
        li, orders, "l_orderkey", "o_orderkey", broadcast_below=broadcast_below
    )

    def rev_combine(b: pd.DataFrame) -> pa.Table:
        # map-side combine: 5 priority partial rows per batch instead of
        # shuffling the whole joined fact table into a 5-key aggregate
        r = b["l_extendedprice"].to_numpy() * (1.0 - b["l_discount"].to_numpy())
        g = (
            pd.DataFrame({"o_orderpriority": b["o_orderpriority"], "r": r})
            .groupby("o_orderpriority", as_index=False)
            .agg(revenue=("r", "sum"), n_items=("r", "size"))
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = joined.map_batches(rev_combine, batch_format="pandas").to_pandas()
    out = (
        partials.sort_values(["o_orderpriority", "n_items", "revenue"])
        .groupby("o_orderpriority", as_index=False)
        .agg(revenue=("revenue", "sum"), n_items=("n_items", "sum"))
    )
    out["revenue"] = _round_ha(out["revenue"], 2)
    out["n_items"] = out["n_items"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def _q_order_priority_revenue_dist(sf_dir: str):
    return _q_order_priority_revenue(sf_dir, broadcast_below=0)


def _q_customer_order_counts(sf_dir: str, broadcast_below: int = 2_000_000):
    """LEFT outer equi-join (stages/relational.py::equi_join
    how='left'): zero-order customers survive with null order keys and
    count 0 — the SQL LEFT JOIN + count(col) null semantics.  `_dist`
    forces the bucketed co-location path."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.relational import equi_join

    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey"])
    joined = equi_join(
        cust, orders, "c_custkey", "o_custkey",
        broadcast_below=broadcast_below, how="left",
    )

    def ind(b: pd.DataFrame) -> "pa.Table":
        import pyarrow as pa

        return pa.table(
            {
                "c_custkey": b["c_custkey"].to_numpy(dtype=np.int64),
                "has_order": b["o_orderkey"].notna().to_numpy().astype(np.int64),
            }
        )

    out = grouped_reduce(
        joined.map_batches(ind, batch_format="pandas"),
        ["c_custkey"],
        {"n_orders": ("has_order", "sum")},
    ).to_pandas()
    for c in ("c_custkey", "n_orders"):
        out[c] = out[c].astype("int64")
    return out.sort_values("c_custkey").reset_index(drop=True)


def _q_customer_order_counts_dist(sf_dir: str):
    return _q_customer_order_counts(sf_dir, broadcast_below=0)


def _q_user_rolling_value(sf_dir: str):
    """Trailing 24 h per-user rolling sum over event values
    (stages/windows.py::rolling_sum_by_key) — the SQL RANGE-frame
    window, computed per co-located key group from one cumsum + two
    searchsorted probes."""
    from table_annotation_ray.stages.windows import rolling_sum_by_key

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out = rolling_sum_by_key(
        ev, "user_id", "ts", "value", pd.Timedelta(hours=24)
    ).to_pandas()
    out["roll_sum"] = _round_ha(out["roll_sum"], 2)
    out["ts"] = out["ts"].dt.strftime("%Y-%m-%d %H:%M:%S.%f")
    out = out.drop(columns=["value"])
    for c in ("event_id", "user_id"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


def _q_user_funnel(sf_dir: str):
    """Sequence-pattern (funnel) match per user — greedy earliest
    view→click→purchase chain, each hop within 2 h of the previous
    match (stages/windows.py::funnel_by_key): map-side step filter,
    hash-bucket exchange, per-key searchsorted walk."""
    from table_annotation_ray.stages.windows import funnel_by_key

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    out = funnel_by_key(
        ev, "user_id", "ts", "event_type",
        steps=["view", "click", "purchase"], within=pd.Timedelta(hours=2),
    ).to_pandas()
    out["last_ts"] = out["last_ts"].dt.strftime("%Y-%m-%d %H:%M:%S.%f")
    for c in ("user_id", "n_steps"):
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_embedding_clusters(sf_dir: str):
    """Distributed Lloyd k-means over the embedding table
    (stages/clustering.py): one streaming pass per iteration, broadcast
    centroids, map-side-combined per-centroid partials.  Rows-only
    (iterative model fit); pytest asserts planted-cluster recovery and
    monotone inertia."""
    from ray.data.aggregate import Count, Sum

    from table_annotation_ray.stages.clustering import kmeans_assign, kmeans_fit

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cents, _hist = kmeans_fit(emb, k=8, iters=8)
    out = (
        kmeans_assign(emb, cents)
        .groupby("cluster")
        .aggregate(Count(alias_name="n"), Sum("dist2", alias_name="inertia"))
        .to_pandas()
    )
    out["inertia"] = _round_ha(out["inertia"], 4)
    out["n"] = out["n"].astype("int64")
    return out.sort_values("cluster").reset_index(drop=True)


def _q_bm25_search(sf_dir: str):
    """BM25 ranked retrieval (stages/retrieval.py::bm25_topk): one
    corpus-stats pass (batch partials), one vectorized score pass with
    per-batch partial top-k.  Scores rounded at 6dp before ranking so
    the ordering is reproducible vs the SQL formula (libm ln ulp)."""
    from table_annotation_ray.stages.retrieval import bm25_topk

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = bm25_topk(docs, ["hash", "join", "vector"], k=10)
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


def _q_bm25_indexed_search(sf_dir: str):
    """Index-backed BM25 (stages/retrieval.py::bm25_topk_indexed):
    scores computed from the materialized inverted_postings table +
    token_stats doc lengths — only query-term posting lists cross the
    scoring exchange, never the raw text.  Same formula/rounding as
    bm25_search; pytest pins scan/index equivalence."""
    from table_annotation_ray.stages.retrieval import (
        bm25_topk_indexed,
        inverted_postings,
    )
    from table_annotation_ray.stages.textstats import token_stats

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    postings = inverted_postings(docs)
    lens = docs.map_batches(token_stats, batch_format="pandas").select_columns(
        ["doc_id", "n_tokens"]
    )
    out = bm25_topk_indexed(postings, lens, ["scan", "merge"], k=10)
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


def _q_text_clusters(sf_dir: str):
    """Embedding-free text clustering (stages/textstats.py::
    hashed_text_features → stages/clustering.py k-means): signed
    feature hashing turns raw text into 64-d vectors with no vocabulary
    pass or model, then the distributed k-means gate clusters them.
    Rows-only (k-means labels have no SQL equivalent); planted-topic
    recovery is pytest-pinned."""
    from table_annotation_ray.stages.clustering import kmeans_assign, kmeans_fit
    from table_annotation_ray.stages.textstats import hashed_text_features

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    # materialize: the features feed every Lloyd pass AND the final
    # assign (single-execution inputs rule)
    feats = hashed_text_features(docs, dim=64).materialize()
    cents, _ = kmeans_fit(feats, k=4, iters=8)
    out = kmeans_assign(feats, cents, id_col="doc_id").to_pandas()
    out = out[["doc_id", "cluster"]].astype({"doc_id": "int64", "cluster": "int64"})
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_price_quantiles_approx(sf_dir: str):
    """ONE-scan approximate quantiles via mergeable KLL sketches
    (stages/quantiles.py::kll_quantiles, tree-reduced partials) — the
    100-TB path where exact_quantiles' 2+log scans are too many.
    Rows-only (randomized compaction); pytest bounds rank error <2.5%,
    and this query reports the measured rank error vs the exact values
    so the driver check documents it."""
    from table_annotation_ray.stages.quantiles import exact_quantiles, kll_quantiles

    qs = [0.25, 0.5, 0.75, 0.9, 0.99]
    li = _read(sf_dir, "lineitem", ["l_extendedprice"])
    approx = kll_quantiles(li, "l_extendedprice", qs)
    exact = exact_quantiles(
        _read(sf_dir, "lineitem", ["l_extendedprice"]), "l_extendedprice", qs
    ).sort_values("q").reset_index(drop=True)
    out = approx.merge(exact, on="q", suffixes=("_approx", "_exact"))
    out["rel_err"] = _round_ha(
        (out["value_approx"] - out["value_exact"]).abs() / out["value_exact"], 4
    )
    out["value_approx"] = _round_ha(out["value_approx"], 2)
    out["value_exact"] = _round_ha(out["value_exact"], 2)
    return out.sort_values("q").reset_index(drop=True)


def _q_value_quantiles_by_type_approx(sf_dir: str):
    """Per-group ONE-scan approximate quantiles (grouped_kll_quantiles:
    per-(group,batch) KLL partials, hash-bucket exchange, in-bucket
    merge) vs the exact 3-scan operator — reports per-row rel_err."""
    from table_annotation_ray.stages.quantiles import (
        grouped_kll_quantiles,
        grouped_quantiles,
    )

    qs = [0.5, 0.9, 0.99]
    ev = _read(sf_dir, "events", ["event_type", "value"])
    approx = grouped_kll_quantiles(ev, "event_type", "value", qs).to_pandas()
    exact = grouped_quantiles(
        _read(sf_dir, "events", ["event_type", "value"]), "event_type", "value", qs
    )
    out = approx.merge(exact, on=["event_type", "q"], suffixes=("_approx", "_exact"))
    out["rel_err"] = _round_ha(
        (out["value_approx"] - out["value_exact"]).abs()
        / out["value_exact"].abs().clip(lower=1e-12),
        4,
    )
    out["value_approx"] = _round_ha(out["value_approx"], 4)
    out["value_exact"] = _round_ha(out["value_exact"], 4)
    return out.sort_values(["event_type", "q"]).reset_index(drop=True)


def _q_value_quantiles_by_type(sf_dir: str):
    """Exact per-group quantiles in 3 streaming scans for ALL groups
    (stages/quantiles.py::grouped_quantiles) — huge-group-safe, unlike
    a per-group sort in map_groups."""
    from table_annotation_ray.stages.quantiles import grouped_quantiles

    ev = _read(sf_dir, "events", ["event_type", "value"])
    return grouped_quantiles(ev, "event_type", "value", [0.5, 0.9, 0.99])


def _q_price_quantiles(sf_dir: str):
    """Exact distributed quantiles by histogram selection — 2 + log
    streaming scans, zero shuffle, vs a full global sort
    (stages/quantiles.py::exact_quantiles).  Values pass through
    untouched so the float compare vs the rank-k oracle is exact."""
    from table_annotation_ray.stages.quantiles import exact_quantiles

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])
    out = exact_quantiles(li, "l_extendedprice", [0.25, 0.5, 0.75, 0.9, 0.99])
    return out.sort_values("q").reset_index(drop=True)


def _q_event_gaps(sf_dir: str):
    """Per-key LAG window (stages/windows.py::lag_by_key): previous
    event's type and the gap to it per user — SQL LAG OVER (PARTITION BY
    user ORDER BY ts, event_id).  One key co-location, vectorized shift;
    null lags encoded as ''/-1 so the compare is null-representation
    independent."""
    from table_annotation_ray.stages.windows import lag_by_key

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    out = lag_by_key(
        ev, "user_id", ["ts", "event_id"], ["ts", "event_type"]
    ).to_pandas()
    gap = out["ts"] - out["ts_prev"]
    out["gap_us"] = (gap / pd.Timedelta(microseconds=1)).fillna(-1).astype("int64")
    out["prev_type"] = out["event_type_prev"].fillna("")
    out = out[["event_id", "user_id", "prev_type", "gap_us"]]
    for c in ("event_id", "user_id"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


def _q_revenue_rollup(sf_dir: str):
    """GROUP BY ROLLUP in one scan (stages/agg.py::rollup_reduce):
    map-side partials per grouping set (finest partial relabeled, raw
    rows never re-aggregated), the 64-value bucket exchange, sentinel
    '(all)' standing in for the rollup NULL on both sides."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from table_annotation_ray.stages.agg import rollup_reduce

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"])

    def rev(b: pa.Table) -> pa.Table:
        r = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return pa.table({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "revenue": r,
        })

    out = rollup_reduce(
        li.map_batches(rev, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {"revenue": ("revenue", "sum"), "n_items": (None, "count")},
    ).to_pandas()
    out["revenue"] = _round_ha(out["revenue"], 2)
    out["n_items"] = out["n_items"].astype("int64")
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


def _q_revenue_cube(sf_dir: str):
    """GROUP BY CUBE via rollup_reduce(grouping_sets=all subsets) —
    same single-scan shape as the rollup, arbitrary sets."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from table_annotation_ray.stages.agg import rollup_reduce

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_extendedprice", "l_discount"])

    def rev(b: pa.Table) -> pa.Table:
        r = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return pa.table({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "revenue": r,
        })

    out = rollup_reduce(
        li.map_batches(rev, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {"revenue": ("revenue", "sum"), "n_items": (None, "count")},
        grouping_sets=[["l_returnflag", "l_linestatus"], ["l_returnflag"],
                       ["l_linestatus"], []],
    ).to_pandas()
    out["revenue"] = _round_ha(out["revenue"], 2)
    out["n_items"] = out["n_items"].astype("int64")
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


def _q_part_distinct_suppliers(sf_dir: str):
    """Exact COUNT(DISTINCT) per key at corpus key cardinality
    (stages/agg.py::distinct_count_by_key): map-side pair shrink →
    pair-hash bucket dedup → grouped_reduce count; shuffles distinct
    pairs, never rows, no per-key Python."""
    from table_annotation_ray.stages.agg import distinct_count_by_key

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    out = distinct_count_by_key(
        li, ["l_partkey"], "l_suppkey", out_col="n_suppliers"
    ).to_pandas()
    for c in ("l_partkey", "n_suppliers"):
        out[c] = out[c].astype("int64")
    return out.sort_values("l_partkey").reset_index(drop=True)


def _q_repeated_ngrams(sf_dir: str):
    """Exact cross-doc repeated substrings (stages/dedup.py::
    repeated_ngrams — the Lee-et-al ExactSubstr primitive): per-doc
    distinct 40-gram explode → grouped_reduce count/min → filter
    n_docs ≥ 2.  SQL mirror is a positional substr explode."""
    from table_annotation_ray.stages.dedup import repeated_ngrams

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = repeated_ngrams(docs, k=40, min_docs=2).to_pandas()
    for c in ("n_docs", "min_doc"):
        out[c] = out[c].astype("int64")
    return out.sort_values("gram").reset_index(drop=True)


def _q_embedding_pca(sf_dir: str):
    """Distributed PCA (stages/decomp.py): one streaming moment pass
    (count/sum/Gram partials, tree-reduced) → d×d driver eigh →
    broadcast projection pass.  Rows-only (float eigendecomposition);
    pytest asserts exact agreement with numpy and sign determinism."""
    from table_annotation_ray.stages.decomp import pca_fit, pca_transform

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    model = pca_fit(emb, n_components=4)
    proj = pca_transform(emb, model, keep_cols=["vec_id"]).to_pandas()
    evr = model["explained_variance_ratio"]
    out = pd.DataFrame(
        {
            "component": np.arange(len(evr), dtype=np.int64),
            "evr": _round_ha(pd.Series(evr), 6),
            "proj_var": _round_ha(
                pd.Series([proj[f"pc{i}"].var(ddof=1) for i in range(len(evr))]), 4
            ),
        }
    )
    return out


def _q_doc_perplexity(sf_dir: str):
    """Corpus-trained bigram-LM perplexity per document (stages/lm.py)
    — the KenLM-style model-based quality gate: two grouped_reduce
    count passes train a bounded model, one broadcast scoring pass.
    Rows-only (float log-prob model); pytest asserts clean text scores
    ≥3× lower than shuffled-vocab gibberish and cross-layout
    determinism."""
    from table_annotation_ray.stages.lm import score_perplexity, train_bigram_lm

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    model = train_bigram_lm(docs)
    out = score_perplexity(
        _read(sf_dir, "documents", ["doc_id", "text"]), model
    ).to_pandas()
    out["ppl"] = _round_ha(out["ppl"], 4)
    for c in ("doc_id", "n_bigrams"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_semantic_dedup(sf_dir: str):
    """SemDeDup (arXiv:2303.09540): k-means clusters, then cosine
    near-dup victims searched only within clusters (Σ|c|² not n²).
    Runs over the embeddings table with planted near-duplicates
    (stages/similarity.py::plant_near_dups) so the victim set is
    non-trivial; pytest asserts planted recall ≥0.8."""
    from table_annotation_ray.stages.similarity import plant_near_dups, semantic_dedup

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    planted = plant_near_dups(emb)
    out = semantic_dedup(planted, k=16, threshold=0.95).to_pandas()
    out["cosine"] = _round_ha(out["cosine"], 4)
    for c in ("dup_id", "kept_id"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["dup_id", "kept_id"]).reset_index(drop=True)


def _q_graph_pagerank(sf_dir: str):
    """Distributed PageRank (stages/graph.py::pagerank_auto — engine
    dispatch on edges × iters: the shard-actor tier loads edges once
    and exchanges only rank partials above the threshold, the
    Dataset/Pregel engine below it; both pytest-pinned identical, node
    state never driver-side) over the customer→supplier purchase graph
    (orders ⋈ lineitem).  Rows-only: iterative float fixpoint; pytest
    asserts equality with an in-memory power iteration."""
    from table_annotation_ray.stages.graph import pagerank_auto
    from table_annotation_ray.stages.relational import equi_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = equi_join(li, orders, "l_orderkey", "o_orderkey")

    def to_edges(b: pd.DataFrame) -> pd.DataFrame:
        # disjoint id spaces: customers even, suppliers odd
        return pd.DataFrame(
            {
                "src": b["o_custkey"].to_numpy() * 2,
                "dst": b["l_suppkey"].to_numpy() * 2 + 1,
            }
        )

    ranks, _engine = pagerank_auto(
        joined.map_batches(to_edges, batch_format="pandas"), iters=5
    )
    out = (
        ranks.sort("rank", descending=True).limit(20).to_pandas()
    )
    out["is_supplier"] = (out["node"] % 2 == 1).astype("int64")
    out["entity_id"] = (out["node"] // 2).astype("int64")
    out["rank"] = _round_ha(out["rank"], 8)
    return out[["entity_id", "is_supplier", "rank"]].reset_index(drop=True)


def _q_copurchased_parts(sf_dir: str):
    """Market-basket co-occurrence (stages/relational.py::
    cooccurrence_pairs): part pairs appearing together in ≥2 orders —
    basket-bucket co-location, one vectorized self-merge per bucket,
    pair counts through grouped_reduce."""
    from table_annotation_ray.stages.relational import cooccurrence_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    out = cooccurrence_pairs(
        li, "l_orderkey", "l_partkey", min_count=2
    ).to_pandas()
    for c in ("item_a", "item_b", "n_baskets"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["item_a", "item_b"]).reset_index(drop=True)


def _q_chunk_documents(sf_dir: str):
    """Fixed-token chunk assignments with overlap
    (stages/datapipe.py::chunk_documents): 64-token windows, 8-token
    overlap — the RAG/context-window preprocessing table, fully
    vectorized.  SQL mirrors the chunk-count closed form + a positional
    range explode."""
    from table_annotation_ray.stages.datapipe import chunk_documents

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = chunk_documents(docs, chunk_tokens=64, overlap=8).to_pandas()
    for c in ("doc_id", "chunk_idx", "start_tok", "n_tokens"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)


def _q_value_outliers(sf_dir: str):
    """Per-group quantile outlier filter — events strictly above their
    type's exact p99 (grouped_quantiles → broadcast thresholds → one
    streaming filter pass).  The anomaly-gate composition; SQL mirrors
    the rank-k quantile then the same join+filter."""
    import pyarrow as pa

    from table_annotation_ray.stages.quantiles import grouped_quantiles

    q = grouped_quantiles(
        _read(sf_dir, "events", ["event_type", "value"]), "event_type", "value",
        [0.99],
    )
    thresholds = dict(zip(q["event_type"], q["value"]))

    def flt(b: pd.DataFrame) -> pa.Table:
        thr = b["event_type"].map(thresholds).to_numpy(dtype=np.float64)
        keep = b["value"].to_numpy(dtype=np.float64) > thr
        out = b.loc[keep, ["event_id", "event_type", "value"]]
        return pa.Table.from_pandas(out, preserve_index=False)

    out = (
        _read(sf_dir, "events", ["event_id", "event_type", "value"])
        .map_batches(flt, batch_format="pandas")
        .to_pandas()
    )
    out["event_id"] = out["event_id"].astype("int64")
    out["value"] = _round_ha(out["value"], 6)
    return out.sort_values("event_id").reset_index(drop=True)


def _q_cohort_retention(sf_dir: str):
    """Cohort retention — users grouped by first-event day, distinct
    active users per (cohort_day, active_day).  Pure composition of the
    repo's operators: grouped_reduce (first event per user) →
    equi_join (events ⋈ cohorts on user, size-gated) →
    distinct_count_by_key on the day pair.  SQL mirror: min-over-group
    + join + count(DISTINCT)."""
    import pyarrow as pa

    from table_annotation_ray.stages.agg import distinct_count_by_key, grouped_reduce
    from table_annotation_ray.stages.relational import equi_join

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def to_day(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "user_id": b["user_id"].to_numpy(dtype=np.int64),
                "day": b["ts"].dt.floor("D").to_numpy(),
            }
        )

    days = ev.map_batches(to_day, batch_format="pandas")
    cohorts = grouped_reduce(days, ["user_id"], {"cohort_day": ("day", "min")})
    joined = equi_join(
        _read(sf_dir, "events", ["user_id", "ts"]).map_batches(
            to_day, batch_format="pandas"
        ),
        cohorts,
        "user_id",
    )
    out = distinct_count_by_key(
        joined, ["cohort_day", "day"], "user_id", out_col="n_users"
    ).to_pandas()
    out["cohort_day"] = pd.to_datetime(out["cohort_day"]).dt.strftime("%Y-%m-%d")
    out["day"] = pd.to_datetime(out["day"]).dt.strftime("%Y-%m-%d")
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values(["cohort_day", "day"]).reset_index(drop=True)


def _q_incremental_dedup(sf_dir: str):
    """Incremental near-dedup (stages/dedup.py::cross_corpus_near_dups):
    a deterministic 20% hash sample of documents, re-ingested with
    offset ids, is deduped AGAINST the full corpus — only cross-side
    pairs are generated (the base's quadratic term never exists).
    Rows-only; pytest pins cross-side-only pairing, planted recall and
    base-internal-dup exclusion."""
    import pyarrow as pa

    from table_annotation_ray.stages.datapipe import id_hash_bucket
    from table_annotation_ray.stages.dedup import cross_corpus_near_dups

    base = _read(sf_dir, "documents", ["doc_id", "text"])

    def resample(b: pd.DataFrame) -> pa.Table:
        keep = id_hash_bucket(b["doc_id"]) < 20
        out = b.loc[keep].copy()
        out["doc_id"] = out["doc_id"] + 1_000_000_000
        return pa.Table.from_pandas(out, preserve_index=False)

    new = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        resample, batch_format="pandas"
    )
    out = cross_corpus_near_dups(new, base, threshold=0.8).to_pandas()
    out["jaccard"] = _round_ha(out["jaccard"], 4)
    for c in ("a", "b"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def _q_lineitem_profile(sf_dir: str):
    """One-pass per-column data-quality profile
    (stages/datapipe.py::profile_columns): row/null counts, min/max,
    sums for numerics, length ranges for strings — the ingestion
    validation scan, SQL-mirrored with a UNION ALL of per-column
    aggregates."""
    from table_annotation_ray.stages.datapipe import profile_columns

    li = _read(sf_dir, "lineitem",
               ["l_quantity", "l_extendedprice", "l_discount",
                "l_returnflag", "l_linestatus"])
    out = profile_columns(
        li,
        numeric_cols=["l_quantity", "l_extendedprice", "l_discount"],
        string_cols=["l_returnflag", "l_linestatus"],
    ).rename(columns={"column": "col"})
    out["min"] = _round_ha(out["min"], 6)
    out["max"] = _round_ha(out["max"], 6)
    out["sum"] = _round_ha(out["sum"], 2)
    return out.sort_values("col").reset_index(drop=True)


def _q_frequent_users_by_type(sf_dir: str):
    """EXACT per-group heavy hitters (stages/sketches.py::
    grouped_heavy_hitters): users with ≥20 events of a type — per-group
    Misra-Gries candidates (superset guaranteed while min_count ≥
    N_g/k, asserted) + one exact grouped_reduce verify pass over
    candidates only."""
    from table_annotation_ray.stages.sketches import grouped_heavy_hitters

    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    out = grouped_heavy_hitters(
        ev, ["event_type"], "user_id", min_count=20, k=4096
    ).to_pandas()
    for c in ("user_id", "n"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["event_type", "user_id"]).reset_index(drop=True)


def _q_approx_distinct_by_type(sf_dir: str):
    """Per-group HLL distinct counts in one scan
    (stages/sketches.py::approx_distinct_by_key) vs the exact operator
    — reports measured rel_err per group (rows-only; pytest bounds
    <5%)."""
    from table_annotation_ray.stages.agg import distinct_count_by_key
    from table_annotation_ray.stages.sketches import approx_distinct_by_key

    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    approx = approx_distinct_by_key(ev, ["event_type"], "user_id").to_pandas()
    exact = distinct_count_by_key(
        _read(sf_dir, "events", ["event_type", "user_id"]),
        ["event_type"], "user_id", out_col="n_exact",
    ).to_pandas()
    out = approx.merge(exact, on="event_type")
    out["n_exact"] = out["n_exact"].astype("int64")
    out["rel_err"] = _round_ha(
        (out["approx_distinct"] - out["n_exact"]).abs() / out["n_exact"], 4
    )
    out["approx_distinct"] = _round_ha(out["approx_distinct"], 1)
    return out.sort_values("event_type").reset_index(drop=True)


def _q_weighted_sample(sf_dir: str):
    """Deterministic weighted sampling without replacement
    (Efraimidis–Spirakis keys from the id hash;
    stages/datapipe.py::weighted_sample_k): 200 orders sampled
    proportional to o_totalprice.  Rows-only (the float key ordering is
    libm-sensitive across engines); pytest asserts the inclusion-rate
    guarantee and cross-layout determinism."""
    from table_annotation_ray.stages.datapipe import weighted_sample_k

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    out = weighted_sample_k(orders, "o_orderkey", "o_totalprice", k=200).to_pandas()
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    out["o_totalprice"] = _round_ha(out["o_totalprice"], 2)
    return out.sort_values("o_orderkey").reset_index(drop=True)


def _q_props_k_by_type(sf_dir: str):
    """Semi-structured extraction: parse the JSON ``props`` column
    (real ``json.loads`` per row — per-row work on per-row payloads,
    same class as repetition_stats), then grouped_reduce sum/count per
    event type.  SQL mirror: json_extract.  Rows with missing/invalid
    JSON or key contribute NULL (dropped from the aggregate), matching
    SQL json_extract semantics."""
    import json as _json

    import pyarrow as pa

    from table_annotation_ray.stages.agg import grouped_reduce

    ev = _read(sf_dir, "events", ["event_type", "props"])

    def extract(b: pd.DataFrame) -> pa.Table:
        vals = []
        for p in b["props"]:
            try:
                v = _json.loads(p).get("k")
                vals.append(int(v) if v is not None else None)
            except (TypeError, ValueError):
                vals.append(None)
        out = pd.DataFrame({"event_type": b["event_type"], "k": vals})
        out = out[out["k"].notna()]
        out["k"] = out["k"].astype("int64")
        return pa.Table.from_pandas(out, preserve_index=False)

    out = grouped_reduce(
        ev.map_batches(extract, batch_format="pandas"),
        ["event_type"],
        {"sum_k": ("k", "sum"), "n": (None, "count")},
    ).to_pandas()
    for c in ("sum_k", "n"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


def _q_event_value_rank(sf_dir: str):
    """Distributed row_number over an ARBITRARY sort key
    (stages/datapipe.py::global_rank — range-partitioned rank, TeraSort
    shape): sampled boundaries, vectorized bucket tag, count-prefix
    scan, in-bucket sort+cumcount.  Never a single-node global sort."""
    from table_annotation_ray.stages.datapipe import global_rank

    ev = _read(sf_dir, "events", ["event_id", "value"])
    out = global_rank(ev, ["value"], "event_id").to_pandas()
    for c in ("event_id", "position"):
        out[c] = out[c].astype("int64")
    out["value"] = _round_ha(out["value"], 6)
    return out.sort_values("position").reset_index(drop=True)


def _q_corpus_mix(sf_dir: str):
    """Corpus mixing end-to-end: per-language deterministic sampling
    rates (stratified_sample: en 80%, fr 50%, others 20%) composed with
    the deterministic global training order (shuffle_order) — the
    composition a data-mixing job runs before writing an epoch.  Fully
    SQL-mirrored: CASE-over-hash sampling + row_number over the same
    hash ordering."""
    from table_annotation_ray.stages.datapipe import shuffle_order, stratified_sample

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    sampled = docs.map_batches(
        stratified_sample,
        batch_format="pandas",
        fn_kwargs={"rates": {"en": 80, "fr": 50}, "default_pct": 20,
                   "group_col": "lang"},
    )
    out = shuffle_order(sampled, num_buckets=64).to_pandas()
    for c in ("doc_id", "position"):
        out[c] = out[c].astype("int64")
    return out[["doc_id", "position"]].sort_values("position").reset_index(drop=True)


def _q_mask_repeated_spans(sf_dir: str):
    """Exact-substring dedup ACTION (stages/dedup.py::
    mask_repeated_spans): drop every char span covered by a cross-doc
    repeated 40-gram except in its first document.  Rows-only (the
    detection half, repeated_ngrams, is the SQL-verified one); pytest
    pins span semantics and broadcast ≡ co-location paths.  Returns the
    per-doc mask summary (text itself omitted from the result frame)."""
    from table_annotation_ray.stages.dedup import mask_repeated_spans

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = mask_repeated_spans(docs, k=40, min_docs=2).to_pandas()
    out["new_len"] = out["text"].str.len().astype("int64")
    out = out.drop(columns="text")
    for c in ("doc_id", "n_spans", "n_dropped_chars"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_uniform_sample_k(sf_dir: str):
    """Deterministic fixed-size-k uniform sample by bottom-k-of-hash
    (stages/datapipe.py::bottomk_by_hash): per-batch partial bottom-k,
    then sort+limit over ≤k-per-batch partials — exact count without a
    global sort of the input and without RNG/cluster-order state."""
    from table_annotation_ray.stages.datapipe import bottomk_by_hash

    ev = _read(sf_dir, "events", ["event_id", "user_id"])
    out = bottomk_by_hash(ev, "event_id", k=256).to_pandas()
    for c in ("event_id", "user_id"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


def _q_domain_stats(sf_dir: str):
    """Per-domain URL statistics (stages/textstats.py::domain_stats —
    the web-corpus source-filtering primitive): one (domain, doc)
    map-side combine + ONE hash(domain)%64 bucket exchange.  The synth
    documents carry no URLs, so deterministic URLs are planted in a
    pre-map for docs with doc_id % 3 == 0 (the plant_near_dups pattern)
    and the SQL oracle replants them with the same concat expression —
    fully SQL-verified."""
    from table_annotation_ray.stages.textstats import domain_stats

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        ids = out["doc_id"].to_numpy()
        mask = ids % 3 == 0
        urls = (
            " see https://site"
            + pd.Series(ids % 5).astype(str)
            + ".example/page/"
            + pd.Series(ids).astype(str)
        ).to_numpy()
        out.loc[mask, "text"] = out.loc[mask, "text"].fillna("") + urls[mask]
        return out

    out = domain_stats(docs.map_batches(plant, batch_format="pandas")).to_pandas()
    return out.sort_values("domain").reset_index(drop=True)


def _q_price_histogram(sf_dir: str):
    """Equi-width 20-bin histogram of lineitem.l_extendedprice
    (stages/quantiles.py::fixed_width_histogram): two zero-shuffle
    scans (min/max partials, bincount partials).  Bin assignment uses
    the IDENTICAL float64 expression as the SQL oracle, so the compare
    is hash-exact."""
    from table_annotation_ray.stages.quantiles import fixed_width_histogram

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])
    out = fixed_width_histogram(li, "l_extendedprice", bins=20)
    out["lo"] = _round_ha(out["lo"], 6)
    out["hi"] = _round_ha(out["hi"], 6)
    return out.sort_values("bin").reset_index(drop=True)


def _q_revenue_by_nation(sf_dir: str):
    """TPC-H Q5-shaped multiway star join: lineitem ⋈ orders on the
    fact key (stages/relational.py::equi_join — size-gated broadcast
    vs bucketed co-location; at 100 TB the orders side exceeds the gate
    and the same call takes the ONE-exchange path, demonstrated by
    `customer_order_counts_dist`), then ONE fused broadcast-lookup map
    for the supplier/customer dimensions (ray.put'd maps, per-worker
    state — the "broadcast small sides" rule), nation/region folded
    into one tiny driver-built map.  Local-supplier predicate (c_nationkey =
    s_nationkey), 1996 order window, region filter, 25-key revenue
    rollup.  Fully SQL-verified."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.relational import equi_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-01-01")

    def window(b: pa.Table) -> pa.Table:
        d = b["o_orderdate"]
        keep = pc.and_(pc.greater_equal(d, pa.scalar(lo)), pc.less(d, pa.scalar(hi)))
        return b.filter(keep).drop_columns(["o_orderdate"])

    orders = orders.map_batches(window, batch_format="pyarrow")
    j = equi_join(li, orders, "l_orderkey", "o_orderkey")

    # supplier/customer are the classic small sides: ONE fused lookup map
    # over the joined fact stream (ray.put'd pandas maps, loaded once per
    # worker) instead of two more equi_join passes — each of those paid
    # an eager right-side materialization serially at build time
    import ray as _ray

    from table_annotation_ray.state.worker_state import get_worker_state, ref_key

    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    s_map = supp.set_index("s_suppkey")["s_nationkey"]
    c_map = cust.set_index("c_custkey")["c_nationkey"]
    dims_ref = _ray.put((s_map, c_map))

    # nation ⋈ region is 25×5 rows — fold to one dict on the driver and
    # close over it (tiny; no ray.put needed)
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    nat = nat.merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    asia = dict(
        nat.loc[nat["r_name"] == "ASIA", ["n_nationkey", "n_name"]]
        .itertuples(index=False, name=None)
    )

    def rev(b: pd.DataFrame) -> pa.Table:
        sm, cm = get_worker_state(("q5-dims", ref_key(dims_ref)),
                                  lambda: _ray.get(dims_ref))
        s_nat = b["l_suppkey"].map(sm)
        c_nat = b["o_custkey"].map(cm)
        b = b[s_nat.to_numpy() == c_nat.to_numpy()]
        name = s_nat[b.index].map(asia)
        keep = name.notna()
        r = (b["l_extendedprice"] * (1.0 - b["l_discount"]))[keep]
        # explicit types: an all-filtered batch must not emit Arrow NULL
        # columns (CLAUDE.md empty-array rule)
        return pa.table({
            "n_name": pa.array(name[keep].tolist(), type=pa.string()),
            "revenue": pa.array(r.to_numpy(dtype=np.float64), type=pa.float64()),
        })

    out = grouped_reduce(
        j.map_batches(rev, batch_format="pandas"),
        ["n_name"], {"revenue": ("revenue", "sum")},
    ).to_pandas()
    out["revenue"] = _round_ha(out["revenue"], 2)
    return out.sort_values("n_name").reset_index(drop=True)


def _q_viewers_purchasers(sf_dir: str, op: str = "intersect"):
    """Distinct set ops (stages/relational.py::set_op_distinct — SQL
    INTERSECT/EXCEPT): users who viewed AND purchased (or viewed and
    never purchased) — map-side dedup, one hash(user) exchange,
    vectorized side-flag collapse per bucket."""
    from table_annotation_ray.stages.relational import set_op_distinct

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def of_type(t):
        return ev.map_batches(
            lambda b, t=t: b.loc[b["event_type"] == t, ["user_id"]],
            batch_format="pandas",
        )

    out = set_op_distinct(
        of_type("view"), of_type("purchase"), ["user_id"], op
    ).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_parts_except_ordered(sf_dir: str):
    """SQL EXCEPT through set_op_distinct: part keys never bulk-ordered
    (quantity > 45) — the same 114-key answer as the anti-join query
    but through the generic distinct-set machinery.  (Unfiltered EXCEPT
    demos are all empty in this synth: every part is ordered, every
    user does every event type.)"""
    import pyarrow.compute as pc

    from table_annotation_ray.stages.relational import set_op_distinct

    parts = _read(sf_dir, "part", ["p_partkey"]).map_batches(
        lambda b: b.rename(columns={"p_partkey": "key"}), batch_format="pandas")
    bulk = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"]).map_batches(
        lambda t: t.filter(pc.greater(t["l_quantity"], 45.0))
                   .select(["l_partkey"]).rename_columns(["key"]),
        batch_format="pyarrow",
    )
    out = set_op_distinct(parts, bulk, ["key"], "except").to_pandas()
    if "key" not in out.columns:  # empty set-op loses columns
        out = pd.DataFrame({"key": pd.Series([], dtype="int64")})
    out["key"] = out["key"].astype("int64")
    return out.sort_values("key").reset_index(drop=True)


def _q_order_value_pct_rank(sf_dir: str):
    """SQL PERCENT_RANK over the global order-value ordering
    (stages/datapipe.py::percent_rank — position/(n−1) from the
    range-partitioned global_rank; the unique o_orderkey tiebreak makes
    RANK ≡ ROW_NUMBER in both engines)."""
    from table_annotation_ray.stages.datapipe import percent_rank

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    out = percent_rank(orders, ["o_totalprice"], "o_orderkey").to_pandas()
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    out["pct_rank"] = _round_ha(out["pct_rank"], 6)
    out = out.drop(columns=["o_totalprice"])
    return out.sort_values("o_orderkey").reset_index(drop=True)


def _q_event_type_drift(sf_dir: str):
    """Distribution drift between two deterministic event halves
    (event_id % 2) — stages/stats.py::distribution_drift: distributed
    (type, side) cell counts, driver-closed KL both ways + JS on the
    bounded category table.  Oracle mirrors p=c/n, m=(p+q)/2 and the
    ln sums verbatim (shared support only for KL, full support for JS
    — identical restriction in the SQL)."""
    from table_annotation_ray.stages.stats import distribution_drift

    ev = _read(sf_dir, "events", ["event_id", "event_type"])

    def side(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"event_type": b["event_type"], "side": (b["event_id"] % 2)}
        )

    r = distribution_drift(
        ev.map_batches(side, batch_format="pandas"), "event_type", "side"
    )
    out = pd.DataFrame(
        {"n_a": [r["n_a"]], "n_b": [r["n_b"]],
         "kl_ab": [r["kl_ab"]], "kl_ba": [r["kl_ba"]], "js": [r["js"]]}
    )
    for c in ("kl_ab", "kl_ba", "js"):
        out[c] = _round_ha(out[c], 6)
    return out


def _q_qty_price_moments(sf_dir: str):
    """Bivariate moments of (l_quantity, l_extendedprice)
    (stages/stats.py::numeric_moments): one streaming pass of
    sufficient-statistic partials — one tiny row per batch, never the
    data — closed driver-side; oracle uses SQL's
    covar_pop/corr/regr_slope built-ins (definitional formulas agree
    to ~1e-12, rounded at compare)."""
    from table_annotation_ray.stages.stats import numeric_moments

    li = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])
    r = numeric_moments(li, "l_quantity", "l_extendedprice")
    out = pd.DataFrame(
        {"n": [r["n"]], "mean_x": [r["mean_x"]], "mean_y": [r["mean_y"]],
         "covar_xy": [r["covar_pop"]], "corr_xy": [r["corr"]],
         "slope_yx": [r["slope"]]}
    )
    out["mean_x"] = _round_ha(out["mean_x"], 6)
    out["mean_y"] = _round_ha(out["mean_y"], 2)
    out["covar_xy"] = _round_ha(out["covar_xy"], 2)
    out["corr_xy"] = _round_ha(out["corr_xy"], 6)
    out["slope_yx"] = _round_ha(out["slope_yx"], 4)
    return out


def _q_winsorized_price(sf_dir: str):
    """Winsorized aggregate: clamp l_extendedprice to its exact
    [Q05, Q95] (stages/quantiles.py::exact_quantiles — the rank-
    ceil(q·n) definition shared with price_quantiles' oracle), then one
    streaming pass of per-batch (sum, clip counts) partials.  The
    robust-statistics composition: quantile selection without a global
    sort + a zero-shuffle clamp scan."""
    from table_annotation_ray.stages.quantiles import exact_quantiles

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])
    q = exact_quantiles(li, "l_extendedprice", [0.05, 0.95])
    lo = float(q.loc[q["q"] == 0.05, "value"].iloc[0])
    hi = float(q.loc[q["q"] == 0.95, "value"].iloc[0])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b["l_extendedprice"].to_numpy(dtype=np.float64)
        v = v[~np.isnan(v)]
        # EXACT integer-cent arithmetic: at sf0.1 the float clip-sum's
        # random-walk noise (~3e-3 at 3e10 magnitude) crossed the 2-dp
        # rounding boundary against DuckDB's differently-associated sum
        # — cents are exact in int64 on both engines, so the final
        # /100.0 is the identical double everywhere
        cents = np.round(np.clip(v, lo, hi) * 100.0).astype(np.int64)
        return pd.DataFrame(
            {
                "s": [int(cents.sum())],
                "n_lo": [int((v < lo).sum())],
                "n_hi": [int((v > hi).sum())],
            }
        )

    p = li.map_batches(partial, batch_format="pandas").to_pandas()
    out = pd.DataFrame(
        {
            "lo": [lo], "hi": [hi],
            "sum_winsorized": [float(p["s"].sum()) / 100.0],
            "n_clipped_lo": [int(p["n_lo"].sum())],
            "n_clipped_hi": [int(p["n_hi"].sum())],
        }
    )
    out["sum_winsorized"] = _round_ha(out["sum_winsorized"], 2)
    for c in ("lo", "hi"):
        out[c] = _round_ha(out[c], 2)
    return out


def _q_flag_status_dependence(sf_dir: str):
    """Column-pair dependence profile (stages/stats.py::
    categorical_dependence): mutual information + chi-squared for
    (l_returnflag, l_linestatus) — distributed cell counts through
    grouped_reduce, bounded contingency table closed driver-side with
    the Σo²/e − n identity, arithmetic mirrored verbatim in SQL."""
    from table_annotation_ray.stages.stats import categorical_dependence

    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"])
    r = categorical_dependence(li, "l_returnflag", "l_linestatus")
    out = pd.DataFrame(
        {"n": [r["n"]], "dof": [r["dof"]],
         "mi": [r["mi"]], "chi2": [r["chi2"]]}
    )
    out["mi"] = _round_ha(out["mi"], 6)
    out["chi2"] = _round_ha(out["chi2"], 4)
    return out


def _q_pmi_collocations(sf_dir: str):
    """Top-20 token-pair collocations by PMI
    (stages/textstats.py::pmi_pairs): pair counts through
    cooccurrence_pairs, df attachments via string-keyed union+groupby
    co-locates (no vocabulary broadcast), rounded-PMI ranking with the
    (term_a, term_b) tiebreak mirrored in the SQL window."""
    from table_annotation_ray.stages.textstats import pmi_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = pmi_pairs(docs, k=20, min_pairs=5).to_pandas()
    out["n_ab"] = out["n_ab"].astype("int64")
    return (
        out.sort_values(["term_a", "term_b"]).reset_index(drop=True)
    )


def _q_user_value_ewma(sf_dir: str):
    """Per-user EWMA of event values over event time
    (stages/windows.py::ewma_by_key — one hash(user) exchange, one
    in-bucket sort, one cython groupby().ewm pass), α=0.5 so the
    (1-α)^k weights are exact powers of two in BOTH engines; the query
    keeps each user's LAST smoothed value.  Oracle expands the
    recurrence into two windowed sums of explicit pow(0.5, rn_max-rn)
    weights."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.windows import ewma_by_key

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    sm = ewma_by_key(ev, "user_id", "ts", "value", alpha=0.5,
                     tiebreak="event_id")

    def last_marker(b: pd.DataFrame) -> pd.DataFrame:
        # ewma rows arrive (user, ts, event_id)-sorted per bucket group;
        # reduce to per-user argmax rows via the grouped_topk-style
        # combine: keep each batch's last row per user
        keep = b.sort_values(["user_id", "ts", "event_id"]).groupby(
            "user_id", sort=False).tail(1)
        return keep[["user_id", "ts", "event_id", "ewma"]]

    # per-user last row: max (ts, event_id) — event_id is unique, so
    # grouped_reduce max over a composite packed key would be overkill;
    # events have unique event_id per row and ewma_by_key preserves all
    # columns, so take max event_id's row via two-stage combine
    combined = sm.map_batches(last_marker, batch_format="pandas")
    # final per-user selection + count through one grouped_reduce on the
    # FULL stream for n_events, and a tail(1) finalize on the combined
    # candidates (≤ one row per user per batch)
    nb = 64

    def tag(b: pd.DataFrame) -> "pa.Table":
        import pyarrow as pa

        out = b.copy()
        out["__bkt"] = (
            pd.util.hash_pandas_object(out["user_id"], index=False).to_numpy()
            % np.uint64(nb)
        ).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def finalize(g: pd.DataFrame) -> "pa.Table":
        import pyarrow as pa

        out = g.sort_values(["user_id", "ts", "event_id"]).groupby(
            "user_id", sort=False).tail(1)
        return pa.Table.from_pandas(
            out[["user_id", "ewma"]], preserve_index=False
        )

    last = (
        combined.map_batches(tag, batch_format="pandas")
        .groupby("__bkt")
        .map_groups(finalize, batch_format="pandas")
        .to_pandas()
    )
    counts = grouped_reduce(
        ev.select_columns(["user_id"]),
        ["user_id"], {"n_events": (None, "count")},
    ).to_pandas()
    out = last.merge(counts, on="user_id")
    out["user_id"] = out["user_id"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    out["ewma_last"] = _round_ha(out["ewma"], 6)
    return (
        out[["user_id", "n_events", "ewma_last"]]
        .sort_values("user_id").reset_index(drop=True)
    )


def _q_part_name_links(sf_dir: str):
    """Blocked record linkage over the canonical part names
    (stages/relational.py::char_jaccard_link): distinct names keyed by
    their min partkey (one grouped_reduce), then same-first-char blocks
    verify pairwise char-set Jaccard ≥ 0.7 — DuckDB's jaccard() is the
    identical case-sensitive char-set measure, so the oracle is exact
    (same blocking predicate, same rounding)."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.relational import char_jaccard_link

    parts = _read(sf_dir, "part", ["p_partkey", "p_name"])
    canon = grouped_reduce(parts, ["p_name"], {"id": ("p_partkey", "min")})
    out = char_jaccard_link(canon, "id", "p_name", threshold=0.7).to_pandas()
    for c in ("a", "b"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def _q_order_value_ntile(sf_dir: str):
    """NTILE(8) over the global order-value ordering
    (stages/datapipe.py::ntile — closed-form tile from the
    range-partitioned global_rank position, never a single-node sort),
    verified through per-tile count/min/max against the SQL window."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.datapipe import ntile

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    tiled = ntile(orders, ["o_totalprice"], "o_orderkey", k=8)
    out = grouped_reduce(
        tiled,
        ["tile"],
        {"n": (None, "count"), "lo": ("o_totalprice", "min"),
         "hi": ("o_totalprice", "max")},
    ).to_pandas()
    for c in ("tile", "n"):
        out[c] = out[c].astype("int64")
    for c in ("lo", "hi"):
        out[c] = _round_ha(out[c], 2)
    return out.sort_values("tile").reset_index(drop=True)


def _q_tfidf_keywords(sf_dir: str):
    """Top-5 TF-IDF keywords per document
    (stages/textstats.py::tfidf_topk): in-batch TF (a doc is one row),
    DF through the term-keyed grouped_reduce, tf↔df co-location on
    hash(term) — never a driver vocabulary broadcast — then
    grouped_topk with the (rounded score desc, term asc) window
    ordering mirrored exactly in SQL."""
    from table_annotation_ray.stages.textstats import tfidf_topk

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = tfidf_topk(docs, k=5).to_pandas()
    for c in ("doc_id", "tf"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "term", "tf", "tfidf"]]
        .sort_values(["doc_id", "term"]).reset_index(drop=True)
    )


def _q_triangle_count(sf_dir: str):
    """Exact triangle count on the part co-occurrence graph
    (stages/graph.py::triangle_count — degree-ordered wedge checking,
    Suri & Vassilvitskii WWW'11): edges from
    relational.cooccurrence_pairs (parts sharing an order), then
    degree joins → oriented wedge generation → wedge↔edge match, every
    exchange hash-bucketed.  Fully SQL-verified (three-way self-join)."""
    from table_annotation_ray.stages.graph import triangle_count
    from table_annotation_ray.stages.relational import cooccurrence_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    # deterministic 1/3 basket subsample keeps the co-occurrence graph's
    # structure while bounding wedge volume ~9x (bench runs every query
    # twice at sf0.1); the SQL oracle applies the identical predicate
    li = li.map_batches(
        lambda b: b[b["l_orderkey"] % 3 == 0], batch_format="pandas"
    )
    edges = cooccurrence_pairs(li, "l_orderkey", "l_partkey", min_count=1)
    res = triangle_count(edges, "item_a", "item_b", assume_simple=True)
    return pd.DataFrame({"n_edges": [res["n_edges"]],
                         "n_triangles": [res["n_triangles"]]})


def _q_graph_kcore(sf_dir: str):
    """k-core decomposition (stages/graph.py::k_core — iterative
    peeling with the dropped-set broadcast: degrees via grouped_reduce,
    each round's small drop set anti-filters the edges map-only,
    co-location fallback for huge-drop rounds) over the part
    co-occurrence graph (same 1/3 basket subsample as triangle_count).
    Rows-only (iterative deletion has no SQL equivalent); pytest pins
    equality with a single-process reference peeling."""
    from table_annotation_ray.stages.graph import k_core
    from table_annotation_ray.stages.relational import cooccurrence_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
        lambda b: b[b["l_orderkey"] % 3 == 0], batch_format="pandas"
    )
    edges = cooccurrence_pairs(li, "l_orderkey", "l_partkey", min_count=1)
    out = k_core(edges, k=4, src="item_a", dst="item_b").to_pandas()
    for c in ("node", "degree"):
        out[c] = out[c].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


def _q_graph_communities(sf_dir: str):
    """Label-propagation community detection (stages/graph.py::
    label_propagation — synchronous min-tie-break LPA: static canonical
    edges mapped against the broadcast label array each round,
    mode_by_key tallies neighbour votes in two bucketed exchanges) over
    the part co-occurrence graph (same 1/3 basket subsample as
    graph_kcore/triangle_count).  Rows-only (iterative fixpoint has no
    SQL equivalent); pytest pins equality with a single-process
    reference applying the identical update rule."""
    from table_annotation_ray.stages.graph import label_propagation
    from table_annotation_ray.stages.relational import cooccurrence_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
        lambda b: b[b["l_orderkey"] % 3 == 0], batch_format="pandas"
    )
    edges = cooccurrence_pairs(li, "l_orderkey", "l_partkey", min_count=1)
    out = label_propagation(edges, src="item_a", dst="item_b", max_iters=5)
    for c in ("node", "label"):
        out[c] = out[c].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


def _q_graph_bfs(sf_dir: str):
    """Single-source BFS hop distances (stages/graph.py::bfs_distances
    — iterative frontier expansion; neighbors via size-gated
    filter_rows_by_keys on the once-materialized canonical edges,
    visited removal via size-gated anti_join_keys, one
    bucketed_distinct exchange per round) from the minimum part node of
    the co-occurrence graph (same 1/3 basket subsample as
    triangle_count), depth cap 4.  SQL-exact vs a DuckDB WITH RECURSIVE
    walk with the same cap."""
    from table_annotation_ray.stages.graph import bfs_distances
    from table_annotation_ray.stages.relational import cooccurrence_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
        lambda b: b[b["l_orderkey"] % 3 == 0], batch_format="pandas"
    )
    edges = cooccurrence_pairs(li, "l_orderkey", "l_partkey", min_count=1)
    src = int(edges.min("item_a"))
    out = bfs_distances(
        edges, src, src="item_a", dst="item_b", max_depth=4
    ).to_pandas()
    for c in ("node", "dist"):
        out[c] = out[c].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


def _q_link_prediction(sf_dir: str):
    """Common-neighbors link prediction (stages/graph.py::
    common_neighbors — exact shared-neighbor counts for non-adjacent
    pairs through degree-capped wedge centers; the cap is a semantic
    hub filter that also bounds wedge volume at D² per node) over the
    part co-occurrence graph (same 1/3 basket subsample as
    triangle_count).  SQL hash-exact."""
    from table_annotation_ray.stages.graph import common_neighbors
    from table_annotation_ray.stages.relational import cooccurrence_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
        lambda b: b[b["l_orderkey"] % 3 == 0], batch_format="pandas"
    )
    edges = cooccurrence_pairs(li, "l_orderkey", "l_partkey", min_count=1)
    out = common_neighbors(
        edges, "item_a", "item_b", max_center_degree=30, min_common=2
    ).to_pandas()
    for c in ("u", "v", "common"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["u", "v"]).reset_index(drop=True)


def _q_part_skyline(sf_dir: str):
    """2-criteria skyline (stages/relational.py::skyline): the Pareto
    frontier of parts — no other part both cheaper (p_retailprice) and
    larger (p_size).  Two-phase local-then-global frontier with NO
    exchange: each block's vectorized sort+cummin skyline ships only
    its survivors (O(frontier) rows) to one driver-side final pass.
    Oracle is the NOT EXISTS strict-dominance predicate verbatim."""
    from table_annotation_ray.stages.relational import skyline

    part = _read(sf_dir, "part", ["p_partkey", "p_size", "p_retailprice"])
    out = skyline(part, minimize=["p_retailprice"], maximize=["p_size"])
    out = out[["p_partkey", "p_size", "p_retailprice"]]
    for c in ("p_partkey", "p_size"):
        out[c] = out[c].astype("int64")
    return out.sort_values("p_partkey").reset_index(drop=True)


def _q_qty_price_regression(sf_dir: str):
    """Per-key OLS (stages/agg.py::linreg_by_key): slope / intercept /
    Pearson corr of l_extendedprice on l_quantity per (returnflag,
    linestatus), from ONE pass of sufficient-statistic sums through
    grouped_reduce — the grouped companion to qty_price_moments'
    global fit.  Oracle = SQL regr_slope/regr_intercept/corr, rounded
    at the same precisions (float-associativity tolerance)."""
    from table_annotation_ray.stages.agg import linreg_by_key

    li = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity",
                             "l_extendedprice"]
    )
    out = linreg_by_key(
        li, ["l_returnflag", "l_linestatus"], "l_quantity", "l_extendedprice"
    )
    out["slope"] = _round_ha(out["slope"], 4)
    out["intercept"] = _round_ha(out["intercept"], 2)
    out["corr"] = _round_ha(out["corr"], 6)
    return out.reset_index(drop=True)


def _q_small_qty_revenue(sf_dir: str):
    """TPC-H Q17 shape (small-quantity-order revenue): yearly revenue
    lost if orders below 20% of a part's average quantity were dropped,
    for one brand.  Composition: payload-preserving semi filter of
    lineitem to the brand's parts (filter_rows_by_keys — broadcast, the
    brand key set is 1/50 of parts), materialized ONCE and reused by
    both scans (single-execution rule); per-part avg via one
    grouped_reduce; thresholds re-attached by a broadcast equi_join
    (the correlated-subquery-as-broadcast pattern).  The threshold
    0.2·(Σq/n) is bit-identical to SQL's 0.2*avg — quantities are
    integral doubles so the sums are exact in both engines and the
    division/multiply order matches."""
    import pyarrow.compute as pc

    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.relational import (
        equi_join,
        filter_rows_by_keys,
    )

    brand = _read(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
        lambda t: t.filter(pc.equal(t["p_brand"], "Brand#23")).select(
            ["p_partkey"]
        ),
        batch_format="pyarrow",
    )
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])
    li_b = filter_rows_by_keys(li, brand, "l_partkey", "p_partkey").materialize()

    sums = grouped_reduce(
        li_b, ["l_partkey"], {"sq": ("l_quantity", "sum"), "nq": (None, "count")}
    )
    thr = sums.map_batches(
        lambda b: pa.table(
            {
                "l_partkey": pa.array(b["l_partkey"].to_numpy(), pa.int64()),
                "thr": pa.array(
                    0.2 * (b["sq"].to_numpy() / b["nq"].to_numpy()), pa.float64()
                ),
            }
        ),
        batch_format="pandas",
    )
    j = equi_join(li_b, thr, "l_partkey")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        kept = b.loc[b["l_quantity"] < b["thr"], "l_extendedprice"]
        return pd.DataFrame({"s": [float(kept.sum())]})

    total = j.map_batches(partial, batch_format="pandas").to_pandas()["s"].sum()
    out = pd.DataFrame({"avg_yearly": [total / 7.0]})
    out["avg_yearly"] = _round_ha(out["avg_yearly"], 2)
    return out


def _q_waiting_suppliers(sf_dir: str):
    """TPC-H Q21 shape (suppliers who kept orders waiting): for 'F'
    orders with ≥2 distinct suppliers, count each supplier's 'R' lines
    in the orders where it is the ONLY 'R' supplier.  Composition with
    zero new primitives: payload semi filter to F orders
    (filter_rows_by_keys, materialized once for both passes),
    distinct_count_by_key for the ≥2-supplier predicate, grouped_reduce
    over (order, supplier) R-line counts then per-order — n_rsupp==1
    makes the min suppkey THE sole culprit and its summed lines the
    wait count — and two equi_joins (per-order frames, then the
    100-row supplier dimension broadcast) attach the predicate and the
    name.  SQL hash-exact vs the classic EXISTS / NOT EXISTS
    formulation."""
    import pyarrow.compute as pc

    from table_annotation_ray.stages.agg import (
        distinct_count_by_key,
        grouped_reduce,
    )
    from table_annotation_ray.stages.relational import (
        equi_join,
        filter_rows_by_keys,
    )

    f_orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"]).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderstatus"], "F")).select(
            ["o_orderkey"]
        ),
        batch_format="pyarrow",
    )
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_returnflag"])
    li_f = filter_rows_by_keys(li, f_orders, "l_orderkey", "o_orderkey").materialize()

    nsupp = distinct_count_by_key(li_f, ["l_orderkey"], "l_suppkey")
    rcnt = grouped_reduce(
        li_f.map_batches(
            lambda t: t.filter(pc.equal(t["l_returnflag"], "R")).select(
                ["l_orderkey", "l_suppkey"]
            ),
            batch_format="pyarrow",
        ),
        ["l_orderkey", "l_suppkey"],
        {"n_lines": (None, "count")},
    )
    per_order = grouped_reduce(
        rcnt,
        ["l_orderkey"],
        {
            "n_rsupp": (None, "count"),
            "supp": ("l_suppkey", "min"),
            "lines": ("n_lines", "sum"),
        },
    ).filter(expr="n_rsupp == 1")
    qual = equi_join(per_order, nsupp, "l_orderkey").filter(expr="n_distinct >= 2")
    waits = grouped_reduce(qual, ["supp"], {"numwait": ("lines", "sum")})
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).map_batches(
        lambda b: b.rename(columns={"s_suppkey": "supp"}), batch_format="pandas"
    )
    out = equi_join(waits, supp, "supp").to_pandas()[["s_name", "numwait"]]
    out["numwait"] = out["numwait"].astype("int64")
    return out.sort_values(
        ["numwait", "s_name"], ascending=[False, True]
    ).reset_index(drop=True)


def _q_qty_price_spearman(sf_dir: str):
    """Spearman ρ with tie-average ranks (stages/stats.py::
    spearman_corr): the counts engine — tie-average rank is a pure
    function of the value histogram, so one skinny distinct-value
    exchange + a broadcast value→rank map + ONE moments scan replace
    the general engine's four range-partitioned global_rank passes
    (auto fallback above 2M distinct; engines pytest-pinned equal).
    Oracle = Pearson corr over SQL's rank()+(count OVER partition−1)/2
    average ranks (offset by the constant 1, irrelevant under corr's
    affine invariance)."""
    from table_annotation_ray.stages.stats import spearman_corr

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity",
                             "l_extendedprice"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "rid": b["l_orderkey"].to_numpy() * 8 + b["l_linenumber"].to_numpy(),
                "l_quantity": b["l_quantity"],
                "l_extendedprice": b["l_extendedprice"],
            }
        ),
        batch_format="pandas",
    )
    r = spearman_corr(li, "l_quantity", "l_extendedprice", "rid")
    out = pd.DataFrame({"n": [int(r["n"])], "rho": [r["rho"]]})
    out["rho"] = _round_ha(out["rho"], 6)
    return out


def _q_ab_value_ttest(sf_dir: str):
    """Welch two-sample t (stages/stats.py::welch_ttest): purchase vs
    click event values — ONE streaming pass of per-side (n, Σv, Σv²)
    partials, closed driver-side into means, sample variances, t and
    the Welch–Satterthwaite df.  The A/B-experiment primitive next to
    flag_status_dependence's chi².  Oracle computes the identical
    closed forms from SQL count/avg/var_samp (definitional vs stable
    variance formulas agree to ~1e-10 at this value scale; rounded)."""
    from table_annotation_ray.stages.stats import welch_ttest

    ev = _read(sf_dir, "events", ["event_type", "value"])
    r = welch_ttest(ev, "event_type", "value", "purchase", "click")
    out = pd.DataFrame([r])[
        ["n_a", "n_b", "mean_a", "mean_b", "var_a", "var_b", "t", "df"]
    ]
    for c in ("n_a", "n_b"):
        out[c] = out[c].astype("int64")
    for c, d in (("mean_a", 6), ("mean_b", 6), ("var_a", 6), ("var_b", 6),
                 ("t", 6), ("df", 4)):
        out[c] = _round_ha(out[c], d)
    return out


def _q_order_value_zscore(sf_dir: str):
    """Group-wise z-score normalization (stages/stats.py::
    zscore_by_key): each order's total price standardized against its
    OWN customer's mean/stddev — per-key moments via one grouped_reduce
    exchange, the tiny per-key table re-attached to the streaming row
    scan by the size-gated broadcast equi_join (zero payload shuffle).
    Degenerate groups (singleton customers, zero variance) are dropped
    on both sides.  Oracle = the window-function formulation."""
    from table_annotation_ray.stages.stats import zscore_by_key

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    out = zscore_by_key(orders, ["o_custkey"], "o_totalprice").to_pandas()
    out = out.dropna(subset=["zscore"])
    out["zscore"] = _round_ha(out["zscore"], 6)
    out = out[["o_orderkey", "o_custkey", "o_totalprice", "zscore"]]
    for c in ("o_orderkey", "o_custkey"):
        out[c] = out[c].astype("int64")
    return out.sort_values("o_orderkey").reset_index(drop=True)


def _q_order_pivot(sf_dir: str):
    """Wide pivot (stages/relational.py::pivot_table): total order value
    per (priority × status) cell — one widen map + the grouped_reduce
    hash-bucket exchange; pivot domain discovered with a map-side
    unique.  Oracle = conditional aggregation (COALESCE'd SUM CASE)."""
    from table_annotation_ray.stages.relational import pivot_table

    orders = _read(sf_dir, "orders",
                   ["o_orderpriority", "o_orderstatus", "o_totalprice"])
    out = pivot_table(
        orders, ["o_orderpriority"], "o_orderstatus", "o_totalprice", agg="sum",
    ).to_pandas()
    for c in ("sum_F", "sum_O", "sum_P"):
        out[c] = _round_ha(out[c], 2)
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def _q_lineitem_unpivot(sf_dir: str):
    """Long-format melt (stages/relational.py::unpivot): the three
    lineitem measures as (measure, value) rows keyed by (orderkey,
    linenumber) — zero-shuffle map with in-batch 3× fan-out, Arrow
    out.  Oracle = UNION ALL of one SELECT per measure; the melt feeds
    a grouped_reduce per-measure rollup so the query also verifies the
    long rows aggregate correctly."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.relational import unpivot

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_tax"])
    long = unpivot(
        li, ["l_orderkey", "l_linenumber"],
        ["l_quantity", "l_extendedprice", "l_tax"],
    )
    out = grouped_reduce(
        long, ["measure"],
        {"n": (None, "count"), "total": ("value", "sum")},
    ).to_pandas()
    out["total"] = _round_ha(out["total"], 2)
    out["n"] = out["n"].astype("int64")
    return out.sort_values("measure").reset_index(drop=True)


def _q_event_attribution(sf_dir: str):
    """Last-touch conversion attribution (stages/windows.py::
    last_touch_attribution): every purchase credits the user's most
    recent preceding non-purchase event type — one hash(user)
    co-location with vectorized masked shift/ffill, then a
    channel-cardinality reduce.  Oracle = last_value(... IGNORE NULLS)
    window over (ts, event_id) order."""
    from table_annotation_ray.stages.windows import last_touch_attribution

    ev = _read(sf_dir, "events",
               ["user_id", "ts", "event_type", "value", "event_id"])
    out = last_touch_attribution(
        ev, "user_id", "ts", "event_type", "value", "purchase", "event_id"
    ).to_pandas()
    out["n_conversions"] = out["n_conversions"].astype("int64")
    out["attributed_value"] = _round_ha(out["attributed_value"], 2)
    return out.sort_values("touch").reset_index(drop=True)


def _q_session_paths(sf_dir: str):
    """Top-20 user journeys (stages/windows.py::session_paths):
    30-minute-gap sessionization per user, ordered event-type path per
    session, corpus-wide path counts, deterministic (count desc, path)
    top-k.  The final sort runs over DISTINCT aggregated paths, never
    events.  Oracle = window gap-break cumsum + string_agg ORDER BY."""
    from table_annotation_ray.stages.windows import session_paths

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type", "event_id"])
    out = session_paths(
        ev, "user_id", "ts", "event_type", "event_id",
        gap_seconds=1800.0, k=20,
    ).to_pandas()
    out["n_sessions"] = out["n_sessions"].astype("int64")
    return out.reset_index(drop=True)


def _q_benford_prices(sf_dir: str):
    """Benford first-digit audit of order totals (stages/dq.py::
    benford_audit): leading-digit shares vs log10(1+1/d), exact
    integer-division digit extraction (no float log edge), one map-only
    pass + a 9-key reduce.  Oracle = substr over the floored integer."""
    from table_annotation_ray.stages.dq import benford_audit

    orders = _read(sf_dir, "orders", ["o_totalprice"])
    return benford_audit(orders, "o_totalprice")


def _q_revenue_gini(sf_dir: str):
    """Per-priority revenue concentration (stages/stats.py::
    gini_by_key): Gini of o_totalprice per o_orderpriority from the
    value HISTOGRAM — one skinny distinct-(key,value) exchange + an
    in-bucket grouped cumsum; tie-invariant, so it hash-matches SQL's
    row_number formulation exactly at 6 dp."""
    from table_annotation_ray.stages.stats import gini_by_key

    orders = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    out = gini_by_key(orders, ["o_orderpriority"], "o_totalprice").to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def _q_signup_survival(sf_dir: str):
    """Kaplan–Meier signup→purchase curve (stages/stats.py::
    km_survival over stages/windows.py::conversion_lag): per-user entry
    = first signup, event = first purchase at-or-after it, censoring at
    the corpus max ts; day-bucketed by exact int64 µs division.  One
    co-location for the lags, one skinny distinct-duration reduce,
    driver cumsum.  Oracle = exp(sum(ln(1-d/n))) running window over
    the same histogram (agrees far below the 6-dp rounding)."""
    from table_annotation_ray.stages.stats import km_survival
    from table_annotation_ray.stages.windows import conversion_lag

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    lags = conversion_lag(ev, "user_id", "ts", "event_type",
                          "signup", "purchase")
    cens = _read(sf_dir, "events", ["ts"]).max("ts")
    out = km_survival(lags, cens)
    return out.sort_values("t").reset_index(drop=True)


def _q_audio_quality(sf_dir: str):
    """Audio QA gate (stages/multimodal.py::AudioQualityAudit): per-clip
    clipping/silence ratios, RMS, peak over REAL stdlib-decoded WAV
    PCM; non-WAV/corrupt rows degrade per-row to decoded=False.
    Rows-only (binary decode has no SQL equivalent); pytest pins the
    metrics on synthesized clipped/silent clips."""
    import ray.data as rd

    from table_annotation_ray.stages.multimodal import (
        RECOMMENDED_BATCH_SIZE,
        AudioQualityAudit,
        synth_media_table,
    )

    ds = rd.from_arrow(synth_media_table(n=96, seed=11))
    out = ds.map_batches(
        AudioQualityAudit,
        batch_format="pyarrow",
        batch_size=RECOMMENDED_BATCH_SIZE,
        concurrency=(1, 2),
    ).to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


def _q_nearest_view(sf_dir: str):
    """Nearest-neighbor temporal join (stages/joins.py::nearest_join):
    each purchase attaches the same user's closest view within ±2 h —
    |diff| minimized, ties to the earlier then min-event_id view (the
    sensor-alignment join asof can't express).  One hash(user)
    co-location, two-candidate searchsorted pick; gaps are exact int64
    µs.  Oracle = LATERAL ORDER BY abs(diff) LIMIT 1."""
    from table_annotation_ray.stages.joins import nearest_join

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type", "event_id"])

    def side(tp: str, ts_name: str, id_name: str):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            sub = b[b["event_type"] == tp]
            return pd.DataFrame(
                {
                    "user_id": sub["user_id"],
                    ts_name: sub["ts"],
                    id_name: sub["event_id"],
                }
            )

        return f

    purchases = ev.map_batches(side("purchase", "purchase_ts", "purchase_id"),
                               batch_format="pandas")
    views = ev.map_batches(side("view", "view_ts", "view_id"),
                           batch_format="pandas")
    out = nearest_join(
        purchases, views, "user_id", "purchase_ts", "view_ts",
        ["user_id", "purchase_ts", "purchase_id"],
        ["user_id", "view_ts", "view_id"],
        "view_id", tolerance=pd.Timedelta(hours=2),
    ).to_pandas()
    gap = (
        out["view_ts"].astype("datetime64[ns]").astype("int64")
        - out["purchase_ts"].astype("datetime64[ns]").astype("int64")
    ).abs() // 1000
    out["gap_us"] = gap.astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    out["purchase_id"] = out["purchase_id"].astype("int64")
    out["view_id"] = out["view_id"].astype("int64")
    out = out[["user_id", "purchase_id", "view_id", "gap_us"]]
    return out.sort_values("purchase_id").reset_index(drop=True)


def _q_session_stats(sf_dir: str):
    """Engagement scorecard (stages/windows.py::session_stats): total
    sessions, bounce (single-event) share and mean session length over
    the same 30-min-gap sessionization as session_paths; per-bucket
    partials are three ints.  SQL hash-exact (exact integer inputs)."""
    from table_annotation_ray.stages.windows import session_stats

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    return session_stats(ev, "user_id", "ts", "event_id",
                         gap_seconds=1800.0)


def _q_value_wasserstein(sf_dir: str):
    """1-D Wasserstein distance, click vs view values (stages/stats.py::
    wasserstein_1d): area between the two ECDFs over the pooled
    distinct-value histogram — one skinny counts-engine exchange;
    ECDF steps from exact integer counts.  SQL hash-exact vs the
    window-cumsum formulation."""
    from table_annotation_ray.stages.stats import wasserstein_1d

    ev = _read(sf_dir, "events", ["event_type", "value"])
    r = wasserstein_1d(ev, "event_type", "value", "click", "view")
    return pd.DataFrame(
        {
            "n_a": pd.Series([r["n_a"]], dtype="int64"),
            "n_b": pd.Series([r["n_b"]], dtype="int64"),
            "w1": _round_ha(pd.Series([r["w1"]]), 6),
        }
    )


def _q_vocab_coverage(sf_dir: str):
    """Per-source OOV rate against the corpus top-1000 vocabulary — the
    tokenizer-coverage audit (which domains a vocab under-serves):
    vocab_topk's distinct-token exchange once, the winners broadcast as
    a set, then a map-only vectorized isin over exploded tokens with
    per-source partial sums through grouped_reduce.  SQL hash-exact."""
    import ray

    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.textstats import vocab_topk
    from table_annotation_ray.state.worker_state import (
        get_worker_state,
        ref_key,
    )

    docs = _read(sf_dir, "documents", ["text", "source"])
    vt = vocab_topk(docs, k=1000).to_pandas()
    vref = ray.put(set(vt["token"]))

    def count_oov(b: pd.DataFrame) -> pd.DataFrame:
        vs = get_worker_state(
            ("vocab-cov", ref_key(vref)), lambda: ray.get(vref)
        )
        toks = b["text"].fillna("").str.lower().str.split().explode()
        src = b["source"].reindex(toks.index)
        keep = toks.str.len() > 0
        toks, src = toks[keep], src[keep]
        oov = ~toks.isin(vs)
        out = pd.DataFrame({"source": src.to_numpy(), "oov": oov.to_numpy()})
        g = out.groupby("source", sort=False)["oov"].agg(["count", "sum"])
        return pd.DataFrame(
            {
                "source": g.index.to_numpy(),
                "n": g["count"].to_numpy().astype("int64"),
                "n_oov": g["sum"].to_numpy().astype("int64"),
            }
        )

    out = grouped_reduce(
        docs.map_batches(count_oov, batch_format="pandas"),
        ["source"],
        {"n_tokens": ("n", "sum"), "n_oov": ("n_oov", "sum")},
    ).to_pandas()
    out["n_tokens"] = out["n_tokens"].astype("int64")
    out["n_oov"] = out["n_oov"].astype("int64")
    out["oov_rate"] = _round_ha(out["n_oov"] / out["n_tokens"], 6)
    return out.sort_values("source").reset_index(drop=True)


def _q_quality_lift(sf_dir: str):
    """Decile lift table for the stopword-ratio quality score against
    the funnel's weak label — the classifier-eval gain curve: NTILE(10)
    over the (rounded score, doc_id) global order (stages/datapipe.py::
    ntile — closed-form tile from range-partitioned global_rank, no
    single-node sort), per-decile positive rate.  Gating and ranking
    use ROUNDED scores so both engines order identically."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.datapipe import ntile
    from table_annotation_ray.stages.textstats import quality_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        qs = quality_scores(b)
        s = _round_ha(qs["stopword_ratio"], 6)
        mtl = _round_ha(qs["mean_token_len"], 6)
        lab = ((s >= 0.05) & (mtl < 8.0)).astype("int64")
        return pd.DataFrame(
            {"doc_id": b["doc_id"], "score": s.to_numpy(), "label": lab}
        )

    scored = docs.map_batches(score, batch_format="pandas")
    tiled = ntile(scored, ["score"], "doc_id", k=10)
    out = grouped_reduce(
        tiled, ["tile"], {"n": (None, "count"), "pos": ("label", "sum")}
    ).to_pandas()
    out["tile"] = out["tile"].astype("int64")
    out["n"] = out["n"].astype("int64")
    out["pos"] = out["pos"].astype("int64")
    out["pos_rate"] = _round_ha(out["pos"] / out["n"], 6)
    return out.sort_values("tile").reset_index(drop=True)


def _q_langid_agreement(sf_dir: str):
    """Cohen's kappa between the documents table's true ``lang`` and
    the stopword-voting lang_id prediction (stages/stats.py::
    cohen_kappa over one bounded cell-count exchange) — the
    labeler-agreement eval; zh has no stopword list so it predicts
    'und' and depresses κ below raw accuracy.  Every number derives
    from exact integer counts, so the SQL mirror is bit-identical."""
    from table_annotation_ray.stages.stats import cohen_kappa
    from table_annotation_ray.stages.textstats import lang_id

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def pair(b: pd.DataFrame) -> pd.DataFrame:
        pred = lang_id(b[["doc_id", "text"]])
        return pd.DataFrame(
            {"lang": b["lang"].to_numpy(), "pred": pred["pred_lang"].to_numpy()}
        )

    r = cohen_kappa(
        docs.map_batches(pair, batch_format="pandas"), "lang", "pred"
    )
    return pd.DataFrame(
        {
            "n": pd.Series([r["n"]], dtype="int64"),
            "accuracy": _round_ha(pd.Series([r["accuracy"]]), 6),
            "kappa": _round_ha(pd.Series([r["kappa"]]), 6),
        }
    )


def _q_conversion_ab_ztest(sf_dir: str):
    """Two-proportion z-test on conversion (any purchase) between the
    even/odd user-id cohorts — the A/B launch-gate metric completing
    the t-test/KS/U/ANOVA family.  Per-user conversion flags reduce
    through one grouped_reduce; the pooled-variance z derives entirely
    from exact integer counts (bit-identical SQL mirror)."""
    from table_annotation_ray.stages.agg import grouped_reduce

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": b["user_id"],
                "conv": (b["event_type"] == "purchase").astype("int64"),
            }
        )

    conv = grouped_reduce(
        ev.map_batches(flags, batch_format="pandas"),
        ["user_id"],
        {"conv": ("conv", "max")},
    ).to_pandas()
    conv["grp"] = conv["user_id"] % 2
    g = conv.groupby("grp")["conv"].agg(["count", "sum"])
    na, xa = float(g.loc[0, "count"]), float(g.loc[0, "sum"])
    nb, xb = float(g.loc[1, "count"]), float(g.loc[1, "sum"])
    pool = (xa + xb) / (na + nb)
    z = (xa / na - xb / nb) / np.sqrt(
        pool * (1.0 - pool) * (1.0 / na + 1.0 / nb)
    )
    return pd.DataFrame(
        {
            "n_a": pd.Series([int(na)], dtype="int64"),
            "n_b": pd.Series([int(nb)], dtype="int64"),
            "rate_a": _round_ha(pd.Series([xa / na]), 6),
            "rate_b": _round_ha(pd.Series([xb / nb]), 6),
            "z": _round_ha(pd.Series([z]), 6),
        }
    )


def _q_event_stationary(sf_dir: str):
    """Long-run event-type mix (stages/stats.py::markov_stationary over
    windows.py::transition_counts): MLE transition matrix from the
    per-user LEAD exchange, driver power iteration on the
    |types|²-bounded table (dangling states get the PageRank uniform
    row).  Rows-only (eigenvector fixpoint has no SQL equivalent);
    pytest pins π against numpy's left eigenvector on a hand matrix."""
    from table_annotation_ray.stages.stats import markov_stationary
    from table_annotation_ray.stages.windows import transition_counts

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    tc = transition_counts(ev, "user_id", ["ts", "event_id"], "event_type")
    return markov_stationary(tc)


def _q_hourly_profile(sf_dir: str):
    """Hour-of-day seasonality profile per event type: share of each
    type's events in each of its 24 hours — one (type, hour)
    grouped_reduce (≤ |types|×24 rows cross the wire), shares closed on
    the tiny table.  SQL hash-exact."""
    from table_annotation_ray.stages.agg import grouped_reduce

    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def to_hour(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": b["event_type"],
                "hour": b["ts"].dt.hour.astype("int64"),
            }
        )

    out = grouped_reduce(
        ev.map_batches(to_hour, batch_format="pandas"),
        ["event_type", "hour"],
        {"n": (None, "count")},
    ).to_pandas()
    tot = out.groupby("event_type")["n"].transform("sum")
    out["share"] = _round_ha(out["n"] / tot, 6)
    out["n"] = out["n"].astype("int64")
    out["hour"] = out["hour"].astype("int64")
    return out.sort_values(["event_type", "hour"]).reset_index(drop=True)


def _q_value_anova(sf_dir: str):
    """One-way ANOVA F across event types (stages/stats.py::
    anova_oneway): between/within sum-of-squares from one
    group-cardinality exchange of (n, Σv, Σv²) sufficient statistics —
    the k-sample member of the t-test / KS / Mann-Whitney family.
    Oracle mirrors the identical Σv²−n·x̄² arithmetic."""
    from table_annotation_ray.stages.stats import anova_oneway

    ev = _read(sf_dir, "events", ["event_type", "value"])
    r = anova_oneway(ev, "event_type", "value")
    return pd.DataFrame(
        {
            "n": pd.Series([r["n"]], dtype="int64"),
            "k": pd.Series([r["k"]], dtype="int64"),
            "ssb": _round_ha(pd.Series([r["ssb"]]), 2),
            "ssw": _round_ha(pd.Series([r["ssw"]]), 2),
            "f": _round_ha(pd.Series([r["f"]]), 6),
        }
    )


def _q_user_diversity(sf_dir: str):
    """Per-user behavioral diversity (stages/stats.py::diversity_by_key):
    Shannon entropy of each user's event-type mix and the effective
    category count exp(H) — one distinct-(user,type) exchange + a
    hash(user) co-location over COUNT rows.  SQL hash-exact vs the
    -Σ(k/n)·ln(k/n) window formulation."""
    from table_annotation_ray.stages.stats import diversity_by_key

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    out = diversity_by_key(ev, "user_id", "event_type").to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_revenue_concentration(sf_dir: str):
    """CR-10 revenue concentration per market segment (the antitrust /
    key-account metric, Gini's discrete cousin): share of each
    segment's revenue held by its top-10 customers.  Composition:
    broadcast equi_join orders→customer, per-(segment, customer)
    grouped_reduce, grouped_topk(k=10, custkey tiebreak) for the
    numerator, segment totals for the denominator — every exchange
    carries aggregated rows.  SQL hash-exact (row_number window)."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.relational import equi_join, grouped_topk

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    j = equi_join(orders, cust, "o_custkey", "c_custkey")
    per_cust = grouped_reduce(
        j, ["c_mktsegment", "o_custkey"], {"rev": ("o_totalprice", "sum")}
    ).materialize()
    totals = grouped_reduce(
        per_cust, ["c_mktsegment"],
        {"total_revenue": ("rev", "sum"), "n_customers": (None, "count")},
    ).to_pandas()
    top = grouped_topk(
        per_cust, ["c_mktsegment"], "rev", k=10,
        descending=True, tiebreak="o_custkey",
    )
    topsum = grouped_reduce(
        top, ["c_mktsegment"], {"top_rev": ("rev", "sum")}
    ).to_pandas()
    out = totals.merge(topsum, on="c_mktsegment")
    out["cr10"] = _round_ha(out["top_rev"] / out["total_revenue"], 6)
    out["total_revenue"] = _round_ha(out["total_revenue"], 2)
    out["n_customers"] = out["n_customers"].astype("int64")
    out = out[["c_mktsegment", "n_customers", "total_revenue", "cr10"]]
    return out.sort_values("c_mktsegment").reset_index(drop=True)


def _q_quality_gate_by_lang(sf_dir: str):
    """Per-language quality-quantile gate — the language-balanced
    curation composition: each language keeps only docs at-or-above its
    OWN median stopword_ratio (a global threshold would starve
    non-English languages).  Threshold = exact per-lang order statistic
    from stages/quantiles.py::group_quantile_threshold (counts-engine:
    one skinny distinct-(lang, rounded-score) exchange, driver cumsum);
    gating compares ROUNDED scores so both engines binarize
    identically.  SQL hash-exact."""
    import ray

    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.quantiles import group_quantile_threshold
    from table_annotation_ray.stages.textstats import quality_scores
    from table_annotation_ray.state.worker_state import (
        get_worker_state,
        ref_key,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        qs = quality_scores(b)
        return pd.DataFrame(
            {
                "lang": b["lang"].to_numpy(),
                "score": _round_ha(qs["stopword_ratio"], 6).to_numpy(),
            }
        )

    scored = docs.map_batches(score, batch_format="pandas").materialize()
    thr = group_quantile_threshold(scored, "lang", "score", 0.5)
    tref = ray.put(dict(zip(thr["lang"], thr["threshold"])))

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        tm = get_worker_state(
            ("qgate-thr", ref_key(tref)), lambda: ray.get(tref)
        )
        t = b["lang"].map(tm).to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "lang": b["lang"],
                "kept": (b["score"].to_numpy() >= t).astype("int64"),
            }
        )

    out = grouped_reduce(
        scored.map_batches(flag, batch_format="pandas"),
        ["lang"],
        {"n_docs": (None, "count"), "n_kept": ("kept", "sum")},
    ).to_pandas()
    out = out.merge(thr[["lang", "threshold"]], on="lang")
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_kept"] = out["n_kept"].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def _q_value_mannwhitney(sf_dir: str):
    """Mann–Whitney U rank-sum test, click vs view event values
    (stages/stats.py::mann_whitney_u): tie-average ranks from the
    pooled VALUE HISTOGRAM — one skinny distinct-(group,value)
    exchange, the spearman counts-engine story.  Rank sums are exact
    ½-multiples so U matches SQL's window rank formulation
    bit-for-bit; z follows from the same exact inputs."""
    from table_annotation_ray.stages.stats import mann_whitney_u

    ev = _read(sf_dir, "events", ["event_type", "value"])
    r = mann_whitney_u(ev, "event_type", "value", "click", "view")
    return pd.DataFrame(
        {
            "n_a": [int(r["n_a"])],
            "n_b": [int(r["n_b"])],
            "u": _round_ha(pd.Series([r["u"]]), 4),
            "z": _round_ha(pd.Series([r["z"]]), 6),
        }
    )


def _q_revenue_wow(sf_dir: str):
    """Week-over-week revenue growth: ISO-week resample of orders (one
    week-cardinality grouped_reduce) + driver lag over the tiny week
    table.  Oracle = date_trunc('week') + lag() window; first week
    drops (no prior)."""
    from table_annotation_ray.stages.agg import grouped_reduce

    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def to_week(b: pd.DataFrame) -> pd.DataFrame:
        wk = pd.to_datetime(b["o_orderdate"]).dt.to_period("W-SUN").dt.start_time
        return pd.DataFrame({"week": wk, "price": b["o_totalprice"]})

    wk = grouped_reduce(
        orders.map_batches(to_week, batch_format="pandas"),
        ["week"],
        {"revenue": ("price", "sum")},
    ).to_pandas().sort_values("week").reset_index(drop=True)
    prev = wk["revenue"].shift(1)
    out = wk[prev.notna()].copy()
    out["growth"] = _round_ha(
        (out["revenue"] - prev[prev.notna()]) / prev[prev.notna()], 6
    )
    out["revenue"] = _round_ha(out["revenue"], 2)
    out["week"] = out["week"].astype("datetime64[us]")
    return out[["week", "revenue", "growth"]].reset_index(drop=True)


def _q_new_vs_returning(sf_dir: str):
    """New-vs-returning users per day: distinct (day, user) pairs
    (grouped_reduce), per-user first day (second grouped_reduce), a
    size-gated equi_join to classify each active pair, and a
    day-cardinality final reduce.  Oracle = min(day) OVER user against
    the distinct-pair table."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.relational import equi_join

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def to_day(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"day": b["ts"].dt.floor("D"), "user_id": b["user_id"]}
        )

    du = grouped_reduce(
        ev.map_batches(to_day, batch_format="pandas"),
        ["day", "user_id"],
        {"__c": (None, "count")},
    ).select_columns(["day", "user_id"])
    first = grouped_reduce(
        du, ["user_id"], {"fday": ("day", "min")}
    )
    j = equi_join(du, first, "user_id")

    def classify(b: pd.DataFrame) -> pd.DataFrame:
        new = (b["day"] == b["fday"]).to_numpy()
        return pd.DataFrame(
            {
                "day": b["day"],
                "new": new.astype("int64"),
                "ret": (~new).astype("int64"),
            }
        )

    out = grouped_reduce(
        j.map_batches(classify, batch_format="pandas"),
        ["day"],
        {"n_new": ("new", "sum"), "n_returning": ("ret", "sum")},
    ).to_pandas()
    out["n_new"] = out["n_new"].astype("int64")
    out["n_returning"] = out["n_returning"].astype("int64")
    out["day"] = out["day"].astype("datetime64[us]")
    return out.sort_values("day").reset_index(drop=True)


def _q_zipf_slope(sf_dir: str):
    """Zipf power-law fit of the top-100 token frequencies: vocab_topk
    (distinct-token exchange + vocabulary-cardinality sort) then an OLS
    of ln(freq) on ln(rank) over the 100-row driver table — the corpus
    health check that token frequencies follow rank^-s.  Oracle =
    regr_slope(ln(n), ln(r)) over the same deterministic (n desc,
    token) ranking."""
    from table_annotation_ray.stages.textstats import vocab_topk

    docs = _read(sf_dir, "documents", ["text"])
    vt = vocab_topk(docs, k=100).to_pandas()
    x = np.log(np.arange(1.0, len(vt) + 1.0))
    y = np.log(vt["n"].to_numpy(dtype=np.float64))
    xm, ym = x.mean(), y.mean()
    slope = float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())
    return pd.DataFrame(
        {
            "k": pd.Series([len(vt)], dtype="int64"),
            "slope": _round_ha(pd.Series([slope]), 6),
        }
    )


def _q_value_cusum(sf_dir: str):
    """Per-user one-sided CUSUM shift detection (stages/windows.py::
    cusum_by_key): the ``max(0, S+dev)`` recursion vectorized via the
    cumsum-minus-running-min reset identity, one hash(user)
    co-location; per-user alert counts and peak statistic aggregate
    through grouped_reduce.  KNOWN-target form (μ0=50): deviations stay
    on the 2-decimal input lattice, so the 4-dp rounding and the
    OFF-lattice alert threshold (100.001) are boundary-safe — the
    per-user-MEAN variant produces denominator-n rationals that sit
    exactly on boundaries and flips engines (measured at sf0.1).
    Oracle = the same identity as SQL windows (sum OVER − least(0,
    min OVER))."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.windows import cusum_by_key

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    cs = cusum_by_key(ev, "user_id", ["ts", "event_id"], "value",
                      target=50.0)

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": b["user_id"],
                "alert": (b["cusum"].to_numpy() > 100.001).astype("int64"),
                "cusum": b["cusum"],
            }
        )

    out = grouped_reduce(
        cs.map_batches(flag, batch_format="pandas"),
        ["user_id"],
        {"n_alerts": ("alert", "sum"), "max_cusum": ("cusum", "max")},
    ).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["n_alerts"] = out["n_alerts"].astype("int64")
    out["max_cusum"] = _round_ha(out["max_cusum"], 4)
    return out.sort_values("user_id").reset_index(drop=True)


def _q_dau_mau(sf_dir: str):
    """DAU/MAU stickiness (stages/windows.py::rolling_active at day
    granularity, windows 1 and 30): distinct active users per day and
    per trailing 30 days, ratio per event day.  Both sides are the
    event→window explode + one exact distinct-pair exchange; the final
    join runs over DAY cardinality.  Oracle = distinct counts over a
    30-day range self-join."""
    from table_annotation_ray.stages.windows import rolling_active

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    dau = rolling_active(ev, "ts", "user_id", window_hours=1,
                         freq="D").to_pandas()
    mau = rolling_active(ev, "ts", "user_id", window_hours=30,
                         freq="D").to_pandas()
    out = dau.rename(columns={"n_active": "dau"}).merge(
        mau.rename(columns={"n_active": "mau"}), on="win_end"
    )
    out = out.rename(columns={"win_end": "day"})
    out["dau"] = out["dau"].astype("int64")
    out["mau"] = out["mau"].astype("int64")
    out["stickiness"] = _round_ha(out["dau"] / out["mau"], 6)
    out["day"] = out["day"].astype("datetime64[us]")
    return out.sort_values("day").reset_index(drop=True)


def _q_supplier_hits(sf_dir: str):
    """Kleinberg HITS (stages/graph.py::hits) over the
    customer→supplier purchase graph — customers are pure hubs,
    suppliers pure authorities (bipartite).  Engine dispatch mirrors
    pagerank_auto: numpy driver tier under the edges×iters gate, the
    two-half-step scatter/gather Dataset engine above it (engines
    pytest-pinned to rtol 1e-9).  Rows-only: iterative float fixpoint.
    Returns the top 50 authorities (rounded 6 dp, node tiebreak)."""
    from table_annotation_ray.stages.graph import hits
    from table_annotation_ray.stages.relational import equi_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = equi_join(li, orders, "l_orderkey", "o_orderkey")

    def to_edges(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": b["o_custkey"].to_numpy() * 2,
                "dst": b["l_suppkey"].to_numpy() * 2 + 1,
            }
        )

    scores, _engine = hits(
        joined.map_batches(to_edges, batch_format="pandas"),
        iters=8, driver_below=20_000_000,
    )
    out = scores.to_pandas()
    out["hub"] = _round_ha(out["hub"], 6)
    out["authority"] = _round_ha(out["authority"], 6)
    out = out.sort_values(
        ["authority", "node"], ascending=[False, True]
    ).head(50)
    out["node"] = out["node"].astype("int64")
    return out.reset_index(drop=True)


def _q_value_trend_by_user(sf_dir: str):
    """Per-user OLS value trend (stages/windows.py::trend_by_key):
    slope of value vs time in units/day, per-key-centered timestamps
    (exact-zero denominator for degenerate keys), one hash(key)
    co-location exchange.  SQL hash-exact vs the same raw-sum algebra."""
    from table_annotation_ray.stages.windows import trend_by_key

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    out = trend_by_key(ev, "user_id", "ts", "value").to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_value_rolling_median(sf_dir: str):
    """Per-user trailing-5 rolling median (stages/windows.py::
    rolling_median_by_key) — robust smoothing, SQL ROWS-frame median
    window; one co-location exchange, C rolling kernel in-bucket."""
    from table_annotation_ray.stages.windows import rolling_median_by_key

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    out = rolling_median_by_key(
        ev, "user_id", ["ts", "event_id"], "value", window=5
    ).to_pandas()
    out = out[["user_id", "event_id", "rolling_median"]]
    out["user_id"] = out["user_id"].astype("int64")
    out["event_id"] = out["event_id"].astype("int64")
    return out.sort_values("event_id").reset_index(drop=True)


def _q_value_skew_by_type(sf_dir: str):
    """Grouped skewness/excess-kurtosis (stages/stats.py::
    moments_by_key): five partial power sums per (key, batch) through
    grouped_reduce; driver finishes the central-moment algebra on one
    row per type.  SQL mirrors the identical raw-sum algebra."""
    from table_annotation_ray.stages.stats import moments_by_key

    ev = _read(sf_dir, "events", ["event_type", "value"])
    return moments_by_key(ev, "event_type", "value")


def _q_event_entropy_rate(sf_dir: str):
    """Next-event conditional entropy per current type (stages/
    stats.py::entropy_rate): transition_counts' single exchange, then
    driver entropy over the |types|² table.  SQL hash-exact (exact
    integer-count probability ratios into log2)."""
    from table_annotation_ray.stages.stats import entropy_rate

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    return entropy_rate(ev, "user_id", ["ts", "event_id"], "event_type")


def _q_event_type_xcorr(sf_dir: str):
    """Click-vs-view hourly co-movement (stages/stats.py::series_corr):
    gap-filled hourly count series over the shared global range, Pearson
    r from pure INTEGER sufficient statistics — hash-exact with no float
    slack."""
    from table_annotation_ray.stages.stats import series_corr

    ev = _read(sf_dir, "events", ["ts", "event_type"])
    return series_corr(ev, "ts", "event_type", "click", "view", freq="h")


def _q_lexical_diversity(sf_dir: str):
    """Per-document type-token ratio (stages/textstats.py::
    lexical_stats): distinct lowercased whitespace tokens / tokens,
    fully vectorized (flatten + drop_duplicates), map-only.  SQL
    hash-exact via list_distinct over the same split."""
    from table_annotation_ray.stages.textstats import lexical_stats

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(lexical_stats, batch_format="pandas").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_customer_rfm(sf_dir: str):
    """RFM segmentation (stages/datapipe.py::rfm_segments): one
    grouped_reduce collapse to per-customer (recency, frequency,
    int64-cent monetary), then three range-partitioned NTILE(5) passes.
    All-integer output — SQL hash-exact vs window NTILEs."""
    from table_annotation_ray.stages.datapipe import rfm_segments

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_totalprice"])
    out = rfm_segments(orders, "o_custkey", "o_orderdate",
                       "o_totalprice", k=5).to_pandas()
    out = out[["o_custkey", "recency_days", "frequency", "monetary_cents",
               "r_tile", "f_tile", "m_tile", "rfm_code"]]
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("o_custkey").reset_index(drop=True)


def _q_part_abc_class(sf_dir: str):
    """Pareto/ABC revenue classification (stages/datapipe.py::
    abc_classify over a grouped_reduce per-part revenue collapse):
    global_rank + running_sums prefix revenue, integer
    cross-multiplication class test (A ≤ 80%, B ≤ 95%).  Revenue on the
    exact 1e-4 lattice as int64 ("rev4"), so the oracle hash-compares
    with no float share anywhere."""
    import pyarrow as pa

    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.datapipe import abc_classify

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount"])

    def rev4(b: pd.DataFrame) -> pa.Table:
        v = np.floor(
            b["l_extendedprice"].to_numpy()
            * (1.0 - b["l_discount"].to_numpy()) * 10000.0 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "l_partkey": pa.array(b["l_partkey"].to_numpy(), pa.int64()),
                "rev4": pa.array(v, pa.int64()),
            }
        )

    per_part = grouped_reduce(
        li.map_batches(rev4, batch_format="pandas"),
        ["l_partkey"], {"rev4": ("rev4", "sum")},
    )
    out = abc_classify(per_part, "l_partkey", "rev4",
                       cum_col="cum_rev4").to_pandas()
    out = out[["l_partkey", "rev4", "cum_rev4", "position", "abc_class"]]
    for c in ["l_partkey", "rev4", "cum_rev4", "position"]:
        out[c] = out[c].astype("int64")
    return out.sort_values("l_partkey").reset_index(drop=True)


def _q_dataset_checksum(sf_dir: str):
    """Order-independent table fingerprint (stages/dq.py::
    table_checksum): sum of 60-bit md5 row digests mod 2^63-1 — the
    cross-system reconciliation primitive; map-only, one partial row
    per batch.  SQL hash-exact (DuckDB md5 + HUGEINT sum)."""
    from table_annotation_ray.stages.dq import table_checksum

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return table_checksum(docs, ["doc_id", "text"])


def _q_customer_reorder_gap(sf_dir: str):
    """Per-customer order-cadence profile (stages/windows.py::
    gap_stats_by_key): count/min/max/median of consecutive order gaps
    in exact integer microseconds (median of ints is an exact
    half-integer — no rounding slack).  SQL hash-exact vs lag windows."""
    from table_annotation_ray.stages.windows import gap_stats_by_key

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_orderkey"])
    out = gap_stats_by_key(
        orders, "o_custkey", "o_orderdate", "o_orderkey"
    ).to_pandas()
    out["o_custkey"] = out["o_custkey"].astype("int64")
    return out.sort_values("o_custkey").reset_index(drop=True)


def _q_lineitem_corr_matrix(sf_dir: str):
    """Pearson correlation matrix over the four lineitem measures in
    ONE map-only pass (stages/stats.py::pairwise_corr — flat moment
    partials, nothing shuffles).  SQL hash-exact vs the identical
    raw-sum algebra per pair."""
    from table_annotation_ray.stages.stats import pairwise_corr

    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    li = _read(sf_dir, "lineitem", cols)
    out = pairwise_corr(li, cols)
    return out.sort_values(["col_a", "col_b"]).reset_index(drop=True)


def _q_bpe_fertility(sf_dir: str):
    """Tokenizer fertility per language — BPE tokens per whitespace
    word, the multilingual-tokenizer equity audit (which languages pay
    more tokens per word under a shared vocabulary).  Composes
    stages/bpe.py train + bpe_token_counts with a textstats word count
    and one grouped_reduce per-language collapse.  Rows-only (the
    trained tokenizer is not SQL-expressible)."""
    import pyarrow as pa

    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.bpe import bpe_token_counts, train_bpe
    from table_annotation_ray.stages.textstats import _ws_tokens

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    merges = train_bpe(docs, num_merges=60)
    bpe = bpe_token_counts(docs, merges)  # (doc_id, n_tokens)

    def words(b: pd.DataFrame) -> pa.Table:
        _, n = _ws_tokens(b["text"])
        return pa.table(
            {
                "lang": pa.array(b["lang"].astype(str), pa.string()),
                "n_words": pa.array(n, pa.int64()),
                "n_docs": pa.array(np.ones(len(b), np.int64), pa.int64()),
            }
        )

    wsum = grouped_reduce(
        docs.map_batches(words, batch_format="pandas"),
        ["lang"],
        {"n_docs": (None, "count"), "n_words": ("n_words", "sum")},
    ).to_pandas()

    # per-doc BPE counts need the doc's lang — broadcast the doc->lang
    # map is corpus-sized, so instead co-reduce on doc_id? bpe counts
    # already carry doc_id only; re-attach lang via one grouped join on
    # the documents read (small per-batch pandas merge inside the map).
    lang_map = docs.map_batches(
        lambda b: b[["doc_id", "lang"]], batch_format="pandas"
    )
    from table_annotation_ray.stages.relational import equi_join

    joined = equi_join(bpe, lang_map, "doc_id")
    bsum = grouped_reduce(
        joined,
        ["lang"],
        {"n_bpe": ("n_tokens", "sum")},
    ).to_pandas()

    out = wsum.merge(bsum, on="lang")
    fert = out["n_bpe"].to_numpy(np.float64) / np.maximum(
        out["n_words"].to_numpy(np.float64), 1.0
    )
    out["fertility"] = _round_ha(pd.Series(fert), 6)
    out = out[["lang", "n_docs", "n_words", "n_bpe", "fertility"]]
    for c in ["n_docs", "n_words", "n_bpe"]:
        out[c] = out[c].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def _q_key_skew_profile(sf_dir: str):
    """Frequency-of-frequencies skew profile of the event stream's user
    key (stages/agg.py::frequency_histogram): two chained skinny
    grouped_reduce exchanges — the shuffle-planning diagnosis (hot keys
    and distinct cardinality in one table).  SQL hash-exact."""
    from table_annotation_ray.stages.agg import frequency_histogram

    ev = _read(sf_dir, "events", ["user_id"])
    out = frequency_histogram(ev, ["user_id"]).to_pandas()
    out = out.astype({"n_per_key": "int64", "n_keys": "int64"})
    return out.sort_values("n_per_key").reset_index(drop=True)


def _q_event_linear_attribution(sf_dir: str):
    """Multi-touch linear attribution over a 24 h lookback (stages/
    windows.py::linear_attribution): each purchase splits one credit
    unit equally across its window's prior non-purchase touches —
    range-add vectorized per key, one co-location exchange.  SQL
    hash-exact vs the LEFT-JOIN + per-conversion count formulation."""
    from table_annotation_ray.stages.windows import linear_attribution

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    return linear_attribution(
        ev, "user_id", "ts", "event_type", "purchase", 86400.0
    )


def _q_part_clustering_coeff(sf_dir: str):
    """Per-node local clustering coefficient on the part co-occurrence
    graph (stages/graph.py::local_clustering — center-attributed
    degree-ordered wedges, per-node triangle explode, cc from one
    exact-int division).  Same 1/3 basket subsample as triangle_count;
    SQL hash-exact vs the three-way self-join + corner explode."""
    from table_annotation_ray.stages.graph import local_clustering
    from table_annotation_ray.stages.relational import cooccurrence_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    li = li.map_batches(
        lambda b: b[b["l_orderkey"] % 3 == 0], batch_format="pandas"
    )
    edges = cooccurrence_pairs(li, "l_orderkey", "l_partkey", min_count=1)
    out = local_clustering(
        edges, "item_a", "item_b", assume_simple=True
    ).to_pandas()
    for c in ["node", "deg", "triangles"]:
        out[c] = out[c].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


def _q_user_streaks(sf_dir: str):
    """Per-user consecutive-day activity streaks (stages/windows.py::
    activity_streaks — gaps-and-islands on distinct epoch-days, one
    hash(user) co-location, in-bucket sort + two vectorized groupbys).
    SQL hash-exact vs the day - row_number islands query."""
    from table_annotation_ray.stages.windows import activity_streaks

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    out = activity_streaks(ev, "user_id", "ts").to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_events_out_of_order(sf_dir: str):
    """Streaming watermark audit (stages/windows.py::out_of_order_stats):
    per user, events consumed in event_id (arrival) order are late when
    their event time sits below the prior running max — n_late and the
    max watermark delay in exact µs.  One hash(user) co-location,
    in-bucket grouped cummax.  SQL hash-exact vs the windowed running
    max."""
    from table_annotation_ray.stages.windows import out_of_order_stats

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    out = out_of_order_stats(ev, "user_id", "event_id", "ts").to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_rare_term_doc_pairs(sf_dir: str):
    """Rare-term blocking (stages/retrieval.py::rare_term_pairs):
    document pairs sharing ≥2 token-4-grams with df ≤ 20 — candidate
    generation for near-dup verification where the df cap bounds pair
    volume at Σ_rare df² (no stopword blowup, by construction; the
    synthetic corpus' 31-word vocabulary makes every UNIGRAM common,
    so the gram unit carries the signal).  One hash(gram) co-location
    (df filter + a<b pair explode per gram) + one pair-count
    grouped_reduce.  SQL hash-exact vs the distinct-gram self-join."""
    from table_annotation_ray.stages.retrieval import rare_term_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = rare_term_pairs(docs, ngram=4, max_df=20, min_shared=2).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _q_fused_part_ranking(sf_dir: str):
    """Borda rank fusion (stages/retrieval.py::fuse_rankings) of two
    part rankings — top-100 by revenue (exact int64 cents) and top-100
    by order count — items missing from a list charged len+1; the
    fused order is pure integer arithmetic.  One union + one
    grouped_reduce regardless of list count.  SQL hash-exact vs
    row_number CTEs + full outer join."""
    import ray.data as rd

    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.retrieval import fuse_rankings

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_orderkey"])

    def prep(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "p": pa.array(b["l_partkey"].to_numpy(), pa.int64()),
                "cents": pa.array(
                    np.round(b["l_extendedprice"].to_numpy() * 100.0).astype(
                        np.int64
                    ),
                    pa.int64(),
                ),
                "o": pa.array(b["l_orderkey"].to_numpy(), pa.int64()),
            }
        )

    base = li.map_batches(prep, batch_format="pandas")
    rev = grouped_reduce(
        base, ["p"], {"rev_cents": ("cents", "sum"), "n_lines": ("o", "count")}
    ).to_pandas()
    r1 = rev.sort_values(["rev_cents", "p"], ascending=[False, True]).head(100)
    r1 = pd.DataFrame({"id": r1["p"].to_numpy(), "rank": np.arange(1, len(r1) + 1)})
    r2 = rev.sort_values(["n_lines", "p"], ascending=[False, True]).head(100)
    r2 = pd.DataFrame({"id": r2["p"].to_numpy(), "rank": np.arange(1, len(r2) + 1)})
    out = fuse_rankings(
        [rd.from_pandas(r1), rd.from_pandas(r2)], "id", "rank", method="borda"
    ).to_pandas()
    out = out.rename(columns={"id": "p_partkey"})
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return (
        out[["p_partkey", "fused_rank_sum", "n_lists"]]
        .sort_values(["fused_rank_sum", "p_partkey"])
        .reset_index(drop=True)
    )


def _q_graph_sssp(sf_dir: str):
    """Weighted single-source shortest paths (stages/graph.py::
    sssp_distances — frontier-limited Bellman-Ford, driver-broadcast
    engine under a distance-table gate spilling into the equi_join +
    grouped_reduce + tag-union-merge exchange engine) over the part
    co-occurrence graph, edge cost = basket co-count (exact int64 path
    sums).  Source = smallest part id in the graph.  Rows-only (DuckDB
    1.0 recursive CTEs enumerate paths — exponential on cycles); both
    engines and a single-process Bellman-Ford are pinned in pytest."""
    from table_annotation_ray.stages.graph import sssp_distances
    from table_annotation_ray.stages.relational import cooccurrence_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    li = li.map_batches(
        lambda b: b[b["l_orderkey"] % 3 == 0], batch_format="pandas"
    )
    edges = cooccurrence_pairs(li, "l_orderkey", "l_partkey", min_count=1)
    edges = edges.materialize()
    source = int(edges.min("item_a"))
    out = sssp_distances(
        edges, source, "item_a", "item_b", "n_baskets"
    ).to_pandas()
    out["node"] = out["node"].astype("int64")
    out["dist"] = out["dist"].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


def _q_weekly_cohort_retention(sf_dir: str):
    """Weekly cohort retention matrix (stages/windows.py::
    cohort_retention): users bucketed by first-activity week, counted
    per return-week offset.  Two skinny exchanges — per-batch-distinct
    (user, week) pairs co-locate by hash(user), then (cohort, offset)
    partial counts sum through grouped_reduce; raw events cross
    neither.  SQL hash-exact (exact epoch-µs integer week math)."""
    from table_annotation_ray.stages.windows import cohort_retention

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    out = cohort_retention(ev, "user_id", "ts", period_days=7).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["cohort_period", "period_offset"]).reset_index(
        drop=True
    )


def _q_gopher_gate(sf_dir: str):
    """Gopher quality-rule bundle (stages/textstats.py::gopher_rules,
    Rae et al. 2021 §A1.1): word-count / mean-word-length / symbol /
    bullet / ellipsis / alpha-word / required-word rules in one map-only
    pass, every rule in INTEGER arithmetic (no float boundary).  SQL
    hash-exact — DuckDB regexp/list kernels are RE2, same as Arrow."""
    from table_annotation_ray.stages.textstats import gopher_rules

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(gopher_rules, batch_format="pandas").to_pandas()
    for c in out.columns:
        if out[c].dtype == np.int64 or c == "doc_id":
            out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_events_incremental_agg(sf_dir: str):
    """Incremental materialized-view maintenance (stages/agg.py::
    merge_aggregates): per-user count/sum/min/max over event values is
    first built from the even-event_id HALF of the table
    (grouped_reduce), then the odd half is folded in as a DELTA — only
    the delta maps and only partial rows cross the one bucket exchange;
    the base facts are never re-scanned.  SQL hash-exact vs the full
    one-shot aggregate (the merge identity).  Values ride as exact
    int64 cents so no float-sum boundary exists."""
    from table_annotation_ray.stages.agg import grouped_reduce, merge_aggregates

    reducers = {
        "n": (None, "count"),
        "sum_cents": ("cents", "sum"),
        "lo_cents": ("cents", "min"),
        "hi_cents": ("cents", "max"),
    }

    def prep(parity: int):
        def f(b: pd.DataFrame) -> pa.Table:
            b = b[b["event_id"] % 2 == parity]
            return pa.table(
                {
                    "user_id": pa.array(b["user_id"].to_numpy(), pa.int64()),
                    "cents": pa.array(
                        np.round(b["value"].to_numpy() * 100.0).astype(np.int64),
                        pa.int64(),
                    ),
                }
            )

        return f

    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    base = grouped_reduce(
        ev.map_batches(prep(0), batch_format="pandas"), ["user_id"], reducers
    )
    merged = merge_aggregates(
        base,
        ev.map_batches(prep(1), batch_format="pandas"),
        ["user_id"],
        reducers,
    ).to_pandas()
    for c in ["user_id", "n", "sum_cents", "lo_cents", "hi_cents"]:
        merged[c] = merged[c].astype("int64")
    return (
        merged[["user_id", "n", "sum_cents", "lo_cents", "hi_cents"]]
        .sort_values("user_id")
        .reset_index(drop=True)
    )


def _q_value_holt_forecast(sf_dir: str):
    """Per-user Holt double-exponential smoothing over ts-ordered event
    values (stages/windows.py::holt_by_key): one hash(user) co-location,
    then the bucket iterates over time STEPS updating all keys' (level,
    trend) vectors with fused numpy ops — never per-key Python.  The
    recurrence has no SQL window equivalent (rows-only; pinned against
    a single-process reference in pytest)."""
    from table_annotation_ray.stages.windows import holt_by_key

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    out = holt_by_key(
        ev, "user_id", ["ts", "event_id"], "value", alpha=0.5, beta=0.3
    ).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_order_target_encode(sf_dir: str):
    """Leave-one-out target encoding (stages/datapipe.py::target_encode)
    — the leak-free high-cardinality categorical feature: each order's
    encoding of its priority class uses the class's total-price stats
    EXCLUDING the order itself.  Prices ride as exact int64 cents (the
    round-5 exactness rule), so the compared (loo_sum, loo_n) pair is
    bit-exact vs the SQL window form; the float loo_mean quotient is a
    convenience column dropped from the compare."""
    from table_annotation_ray.stages.datapipe import target_encode

    def cents(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": pa.array(b["o_orderkey"].to_numpy(), pa.int64()),
                "o_orderpriority": pa.Array.from_pandas(b["o_orderpriority"]),
                "cents": pa.array(
                    np.round(b["o_totalprice"].to_numpy() * 100.0).astype(
                        np.int64
                    ),
                    pa.int64(),
                ),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"]
    ).map_batches(cents, batch_format="pandas")
    out = target_encode(orders, "o_orderkey", "o_orderpriority", "cents").to_pandas()
    out = out[["o_orderkey", "o_orderpriority", "loo_sum", "loo_n"]]
    for c in ["o_orderkey", "loo_sum", "loo_n"]:
        out[c] = out[c].astype("int64")
    return out.sort_values("o_orderkey").reset_index(drop=True)


def _q_cluster_silhouette(sf_dir: str):
    """Centroid-based silhouette per k-means cluster
    (stages/clustering.py::kmeans_silhouette) — the clustering-quality
    diagnostic at corpus scale (the classic all-pairs silhouette is
    O(n²); the standard substitute scores each point against broadcast
    CENTROIDS — one GEMM per batch + one bounded k-row exchange).
    Rows-only (scores depend on the iterative k-means fit); pinned
    against a single-process numpy reference in pytest."""
    from table_annotation_ray.stages.clustering import kmeans_fit, kmeans_silhouette

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    cents, _ = kmeans_fit(emb, k=8, iters=8)
    out = kmeans_silhouette(emb, cents).to_pandas()
    out["cluster"] = out["cluster"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out.sort_values("cluster").reset_index(drop=True)


def _q_quality_auc(sf_dir: str):
    """Exact ROC-AUC of the stopword-ratio quality score against the
    funnel's weak label (stages/stats.py::roc_auc) — the classifier-eval
    scalar beside the quality_lift gain curve: one skinny distinct
    (label, score) histogram exchange, zero row-level ranking.  The
    compared (n_pos, n_neg, u2=2U) triple is exact integer rank-sum
    arithmetic — bit-identical to the SQL window mirror."""
    from table_annotation_ray.stages.stats import roc_auc
    from table_annotation_ray.stages.textstats import quality_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        qs = quality_scores(b)
        s = _round_ha(qs["stopword_ratio"], 6)
        mtl = _round_ha(qs["mean_token_len"], 6)
        lab = ((s >= 0.05) & (mtl < 8.0)).astype("int64")
        return pd.DataFrame({"score": s.to_numpy(), "label": lab})

    r = roc_auc(docs.map_batches(score, batch_format="pandas"), "label", "score")
    return pd.DataFrame(
        {
            "n_pos": pd.Series([r["n_pos"]], dtype="int64"),
            "n_neg": pd.Series([r["n_neg"]], dtype="int64"),
            "u2": pd.Series([r["u2"]], dtype="int64"),
        }
    )


def _q_part_neighbor_price(sf_dir: str):
    """GNN-style one-hop feature aggregation over the co-purchase graph
    (stages/graph.py::neighbor_agg — GraphSAGE message passing): per
    part, the count and summed retail price of parts co-ordered with it
    in ≥2 baskets.  Edges explode to 2|E| message rows, the price
    attaches through the size-gated equi_join, one grouped_reduce by
    node — all exchanges skinny int64.  Prices ride as exact cents."""
    from table_annotation_ray.stages.graph import neighbor_agg
    from table_annotation_ray.stages.relational import cooccurrence_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges = cooccurrence_pairs(li, "l_orderkey", "l_partkey", min_count=2)

    def cents(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "p_partkey": pa.array(b["p_partkey"].to_numpy(), pa.int64()),
                "cents": pa.array(
                    np.round(b["p_retailprice"].to_numpy() * 100.0).astype(
                        np.int64
                    ),
                    pa.int64(),
                ),
            }
        )

    feats = _read(sf_dir, "part", ["p_partkey", "p_retailprice"]).map_batches(
        cents, batch_format="pandas"
    )
    out = neighbor_agg(
        edges,
        feats,
        src_col="item_a",
        dst_col="item_b",
        node_col="p_partkey",
        feat_col="cents",
    ).to_pandas()
    out = out.rename(columns={"feat_sum": "nbr_price_cents"})
    for c in ["p_partkey", "n_neighbors", "nbr_price_cents"]:
        out[c] = out[c].astype("int64")
    return (
        out[["p_partkey", "n_neighbors", "nbr_price_cents"]]
        .sort_values("p_partkey")
        .reset_index(drop=True)
    )


def _q_value_changepoint(sf_dir: str):
    """Most-likely mean-shift changepoint per user over ts-ordered event
    values (stages/windows.py::changepoint_by_key): argmax_k of the
    exact-integer CUSUM objective |n·S_k − k·S_n| on cents, earliest-k
    ties — one hash(user) co-location, vectorized in-bucket cumsums.
    Bit-identical to the SQL window mirror (pure int64 arithmetic)."""
    from table_annotation_ray.stages.windows import changepoint_by_key

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def cents(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "user_id": pa.array(b["user_id"].to_numpy(), pa.int64()),
                "ts": pa.Array.from_pandas(b["ts"]),
                "event_id": pa.array(b["event_id"].to_numpy(), pa.int64()),
                "cents": pa.array(
                    np.round(b["value"].to_numpy() * 100.0).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    out = changepoint_by_key(
        ev.map_batches(cents, batch_format="pandas"),
        "user_id",
        ["ts", "event_id"],
        "cents",
    ).to_pandas()
    for c in ["user_id", "n", "cp_pos", "stat"]:
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_part_als_factors(sf_dir: str):
    """Distributed ALS factorization of the customer×part quantity
    matrix (stages/factorize.py::als_factorize — alternating ridge
    solves, factor matrices NEVER broadcast or driver-held: ratings
    tag-materialized once per side, each half-step is one factor
    co-location + one normal-equation grouped_reduce + a batched
    np.linalg.solve map).  Returns the part-side factors; rows-only
    (iterative float fit; planted low-rank recovery is pytest-pinned)."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.factorize import als_factorize
    from table_annotation_ray.stages.relational import equi_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_quantity"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    ratings = grouped_reduce(
        equi_join(li, orders, "l_orderkey", "o_orderkey"),
        ["o_custkey", "l_partkey"],
        {"qty": ("l_quantity", "sum")},
    )
    _, vfac = als_factorize(
        ratings, "o_custkey", "l_partkey", "qty", k=4, iters=2, reg=0.1
    )
    out = vfac.to_pandas().rename(columns={"id": "p_partkey"})
    out["p_partkey"] = out["p_partkey"].astype("int64")
    return out.sort_values("p_partkey").reset_index(drop=True)


def _q_embedding_rp(sf_dir: str):
    """Johnson–Lindenstrauss random projection of the embedding table
    (stages/decomp.py::random_project): zero-pass map-only reduction to
    8 dims, projection matrix rebuilt per worker from the seed (nothing
    shipped).  Deterministic per row; exact numpy equivalence and the
    JL distance band are pytest-pinned (rows-only — a d×8 Gaussian
    literal has no sane SQL mirror)."""
    from table_annotation_ray.stages.decomp import random_project

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = random_project(emb, out_dim=8, keep_cols=["vec_id"], seed=42).to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    for i in range(8):
        out[f"rp{i}"] = _round_ha(out[f"rp{i}"], 6)
    return out.sort_values("vec_id").reset_index(drop=True)



def _q_value_theilsen(sf_dir: str):
    """Per-user Theil-Sen robust trend (stages/windows.py::
    theilsen_by_key): LOWER median of all pairwise slopes of the
    ts-ordered value series vs its 0-based row index.  The median is an
    ELEMENT of the slope multiset (rank (n-1)//2), so the double is
    bit-identical to the SQL mirror selecting the same ranked row — no
    rounding.  One hash(user)%64 exchange; in-bucket vectorized
    repeat/offset pair expansion + one lexsort."""
    from table_annotation_ray.stages.windows import theilsen_by_key

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    out = theilsen_by_key(ev, "user_id", ["ts", "event_id"], "value").to_pandas()
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_weighted_median_price(sf_dir: str):
    """Quantity-weighted LOWER median price per return flag
    (stages/quantiles.py::weighted_median_by_key): counts-engine shape —
    one grouped_reduce collapses lineitem to a distinct-(flag, price)
    weight histogram, the in-bucket pass picks min(v) with 2*cum >=
    total.  l_quantity is integral, so the float weight sums are exact
    under any summation order; the median is an input-lattice element."""
    from table_annotation_ray.stages.quantiles import weighted_median_by_key

    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"])
    out = weighted_median_by_key(
        li, "l_returnflag", "l_extendedprice", "l_quantity"
    ).to_pandas()
    return out.sort_values("l_returnflag").reset_index(drop=True)


def _q_part_jaccard_links(sf_dir: str):
    """Neighborhood-Jaccard link prediction (stages/graph.py::
    jaccard_links) over the part co-occurrence graph (same 1/3 basket
    subsample as link_prediction): common_neighbors counts through
    degree-capped wedge centers, FULL degrees attached via size-gated
    broadcast equi_joins, jaccard = common/union as the single double
    division of exact ints (bit-identical to SQL, no rounding)."""
    from table_annotation_ray.stages.graph import jaccard_links
    from table_annotation_ray.stages.relational import cooccurrence_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
        lambda b: b[b["l_orderkey"] % 3 == 0], batch_format="pandas"
    )
    edges = cooccurrence_pairs(li, "l_orderkey", "l_partkey", min_count=1)
    out = jaccard_links(
        edges, "item_a", "item_b", max_center_degree=30, min_common=2
    ).to_pandas()
    for c in ("u", "v", "common", "deg_u", "deg_v", "union_size"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["u", "v"]).reset_index(drop=True)


def _q_hourly_mase(sf_dir: str):
    """Seasonal-naive forecast quality per event type
    (stages/windows.py::seasonal_mase): MASE of the 24-hour
    seasonal-naive forecast against the 1-hour naive scale, over the
    gap-filled hourly count grid (resample_counts).  Absolute-error
    sums are INTEGER counts, mase is one double division of exact int
    products — bit-identical to the SQL window mirror."""
    from table_annotation_ray.stages.windows import seasonal_mase

    ev = _read(sf_dir, "events", ["ts", "event_type"])
    out = seasonal_mase(ev, "ts", "event_type", period=24, freq="h")
    return out.sort_values("event_type").reset_index(drop=True)


def _q_fuzzy_name_pairs(sf_dir: str):
    """SymSpell deletion-neighborhood fuzzy self-join (stages/joins.py::
    fuzzy_pairs_1del): all pairs of distinct customer names (1-in-7
    custkey subsample) at Levenshtein distance exactly 1, found via a
    shared-deletion-variant co-location (never |vocab|^2) with an exact
    vectorized distance verify, against DuckDB's levenshtein cross
    join."""
    from table_annotation_ray.stages.joins import fuzzy_pairs_1del

    cu = _read(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        lambda b: b[b["c_custkey"] % 7 == 0][["c_name"]], batch_format="pandas"
    )
    out = fuzzy_pairs_1del(cu, "c_name").to_pandas()
    return out.sort_values(["a", "b"]).reset_index(drop=True)



def _q_bigram_kn(sf_dir: str):
    """Interpolated Kneser-Ney bigram probabilities (stages/lm.py::
    kn_bigram_probs): the classic continuation-count smoothing, fully
    distributed — one hash(context) exchange yields bigram totals +
    context margins + forward continuation counts, one hash(next)
    exchange yields backward continuation counts, D is the materialized
    type count.  The float formula is evaluated in the exact SQL
    association order, so top-200 rows hash-compare with no rounding."""
    from table_annotation_ray.stages.lm import kn_bigram_probs

    docs = _read(sf_dir, "documents", ["text"])
    out = kn_bigram_probs(docs).to_pandas()
    for c in ("cab", "ctot", "n1f", "n1b"):
        out[c] = out[c].astype("int64")
    out = out.sort_values(
        ["cab", "a", "b"], ascending=[False, True, True]
    ).head(200)
    return out.reset_index(drop=True)


def _q_quality_calibration(sf_dir: str):
    """Reliability-diagram bins (stages/stats.py::calibration_bins) of
    the stopword-ratio quality score vs the weak label (quality_lift's
    scorer): NTILE(10) on the rounded-score global order; per-bin mean
    predicted score is summed in integer micro-units so the compare is
    exact; both output rates are single double divisions of ints."""
    from table_annotation_ray.stages.stats import calibration_bins
    from table_annotation_ray.stages.textstats import quality_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        qs = quality_scores(b)
        s = _round_ha(qs["stopword_ratio"], 6)
        mtl = _round_ha(qs["mean_token_len"], 6)
        lab = ((s >= 0.05) & (mtl < 8.0)).astype("int64")
        return pd.DataFrame(
            {"doc_id": b["doc_id"], "score": s.to_numpy(), "label": lab}
        )

    scored = docs.map_batches(score, batch_format="pandas")
    return calibration_bins(scored, "score", "label", "doc_id", k=10)



def _q_unigram_vocab(sf_dir: str):
    """SentencePiece-style unigram-LM tokenizer training
    (stages/unigram.py::train_unigram_lm): substring-seeded hard-EM
    with Viterbi integer counts (order-independent, byte-identical to
    the single-process reference pinned in pytest); per round one
    bounded-model broadcast + one piece-count exchange over the
    distinct-word table.  Iterative/heuristic — rows-only check."""
    from table_annotation_ray.stages.unigram import train_unigram_lm

    docs = _read(sf_dir, "documents", ["text"])
    out = train_unigram_lm(
        docs, vocab_size=48, seed_size=256, max_piece_len=6, n_iters=3
    )
    out["count"] = out["count"].astype("int64")
    return out.reset_index(drop=True)



def _q_coreset_select(sf_dir: str):
    """Greedy k-center coreset (stages/clustering.py::kcenter_coreset —
    Gonzalez 2-approx): 32 maximally-diverse embedding rows; the
    min-distance state is a dataset COLUMN updated one map pass per
    round, the driver reduces only per-block argmax partials.
    Deterministic (squared-L2 float64, min-id ties) but iterative —
    rows-only check; the single-process equivalence is pinned in
    pytest."""
    from table_annotation_ray.stages.clustering import kcenter_coreset

    embs = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return kcenter_coreset(embs, "vec_id", "embedding", k=16)


def _q_trimmed_mean_price(sf_dir: str):
    """Exact 10%-count-trimmed mean price per return flag
    (stages/quantiles.py::trimmed_mean_by_key): counts-engine — one
    grouped_reduce to the distinct-value histogram, interior
    multiplicities from cumulative counts, EXACT int64 cent sums, one
    double division.  SQL mirror is the row_number window."""
    from table_annotation_ray.stages.quantiles import trimmed_mean_by_key

    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    out = trimmed_mean_by_key(li, "l_returnflag", "l_extendedprice",
                              trim=0.1).to_pandas()
    return out.sort_values("l_returnflag").reset_index(drop=True)


def _q_source_ablation(sf_dir: str):
    """Leave-one-source-out corpus valuation (stages/stats.py::
    group_ablation): how the global mean quality score moves when each
    source is removed — integer micro-unit sums, single-division rates,
    bit-identical to the SQL mirror."""
    from table_annotation_ray.stages.stats import group_ablation
    from table_annotation_ray.stages.textstats import quality_scores

    docs = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        qs = quality_scores(b)
        return pd.DataFrame(
            {
                "source": b["source"],
                "score": _round_ha(qs["stopword_ratio"], 6).to_numpy(),
            }
        )

    scored = docs.map_batches(score, batch_format="pandas")
    return group_ablation(scored, "source", "score")


def _q_kanon_audit(sf_dir: str):
    """k-anonymity audit (stages/dq.py::k_anonymity) over the customer
    (nation, segment) quasi-identifier: every equivalence class with
    its count and risky flag (< k=10 rows).  One grouped_reduce."""
    from table_annotation_ray.stages.dq import k_anonymity

    cu = _read(sf_dir, "customer", ["c_nationkey", "c_mktsegment"])
    out = k_anonymity(cu, ["c_nationkey", "c_mktsegment"], k=10).to_pandas()
    out["c_nationkey"] = out["c_nationkey"].astype("int64")
    return out.sort_values(["c_nationkey", "c_mktsegment"]).reset_index(drop=True)


def _q_part_name_extract(sf_dir: str):
    """Vectorized regex group extraction (stages/relational.py::
    regex_extract, Arrow pc.extract_regex kernel): split p_name into
    its adjective/noun fields; rows not matching the two-word shape get
    NULLs.  Map-only, hash-exact vs DuckDB regexp_extract."""
    from table_annotation_ray.stages.relational import regex_extract

    pt = _read(sf_dir, "part", ["p_partkey", "p_name"])
    out = regex_extract(
        pt, "p_name", r"^(?P<adj>[a-z]+) (?P<noun>[a-z]+)$",
        keep_cols=["p_partkey"],
    ).to_pandas()
    out["p_partkey"] = out["p_partkey"].astype("int64")
    return out.sort_values("p_partkey").reset_index(drop=True)



def _q_incremental_join_view(sf_dir: str):
    """Incremental join-view maintenance (stages/relational.py::
    incremental_join): orders/lineitem each split into base and delta
    (orderkey%4, linenumber==1); the operator emits exactly the join
    rows the deltas add — dL x (Rb u dR)  union  Lb x dR — the
    base x base bulk never executes.  SQL mirror: full join filtered
    to rows touching a delta."""
    from table_annotation_ray.stages.relational import incremental_join

    o = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])
    base_l = o.map_batches(lambda b: b[b["o_orderkey"] % 4 != 0],
                           batch_format="pandas")
    delta_l = o.map_batches(lambda b: b[b["o_orderkey"] % 4 == 0],
                            batch_format="pandas")
    base_r = li.map_batches(lambda b: b[b["l_linenumber"] != 1],
                            batch_format="pandas")
    delta_r = li.map_batches(lambda b: b[b["l_linenumber"] == 1],
                             batch_format="pandas")
    out = incremental_join(
        base_l, delta_l, base_r, delta_r, "o_orderkey", "l_orderkey"
    ).to_pandas()
    for c in ("o_orderkey", "l_linenumber"):
        out[c] = out[c].astype("int64")
    return out.sort_values(
        ["o_orderkey", "l_linenumber", "l_quantity"]
    ).reset_index(drop=True)


def _q_copurchase_cosine(sf_dir: str):
    """Cosine-normalized co-purchase graph (stages/relational.py::
    cooccurrence_cosine): pair basket counts over the 1/3 order
    subsample, normalized by each part's distinct-basket count —
    cosine = n_ab / sqrt(n_a*n_b), single IEEE sqrt+divide, SQL
    bit-identical."""
    from table_annotation_ray.stages.relational import cooccurrence_cosine

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]).map_batches(
        lambda b: b[b["l_orderkey"] % 3 == 0], batch_format="pandas"
    )
    out = cooccurrence_cosine(li, "l_orderkey", "l_partkey",
                              min_count=2).to_pandas()
    return out.sort_values(["item_a", "item_b"]).reset_index(drop=True)


def _q_embedding_outliers(sf_dir: str):
    """Per-label centroid outliers (stages/clustering.py::
    centroid_outliers): the 5 vectors farthest from their own label
    centroid — mislabel/contamination triage.  Skinny label-bounded
    centroid exchange + map-only distances + grouped_topk; float
    centroid sums make this a rows-only diagnostic (numpy equivalence
    pinned in pytest)."""
    from table_annotation_ray.stages.clustering import centroid_outliers

    embs = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    out = centroid_outliers(embs, "label", "vec_id", "embedding",
                            top_k=5).to_pandas()
    out["label"] = out["label"].astype("int64")
    out["vec_id"] = out["vec_id"].astype("int64")
    return out.sort_values(["label", "dist2", "vec_id"],
                           ascending=[True, False, True]).reset_index(drop=True)


def _q_unigram_fertility(sf_dir: str):
    """Tokenizer fertility by source (stages/unigram.py): pieces/word
    of the trained unigram-LM tokenizer per document source — the
    bpe_fertility counterpart for the second tokenizer family.
    Encode keyed directly by source; one grouped_reduce; fertility is
    one double division of exact int sums.  Model-driven, rows-only."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.unigram import (
        train_unigram_lm, unigram_encode,
    )

    docs = _read(sf_dir, "documents", ["source", "text"])
    model = train_unigram_lm(
        docs, vocab_size=48, seed_size=256, max_piece_len=6, n_iters=3
    )
    enc = unigram_encode(docs, model, text_col="text", id_col="source")
    agg = grouped_reduce(
        enc, ["source"],
        {"n_pieces": ("n_pieces", "sum"), "n_words": ("n_words", "sum")},
    ).to_pandas()
    agg["n_pieces"] = agg["n_pieces"].astype("int64")
    agg["n_words"] = agg["n_words"].astype("int64")
    agg["fertility"] = agg["n_pieces"].to_numpy(np.float64) / agg[
        "n_words"
    ].to_numpy(np.float64)
    return agg.sort_values("source").reset_index(drop=True)



def _q_value_rolling_slope(sf_dir: str):
    """Windowed OLS trend per user (stages/windows.py::
    rolling_slope_by_key): slope of value-cents against the absolute
    in-key rank over an 8-row trailing frame — numerator and
    denominator are EXACT int64 window sums (value on the cent
    lattice, x the integer rank), one double division, bit-identical
    to the SQL window mirror.  One hash(user) exchange, cumsum-diff
    frame sums."""
    from table_annotation_ray.stages.windows import rolling_slope_by_key

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    out = rolling_slope_by_key(
        ev, "user_id", ["ts", "event_id"], "value", window=8
    ).to_pandas()
    out = out[["user_id", "rn", "slope_cents"]]
    out["rn"] = out["rn"].astype("int64")
    return out.sort_values(["user_id", "rn"]).reset_index(drop=True)


def _q_doc_containment(sf_dir: str):
    """Exact containment/Jaccard verification (stages/retrieval.py::
    containment_pairs) of the rare-4-gram candidate pairs — the
    asymmetric subset-duplicate signal (a quote scores containment ~1
    in the shorter doc while Jaccard stays low).  One gram co-location
    with the bounded candidate set broadcast + skinny size joins;
    ratios are single double divisions of exact ints."""
    from table_annotation_ray.stages.retrieval import (
        containment_pairs, rare_term_pairs,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    cand = rare_term_pairs(docs, ngram=4, max_df=20, min_shared=2)
    out = containment_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), cand, ngram=4
    ).to_pandas()
    for c in ("doc_a", "doc_b", "n_shared", "size_a", "size_b"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _q_fuzzy_name_clusters(sf_dir: str):
    """Entity canonicalization: connected components over the
    edit-distance-1 name graph (stages/joins.py::fuzzy_pairs_1del +
    stages/dedup.py::min_label_components distributed min-label
    propagation) — every clustered customer name labeled with the
    smallest reachable custkey.  SQL mirror: recursive min-reach over
    the levenshtein<=1 edge set."""
    from table_annotation_ray.stages.dedup import min_label_components
    from table_annotation_ray.stages.joins import fuzzy_pairs_1del

    cu = _read(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        lambda b: b[b["c_custkey"] % 7 == 0][["c_name"]], batch_format="pandas"
    )
    pairs = fuzzy_pairs_1del(cu, "c_name")

    def parse(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "a": b["a"].str.slice(9).astype("int64"),
                "b": b["b"].str.slice(9).astype("int64"),
            }
        )

    edges = pairs.map_batches(parse, batch_format="pandas")
    out = min_label_components(edges, max_iters=30).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["component"] = out["component"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)



def _q_ab_value_cuped(sf_dir: str):
    """CUPED variance-reduced A/B readout (stages/stats.py::
    cuped_adjusted): cohort = user%2, pre-period covariate = value sum
    before Jan 16; theta from EXACT integer sufficient statistics
    (Python-int driver sums; HUGEINT in the SQL mirror — n*Sxy
    overflows int64), adjusted means evaluated in the exact SQL
    association order."""
    from table_annotation_ray.stages.stats import cuped_adjusted

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    return cuped_adjusted(ev, "user_id", "ts", "value", "2024-01-16")


def _q_quality_roc_points(sf_dir: str):
    """Full ROC curve of the stopword-ratio quality score vs the weak
    label (stages/stats.py::roc_points): one point per distinct
    rounded score, counts-engine (distinct-score histogram exchange +
    driver cumulation); rates are single divisions of exact ints."""
    from table_annotation_ray.stages.stats import roc_points
    from table_annotation_ray.stages.textstats import quality_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        qs = quality_scores(b)
        s = _round_ha(qs["stopword_ratio"], 6)
        mtl = _round_ha(qs["mean_token_len"], 6)
        lab = ((s >= 0.05) & (mtl < 8.0)).astype("int64")
        return pd.DataFrame({"score": s.to_numpy(), "label": lab})

    scored = docs.map_batches(score, batch_format="pandas")
    return roc_points(scored, "label", "score")


def _q_dup_weighting(sf_dir: str):
    """Duplicate-aware loss weights (stages/dedup.py::
    duplicate_weights): keep every copy, weight each by 1/cluster-size
    over exact normalized-text clusters — a repeated text contributes
    total mass 1.  One text co-location; SQL mirror is a window
    count."""
    from table_annotation_ray.stages.dedup import duplicate_weights

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = duplicate_weights(docs).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_value_bootstrap_ci(sf_dir: str):
    """Poisson-bootstrap CI for the mean event value (stages/stats.py::
    bootstrap_mean_ci, Chamandy et al.): 200 replicates accumulated in
    ONE map pass, multiplicities from splitmix64(id*B+b) through the
    Poisson(1) CDF — partitioning-independent (pinned in pytest).
    Hash-based resampling has no SQL equivalent — rows-only."""
    from table_annotation_ray.stages.stats import bootstrap_mean_ci

    ev = _read(sf_dir, "events", ["event_id", "value"])
    r = bootstrap_mean_ci(ev, "value", "event_id", n_boot=200)
    return pd.DataFrame([r])



def _q_customer_fd_audit(sf_dir: str):
    """Functional-dependency discovery (stages/dq.py::
    functional_dependencies) over customer candidate pairs: custkey ->
    nationkey must hold (key), nationkey <-> mktsegment must not.
    Distinct-pair-bounded exchanges only."""
    from table_annotation_ray.stages.dq import functional_dependencies

    cu = _read(sf_dir, "customer",
               ["c_custkey", "c_nationkey", "c_mktsegment"])
    out = functional_dependencies(
        cu,
        [("c_custkey", "c_nationkey"),
         ("c_nationkey", "c_mktsegment"),
         ("c_mktsegment", "c_nationkey")],
    )
    return out.sort_values(["det", "dep"]).reset_index(drop=True)


def _q_vocab_drift(sf_dir: str):
    """Top-50 vocabulary drift between corpus halves (stages/
    textstats.py::vocab_drift, doc_id parity split): both sides' top
    lists aligned into one token table with counts and ranks — the
    scrape/template-change monitor.  Exact counts; bounded top-K
    collect (train_bigram_lm prune pattern)."""
    from table_annotation_ray.stages.textstats import vocab_drift

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: pd.DataFrame(
            {"side": (b["doc_id"] % 2).astype("int64"), "text": b["text"]}
        ),
        batch_format="pandas",
    )
    return vocab_drift(docs, "side", top_k=50)


def _q_event_mix_shift(sf_dir: str):
    """Mix-shift decomposition (stages/stats.py::mix_shift) of the
    period-over-period mean event value (split Jan 16): per event type
    the RATE effect (behavior change) vs the MIX effect (traffic
    composition change); the two columns sum exactly to the total mean
    change.  Cent-lattice integers; every float mirrors the SQL
    association order."""
    from table_annotation_ray.stages.stats import mix_shift

    ev = _read(sf_dir, "events", ["event_type", "ts", "value"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "event_type": b["event_type"],
                "p": (b["ts"] >= pd.Timestamp("2024-01-16")).astype("int64"),
                "value": b["value"],
            }
        ),
        batch_format="pandas",
    )
    return mix_shift(ev, "event_type", "p", "value")



def _q_zorder_pruning(sf_dir: str):
    """File-skipping effectiveness audit (stages/datapipe.py::
    pruning_stats): 500-row files under natural (event_id) order vs
    Morton z-order; for the rectangle uid in [100,200] x hr in
    [300,400], how many files' min/max boxes prune outright — the
    measured payoff of OPTIMIZE ZORDER.  Two range-partition
    exchanges; only two summary rows reach the driver.  SQL
    hash-exact vs the window-grid mirror."""
    from table_annotation_ray.stages.datapipe import pruning_stats

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def quantize(b: pd.DataFrame) -> pd.DataFrame:
        hr = b["ts"].to_numpy().astype("datetime64[h]").astype(np.int64)
        return pd.DataFrame(
            {
                "event_id": b["event_id"].to_numpy(),
                "uid": b["user_id"].to_numpy() % 1024,
                "hr": hr % 1024,
            }
        )

    q = ev.map_batches(quantize, batch_format="pandas")
    return pruning_stats(q, "uid", "hr", "event_id",
                         (100, 200), (300, 400), file_rows=500)



def _q_session_conversion(sf_dir: str):
    """Strict-ordered in-session funnel (stages/windows.py::
    session_pattern_counts): per user, 30-min-gap sessions whose
    ordered event-type sequence matches view -> click -> purchase as a
    subsequence — the per-visit conversion plain whole-history funnels
    overstate.  SQL mirror: string_agg(ORDER BY ts, event_id) +
    regexp_matches per session."""
    from table_annotation_ray.stages.windows import session_pattern_counts

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    out = session_pattern_counts(
        ev, "user_id", "ts", "event_type", "view.*click.*purchase",
        pd.Timedelta(minutes=30), tiebreak_col="event_id",
    ).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_churn_weekly_labels(sf_dir: str):
    """Churn-model label factory (stages/windows.py::activity_labels):
    one row per (user, active epoch-week) with the event count and the
    supervised label — active again next week?  Exact integer
    epoch-microsecond bucketing (epoch_us mirror); one grid
    grouped_reduce + one key co-location."""
    from table_annotation_ray.stages.windows import activity_labels

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    out = activity_labels(ev, "user_id", "ts").to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values(["user_id", "period"]).reset_index(drop=True)



def _q_sqlite_roundtrip(sf_dir: str):
    """SQLite source/sink round trip (sources/sqlite.py): a 1-in-10
    events sample streams into an embedded .db (single-writer sink),
    is re-read with PARALLEL rowid-range readers, and aggregates per
    event type — proving the db path carries exact values.  Oracle
    computes the same aggregate from the original parquet."""
    import os
    import tempfile

    from table_annotation_ray.sources.sqlite import read_sqlite, write_sqlite
    from table_annotation_ray.stages.agg import grouped_reduce

    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"]).map_batches(
        lambda b: b[b["event_id"] % 10 == 0], batch_format="pandas"
    )

    def to_cents(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": b["event_id"],
                "event_type": b["event_type"],
                "cents": np.round(
                    b["value"].to_numpy(dtype=np.float64) * 100.0
                ).astype("int64"),
            }
        )

    db = os.path.join(tempfile.gettempdir(),
                      f"ta_ray_sqlite_{os.getpid()}.db")
    try:
        write_sqlite(ev.map_batches(to_cents, batch_format="pandas"),
                     db, "events_sample")
        back = read_sqlite(db, "events_sample", partitions=8)
        out = grouped_reduce(
            back, ["event_type"],
            {"n": (None, "count"), "sum_cents": ("cents", "sum")},
        ).to_pandas()
    finally:
        if os.path.exists(db):
            os.unlink(db)
    out["n"] = out["n"].astype("int64")
    out["sum_cents"] = out["sum_cents"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)



def _q_embedding_fd(sf_dir: str):
    """Frequent-Directions matrix sketch (stages/decomp.py::
    frequent_directions, Liberty 2013): the 16 x d streaming low-rank
    summary of the embedding matrix with the deterministic Gram error
    bound ||A'A - B'B|| <= ||A||_F^2 / ell — associative batch-SVD
    partials through tree_reduce.  Merge order moves the basis within
    the bound (floats), so rows-only; the bound itself is pinned in
    pytest."""
    from table_annotation_ray.stages.decomp import frequent_directions

    embs = _read(sf_dir, "embeddings", ["embedding"])
    B = frequent_directions(embs, "embedding", ell=16)
    return pd.DataFrame(
        {
            "row": np.arange(B.shape[0], dtype=np.int64),
            "norm": np.sqrt((B * B).sum(axis=1)),
        }
    )


def _q_doc_cosine_tf(sf_dir: str):
    """Exact term-frequency cosine verification (stages/retrieval.py::
    cosine_pairs_tf) of the rare-4-gram candidate pairs: integer tf
    dot products and norms (exact int64), cosine = dot/(sqrt*sqrt) in
    the SQL op order — the weighted counterpart of doc_containment."""
    from table_annotation_ray.stages.retrieval import (
        cosine_pairs_tf, rare_term_pairs,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    cand = rare_term_pairs(docs, ngram=4, max_df=20, min_shared=2)
    out = cosine_pairs_tf(
        _read(sf_dir, "documents", ["doc_id", "text"]), cand
    ).to_pandas()
    for c in ("doc_a", "doc_b", "dot", "norm2_a", "norm2_b"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)



def _q_user_coverage_ratio(sf_dir: str):
    """Per-user activity coverage (composition: merge_intervals +
    grouped_reduce): fraction of the user's own active lifetime
    (first window start to last window end) covered by merged 30-min
    activity islands.  All durations are exact int64 microseconds;
    the ratio is one double division — SQL hash-exact."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.windows import merge_intervals

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def widen(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": b["user_id"],
                "st": b["ts"],
                "en": b["ts"] + pd.Timedelta(minutes=30),
            }
        )

    islands = merge_intervals(
        ev.map_batches(widen, batch_format="pandas"), "user_id", "st", "en"
    )

    def us(b: pd.DataFrame) -> pd.DataFrame:
        s = b["start"].to_numpy().astype("datetime64[us]").astype(np.int64)
        e = b["end"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pd.DataFrame(
            {"user_id": b["user_id"], "dur": e - s, "s_us": s, "e_us": e}
        )

    agg = grouped_reduce(
        islands.map_batches(us, batch_format="pandas"),
        ["user_id"],
        {"n_islands": (None, "count"), "covered_us": ("dur", "sum"),
         "first_us": ("s_us", "min"), "last_us": ("e_us", "max")},
    ).to_pandas()
    for c in ("n_islands", "covered_us", "first_us", "last_us"):
        agg[c] = agg[c].astype("int64")
    span = agg["last_us"] - agg["first_us"]
    agg["span_us"] = span.astype("int64")
    agg["coverage"] = agg["covered_us"].to_numpy(np.float64) / span.to_numpy(
        np.float64
    )
    agg = agg.drop(columns=["first_us", "last_us"])
    agg["user_id"] = agg["user_id"].astype("int64")
    return agg.sort_values("user_id").reset_index(drop=True)


def _q_grouped_kfold(sf_dir: str):
    """Stratification audit of a grouped 5-fold split (fold =
    user_id % 5, the leakage-safe GROUP assignment): per (fold, event
    type) counts, the fold's type rate vs the corpus rate and the
    deviation — the balance check run before cross-validation.  One
    grouped_reduce; single-division rates."""
    from table_annotation_ray.stages.agg import grouped_reduce

    ev = _read(sf_dir, "events", ["user_id", "event_type"]).map_batches(
        lambda b: pd.DataFrame(
            {"fold": (b["user_id"] % 5).astype("int64"),
             "event_type": b["event_type"]}
        ),
        batch_format="pandas",
    )
    agg = grouped_reduce(
        ev, ["fold", "event_type"], {"n": (None, "count")}
    ).to_pandas()
    agg["n"] = agg["n"].astype("int64")
    ftot = agg.groupby("fold")["n"].transform("sum").astype("int64")
    ttot = agg.groupby("event_type")["n"].transform("sum").astype("int64")
    N = int(agg["n"].sum())
    agg["fold_total"] = ftot
    agg["rate"] = agg["n"].to_numpy(np.float64) / ftot.to_numpy(np.float64)
    agg["global_rate"] = ttot.to_numpy(np.float64) / float(N)
    agg["dev"] = agg["rate"] - agg["global_rate"]
    return agg.sort_values(["fold", "event_type"]).reset_index(drop=True)


def _q_audience_overlap_kmv(sf_dir: str):
    """Bottom-k (KMV) audience sketches (stages/sketches.py::
    bottomk_signatures): one k=256 signature per event type answers
    every pairwise user-set Jaccard/overlap plus distinct counts —
    where exact answers need one distinct exchange per PAIR.  Estimate
    accuracy vs the exact pytest bound; rows-only."""
    from table_annotation_ray.stages.sketches import (
        bottomk_pairwise, bottomk_signatures,
    )

    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    sigs = bottomk_signatures(ev, "event_type", "user_id", k=256)
    out = bottomk_pairwise(sigs, "event_type", k=256)
    return out.sort_values(["cat_a", "cat_b"]).reset_index(drop=True)



def _q_compaction_plan(sf_dir: str):
    """Small-file compaction planning (stages/datapipe.py::
    compaction_plan): the z-order layout's 500-row files bin-packed
    into ~1500-row merge targets with deterministic first-fit-
    decreasing (11/9 OPT + 1 guarantee) — the OPTIMIZE step that keeps
    a 100-TB table from drowning in small files.  Planner input is
    file METADATA (the distributed box aggregate), never data.
    Sequential FFD has no SQL form — rows-only; invariants pinned in
    pytest."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.datapipe import (
        compaction_plan, global_rank, zorder_key,
    )

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def quantize(b: pd.DataFrame) -> pd.DataFrame:
        hr = b["ts"].to_numpy().astype("datetime64[h]").astype(np.int64)
        return pd.DataFrame(
            {
                "event_id": b["event_id"].to_numpy(),
                "uid": b["user_id"].to_numpy() % 1024,
                "hr": hr % 1024,
            }
        )

    z = zorder_key(ev.map_batches(quantize, batch_format="pandas"),
                   "uid", "hr")
    r = global_rank(z, ["zkey"], "event_id", out_col="position")

    def part_tag(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"part": b["position"].to_numpy(dtype=np.int64) // 500}
        )

    sizes = grouped_reduce(
        r.map_batches(part_tag, batch_format="pandas"),
        ["part"], {"n_rows": (None, "count")},
    ).to_pandas()
    sizes["part"] = sizes["part"].astype("int64")
    sizes["n_rows"] = sizes["n_rows"].astype("int64")
    out = compaction_plan(sizes, "part", "n_rows", capacity=1500)
    out["bin"] = out["bin"].astype("int64")
    return out.sort_values("part").reset_index(drop=True)


def _q_length_batching(sf_dir: str):
    """Inference-padding audit (stages/datapipe.py::
    length_batching_stats): 32-row micro-batches over documents in
    natural vs length-sorted order; padded cells = sum of
    (batch_max * rows - batch_len_sum) — the measured payoff of
    length bucketing before batched model inference.  Exact integers,
    SQL hash-exact."""
    from table_annotation_ray.stages.datapipe import length_batching_stats

    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return length_batching_stats(docs, "doc_id", "n_chars", batch_rows=32)



def _q_rolling_active_kmv(sf_dir: str):
    """Sketched rolling 7-day active users (stages/sketches.py::
    rolling_kmv_distinct): mergeable daily bottom-k signatures — ONE
    pass over events answers every trailing window by driver-side
    sketch union, where the exact operator re-deduplicates per window.
    Accuracy vs the exact rolling_active pinned in pytest; rows-only."""
    from table_annotation_ray.stages.sketches import rolling_kmv_distinct

    ev = _read(sf_dir, "events", ["ts", "user_id"])
    return rolling_kmv_distinct(ev, "ts", "user_id", window_days=7, k=256)



def _q_mix_rebalance(sf_dir: str):
    """Deterministic corpus mix rebalancing (stages/datapipe.py::
    mix_rebalance): documents down-sampled to a UNIFORM source mix via
    the SQL-reproducible Knuth hash slice (no RNG, no order
    dependence); output per source: input count, kept percent and the
    ACTUAL kept count after the hash filter.  SQL hash-exact — the
    mirror recomputes the same plan arithmetic and hash predicate."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.datapipe import mix_rebalance

    docs = _read(sf_dir, "documents", ["doc_id", "source"])
    sources = sorted(
        docs.map_batches(
            lambda b: b[["source"]].drop_duplicates(), batch_format="pandas"
        ).to_pandas()["source"].unique()
    )
    # weight 1.0 each: the normalizing sum is the exact integer-valued
    # float len(sources), so share == 1/k exactly (a sum of 1/k floats
    # would carry rounding into the floor() boundary)
    targets = {s: 1.0 for s in sources}
    kept, plan = mix_rebalance(docs, "source", "doc_id", targets)
    got = grouped_reduce(
        kept, ["source"], {"n_kept": (None, "count")}
    ).to_pandas()
    got["n_kept"] = got["n_kept"].astype("int64")
    out = plan.merge(got, on="source", how="left")
    out["n_kept"] = out["n_kept"].fillna(0).astype("int64")
    return out.sort_values("source").reset_index(drop=True)



def _q_doc_ncd(sf_dir: str):
    """Normalized compression distance (stages/textstats.py::
    ncd_pairs, Cilibrasi-Vitanyi) for the rare-4-gram candidate
    pairs: zlib sizes of each side and the pair joined — the
    parameter-free near-dup signal (low NCD = compress-together).
    zlib has no SQL form — rows-only; properties pinned in pytest."""
    from table_annotation_ray.stages.retrieval import rare_term_pairs
    from table_annotation_ray.stages.textstats import ncd_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    cand = rare_term_pairs(docs, ngram=4, max_df=20, min_shared=2)
    out = ncd_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), cand
    ).to_pandas()
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _q_vocab_growth(sf_dir: str):
    """Heaps-law vocabulary growth (stages/textstats.py::
    vocab_growth): distinct vocabulary after the first k documents for
    a k-grid — sequential-looking, computed with ONE exchange via each
    token's FIRST document id (grouped min).  Exact integers, SQL
    hash-exact."""
    from table_annotation_ray.stages.textstats import vocab_growth

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return vocab_growth(docs, grid=(10, 20, 50, 100, 200, 500))



def _q_event_trigrams(sf_dir: str):
    """Sequential trigram mining (stages/windows.py::event_kgrams):
    counts of every consecutive 3-step event-type sequence over
    ts-ordered user histories — the funnel-discovery generalization of
    event_transitions.  One key co-location + one skinny count
    exchange; SQL mirror is a double-LEAD window."""
    from table_annotation_ray.stages.windows import event_kgrams

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    out = event_kgrams(
        ev, "user_id", ["ts", "event_id"], "event_type", k=3
    ).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["t_0", "t_1", "t_2"]).reset_index(drop=True)



def _q_quality_isotonic(sf_dir: str):
    """Monotone recalibration (stages/stats.py::isotonic_calibration):
    PAVA over the quality-score calibration deciles — count-weighted
    pooling with EXACT integer cross-product comparisons; the
    sequential pooling has no SQL form (rows-only; hand-pooled cases
    pinned in pytest)."""
    from table_annotation_ray.stages.stats import (
        calibration_bins, isotonic_calibration,
    )
    from table_annotation_ray.stages.textstats import quality_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        qs = quality_scores(b)
        s = _round_ha(qs["stopword_ratio"], 6)
        mtl = _round_ha(qs["mean_token_len"], 6)
        lab = ((s >= 0.05) & (mtl < 8.0)).astype("int64")
        return pd.DataFrame(
            {"doc_id": b["doc_id"], "score": s.to_numpy(), "label": lab}
        )

    scored = docs.map_batches(score, batch_format="pandas")
    bins = calibration_bins(scored, "score", "label", "doc_id", k=10)
    return isotonic_calibration(bins)


def _q_population_estimate(sf_dir: str):
    """Lincoln-Petersen / Chapman capture-recapture (stages/stats.py::
    capture_recapture): the distinct-user population estimated from
    two independent SQL-reproducible Knuth-hash captures — two
    membership passes instead of a distinct exchange.  Hash-exact
    (counts are integers; the two estimates mirror the SQL float
    ops)."""
    from table_annotation_ray.stages.stats import capture_recapture

    ev = _read(sf_dir, "events", ["user_id"])
    return capture_recapture(ev, "user_id", pct=30)



def _q_simpson_check(sf_dir: str):
    """Simpson's-paradox audit (stages/stats.py::simpson_check): does
    any brand's qty-price slope point against the pooled slope?
    Sign-exact — slope numerators are exact integers (cent lattice),
    per-brand int64, pooled via Python-int/HUGEINT; no float enters
    the comparison."""
    from table_annotation_ray.stages.stats import simpson_check

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])
    pt = _read(sf_dir, "part", ["p_partkey", "p_brand"])
    from table_annotation_ray.stages.relational import equi_join

    def slim(b: pd.DataFrame) -> pd.DataFrame:
        return b.rename(columns={"p_partkey": "l_partkey"})

    joined = equi_join(li, pt.map_batches(slim, batch_format="pandas"),
                       "l_partkey")
    return simpson_check(joined, "p_brand", "l_quantity", "l_extendedprice")


def _q_doc_novelty(sf_dir: str):
    """Per-document vocabulary novelty (stages/textstats.py::
    doc_novelty): fraction of each doc's distinct tokens first seen in
    that doc (corpus id order) — the per-doc marginal-value curve.
    One token co-location + one doc-sum exchange; exact ints + one
    division, SQL hash-exact."""
    from table_annotation_ray.stages.textstats import doc_novelty

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = doc_novelty(docs).to_pandas()
    for c in ("doc", "n_distinct", "n_new"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc").reset_index(drop=True)



def _q_audio_spectral(sf_dir: str):
    """Spectral audio features (stages/multimodal.py::
    AudioSpectralFeatures): centroid / 85% rolloff / bandwidth as
    Nyquist fractions + zero-crossing rate over REAL stdlib-decoded
    WAV PCM via numpy rfft; non-WAV/corrupt rows degrade per-row.
    Rows-only (no SQL FFT); tone-frequency recovery pinned in
    pytest."""
    import ray.data as rd

    from table_annotation_ray.stages.multimodal import (
        RECOMMENDED_BATCH_SIZE,
        AudioSpectralFeatures,
        synth_media_table,
    )

    ds = rd.from_arrow(synth_media_table(n=96, seed=11))
    out = ds.map_batches(
        AudioSpectralFeatures,
        batch_format="pyarrow",
        batch_size=RECOMMENDED_BATCH_SIZE,
        concurrency=(1, 2),
    ).to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


def _q_image_ssim(sf_dir: str):
    """Pixel-domain SSIM verification (stages/multimodal.py::
    image_ssim_pairs) of planted perceptual near-dups: each perturbed
    image vs its original (the pHash-block -> SSIM-verify pipeline's
    second stage).  Rows-only; separation of planted vs random pairs
    pinned in pytest."""
    from table_annotation_ray.stages.multimodal import (
        image_ssim_pairs, plant_perturbed_images, synth_media_table,
    )

    t = plant_perturbed_images(synth_media_table(n=64, seed=9),
                               n_planted=12, noise=2)
    ids = [
        r["media_id"] for r in t.to_pylist() if r["media_id"] >= 1_000_000
    ]
    pairs = pd.DataFrame(
        {"media_a": [i - 1_000_000 for i in ids], "media_b": ids}
    )
    out = image_ssim_pairs(t, pairs)
    return out.sort_values(["media_a", "media_b"]).reset_index(drop=True)



def _q_ldiversity_audit(sf_dir: str):
    """l-diversity audit (stages/dq.py::l_diversity) over the customer
    (nation, segment) quasi-identifier with account-balance SIGN as the
    sensitive attribute: classes where every member shares the
    sensitive value leak even when k-anonymous.  One distinct exchange
    + one count exchange; hash-exact."""
    from table_annotation_ray.stages.dq import l_diversity

    cu = _read(sf_dir, "customer",
               ["c_nationkey", "c_mktsegment", "c_acctbal"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "c_nationkey": b["c_nationkey"].astype("int64"),
                "c_mktsegment": b["c_mktsegment"],
                "bal_sign": np.sign(
                    b["c_acctbal"].to_numpy(dtype=np.float64)
                ).astype("int64"),
            }
        ),
        batch_format="pandas",
    )
    out = l_diversity(cu, ["c_nationkey", "c_mktsegment"], "bal_sign", l=2)
    return out


def _q_session_type_pairs(sf_dir: str):
    """In-session event-type co-occurrence (stages/relational.py::
    cooccurrence_pairs over 30-min session baskets): which event types
    happen in the SAME visit — the session-level market basket behind
    next-action suggestions.  Session ids are derived with the
    session_conversion window; one basket co-location.  SQL mirror:
    the same window walk + distinct self-join."""
    from table_annotation_ray.stages.relational import cooccurrence_pairs

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])

    # one key co-location so session ids are globally consistent
    nb = 64

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__bkt"] = (
            pd.util.hash_pandas_object(b["user_id"], index=False).to_numpy()
            % nb
        ).astype("int64")
        return b

    sess = (
        ev.map_batches(tag, batch_format="pandas")
        .groupby("__bkt")
        .map_groups(
            lambda g: _sessionize_group(g),
            batch_format="pandas",
        )
    )
    out = cooccurrence_pairs(sess, "sess_key", "event_type",
                             min_count=1).to_pandas()
    out = out.rename(columns={"n_baskets": "n_sessions"})
    return out.sort_values(["item_a", "item_b"]).reset_index(drop=True)


def _sessionize_group(g: pd.DataFrame):
    import pyarrow as _pa

    g = (
        g.drop(columns="__bkt")
        .sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        .reset_index(drop=True)
    )
    same = g["user_id"].eq(g["user_id"].shift())
    brk = (~same) | (g["ts"].diff() > pd.Timedelta(minutes=30))
    sess_local = brk.cumsum().astype("int64")
    # globally unique basket key: (user, local session index within user)
    per_user = sess_local.groupby(g["user_id"], sort=False).rank(
        method="dense"
    ).astype("int64")
    key = g["user_id"].to_numpy(dtype="int64") * 100_000 + per_user.to_numpy()
    return _pa.table(
        {
            "sess_key": _pa.array(key, _pa.int64()),
            "event_type": _pa.array(g["event_type"].tolist(), _pa.string()),
        }
    )



def _q_value_robust_scaled(sf_dir: str):
    """Robust feature scaling (composition: grouped_quantiles + a
    broadcast map): per event type, robust_z = (value - median) / IQR
    with the EXACT discrete q25/q50/q75 (k = ceil(q*n) rank elements —
    input-lattice values, no interpolation).  Per-row map output;
    types with IQR 0 get NULL.  SQL mirror recomputes the same ranked
    elements.  Hash-exact."""
    from table_annotation_ray.stages.quantiles import grouped_quantiles

    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    qs = grouped_quantiles(
        _read(sf_dir, "events", ["event_type", "value"]),
        "event_type", "value", [0.25, 0.5, 0.75],
    )
    piv = qs.pivot_table(index="event_type", columns="q", values="value",
                         aggfunc="first")
    med = dict(zip(piv.index, piv[0.5]))
    iqr = {k: piv.loc[k, 0.75] - piv.loc[k, 0.25] for k in piv.index}

    def scale(b: pd.DataFrame) -> pd.DataFrame:
        m = b["event_type"].map(med).to_numpy(dtype=np.float64)
        i = b["event_type"].map(iqr).to_numpy(dtype=np.float64)
        v = b["value"].to_numpy(dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(i > 0, (v - m) / np.where(i > 0, i, 1.0), np.nan)
        return pd.DataFrame(
            {
                "event_id": b["event_id"].astype("int64"),
                "event_type": b["event_type"],
                "value": v,
                "robust_z": z,
            }
        )

    out = ev.map_batches(scale, batch_format="pandas").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


def _q_value_dispersion(sf_dir: str):
    """Overdispersion check (variance-to-mean ratio of per-user event
    counts, per type): VMR > 1 says user activity is burstier than
    Poisson — the modeling-assumption audit before count regressions.
    Sufficient statistics are exact integers; the two output ratios
    mirror the SQL float ops.  Hash-exact."""
    from table_annotation_ray.stages.agg import grouped_reduce

    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    per_user = grouped_reduce(
        ev, ["event_type", "user_id"], {"c": (None, "count")}
    )

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        c = b["c"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "event_type": b["event_type"],
                "n_users": 1,
                "sc": c,
                "scc": c * c,
            }
        )

    agg = grouped_reduce(
        per_user.map_batches(moments, batch_format="pandas"),
        ["event_type"],
        {"n_users": ("n_users", "sum"), "sc": ("sc", "sum"),
         "scc": ("scc", "sum")},
    ).to_pandas()
    for c in ("n_users", "sc", "scc"):
        agg[c] = agg[c].astype("int64")
    n = agg["n_users"].to_numpy(np.float64)
    sc = agg["sc"].to_numpy(np.float64)
    scc = agg["scc"].to_numpy(np.float64)
    mean = sc / n
    var = (scc - sc * sc / n) / n  # population variance, SQL mirror
    agg["mean_c"] = mean
    agg["var_c"] = var
    agg["vmr"] = var / mean
    return agg.sort_values("event_type").reset_index(drop=True)



def _q_worst_slices(sf_dir: str):
    """SliceFinder-lite (composition over grouped_reduce): every
    (lang x source) slice of documents ranked by how far its mean
    quality score sits below the corpus mean — the data-debugging
    report that points at the subcorpus dragging quality down.
    Integer micro-unit sums; deviations mirror the SQL float ops;
    rank by (delta, slice) is total.  Hash-exact."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.textstats import quality_scores

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "source", "text"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        qs = quality_scores(b)
        u = np.round(
            _round_ha(qs["stopword_ratio"], 6).to_numpy() * 1e6
        ).astype("int64")
        return pd.DataFrame(
            {"lang": b["lang"], "source": b["source"], "u": u}
        )

    agg = grouped_reduce(
        docs.map_batches(score, batch_format="pandas"),
        ["lang", "source"],
        {"n": (None, "count"), "sum_u": ("u", "sum")},
    ).to_pandas()
    agg["n"] = agg["n"].astype("int64")
    agg["sum_u"] = agg["sum_u"].astype("int64")
    N = int(agg["n"].sum())
    S = int(agg["sum_u"].sum())
    gmean = S / (1e6 * N)
    agg["mean_score"] = agg["sum_u"].to_numpy(np.float64) / (
        1e6 * agg["n"].to_numpy(np.float64)
    )
    agg["delta"] = agg["mean_score"] - gmean
    agg = agg.sort_values(["delta", "lang", "source"]).reset_index(drop=True)
    agg["rank"] = np.arange(1, len(agg) + 1, dtype=np.int64)
    return agg


def _q_transition_dwell(sf_dir: str):
    """Dwell time per event-type transition (stages/windows.py::
    lag_by_key composition): mean microseconds between consecutive
    events per (prev type, next type) — the "how long after a view
    does the purchase come" table.  Exact int64 µs sums, one division;
    hash-exact vs a LAG window mirror."""
    from table_annotation_ray.stages.agg import grouped_reduce

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    nb = 64

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__bkt"] = (
            pd.util.hash_pandas_object(b["user_id"], index=False).to_numpy()
            % nb
        ).astype("int64")
        return b

    def pairs(g: pd.DataFrame):
        import pyarrow as _pa

        g = (
            g.drop(columns="__bkt")
            .sort_values(["user_id", "ts", "event_id"], kind="mergesort")
            .reset_index(drop=True)
        )
        us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        gb = g.groupby("user_id", sort=False)
        prev_t = gb["event_type"].shift(1)
        prev_us = pd.Series(us).groupby(
            g["user_id"].to_numpy(), sort=False
        ).shift(1)
        ok = prev_t.notna().to_numpy()
        return _pa.table(
            {
                "prev_type": _pa.array(prev_t[ok].tolist(), _pa.string()),
                "next_type": _pa.array(
                    g["event_type"][ok].tolist(), _pa.string()),
                "gap_us": _pa.array(
                    (us[ok] - prev_us[ok].to_numpy(dtype=np.int64)),
                    _pa.int64()),
            }
        )

    agg = grouped_reduce(
        ev.map_batches(tag, batch_format="pandas")
        .groupby("__bkt")
        .map_groups(pairs, batch_format="pandas"),
        ["prev_type", "next_type"],
        {"n": (None, "count"), "sum_us": ("gap_us", "sum")},
    ).to_pandas()
    agg["n"] = agg["n"].astype("int64")
    agg["sum_us"] = agg["sum_us"].astype("int64")
    agg["mean_us"] = agg["sum_us"].to_numpy(np.float64) / agg["n"].to_numpy(
        np.float64
    )
    return agg.sort_values(["prev_type", "next_type"]).reset_index(drop=True)



def _q_skipgram_pairs(sf_dir: str):
    """Skip-gram co-occurrence table (stages/textstats.py::
    skipgram_pairs): directed (center, context) counts within window 3
    — the word2vec/GloVe input.  Vectorized shift explode + one count
    exchange; SQL mirror is a position self-join.  Hash-exact."""
    from table_annotation_ray.stages.textstats import skipgram_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = skipgram_pairs(docs, window=3, min_count=5).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["center", "context"]).reset_index(drop=True)



def _q_conformal_intervals(sf_dir: str):
    """Split-conformal intervals per event type (stages/stats.py::
    conformal_intervals): train on even event ids (per-type mean),
    calibrate on odd ids; the half-width is the ceil((n+1)(1-alpha))-th
    smallest |residual| — an ELEMENT selection with id tie-break, so
    the SQL ranked-row mirror is bit-exact (alpha=0.1)."""
    from table_annotation_ray.stages.stats import conformal_intervals

    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    return conformal_intervals(ev, "event_type", "event_id", "value",
                               alpha=0.1)



def _q_erasure_audit(sf_dir: str):
    """GDPR erasure-cascade audit: for the deletion cohort (customers
    with Knuth-hash bucket < 5 — the SQL-reproducible sampling rule),
    how many rows each table would lose: customer rows, their orders,
    those orders' lineitems, and events keyed by the same ids.  Three
    size-gated semi-filters, counts only — the impact report run
    BEFORE a delete.  Hash-exact."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.datapipe import id_hash_bucket
    from table_annotation_ray.stages.relational import filter_rows_by_keys

    cu = _read(sf_dir, "customer", ["c_custkey"])

    def cohort(b: pd.DataFrame) -> pd.DataFrame:
        return b[id_hash_bucket(b["c_custkey"]) < 5]

    victims = cu.map_batches(cohort, batch_format="pandas").materialize()
    n_cust = victims.count()
    o = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    vo = filter_rows_by_keys(o, victims, "o_custkey", "c_custkey"
                             ).materialize()
    n_orders = vo.count()
    li = _read(sf_dir, "lineitem", ["l_orderkey"])
    vl = filter_rows_by_keys(li, vo, "l_orderkey", "o_orderkey")
    n_line = vl.count()
    ev = _read(sf_dir, "events", ["user_id"])
    vev = filter_rows_by_keys(ev, victims, "user_id", "c_custkey")
    n_ev = vev.count()
    return pd.DataFrame(
        {
            "table_name": ["customer", "events", "lineitem", "orders"],
            "n_rows": pd.array([n_cust, n_ev, n_line, n_orders],
                               dtype="int64"),
        }
    )


def _q_embedding_hubness(sf_dir: str):
    """Hubness audit of the embedding space (composition over
    stages/similarity.py::brute_force_topk): in-degree of every vector
    in the exact cosine 5-NN graph — hub vectors (huge in-degree) are
    the classic symptom of degraded high-dim metrics and poison
    retrieval.  Exact at this scale; the IVF path is the documented
    scale route.  Rows-only (float cosine ranking)."""
    from table_annotation_ray.stages.similarity import brute_force_topk

    embs = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    ids = sorted(embs.select_columns(["vec_id"]).to_pandas()["vec_id"]
                 .astype(int))
    topk = brute_force_topk(embs, ids, k=5)
    deg = topk.groupby("neighbor_id").size()
    out = pd.DataFrame({"vec_id": ids})
    out["in_degree"] = out["vec_id"].map(deg).fillna(0).astype("int64")
    return out.sort_values("vec_id").reset_index(drop=True)



def _q_value_kendall(sf_dir: str):
    """Per-user Kendall tau-a trend (stages/windows.py::
    kendall_by_key): pairwise concordance of the ts-ordered value
    series — the correlation family's third leg next to value_acf
    (Pearson) and qty_price_spearman.  C and D are exact integers
    from the theilsen pair expansion; one division.  Hash-exact."""
    from table_annotation_ray.stages.windows import kendall_by_key

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    out = kendall_by_key(ev, "user_id", ["ts", "event_id"], "value"
                         ).to_pandas()
    for c in ("n", "concordant", "discordant"):
        out[c] = out[c].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def _q_attribution_markov(sf_dir: str):
    """Markov removal-effect attribution (stages/stats.py::
    markov_removal_attribution, Anderl et al.): journeys truncate at
    the first purchase; each channel scored by the drop in the chain's
    absorption probability into CONV when removed.  Transition counts
    are distributed exact ints; the |channels|-sized linear solves run
    on the driver (markov_stationary contract).  Rows-only; chain
    math pinned vs a hand-built absorbing chain in pytest."""
    from table_annotation_ray.stages.stats import markov_removal_attribution

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    return markov_removal_attribution(
        ev, "user_id", ["ts", "event_id"], "event_type", "purchase"
    )



def _q_hourly_peaks(sf_dir: str):
    """Peak detection on the gap-filled hourly count series
    (composition: resample_counts + a vectorized neighbor compare):
    hours strictly above BOTH neighbors by >= 2 events, per type —
    the alert primitive on operational series.  Exact integers;
    SQL mirror is a LAG/LEAD window over the filled grid."""
    from table_annotation_ray.stages.windows import resample_counts

    ev = _read(sf_dir, "events", ["ts", "event_type"])
    grid = resample_counts(ev, "ts", "event_type", freq="h")
    rows = []
    for et, sub in grid.groupby("event_type", sort=True):
        sub = sub.sort_values("period").reset_index(drop=True)
        n = sub["n"].to_numpy(dtype=np.int64)
        if len(n) < 3:
            continue
        mid = np.arange(1, len(n) - 1)
        pk = (n[mid] >= n[mid - 1] + 2) & (n[mid] >= n[mid + 1] + 2)
        for i in mid[pk]:
            rows.append(
                {"event_type": et, "period": sub["period"].iloc[i],
                 "n": int(n[i]), "prev_n": int(n[i - 1]),
                 "next_n": int(n[i + 1])}
            )
    out = pd.DataFrame(rows,
                       columns=["event_type", "period", "n", "prev_n",
                                "next_n"])
    for c in ("n", "prev_n", "next_n"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["event_type", "period"]).reset_index(drop=True)



def _q_feature_aucs(sf_dir: str):
    """Filter-method feature ranking (stages/stats.py::roc_auc x 4):
    each quality heuristic's standalone AUC against the weak label —
    the screening step before training a gate.  One skinny
    distinct-(label, score) exchange per feature; u2 is an exact int
    (rank-sum identity), so all four rows hash-compare."""
    from table_annotation_ray.stages.stats import roc_auc
    from table_annotation_ray.stages.textstats import quality_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        qs = quality_scores(b)
        s = _round_ha(qs["stopword_ratio"], 6)
        mtl = _round_ha(qs["mean_token_len"], 6)
        lab = ((s >= 0.05) & (mtl < 8.0)).astype("int64")
        return pd.DataFrame(
            {
                "label": lab,
                "punct_ratio": _round_ha(qs["punct_ratio"], 6).to_numpy(),
                "digit_ratio": _round_ha(qs["digit_ratio"], 6).to_numpy(),
                "stopword_ratio": s.to_numpy(),
                "mean_token_len": mtl.to_numpy(),
            }
        )

    scored = docs.map_batches(score, batch_format="pandas").materialize()
    rows = []
    for feat in ("digit_ratio", "mean_token_len", "punct_ratio",
                 "stopword_ratio"):
        r = roc_auc(scored, "label", feat)
        rows.append(
            {"feature": feat, "n_pos": r["n_pos"], "n_neg": r["n_neg"],
             "u2": r["u2"], "auc": r["auc"]}
        )
    out = pd.DataFrame(rows)
    for c in ("n_pos", "n_neg", "u2"):
        out[c] = out[c].astype("int64")
    return out.sort_values("feature").reset_index(drop=True)


def _q_type_staleness(sf_dir: str):
    """Freshness SLA report: per event type, microseconds between its
    last event and the corpus watermark (global max ts) — the
    stale-feed detector, computed against the DATA watermark so the
    answer is deterministic.  One grouped_reduce; exact int64 µs.
    Hash-exact."""
    from table_annotation_ray.stages.agg import grouped_reduce

    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": b["event_type"],
                "us": b["ts"].to_numpy().astype("datetime64[us]").astype(
                    np.int64),
            }
        )

    agg = grouped_reduce(
        ev.map_batches(tag, batch_format="pandas"),
        ["event_type"], {"last_us": ("us", "max"), "n": (None, "count")},
    ).to_pandas()
    agg["last_us"] = agg["last_us"].astype("int64")
    agg["n"] = agg["n"].astype("int64")
    wm = int(agg["last_us"].max())
    agg["staleness_us"] = (wm - agg["last_us"]).astype("int64")
    return agg.sort_values("event_type").reset_index(drop=True)



def _q_split_shipments(sf_dir: str):
    """Order fulfillment fragmentation: how many orders ship in 1, 2,
    3... distinct ship dates (distinct_count_by_key + a histogram
    exchange) — the split-shipment ops metric.  Exact integers,
    hash-exact."""
    from table_annotation_ray.stages.agg import (
        distinct_count_by_key, grouped_reduce,
    )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    per_order = distinct_count_by_key(li, ["l_orderkey"], "l_shipdate",
                                      out_col="n_dates")
    hist = grouped_reduce(
        per_order.select_columns(["n_dates"]), ["n_dates"],
        {"n_orders": (None, "count")},
    ).to_pandas()
    hist["n_dates"] = hist["n_dates"].astype("int64")
    hist["n_orders"] = hist["n_orders"].astype("int64")
    return hist.sort_values("n_dates").reset_index(drop=True)


def _q_order_lead_time(sf_dir: str):
    """Order lead-time distribution: days from order date to FIRST
    shipment (min l_shipdate per order joined back to o_orderdate),
    histogrammed — the fulfillment-latency curve.  Exact integer date
    arithmetic; one grouped_reduce + one size-gated join + one
    histogram exchange.  Hash-exact."""
    from table_annotation_ray.stages.agg import grouped_reduce
    from table_annotation_ray.stages.relational import equi_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    first_ship = grouped_reduce(
        li, ["l_orderkey"], {"first_ship": ("l_shipdate", "min")}
    )
    o = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        lambda b: b.rename(columns={"o_orderkey": "l_orderkey"}),
        batch_format="pandas",
    )
    joined = equi_join(first_ship, o, "l_orderkey")

    def days(b: pd.DataFrame) -> pd.DataFrame:
        d = (
            b["first_ship"].to_numpy().astype("datetime64[D]").astype(np.int64)
            - b["o_orderdate"].to_numpy().astype("datetime64[D]").astype(
                np.int64)
        )
        return pd.DataFrame({"lead_days": d})

    hist = grouped_reduce(
        joined.map_batches(days, batch_format="pandas"),
        ["lead_days"], {"n_orders": (None, "count")},
    ).to_pandas()
    hist["lead_days"] = hist["lead_days"].astype("int64")
    hist["n_orders"] = hist["n_orders"].astype("int64")
    return hist.sort_values("lead_days").reset_index(drop=True)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "pricing_summary": _q_pricing_summary,
        "orders_by_segment": _q_orders_by_segment,
        "top_parts_by_revenue": _q_top_parts_by_revenue,
        "events_hourly": _q_events_hourly,
        "sliding_window_events": _q_sliding_window_events,
        "user_sessions": _q_user_sessions,
        "dedup_exact": _q_dedup_exact,
        "token_stats": _q_token_stats,
        "quality_scores": _q_quality_scores,
        "quality_filter": _q_quality_filter,
        "fingerprint": _q_fingerprint,
        "pii_scrub": _q_pii_scrub,
        "hash_sample": _q_hash_sample,
        "dataset_split": _q_dataset_split,
        "stratified_sample": _q_stratified_sample,
        "shuffle_order": _q_shuffle_order,
        "vocab_topk": _q_vocab_topk,
        "decontaminate": _q_decontaminate,
        "decontaminate_dist": _q_decontaminate_dist,
        "curation_funnel": _q_curation_funnel,
        "repetition_stats": _q_repetition_stats,
        "char_entropy": _q_char_entropy,
        "pack_documents": _q_pack_documents,
        "lang_id": _q_lang_id,
        "ann_topk": _q_ann_topk,
        "ann_lsh": _q_ann_lsh,
        "ann_ivf": _q_ann_ivf,
        "ann_pq": _q_ann_pq,
        "ann_pq_recall": _q_ann_pq_recall,
        "ann_lsh_recall": _q_ann_lsh_recall,
        "minhash_components": _q_minhash_components,
        "embedding_near_dup": _q_embedding_near_dup,
        "heavy_parts": _q_heavy_parts,
        "approx_distinct_users": _q_approx_distinct_users,
        "simhash_pairs": _q_simhash_pairs,
        "ngram_jaccard": _q_ngram_jaccard,
        "kg_mentions": _q_kg_mentions,
        "kg_candidates": _q_kg_candidates,
        "kg_annotations": _q_kg_annotations,
        "kg_triples": _q_kg_triples,
        "parts_never_ordered": _q_parts_never_ordered,
        "parts_bulk_ordered": _q_parts_bulk_ordered,
        "asof_view_before_purchase": _q_asof_view_before_purchase,
        "error_click_window": _q_error_click_window,
        "top_orders_per_customer": _q_top_orders_per_customer,
        "latest_event_per_user": _q_latest_event_per_user,
        "shipping_priority": _q_shipping_priority,
        "order_priority_revenue": _q_order_priority_revenue,
        "order_priority_revenue_dist": _q_order_priority_revenue_dist,
        "price_quantiles": _q_price_quantiles,
        "value_quantiles_by_type": _q_value_quantiles_by_type,
        "bm25_search": _q_bm25_search,
        "bm25_indexed_search": _q_bm25_indexed_search,
        "text_clusters": _q_text_clusters,
        "embedding_clusters": _q_embedding_clusters,
        "user_rolling_value": _q_user_rolling_value,
        "event_gaps": _q_event_gaps,
        "revenue_rollup": _q_revenue_rollup,
        "revenue_cube": _q_revenue_cube,
        "part_distinct_suppliers": _q_part_distinct_suppliers,
        "uniform_sample_k": _q_uniform_sample_k,
        "repeated_ngrams": _q_repeated_ngrams,
        "mask_repeated_spans": _q_mask_repeated_spans,
        "corpus_mix": _q_corpus_mix,
        "event_value_rank": _q_event_value_rank,
        "props_k_by_type": _q_props_k_by_type,
        "weighted_sample": _q_weighted_sample,
        "approx_distinct_by_type": _q_approx_distinct_by_type,
        "frequent_users_by_type": _q_frequent_users_by_type,
        "lineitem_profile": _q_lineitem_profile,
        "incremental_dedup": _q_incremental_dedup,
        "cohort_retention": _q_cohort_retention,
        "value_outliers": _q_value_outliers,
        "chunk_documents": _q_chunk_documents,
        "copurchased_parts": _q_copurchased_parts,
        "graph_pagerank": _q_graph_pagerank,
        "graph_bfs": _q_graph_bfs,
        "link_prediction": _q_link_prediction,
        "events_cdc_merge": _q_events_cdc_merge,
        "events_ohlc": _q_events_ohlc,
        "min_cost_supplier": _q_min_cost_supplier,
        "kg_entity_pagerank": _q_kg_entity_pagerank,
        "debounce_events": _q_debounce_events,
        "compression_ratio": _q_compression_ratio,
        "dq_audit": _q_dq_audit,
        "bpe_encode": _q_bpe_encode,
        "pack_token_blocks": _q_pack_token_blocks,
        "join_size_cms": _q_join_size_cms,
        "psi_drift": _q_psi_drift,
        "audio_near_dup": _q_audio_near_dup,
        "ann_ivfpq": _q_ann_ivfpq,
        "ann_ivfpq_recall": _q_ann_ivfpq_recall,
        "mmr_rerank": _q_mmr_rerank,
        "snapshot_diff": _q_snapshot_diff,
        "conv_windows": _q_conv_windows,
        "embedding_audit": _q_embedding_audit,
        "signup_to_purchase": _q_signup_to_purchase,
        "value_mad_outliers": _q_value_mad_outliers,
        "audience_overlap": _q_audience_overlap,
        "basket_rules": _q_basket_rules,
        "user_state_intervals": _q_user_state_intervals,
        "value_ks_test": _q_value_ks_test,
        "html_extract": _q_html_extract,
        "doc_repetition": _q_doc_repetition,
        "zorder_layout": _q_zorder_layout,
        "negative_samples": _q_negative_samples,
        "events_hourly_filled": _q_events_hourly_filled,
        "user_active_periods": _q_user_active_periods,
        "retrieval_eval": _q_retrieval_eval,
        "value_ffill": _q_value_ffill,
        "value_twa": _q_value_twa,
        "value_acf": _q_value_acf,
        "dup_ngram_audit": _q_dup_ngram_audit,
        "rolling_active_users": _q_rolling_active_users,
        "semantic_dedup": _q_semantic_dedup,
        "doc_perplexity": _q_doc_perplexity,
        "embedding_pca": _q_embedding_pca,
        "price_quantiles_approx": _q_price_quantiles_approx,
        "user_funnel": _q_user_funnel,
        "customer_order_counts": _q_customer_order_counts,
        "value_quantiles_by_type_approx": _q_value_quantiles_by_type_approx,
        "customer_order_counts_dist": _q_customer_order_counts_dist,
        "entity_lookup": _q_entity_lookup,
        "table_preprocess": _q_table_preprocess,
        "table_annotate": _q_table_annotate,
        "media_features": _q_media_features,
        "image_near_dup": _q_image_near_dup,
        "quality_classifier": _q_quality_classifier,
        "bpe_merges": _q_bpe_merges,
        "bpe_token_counts": _q_bpe_token_counts,
        "audio_features": _q_audio_features,
        "sample_per_lang": _q_sample_per_lang,
        "lang_temperature_sample": _q_lang_temperature_sample,
        "token_shards": _q_token_shards,
        "dedup_keep_best": _q_dedup_keep_best,
        "near_dedup_keep_best": _q_near_dedup_keep_best,
        "event_transitions": _q_event_transitions,
        "dsir_select": _q_dsir_select,
        "embedding_decontam": _q_embedding_decontam,
        "line_dedup": _q_line_dedup,
        "user_top_event_type": _q_user_top_event_type,
        "users_all_event_types": _q_users_all_event_types,
        "graph_kcore": _q_graph_kcore,
        "graph_communities": _q_graph_communities,
        "part_skyline": _q_part_skyline,
        "qty_price_regression": _q_qty_price_regression,
        "small_qty_revenue": _q_small_qty_revenue,
        "waiting_suppliers": _q_waiting_suppliers,
        "ab_value_ttest": _q_ab_value_ttest,
        "qty_price_spearman": _q_qty_price_spearman,
        "image_resize": _q_image_resize,
        "order_value_zscore": _q_order_value_zscore,
        "inverted_postings": _q_inverted_postings,
        "split_leakage_safe": _q_split_leakage_safe,
        "incremental_exact_dedup": _q_incremental_exact_dedup,
        "user_counts_cms": _q_user_counts_cms,
        "domain_stats": _q_domain_stats,
        "price_histogram": _q_price_histogram,
        "revenue_by_nation": _q_revenue_by_nation,
        "triangle_count": _q_triangle_count,
        "tfidf_keywords": _q_tfidf_keywords,
        "order_value_ntile": _q_order_value_ntile,
        "part_name_links": _q_part_name_links,
        "user_value_ewma": _q_user_value_ewma,
        "pmi_collocations": _q_pmi_collocations,
        "flag_status_dependence": _q_flag_status_dependence,
        "viewers_purchasers": _q_viewers_purchasers,
        "parts_except_ordered": _q_parts_except_ordered,
        "order_value_pct_rank": _q_order_value_pct_rank,
        "winsorized_price": _q_winsorized_price,
        "qty_price_moments": _q_qty_price_moments,
        "event_type_drift": _q_event_type_drift,
        "order_pivot": _q_order_pivot,
        "lineitem_unpivot": _q_lineitem_unpivot,
        "event_attribution": _q_event_attribution,
        "session_paths": _q_session_paths,
        "benford_prices": _q_benford_prices,
        "revenue_gini": _q_revenue_gini,
        "signup_survival": _q_signup_survival,
        "supplier_hits": _q_supplier_hits,
        "value_cusum": _q_value_cusum,
        "dau_mau": _q_dau_mau,
        "value_mannwhitney": _q_value_mannwhitney,
        "revenue_wow": _q_revenue_wow,
        "new_vs_returning": _q_new_vs_returning,
        "zipf_slope": _q_zipf_slope,
        "quality_gate_by_lang": _q_quality_gate_by_lang,
        "audio_quality": _q_audio_quality,
        "nearest_view": _q_nearest_view,
        "session_stats": _q_session_stats,
        "value_wasserstein": _q_value_wasserstein,
        "vocab_coverage": _q_vocab_coverage,
        "quality_lift": _q_quality_lift,
        "langid_agreement": _q_langid_agreement,
        "conversion_ab_ztest": _q_conversion_ab_ztest,
        "event_stationary": _q_event_stationary,
        "hourly_profile": _q_hourly_profile,
        "value_anova": _q_value_anova,
        "user_diversity": _q_user_diversity,
        "revenue_concentration": _q_revenue_concentration,
        "value_trend_by_user": _q_value_trend_by_user,
        "value_rolling_median": _q_value_rolling_median,
        "value_skew_by_type": _q_value_skew_by_type,
        "event_entropy_rate": _q_event_entropy_rate,
        "event_type_xcorr": _q_event_type_xcorr,
        "lexical_diversity": _q_lexical_diversity,
        "customer_rfm": _q_customer_rfm,
        "part_abc_class": _q_part_abc_class,
        "dataset_checksum": _q_dataset_checksum,
        "customer_reorder_gap": _q_customer_reorder_gap,
        "lineitem_corr_matrix": _q_lineitem_corr_matrix,
        "bpe_fertility": _q_bpe_fertility,
        "key_skew_profile": _q_key_skew_profile,
        "event_linear_attribution": _q_event_linear_attribution,
        "part_clustering_coeff": _q_part_clustering_coeff,
        "events_incremental_agg": _q_events_incremental_agg,
        "value_holt_forecast": _q_value_holt_forecast,
        "gopher_quality_gate": _q_gopher_gate,
        "weekly_cohort_retention": _q_weekly_cohort_retention,
        "graph_sssp": _q_graph_sssp,
        "events_out_of_order": _q_events_out_of_order,
        "user_streaks": _q_user_streaks,
        "rare_term_doc_pairs": _q_rare_term_doc_pairs,
        "fused_part_ranking": _q_fused_part_ranking,
        "order_target_encode": _q_order_target_encode,
        "cluster_silhouette": _q_cluster_silhouette,
        "quality_auc": _q_quality_auc,
        "part_neighbor_price": _q_part_neighbor_price,
        "value_changepoint": _q_value_changepoint,
        "part_als_factors": _q_part_als_factors,
        "embedding_rp": _q_embedding_rp,
        "value_theilsen": _q_value_theilsen,
        "weighted_median_price": _q_weighted_median_price,
        "part_jaccard_links": _q_part_jaccard_links,
        "hourly_mase": _q_hourly_mase,
        "fuzzy_name_pairs": _q_fuzzy_name_pairs,
        "bigram_kn": _q_bigram_kn,
        "quality_calibration": _q_quality_calibration,
        "unigram_vocab": _q_unigram_vocab,
        "coreset_select": _q_coreset_select,
        "trimmed_mean_price": _q_trimmed_mean_price,
        "source_ablation": _q_source_ablation,
        "kanon_audit": _q_kanon_audit,
        "part_name_extract": _q_part_name_extract,
        "incremental_join_view": _q_incremental_join_view,
        "copurchase_cosine": _q_copurchase_cosine,
        "embedding_outliers": _q_embedding_outliers,
        "unigram_fertility": _q_unigram_fertility,
        "value_rolling_slope": _q_value_rolling_slope,
        "doc_containment": _q_doc_containment,
        "fuzzy_name_clusters": _q_fuzzy_name_clusters,
        "ab_value_cuped": _q_ab_value_cuped,
        "quality_roc_points": _q_quality_roc_points,
        "dup_weighting": _q_dup_weighting,
        "value_bootstrap_ci": _q_value_bootstrap_ci,
        "customer_fd_audit": _q_customer_fd_audit,
        "vocab_drift": _q_vocab_drift,
        "event_mix_shift": _q_event_mix_shift,
        "zorder_pruning": _q_zorder_pruning,
        "session_conversion": _q_session_conversion,
        "churn_weekly_labels": _q_churn_weekly_labels,
        "sqlite_roundtrip": _q_sqlite_roundtrip,
        "embedding_fd": _q_embedding_fd,
        "doc_cosine_tf": _q_doc_cosine_tf,
        "user_coverage_ratio": _q_user_coverage_ratio,
        "grouped_kfold": _q_grouped_kfold,
        "audience_overlap_kmv": _q_audience_overlap_kmv,
        "compaction_plan": _q_compaction_plan,
        "length_batching": _q_length_batching,
        "rolling_active_kmv": _q_rolling_active_kmv,
        "mix_rebalance": _q_mix_rebalance,
        "doc_ncd": _q_doc_ncd,
        "vocab_growth": _q_vocab_growth,
        "event_trigrams": _q_event_trigrams,
        "quality_isotonic": _q_quality_isotonic,
        "population_estimate": _q_population_estimate,
        "simpson_check": _q_simpson_check,
        "doc_novelty": _q_doc_novelty,
        "audio_spectral": _q_audio_spectral,
        "image_ssim": _q_image_ssim,
        "ldiversity_audit": _q_ldiversity_audit,
        "session_type_pairs": _q_session_type_pairs,
        "value_robust_scaled": _q_value_robust_scaled,
        "value_dispersion": _q_value_dispersion,
        "worst_slices": _q_worst_slices,
        "transition_dwell": _q_transition_dwell,
        "skipgram_pairs": _q_skipgram_pairs,
        "conformal_intervals": _q_conformal_intervals,
        "erasure_audit": _q_erasure_audit,
        "embedding_hubness": _q_embedding_hubness,
        "value_kendall": _q_value_kendall,
        "attribution_markov": _q_attribution_markov,
        "hourly_peaks": _q_hourly_peaks,
        "feature_aucs": _q_feature_aucs,
        "type_staleness": _q_type_staleness,
        "split_shipments": _q_split_shipments,
        "order_lead_time": _q_order_lead_time,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "quality_auc": """
            WITH scored AS (
                SELECT round(len(list_filter(regexp_split_to_array(lower(trim(text)), '\\s+'),
                                             x -> x IN """ + _ENGLISH_STOPS + """))
                             / greatest(CASE WHEN trim(text) = '' THEN 0
                                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                        END, 1), 6) AS score,
                       round(length(regexp_replace(trim(text), '\\s+', '', 'g'))
                             / greatest(CASE WHEN trim(text) = '' THEN 0
                                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                        END, 1), 6) AS mtl
                FROM documents),
            lab AS (
                SELECT score,
                       CASE WHEN score >= 0.05 AND mtl < 8.0
                            THEN 1 ELSE 0 END AS label
                FROM scored),
            r AS (
                SELECT label,
                       CAST(rank() OVER (ORDER BY score) AS BIGINT) AS rk,
                       CAST(count(*) OVER (PARTITION BY score) AS BIGINT) AS t
                FROM lab)
            SELECT CAST(sum(label) AS BIGINT) AS n_pos,
                   CAST(count(*) - sum(label) AS BIGINT) AS n_neg,
                   CAST(sum(CASE WHEN label = 1
                                 THEN 2 * rk + t - 1 ELSE 0 END)
                        - sum(label) * (sum(label) + 1) AS BIGINT) AS u2
            FROM r
        """,
        "part_neighbor_price": """
            WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
            p2 AS (
                SELECT a.l_partkey AS ia, b.l_partkey AS ib
                FROM d a JOIN d b
                  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
                GROUP BY 1, 2 HAVING count(*) >= 2),
            e AS (SELECT ia AS node, ib AS nbr FROM p2
                  UNION ALL SELECT ib, ia FROM p2),
            f AS (SELECT p_partkey,
                         CAST(round(p_retailprice * 100) AS BIGINT) AS cents
                  FROM part)
            SELECT e.node AS p_partkey,
                   CAST(count(*) AS BIGINT) AS n_neighbors,
                   CAST(sum(f.cents) AS BIGINT) AS nbr_price_cents
            FROM e JOIN f ON f.p_partkey = e.nbr
            GROUP BY e.node ORDER BY p_partkey
        """,
        "value_changepoint": """
            WITH v AS (
                SELECT user_id, ts, event_id,
                       CAST(round(value * 100) AS BIGINT) AS cents
                FROM events),
            c AS (
                SELECT user_id,
                       CAST(row_number() OVER w AS BIGINT) AS k,
                       CAST(sum(cents) OVER w AS BIGINT) AS s,
                       CAST(count(*) OVER (PARTITION BY user_id) AS BIGINT) AS n,
                       CAST(sum(cents) OVER (PARTITION BY user_id) AS BIGINT) AS sn
                FROM v
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)),
            st AS (
                SELECT user_id, n, k, abs(n * s - k * sn) AS stat
                FROM c WHERE k < n),
            best AS (
                SELECT user_id, n, k, stat,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY stat DESC, k) AS rn
                FROM st)
            SELECT user_id, n, k AS cp_pos, CAST(stat AS BIGINT) AS stat
            FROM best WHERE rn = 1 ORDER BY user_id
        """,
        "order_target_encode": """
            WITH c AS (
                SELECT o_orderkey, o_orderpriority,
                       CAST(round(o_totalprice * 100) AS BIGINT) AS cents
                FROM orders
            )
            SELECT o_orderkey, o_orderpriority,
                   CAST(sum(cents) OVER (PARTITION BY o_orderpriority)
                        - cents AS BIGINT) AS loo_sum,
                   CAST(count(*) OVER (PARTITION BY o_orderpriority)
                        - 1 AS BIGINT) AS loo_n
            FROM c
            ORDER BY o_orderkey
        """,
        "user_streaks": """
            WITH ud AS (
                SELECT DISTINCT user_id,
                       epoch_us(ts) // 86400000000 AS day
                FROM events
            ),
            r AS (
                SELECT user_id, day,
                       day - (row_number() OVER (
                           PARTITION BY user_id ORDER BY day) - 1) AS island
                FROM ud
            ),
            runs AS (
                SELECT user_id, island, count(*) AS length,
                       max(day) AS last_day
                FROM r GROUP BY 1, 2
            ),
            agg AS (
                SELECT user_id,
                       CAST(sum(length) AS BIGINT) AS n_active_days,
                       CAST(count(*) AS BIGINT)    AS n_streaks,
                       CAST(max(length) AS BIGINT) AS max_streak,
                       max(last_day)               AS ld
                FROM runs GROUP BY user_id
            )
            SELECT a.user_id, a.n_active_days, a.n_streaks, a.max_streak,
                   CAST(r2.length AS BIGINT) AS last_streak
            FROM agg a
            JOIN runs r2 ON r2.user_id = a.user_id AND r2.last_day = a.ld
            ORDER BY a.user_id
        """,
        "events_out_of_order": """
            WITH o AS (
                SELECT user_id, epoch_us(ts) AS t,
                       max(epoch_us(ts)) OVER (
                           PARTITION BY user_id ORDER BY event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ) AS pm
                FROM events
            )
            SELECT user_id,
                   CAST(count(*) AS BIGINT)                                   AS n_events,
                   CAST(sum(CASE WHEN t < pm THEN 1 ELSE 0 END) AS BIGINT)    AS n_late,
                   CAST(coalesce(max(CASE WHEN t < pm THEN pm - t END), 0)
                        AS BIGINT)                                            AS max_delay_us
            FROM o
            GROUP BY user_id
            ORDER BY user_id
        """,
        "rare_term_doc_pairs": """
            WITH t AS (
                SELECT doc_id,
                       regexp_split_to_array(lower(trim(text)), '\\s+') AS a
                FROM documents
                WHERE trim(COALESCE(text, '')) <> ''
            ),
            g AS (
                SELECT doc_id,
                       list_aggregate(a[u.i:u.i + 3], 'string_agg', ' ') AS gram
                FROM t, unnest(range(1, len(a) - 2)) u(i)
            ),
            p AS (SELECT DISTINCT doc_id, gram FROM g),
            d AS (
                SELECT gram FROM p GROUP BY gram HAVING count(*) <= 20
            ),
            rp AS (SELECT p.gram, p.doc_id FROM p JOIN d USING (gram))
            SELECT x.doc_id AS doc_a, y.doc_id AS doc_b,
                   CAST(count(*) AS BIGINT) AS n_shared
            FROM rp x JOIN rp y
              ON x.gram = y.gram AND x.doc_id < y.doc_id
            GROUP BY 1, 2
            HAVING count(*) >= 2
            ORDER BY 1, 2
        """,
        "fused_part_ranking": """
            WITH agg AS (
                SELECT l_partkey AS p,
                       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                            AS BIGINT) AS rev_cents,
                       CAST(count(*) AS BIGINT) AS n_lines
                FROM lineitem GROUP BY l_partkey
            ),
            r1 AS (
                SELECT p, row_number() OVER (ORDER BY rev_cents DESC, p) AS rank
                FROM agg QUALIFY rank <= 100
            ),
            r2 AS (
                SELECT p, row_number() OVER (ORDER BY n_lines DESC, p) AS rank
                FROM agg QUALIFY rank <= 100
            ),
            n1 AS (SELECT count(*) AS n FROM r1),
            n2 AS (SELECT count(*) AS n FROM r2)
            SELECT coalesce(r1.p, r2.p) AS p_partkey,
                   CAST(coalesce(r1.rank, (SELECT n FROM n1) + 1)
                        + coalesce(r2.rank, (SELECT n FROM n2) + 1)
                        AS BIGINT)                                       AS fused_rank_sum,
                   CAST((CASE WHEN r1.p IS NULL THEN 0 ELSE 1 END)
                        + (CASE WHEN r2.p IS NULL THEN 0 ELSE 1 END)
                        AS BIGINT)                                       AS n_lists
            FROM r1 FULL OUTER JOIN r2 ON r1.p = r2.p
            ORDER BY fused_rank_sum, p_partkey
        """,
        "weekly_cohort_retention": """
            WITH uw AS (
                SELECT DISTINCT user_id,
                       epoch_us(ts) // (7 * 86400000000) AS week
                FROM events
            ), fw AS (
                SELECT user_id, min(week) AS cohort_period
                FROM uw GROUP BY user_id
            )
            SELECT CAST(cohort_period AS BIGINT)         AS cohort_period,
                   CAST(week - cohort_period AS BIGINT)  AS period_offset,
                   CAST(count(*) AS BIGINT)              AS n_users
            FROM uw JOIN fw USING (user_id)
            GROUP BY 1, 2
            ORDER BY 1, 2
        """,
        "gopher_quality_gate": """
            WITH g AS (
                SELECT doc_id,
                       regexp_replace(coalesce(text, ''), '^\\s+|\\s+$', '', 'g') AS t,
                       coalesce(text, '') AS raw
                FROM documents
            ), sig AS (
                SELECT doc_id,
                       CASE WHEN length(t) = 0 THEN 0
                            ELSE len(regexp_split_to_array(t, '\\s+')) END AS n_words,
                       CASE WHEN length(t) = 0 THEN 0
                            ELSE length(regexp_replace(t, '\\s+', '', 'g')) END AS word_chars,
                       (length(raw) - length(replace(raw, '#', '')))
                         + (length(raw) - length(replace(raw, '...', ''))) // 3
                         + (length(raw) - length(replace(raw, '…', ''))) AS n_symbols,
                       len(string_split(raw, chr(10))) AS n_lines,
                       len(list_filter(string_split(raw, chr(10)),
                                       x -> regexp_matches(x, '^\\s*[•‣▪*-]'))) AS n_bullet,
                       len(list_filter(string_split(raw, chr(10)),
                                       x -> regexp_matches(x, '(\\.\\.\\.|…)\\s*$'))) AS n_ellipsis,
                       CASE WHEN length(t) = 0 THEN 0
                            ELSE len(list_filter(regexp_split_to_array(t, '\\s+'),
                                                 x -> regexp_matches(x, '\\p{L}'))) END AS alpha_words,
                       CASE WHEN length(t) = 0 THEN 0 ELSE
                         (CASE WHEN list_contains(regexp_split_to_array(lower(t), '\\s+'), 'the')  THEN 1 ELSE 0 END
                        + CASE WHEN list_contains(regexp_split_to_array(lower(t), '\\s+'), 'be')   THEN 1 ELSE 0 END
                        + CASE WHEN list_contains(regexp_split_to_array(lower(t), '\\s+'), 'to')   THEN 1 ELSE 0 END
                        + CASE WHEN list_contains(regexp_split_to_array(lower(t), '\\s+'), 'of')   THEN 1 ELSE 0 END
                        + CASE WHEN list_contains(regexp_split_to_array(lower(t), '\\s+'), 'and')  THEN 1 ELSE 0 END
                        + CASE WHEN list_contains(regexp_split_to_array(lower(t), '\\s+'), 'that') THEN 1 ELSE 0 END
                        + CASE WHEN list_contains(regexp_split_to_array(lower(t), '\\s+'), 'have') THEN 1 ELSE 0 END
                        + CASE WHEN list_contains(regexp_split_to_array(lower(t), '\\s+'), 'with') THEN 1 ELSE 0 END)
                       END AS n_required
                FROM g
            )
            SELECT doc_id,
                   CAST(n_words AS BIGINT)     AS n_words,
                   CAST(word_chars AS BIGINT)  AS word_chars,
                   CAST(n_symbols AS BIGINT)   AS n_symbols,
                   CAST(n_lines AS BIGINT)     AS n_lines,
                   CAST(n_bullet AS BIGINT)    AS n_bullet,
                   CAST(n_ellipsis AS BIGINT)  AS n_ellipsis,
                   CAST(alpha_words AS BIGINT) AS alpha_words,
                   CAST(n_required AS BIGINT)  AS n_required,
                   (n_words BETWEEN 50 AND 100000)                                  AS r_words,
                   (3 * n_words <= word_chars AND word_chars <= 10 * n_words
                    AND n_words > 0)                                                AS r_wordlen,
                   (10 * n_symbols <= n_words)                                      AS r_symbol,
                   (10 * n_bullet <= n_lines)                                       AS r_bullet,
                   (10 * n_ellipsis <= 3 * n_lines)                                 AS r_ellipsis,
                   (5 * alpha_words >= 4 * n_words AND n_words > 0)                 AS r_alpha,
                   (n_required >= 2)                                                AS r_required,
                   ((n_words BETWEEN 50 AND 100000)
                    AND (3 * n_words <= word_chars AND word_chars <= 10 * n_words AND n_words > 0)
                    AND (10 * n_symbols <= n_words)
                    AND (10 * n_bullet <= n_lines)
                    AND (10 * n_ellipsis <= 3 * n_lines)
                    AND (5 * alpha_words >= 4 * n_words AND n_words > 0)
                    AND (n_required >= 2))                                          AS keep
            FROM sig
            ORDER BY doc_id
        """,
        "events_incremental_agg": """
            SELECT user_id,
                   CAST(count(*) AS BIGINT)                                    AS n,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)     AS sum_cents,
                   CAST(min(CAST(round(value * 100) AS BIGINT)) AS BIGINT)     AS lo_cents,
                   CAST(max(CAST(round(value * 100) AS BIGINT)) AS BIGINT)     AS hi_cents
            FROM events
            GROUP BY user_id
            ORDER BY user_id
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2)                               AS sum_qty,
                   round(sum(l_extendedprice), 2)                          AS sum_base_price,
                   round(sum(l_extendedprice * (1 - l_discount)), 2)       AS sum_disc_price,
                   round(avg(l_quantity), 2)                               AS avg_qty,
                   count(*)                                                AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "orders_by_segment": """
            SELECT c_mktsegment,
                   count(*)                        AS n_orders,
                   round(sum(o_totalprice), 2)     AS total_price
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "top_parts_by_revenue": """
            SELECT l_partkey,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM lineitem GROUP BY l_partkey
            ORDER BY sum(l_extendedprice * (1 - l_discount)) DESC
            LIMIT 10
        """,
        "events_hourly": """
            SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00:00') AS hour,
                   event_type,
                   count(*)              AS n,
                   round(sum(value), 2)  AS sum_value
            FROM events GROUP BY 1, 2
        """,
        "sliding_window_events": """
            SELECT strftime(time_bucket(INTERVAL 15 MINUTE, ts)
                            - k.k * INTERVAL 15 MINUTE,
                            '%Y-%m-%d %H:%M:%S')  AS window_start,
                   event_type,
                   count(*)                        AS n
            FROM events
            CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS k) k
            GROUP BY 1, 2
        """,
        "user_sessions": """
            WITH gaps AS (
                SELECT user_id, ts,
                       CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                              OR ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                                 > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_session
                FROM events)
            SELECT user_id,
                   CAST(sum(new_session) AS BIGINT) AS n_sessions,
                   count(*)                         AS n_events
            FROM gaps GROUP BY user_id
        """,
        "dedup_exact": """
            SELECT min(doc_id) AS doc_id
            FROM documents
            GROUP BY regexp_replace(lower(trim(text)), '\\s+', ' ', 'g')
        """,
        "token_stats": """
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                   END            AS n_tokens,
                   length(text)   AS n_chars,
                   len(list_filter(
                       regexp_extract_all(text, ' ?\\p{L}+| ?\\p{N}+| ?[^\\s\\p{L}\\p{N}]+|\\s+'),
                       x -> trim(x) <> '')) AS n_tokens_bpe
            FROM documents
        """,
        "quality_scores": """
            SELECT doc_id,
                   round((length(text) - length(regexp_replace(text, '[^\\w\\s]', '', 'g')))
                         / greatest(length(text), 1), 6)                   AS punct_ratio,
                   round((length(text) - length(regexp_replace(text, '\\d', '', 'g')))
                         / greatest(length(text), 1), 6)                   AS digit_ratio,
                   round(len(list_filter(regexp_split_to_array(lower(trim(text)), '\\s+'),
                                         x -> x IN """ + _ENGLISH_STOPS + """))
                         / greatest(CASE WHEN trim(text) = '' THEN 0
                                         ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                    END, 1), 6)                            AS stopword_ratio,
                   round(length(regexp_replace(trim(text), '\\s+', '', 'g'))
                         / greatest(CASE WHEN trim(text) = '' THEN 0
                                         ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                    END, 1), 6)                            AS mean_token_len
            FROM documents
        """,
        "quality_filter": """
            WITH scored AS (
                SELECT doc_id,
                       round(len(list_filter(regexp_split_to_array(lower(trim(text)), '\\s+'),
                                             x -> x IN """ + _ENGLISH_STOPS + """))
                             / greatest(CASE WHEN trim(text) = '' THEN 0
                                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                        END, 1), 6)                        AS stopword_ratio,
                       round(length(regexp_replace(trim(text), '\\s+', '', 'g'))
                             / greatest(CASE WHEN trim(text) = '' THEN 0
                                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                        END, 1), 6)                        AS mean_token_len
                FROM documents)
            SELECT doc_id FROM scored
            WHERE stopword_ratio >= 0.05 AND mean_token_len < 8.0
        """,
        "fingerprint": """
            SELECT doc_id,
                   md5(regexp_replace(lower(trim(text)), '\\s+', ' ', 'g')) AS fp
            FROM documents
        """,
        "pii_scrub": """
            WITH s0 AS (SELECT doc_id, text,
                               len(regexp_extract_all(text,
                                   '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS n_email,
                               regexp_replace(text,
                                   '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                                   '<EMAIL>', 'g') AS t1
                        FROM documents),
            s1 AS (SELECT doc_id, n_email,
                          len(regexp_extract_all(t1,
                              '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b')) AS n_ip,
                          regexp_replace(t1,
                              '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b',
                              '<IP>', 'g') AS t2
                   FROM s0)
            SELECT doc_id,
                   regexp_replace(t2, '\\+?\\d[\\d().-]{7,}\\d', '<PHONE>', 'g') AS scrubbed,
                   n_email, n_ip,
                   len(regexp_extract_all(t2, '\\+?\\d[\\d().-]{7,}\\d')) AS n_phone
            FROM s1
        """,
        # table_preprocess / table_annotate: the in-process run of the
        # same tables as a VALUES literal (sf0.01 constant here;
        # oracle_sql_at recomputes it for any other sf)
        "table_preprocess": f"""
            SELECT * FROM (VALUES {_TABLE_LITERALS_SF001["table_preprocess"]})
                AS t(table_id, orientation, has_header)
        """,
        "table_annotate": f"""
            SELECT * FROM (VALUES {_TABLE_LITERALS_SF001["table_annotate"]})
                AS t(table_id, n_cea, n_cta, n_cpa)
        """,
        # curation_funnel: every deterministic sub-stage mirrored in SQL
        # (exact dedup = min-doc_id per normalized text, quality gate,
        # lang id, sequential PII counts); the minhash victim set — the
        # only non-SQL stage — enters as the pytest-pinned literal.
        # The literal here is the driver's sf0.01 constant; for any
        # other sf use oracle_sql_at(sf_dir), which recomputes the
        # victim set through the pipeline (check_oracles does).
        "curation_funnel": """
            WITH survivors AS (
                SELECT min(doc_id) AS doc_id
                FROM documents
                GROUP BY regexp_replace(lower(trim(text)), '\\s+', ' ', 'g')
            ),
            base AS (
                SELECT d.doc_id, d.text
                FROM documents d JOIN survivors USING (doc_id)
                WHERE d.doc_id NOT IN """ + _CURATION_VICTIMS_SF001 + """
            ),
            gated AS (
                SELECT doc_id, text FROM base
                WHERE round(len(list_filter(regexp_split_to_array(lower(trim(text)), '\\s+'),
                                            x -> x IN """ + _ENGLISH_STOPS + """))
                            / greatest(CASE WHEN trim(text) = '' THEN 0
                                            ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                       END, 1), 6) >= 0.05
                  AND round(length(regexp_replace(trim(text), '\\s+', '', 'g'))
                            / greatest(CASE WHEN trim(text) = '' THEN 0
                                            ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                       END, 1), 6) < 8.0
            ),
            langed AS (
                SELECT doc_id, text,
                       len(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                           x -> x IN ('the','and','of','to','a','in','is','it','you','that','was','for'))) AS n_en,
                       len(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                           x -> x IN ('le','la','les','de','des','et','un','une','est','que','pour','dans'))) AS n_fr,
                       len(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                           x -> x IN ('der','die','das','und','ist','ein','eine','zu','den','von','mit','für'))) AS n_de,
                       len(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                           x -> x IN ('el','la','los','las','de','y','un','una','es','que','por','para'))) AS n_es
                FROM gated
            ),
            s0 AS (
                SELECT doc_id,
                       CASE WHEN greatest(n_en, n_fr, n_de, n_es) = 0 THEN 'und'
                            WHEN n_en = greatest(n_en, n_fr, n_de, n_es) THEN 'en'
                            WHEN n_fr = greatest(n_en, n_fr, n_de, n_es) THEN 'fr'
                            WHEN n_de = greatest(n_en, n_fr, n_de, n_es) THEN 'de'
                            ELSE 'es' END AS pred_lang,
                       len(regexp_extract_all(text,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS n_email,
                       regexp_replace(text,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g') AS t1
                FROM langed
            ),
            s1 AS (
                SELECT doc_id, pred_lang, n_email,
                       len(regexp_extract_all(t1,
                           '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b')) AS n_ip,
                       regexp_replace(t1,
                           '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b',
                           '<IP>', 'g') AS t2
                FROM s0
            )
            SELECT doc_id, pred_lang, n_email, n_ip,
                   len(regexp_extract_all(t2, '\\+?\\d[\\d().-]{7,}\\d')) AS n_phone
            FROM s1
        """,
        "hash_sample": """
            SELECT doc_id FROM documents
            WHERE ((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
                   + 4294967296) % 4294967296 % 100 < 20
        """,
        "incremental_exact_dedup": """
            WITH n AS (
                SELECT doc_id + 1000 AS new_id,
                       regexp_replace(lower(trim(text)), '\\s+', ' ', 'g') AS t
                FROM documents WHERE doc_id < 100
            ),
            b AS (
                SELECT min(doc_id) AS base_id,
                       regexp_replace(lower(trim(text)), '\\s+', ' ', 'g') AS t
                FROM documents
                GROUP BY 2
            )
            SELECT n.new_id, b.base_id
            FROM n JOIN b USING (t)
        """,
        "sample_per_lang": """
            WITH h AS (
                SELECT doc_id, lang,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY ((CAST(doc_id AS HUGEINT) * 2654435761)
                                     % 4294967296 + 4294967296) % 4294967296,
                                    doc_id
                       ) AS rn
                FROM documents
            )
            SELECT doc_id, lang FROM h WHERE rn <= 20
        """,
        "lang_temperature_sample": """
            WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang),
            s AS (
                SELECT lang, n,
                       CAST(floor(sqrt(CAST(n AS DOUBLE))) AS BIGINT) AS w
                FROM c
            ),
            q AS (
                SELECT lang, n,
                       least(n, (120 * w) // (SELECT sum(w) FROM s)) AS k
                FROM s
            ),
            r AS (
                SELECT doc_id, lang,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY ((CAST(doc_id AS HUGEINT) * 2654435761)
                                     % 4294967296 + 4294967296) % 4294967296,
                                    doc_id
                       ) AS rn
                FROM documents
            )
            SELECT r.doc_id, r.lang
            FROM r JOIN q USING (lang)
            WHERE r.rn <= q.k
        """,
        "dataset_split": """
            WITH h AS (
                SELECT doc_id,
                       ((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
                        + 4294967296) % 4294967296 % 100 AS hb
                FROM documents
            )
            SELECT doc_id,
                   CASE WHEN hb < 90 THEN 'train'
                        WHEN hb < 95 THEN 'val'
                        ELSE 'test' END AS split
            FROM h
        """,
        "stratified_sample": """
            SELECT doc_id, lang, source FROM documents
            WHERE ((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
                   + 4294967296) % 4294967296 % 100
                  < CASE lang WHEN 'en' THEN 80 WHEN 'fr' THEN 40
                              WHEN 'de' THEN 30 WHEN 'es' THEN 20
                              WHEN 'zh' THEN 10 ELSE 0 END
        """,
        "copurchased_parts": """
            WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
            SELECT a.l_partkey AS item_a, b.l_partkey AS item_b,
                   count(*) AS n_baskets
            FROM li a JOIN li b
              ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
            GROUP BY 1, 2 HAVING count(*) >= 2
        """,
        "chunk_documents": """
            WITH t AS (
                SELECT doc_id,
                       CASE WHEN trim(text) = '' THEN 0
                            ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                       END AS n
                FROM documents),
            c AS (
                SELECT doc_id, n,
                       unnest(range(0,
                           CASE WHEN n = 0 THEN 0
                                WHEN n <= 64 THEN 1
                                ELSE 1 + CAST(ceil((n - 64) / 56.0) AS BIGINT)
                           END)) AS chunk_idx
                FROM t)
            SELECT doc_id, chunk_idx, chunk_idx * 56 AS start_tok,
                   least(64, n - chunk_idx * 56) AS n_tokens
            FROM c
        """,
        "value_outliers": """
            WITH ranked AS (
                SELECT event_type, value AS v,
                       row_number() OVER (PARTITION BY event_type ORDER BY value) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM events),
            p99 AS (
                SELECT event_type, v AS thr
                FROM ranked WHERE rn = CAST(ceil(0.99 * n) AS BIGINT))
            SELECT e.event_id, e.event_type, round(e.value, 6) AS value
            FROM events e JOIN p99 USING (event_type)
            WHERE e.value > p99.thr
        """,
        "cohort_retention": """
            WITH c AS (
                SELECT user_id,
                       strftime(min(date_trunc('day', ts)), '%Y-%m-%d') AS cohort_day
                FROM events GROUP BY user_id)
            SELECT c.cohort_day,
                   strftime(date_trunc('day', e.ts), '%Y-%m-%d') AS day,
                   count(DISTINCT e.user_id) AS n_users
            FROM events e JOIN c ON e.user_id = c.user_id
            GROUP BY 1, 2
        """,
        "lineitem_profile": """
            SELECT 'l_quantity' AS col, count(*) AS n_rows,
                   count(*) - count(l_quantity) AS n_nulls,
                   round(min(l_quantity), 6) AS min,
                   round(max(l_quantity), 6) AS max,
                   round(sum(l_quantity), 2) AS sum
            FROM lineitem
            UNION ALL
            SELECT 'l_extendedprice', count(*),
                   count(*) - count(l_extendedprice),
                   round(min(l_extendedprice), 6),
                   round(max(l_extendedprice), 6),
                   round(sum(l_extendedprice), 2)
            FROM lineitem
            UNION ALL
            SELECT 'l_discount', count(*), count(*) - count(l_discount),
                   round(min(l_discount), 6), round(max(l_discount), 6),
                   round(sum(l_discount), 2)
            FROM lineitem
            UNION ALL
            SELECT 'l_returnflag', count(*), count(*) - count(l_returnflag),
                   min(length(l_returnflag)), max(length(l_returnflag)),
                   CAST(NULL AS DOUBLE)
            FROM lineitem
            UNION ALL
            SELECT 'l_linestatus', count(*), count(*) - count(l_linestatus),
                   min(length(l_linestatus)), max(length(l_linestatus)),
                   CAST(NULL AS DOUBLE)
            FROM lineitem
        """,
        "frequent_users_by_type": """
            SELECT event_type, user_id, count(*) AS n
            FROM events GROUP BY event_type, user_id
            HAVING count(*) >= 20
        """,
        "props_k_by_type": """
            SELECT event_type,
                   CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
                   count(json_extract(props, '$.k')) AS n
            FROM events
            GROUP BY event_type
        """,
        "event_value_rank": """
            SELECT event_id, round(value, 6) AS value,
                   row_number() OVER (ORDER BY value, event_id) - 1 AS position
            FROM events
        """,
        "corpus_mix": """
            WITH h AS (
                SELECT doc_id, lang,
                       ((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
                        + 4294967296) % 4294967296 AS hv
                FROM documents),
            sampled AS (
                SELECT doc_id, hv FROM h
                WHERE hv % 100 < CASE lang WHEN 'en' THEN 80
                                           WHEN 'fr' THEN 50
                                           ELSE 20 END)
            SELECT doc_id,
                   row_number() OVER (ORDER BY hv, doc_id) - 1 AS position
            FROM sampled
        """,
        "shuffle_order": """
            SELECT doc_id,
                   row_number() OVER (
                       ORDER BY ((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
                                 + 4294967296) % 4294967296,
                                doc_id) - 1 AS position
            FROM documents
        """,
        "vocab_topk": """
            SELECT token, count(*) AS n
            FROM (SELECT unnest(regexp_split_to_array(lower(COALESCE(text, '')),
                                                      '\\s+')) AS token
                  FROM documents)
            WHERE token <> ''
            GROUP BY token
            ORDER BY n DESC, token
            LIMIT 100
        """,
        # word-13-gram overlap with the hash-bucket<5 benchmark slice;
        # DuckDB list slice t[i:i+12] is 1-based inclusive = 13 tokens
        "decontaminate": """
            WITH toks AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(lower(COALESCE(text, '')),
                                                         '\\s+'),
                                   x -> x <> '') AS t
                FROM documents
            ),
            grams AS (
                SELECT DISTINCT doc_id, array_to_string(t[i:i+12], ' ') AS gram
                FROM (SELECT doc_id, t,
                             unnest(generate_series(1, len(t) - 12)) AS i
                      FROM toks)
            ),
            bench AS (
                SELECT DISTINCT gram FROM grams
                WHERE ((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
                       + 4294967296) % 4294967296 % 100 < 5
            )
            SELECT doc_id, count(*) AS n_hits
            FROM grams
            WHERE gram IN (SELECT gram FROM bench)
            GROUP BY doc_id
        """,
        "decontaminate_dist": """
            WITH toks AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(lower(COALESCE(text, '')),
                                                         '\\s+'),
                                   x -> x <> '') AS t
                FROM documents
            ),
            grams AS (
                SELECT DISTINCT doc_id, array_to_string(t[i:i+12], ' ') AS gram
                FROM (SELECT doc_id, t,
                             unnest(generate_series(1, len(t) - 12)) AS i
                      FROM toks)
            ),
            bench AS (
                SELECT DISTINCT gram FROM grams
                WHERE ((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
                       + 4294967296) % 4294967296 % 100 < 5
            )
            SELECT doc_id, count(*) AS n_hits
            FROM grams
            WHERE gram IN (SELECT gram FROM bench)
            GROUP BY doc_id
        """,
        # exact char-5-gram Jaccard: same normalization, same 2<=df<=20
        # candidate rule, same full-set ratio >= 0.5 (unrounded compare,
        # 6dp output) as stages/dedup.py::ngram_jaccard_pairs
        "ngram_jaccard": """
            WITH norm AS (
                SELECT doc_id,
                       lower(trim(regexp_replace(coalesce(text, ''), '\\s+', ' ', 'g'))) AS t
                FROM documents
            ),
            pos AS (
                SELECT doc_id, t,
                       unnest(generate_series(1, greatest(length(t) - 4, 0))) AS i
                FROM norm
            ),
            grams AS (SELECT DISTINCT doc_id, substr(t, i, 5) AS g FROM pos),
            sizes AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
            rare AS (SELECT g FROM grams GROUP BY g HAVING count(*) BETWEEN 2 AND 20),
            cand AS (
                SELECT DISTINCT ga.doc_id AS a, gb.doc_id AS b
                FROM grams ga JOIN rare USING (g) JOIN grams gb USING (g)
                WHERE ga.doc_id < gb.doc_id
            ),
            inter AS (
                SELECT ga.doc_id AS a, gb.doc_id AS b, count(*) AS c
                FROM grams ga JOIN grams gb USING (g)
                JOIN cand ON cand.a = ga.doc_id AND cand.b = gb.doc_id
                WHERE ga.doc_id < gb.doc_id
                GROUP BY 1, 2
            )
            SELECT i.a, i.b,
                   round(i.c * 1.0 / (sa.n + sb.n - i.c), 6) AS jaccard
            FROM inter i
            JOIN sizes sa ON sa.doc_id = i.a
            JOIN sizes sb ON sb.doc_id = i.b
            WHERE i.c * 1.0 / (sa.n + sb.n - i.c) >= 0.5
        """,
        # per-char Shannon entropy: positional char explode (the ngram
        # oracle trick), -sum((c/n)*log2(c/n)) per doc, 6dp round on
        # both sides (float64-identical at sf0.01 and sf0.1)
        "char_entropy": """
            WITH pos AS (
                SELECT doc_id, text,
                       unnest(generate_series(1, length(COALESCE(text,'')))) AS i
                FROM documents
            ),
            counts AS (
                SELECT doc_id, substr(text, i, 1) AS ch, count(*)::DOUBLE AS c,
                       length(text)::DOUBLE AS n
                FROM pos GROUP BY doc_id, ch, length(text)
            ),
            h AS (
                SELECT doc_id, -sum((c/n) * log2(c/n)) AS ent
                FROM counts GROUP BY doc_id
            )
            SELECT d.doc_id, round(COALESCE(h.ent, 0.0), 6) AS entropy
            FROM documents d LEFT JOIN h USING (doc_id)
        """,
        "repetition_stats": """
            WITH s AS (SELECT doc_id,
                              regexp_split_to_array(COALESCE(text, ''), '\\.\\s+') AS sents
                       FROM documents)
            SELECT doc_id,
                   len(sents)                                   AS n_sent,
                   len(list_distinct(sents))                    AS n_uniq_sent,
                   round((len(sents) - len(list_distinct(sents)))
                         / greatest(len(sents), 1), 6)          AS dup_ratio
            FROM s
        """,
        "pack_documents": """
            WITH t AS (SELECT doc_id,
                              CASE WHEN trim(text) = '' THEN 0
                                   ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                              END AS n_tokens
                       FROM documents),
            c AS (SELECT doc_id,
                         COALESCE(sum(n_tokens) OVER (ORDER BY doc_id
                             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS off
                  FROM t)
            SELECT doc_id,
                   CAST(off // 512 AS BIGINT) AS pack_id,
                   CAST(off AS BIGINT)        AS token_offset
            FROM c
        """,
        "split_leakage_safe": """
            WITH all_docs AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 2000, text FROM documents WHERE doc_id < 100
            ),
            n AS (
                SELECT doc_id,
                       regexp_replace(lower(trim(text)), '\\s+', ' ', 'g') AS nt
                FROM all_docs
            ),
            r AS (
                SELECT doc_id, min(doc_id) OVER (PARTITION BY nt) AS rep_id
                FROM n
            ),
            h AS (
                SELECT doc_id, rep_id,
                       ((CAST(rep_id AS HUGEINT) * 2654435761) % 4294967296
                        + 4294967296) % 4294967296 % 100 AS hb
                FROM r
            )
            SELECT doc_id, rep_id,
                   CASE WHEN hb < 90 THEN 'train'
                        WHEN hb < 95 THEN 'val'
                        ELSE 'test' END AS split
            FROM h
        """,
        "inverted_postings": """
            WITH t AS (
                SELECT doc_id,
                       regexp_split_to_array(lower(trim(text)), '\\s+') AS a
                FROM documents
                WHERE trim(COALESCE(text, '')) <> ''
            ),
            p AS (SELECT doc_id, unnest(a) AS term FROM t),
            tf AS (
                SELECT term, doc_id, count(*) AS tf
                FROM p GROUP BY term, doc_id
            ),
            d AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
            SELECT tf.term, tf.doc_id, tf.tf, d.df
            FROM tf JOIN d USING (term)
        """,
        "dedup_keep_best": """
            WITH all_docs AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + 2000, text || '  ' FROM documents
                WHERE doc_id < 50
            ),
            n AS (
                SELECT doc_id,
                       length(COALESCE(text, '')) AS score,
                       regexp_replace(lower(trim(text)), '\\s+', ' ', 'g') AS nt
                FROM all_docs
            ),
            r AS (
                SELECT doc_id, score,
                       row_number() OVER (
                           PARTITION BY nt ORDER BY score DESC, doc_id
                       ) AS rn
                FROM n
            )
            SELECT doc_id, score FROM r WHERE rn = 1
        """,
        # near_dedup_keep_best: the minhash component mapping is the one
        # non-SQL sub-stage — pinned as a VALUES literal (recomputed
        # per-sf by oracle_sql_at / pinned by pytest at sf0.01); the
        # survivor-by-score pick is plain SQL.
        "near_dedup_keep_best": f"""
            WITH comp(doc_id, component) AS (VALUES {_NEAR_DUP_COMPONENTS_SF001}),
            scored AS (
                SELECT c.component, c.doc_id,
                       length(COALESCE(d.text, '')) AS score
                FROM comp c JOIN documents d USING (doc_id)
            ),
            r AS (
                SELECT component, doc_id, score,
                       row_number() OVER (
                           PARTITION BY component ORDER BY score DESC, doc_id
                       ) AS rn,
                       count(*) OVER (PARTITION BY component) AS n_members
                FROM scored
            )
            SELECT component, doc_id, score, n_members
            FROM r WHERE rn = 1 ORDER BY component
        """,
        "event_transitions": """
            WITH t AS (
                SELECT event_type,
                       LEAD(event_type) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS nt
                FROM events
            )
            SELECT event_type AS from_type, nt AS to_type, count(*) AS n
            FROM t WHERE nt IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # embedding_decontam: double-cast lists so both sides compute
        # cosine in float64; round half-away to 6 dp BEFORE the
        # threshold compare (tfidf_topk portability rule)
        "embedding_decontam": """
            WITH b AS (
                SELECT embedding::DOUBLE[] AS be FROM embeddings
                WHERE vec_id % 20 = 0
            ),
            c AS (
                SELECT vec_id, embedding::DOUBLE[] AS ce FROM embeddings
                WHERE vec_id % 20 != 0
                UNION ALL
                SELECT vec_id + 10000, embedding::DOUBLE[] FROM embeddings
                WHERE vec_id % 20 = 0
            ),
            s AS (
                SELECT c.vec_id,
                       round(list_cosine_similarity(c.ce, b.be), 6) AS sim
                FROM c CROSS JOIN b
            )
            SELECT vec_id,
                   max(sim) AS max_sim,
                   sum(CASE WHEN sim >= 0.99 THEN 1 ELSE 0 END)::BIGINT AS n_hits,
                   bool_or(sim >= 0.99) AS contaminated
            FROM s GROUP BY vec_id ORDER BY vec_id
        """,
        "line_dedup": """
            WITH lines AS (
                SELECT doc_id // 5 AS gdoc, doc_id % 5 AS idx,
                       CASE WHEN doc_id % 5 = 0 THEN 'COOKIE BANNER'
                            WHEN doc_id % 5 = 4 THEN 'footer: subscribe now'
                            ELSE COALESCE(text, '') END AS ln,
                       regexp_replace(lower(trim(
                           CASE WHEN doc_id % 5 = 0 THEN 'COOKIE BANNER'
                                WHEN doc_id % 5 = 4 THEN 'footer: subscribe now'
                                ELSE COALESCE(text, '') END)),
                                      '\\s+', ' ', 'g') AS lnn
                FROM documents
            ),
            common AS (
                SELECT lnn FROM lines WHERE lnn != ''
                GROUP BY lnn HAVING count(*) >= 2
            ),
            kept AS (
                SELECT l.* FROM lines l
                WHERE l.lnn NOT IN (SELECT lnn FROM common)
                   OR l.lnn = ''
            )
            SELECT gdoc AS doc_id,
                   string_agg(ln, chr(10) ORDER BY idx) AS text
            FROM kept GROUP BY gdoc ORDER BY gdoc
        """,
        "user_top_event_type": """
            WITH c AS (
                SELECT user_id, event_type, count(*) AS n
                FROM events GROUP BY 1, 2
            ),
            r AS (
                SELECT user_id, event_type, n,
                       row_number() OVER (
                           PARTITION BY user_id ORDER BY n DESC, event_type
                       ) AS rn
                FROM c
            )
            SELECT user_id, event_type AS mode, n
            FROM r WHERE rn = 1 ORDER BY user_id
        """,
        "users_all_event_types": """
            SELECT user_id FROM events
            GROUP BY user_id
            HAVING count(DISTINCT event_type) =
                   (SELECT count(DISTINCT event_type) FROM events)
            ORDER BY user_id
        """,
        "token_shards": """
            WITH t AS (SELECT doc_id,
                              CASE WHEN trim(text) = '' THEN 0
                                   ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                              END AS n_tokens
                       FROM documents),
            c AS (SELECT doc_id, n_tokens,
                         COALESCE(sum(n_tokens) OVER (ORDER BY doc_id
                             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS off,
                         sum(n_tokens) OVER () AS total
                  FROM t)
            SELECT doc_id,
                   CAST(n_tokens AS BIGINT)                     AS n_tokens,
                   CAST(off AS BIGINT)                          AS token_offset,
                   CAST(least(7, (off * 8) // total) AS BIGINT) AS shard_id
            FROM c
        """,
        "ann_topk": """
            WITH q AS (SELECT vec_id AS qid, embedding AS e
                       FROM embeddings WHERE vec_id IN (0, 1, 2, 3)),
            sims AS (SELECT q.qid AS query_id, v.vec_id AS neighbor_id,
                            list_cosine_similarity(CAST(q.e AS DOUBLE[]),
                                                   CAST(v.embedding AS DOUBLE[])) AS cos
                     FROM q CROSS JOIN embeddings v
                     WHERE v.vec_id <> q.qid),
            ranked AS (SELECT query_id, neighbor_id, cos,
                              row_number() OVER (PARTITION BY query_id
                                                 ORDER BY cos DESC, neighbor_id) AS rank
                       FROM sims)
            SELECT query_id, neighbor_id, CAST(rank AS BIGINT) AS rank,
                   round(cos, 4) AS cosine
            FROM ranked WHERE rank <= 5
        """,
        "parts_never_ordered": """
            SELECT p_partkey FROM part
            WHERE p_partkey NOT IN (
                SELECT l_partkey FROM lineitem WHERE l_quantity > 45
            )
        """,
        "parts_bulk_ordered": """
            SELECT p_partkey FROM part
            WHERE p_partkey IN (
                SELECT l_partkey FROM lineitem WHERE l_quantity > 45
            )
        """,
        "asof_view_before_purchase": """
            WITH p AS (SELECT event_id AS purchase_id, user_id, ts AS purchase_ts
                       FROM events WHERE event_type = 'purchase'),
                 v AS (SELECT event_id AS view_id, user_id, ts AS view_ts
                       FROM events WHERE event_type = 'view'),
                 j AS (SELECT p.purchase_id, p.user_id, p.purchase_ts,
                              v.view_id, v.view_ts,
                              row_number() OVER (
                                  PARTITION BY p.purchase_id
                                  ORDER BY v.view_ts DESC, v.view_id DESC) AS rn
                       FROM p JOIN v ON p.user_id = v.user_id
                                    AND v.view_ts <= p.purchase_ts)
            SELECT purchase_id, user_id,
                   strftime(purchase_ts, '%Y-%m-%d %H:%M:%S.%f') AS purchase_ts,
                   view_id,
                   strftime(view_ts, '%Y-%m-%d %H:%M:%S.%f') AS view_ts
            FROM j WHERE rn = 1
        """,
        "error_click_window": """
            SELECT e.event_id AS error_id, e.user_id, count(*) AS n_clicks
            FROM events e JOIN events c
              ON c.user_id = e.user_id
             AND e.event_type = 'error' AND c.event_type = 'click'
             AND c.ts >= e.ts AND c.ts < e.ts + INTERVAL 1 HOUR
            GROUP BY 1, 2
        """,
        "top_orders_per_customer": """
            SELECT o_custkey, o_orderkey, o_totalprice FROM (
                SELECT o_custkey, o_orderkey, o_totalprice,
                       row_number() OVER (
                           PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey ASC) AS rn
                FROM orders) WHERE rn <= 2
        """,
        "latest_event_per_user": """
            SELECT user_id, event_id,
                   strftime(ts, '%Y-%m-%d %H:%M:%S.%f') AS ts, event_type
            FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY user_id ORDER BY ts DESC, event_id ASC) AS rn
                FROM events) WHERE rn = 1
        """,
        "shipping_priority": """
            SELECT l_orderkey,
                   strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM customer
            JOIN orders ON c_custkey = o_custkey
            JOIN lineitem ON l_orderkey = o_orderkey
            WHERE c_mktsegment = 'BUILDING'
            GROUP BY l_orderkey, o_orderdate
            ORDER BY revenue DESC, l_orderkey ASC
            LIMIT 10
        """,
        "order_priority_revenue": """
            SELECT o_orderpriority,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
                   count(*) AS n_items
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority
        """,
        "order_priority_revenue_dist": """
            SELECT o_orderpriority,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
                   count(*) AS n_items
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority
        """,
        "bm25_search": """
            WITH d AS (
                SELECT doc_id, lower(text) AS t,
                       CASE WHEN trim(text) = '' THEN 0
                            ELSE array_length(regexp_split_to_array(trim(lower(text)), '\\s+'))
                       END AS dl
                FROM documents),
            tf AS (
                SELECT doc_id, dl,
                       len(regexp_extract_all(t, '\\bhash\\b'))   AS tf0,
                       len(regexp_extract_all(t, '\\bjoin\\b'))   AS tf1,
                       len(regexp_extract_all(t, '\\bvector\\b')) AS tf2
                FROM d),
            st AS (
                SELECT count(*) AS n, sum(dl) / count(*) AS avgdl,
                       count(*) FILTER (tf0 > 0) AS df0,
                       count(*) FILTER (tf1 > 0) AS df1,
                       count(*) FILTER (tf2 > 0) AS df2
                FROM tf),
            sc AS (
                SELECT doc_id,
                       round(
                         ln((n - df0 + 0.5) / (df0 + 0.5) + 1) * tf0 * 2.5
                             / (tf0 + 1.5 * (1 - 0.75 + 0.75 * dl / avgdl))
                       + ln((n - df1 + 0.5) / (df1 + 0.5) + 1) * tf1 * 2.5
                             / (tf1 + 1.5 * (1 - 0.75 + 0.75 * dl / avgdl))
                       + ln((n - df2 + 0.5) / (df2 + 0.5) + 1) * tf2 * 2.5
                             / (tf2 + 1.5 * (1 - 0.75 + 0.75 * dl / avgdl)), 6) AS score
                FROM tf, st)
            SELECT doc_id, score FROM sc WHERE score > 0
            ORDER BY score DESC, doc_id ASC LIMIT 10
        """,
        "bm25_indexed_search": """
            WITH d AS (
                SELECT doc_id, lower(text) AS t,
                       CASE WHEN trim(text) = '' THEN 0
                            ELSE array_length(regexp_split_to_array(trim(lower(text)), '\\s+'))
                       END AS dl
                FROM documents),
            tf AS (
                SELECT doc_id, dl,
                       len(regexp_extract_all(t, '\\bscan\\b'))  AS tf0,
                       len(regexp_extract_all(t, '\\bmerge\\b')) AS tf1
                FROM d),
            st AS (
                SELECT count(*) AS n, sum(dl) / count(*) AS avgdl,
                       count(*) FILTER (tf0 > 0) AS df0,
                       count(*) FILTER (tf1 > 0) AS df1
                FROM tf),
            sc AS (
                SELECT doc_id,
                       round(
                         ln((n - df0 + 0.5) / (df0 + 0.5) + 1) * tf0 * 2.5
                             / (tf0 + 1.5 * (1 - 0.75 + 0.75 * dl / avgdl))
                       + ln((n - df1 + 0.5) / (df1 + 0.5) + 1) * tf1 * 2.5
                             / (tf1 + 1.5 * (1 - 0.75 + 0.75 * dl / avgdl)), 6) AS score
                FROM tf, st)
            SELECT doc_id, score FROM sc WHERE score > 0
            ORDER BY score DESC, doc_id ASC LIMIT 10
        """,
        "customer_order_counts": """
            SELECT c_custkey, count(o_orderkey) AS n_orders
            FROM customer LEFT JOIN orders ON o_custkey = c_custkey
            GROUP BY c_custkey
        """,
        "customer_order_counts_dist": """
            SELECT c_custkey, count(o_orderkey) AS n_orders
            FROM customer LEFT JOIN orders ON o_custkey = c_custkey
            GROUP BY c_custkey
        """,
        "user_funnel": """
            WITH s1 AS (
                SELECT user_id, min(ts) AS t FROM events
                WHERE event_type = 'view' GROUP BY user_id),
            s2 AS (
                SELECT e.user_id, min(e.ts) AS t FROM events e
                JOIN s1 ON e.user_id = s1.user_id
                WHERE e.event_type = 'click'
                  AND e.ts > s1.t AND e.ts <= s1.t + INTERVAL 2 HOUR
                GROUP BY e.user_id),
            s3 AS (
                SELECT e.user_id, min(e.ts) AS t FROM events e
                JOIN s2 ON e.user_id = s2.user_id
                WHERE e.event_type = 'purchase'
                  AND e.ts > s2.t AND e.ts <= s2.t + INTERVAL 2 HOUR
                GROUP BY e.user_id)
            SELECT s1.user_id,
                   CASE WHEN s3.t IS NOT NULL THEN 3
                        WHEN s2.t IS NOT NULL THEN 2
                        ELSE 1 END AS n_steps,
                   strftime(coalesce(s3.t, s2.t, s1.t),
                            '%Y-%m-%d %H:%M:%S.%f') AS last_ts
            FROM s1
            LEFT JOIN s2 ON s1.user_id = s2.user_id
            LEFT JOIN s3 ON s1.user_id = s3.user_id
        """,
        "event_gaps": """
            SELECT event_id, user_id,
                   coalesce(lag(event_type) OVER w, '') AS prev_type,
                   coalesce(date_diff('microsecond', lag(ts) OVER w, ts), -1) AS gap_us
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "revenue_rollup": """
            SELECT coalesce(l_returnflag, '(all)') AS l_returnflag,
                   coalesce(l_linestatus, '(all)') AS l_linestatus,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
                   count(*) AS n_items
            FROM lineitem
            GROUP BY ROLLUP (l_returnflag, l_linestatus)
        """,
        "revenue_cube": """
            SELECT coalesce(l_returnflag, '(all)') AS l_returnflag,
                   coalesce(l_linestatus, '(all)') AS l_linestatus,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
                   count(*) AS n_items
            FROM lineitem
            GROUP BY CUBE (l_returnflag, l_linestatus)
        """,
        "part_distinct_suppliers": """
            SELECT l_partkey, count(DISTINCT l_suppkey) AS n_suppliers
            FROM lineitem GROUP BY l_partkey
        """,
        "repeated_ngrams": """
            WITH pos AS (
                SELECT doc_id, text,
                       unnest(range(1, greatest(length(text) - 38, 1))) AS i
                FROM documents
            ),
            g AS (
                SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), 40) AS gram
                FROM pos
            )
            SELECT gram, count(*) AS n_docs, min(doc_id) AS min_doc
            FROM g GROUP BY gram HAVING count(*) >= 2
        """,
        "uniform_sample_k": """
            SELECT event_id, user_id FROM events
            ORDER BY ((CAST(event_id AS HUGEINT) * 2654435761) % 4294967296
                      + 4294967296) % 4294967296, event_id
            LIMIT 256
        """,
        "user_rolling_value": """
            SELECT event_id, user_id,
                   strftime(ts, '%Y-%m-%d %H:%M:%S.%f') AS ts,
                   round(sum(value) OVER (
                       PARTITION BY user_id ORDER BY ts
                       RANGE BETWEEN INTERVAL 24 HOURS PRECEDING
                             AND CURRENT ROW), 2) AS roll_sum
            FROM events
        """,
        "value_quantiles_by_type": """
            WITH ranked AS (
                SELECT event_type, value AS v,
                       row_number() OVER (PARTITION BY event_type ORDER BY value) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM events),
            qs AS (SELECT unnest([0.5, 0.9, 0.99]) AS q)
            SELECT event_type, q, v AS value
            FROM qs JOIN ranked ON rn = CAST(ceil(q * n) AS BIGINT)
        """,
        "price_quantiles": """
            WITH ranked AS (
                SELECT l_extendedprice AS v,
                       row_number() OVER (ORDER BY l_extendedprice) AS rn,
                       count(*) OVER () AS n
                FROM lineitem),
            qs AS (SELECT unnest([0.25, 0.5, 0.75, 0.9, 0.99]) AS q)
            SELECT q, v AS value
            FROM qs JOIN ranked ON rn = CAST(ceil(q * n) AS BIGINT)
        """,
        "heavy_parts": """
            SELECT l_partkey, count(*) AS n
            FROM lineitem
            GROUP BY l_partkey
            HAVING count(*) >= greatest(40, ceil((SELECT count(*) FROM lineitem) / 1500.0))
        """,
        "lang_id": """
            WITH c AS (
                SELECT doc_id,
                       len(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                           x -> x IN ('the','and','of','to','a','in','is','it','you','that','was','for'))) AS n_en,
                       len(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                           x -> x IN ('le','la','les','de','des','et','un','une','est','que','pour','dans'))) AS n_fr,
                       len(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                           x -> x IN ('der','die','das','und','ist','ein','eine','zu','den','von','mit','für'))) AS n_de,
                       len(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                           x -> x IN ('el','la','los','las','de','y','un','una','es','que','por','para'))) AS n_es
                FROM documents)
            -- the heuristic's strict-greater update rule == first language
            -- (in en,fr,de,es order) attaining the positive maximum
            SELECT doc_id,
                   CASE WHEN greatest(n_en, n_fr, n_de, n_es) = 0 THEN 'und'
                        WHEN n_en = greatest(n_en, n_fr, n_de, n_es) THEN 'en'
                        WHEN n_fr = greatest(n_en, n_fr, n_de, n_es) THEN 'fr'
                        WHEN n_de = greatest(n_en, n_fr, n_de, n_es) THEN 'de'
                        ELSE 'es' END AS pred_lang
            FROM c
        """,
        "domain_stats": """
            WITH planted AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 3 = 0
                            THEN COALESCE(text,'') || ' see https://site'
                                 || CAST(doc_id % 5 AS VARCHAR)
                                 || '.example/page/' || CAST(doc_id AS VARCHAR)
                            ELSE COALESCE(text,'') END AS text
                FROM documents),
            urls AS (
                SELECT doc_id,
                       lower(regexp_extract(u, 'https?://([^/\\s]+)', 1)) AS domain
                FROM (SELECT doc_id,
                             unnest(regexp_extract_all(text, 'https?://[^\\s]+')) AS u
                      FROM planted))
            SELECT domain, count(*) AS n_urls, count(DISTINCT doc_id) AS n_docs
            FROM urls GROUP BY domain
        """,
        "price_histogram": """
            WITH w AS (
                SELECT min(l_extendedprice) AS mn,
                       (max(l_extendedprice) - min(l_extendedprice)) / 20 AS w
                FROM lineitem),
            b AS (
                SELECT CAST(least(floor((l_extendedprice - mn) / w), 19) AS BIGINT) AS bin
                FROM lineitem, w WHERE l_extendedprice IS NOT NULL)
            SELECT bin,
                   round(mn + bin * w, 6)       AS lo,
                   round(mn + (bin + 1) * w, 6) AS hi,
                   count(*)                     AS n
            FROM b, w GROUP BY bin, mn, w
        """,
        "revenue_by_nation": """
            SELECT n_name,
                   round(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM lineitem
            JOIN orders   ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation   ON s_nationkey = n_nationkey
            JOIN region   ON n_regionkey = r_regionkey
            WHERE c_nationkey = s_nationkey
              AND r_name = 'ASIA'
              AND o_orderdate >= DATE '1996-01-01'
              AND o_orderdate <  DATE '1997-01-01'
            GROUP BY n_name
        """,
        "viewers_purchasers": """
            SELECT user_id FROM events WHERE event_type = 'view'
            INTERSECT
            SELECT user_id FROM events WHERE event_type = 'purchase'
        """,
        "parts_except_ordered": """
            SELECT p_partkey AS key FROM part
            EXCEPT
            SELECT l_partkey FROM lineitem WHERE l_quantity > 45
        """,
        "order_value_pct_rank": """
            SELECT o_orderkey,
                   round(PERCENT_RANK() OVER (
                       ORDER BY o_totalprice, o_orderkey), 6) AS pct_rank
            FROM orders
        """,
        "event_type_drift": """
            WITH cells AS (
                SELECT event_type AS t, event_id % 2 AS side,
                       CAST(count(*) AS DOUBLE) AS c
                FROM events GROUP BY 1, 2),
            w AS (
                SELECT t,
                       COALESCE(SUM(CASE WHEN side = 0 THEN c END), 0) AS ca,
                       COALESCE(SUM(CASE WHEN side = 1 THEN c END), 0) AS cb
                FROM cells GROUP BY t),
            tot AS (SELECT SUM(ca) AS na, SUM(cb) AS nb FROM w),
            pq AS (SELECT ca / na AS p, cb / nb AS q FROM w, tot)
            SELECT CAST((SELECT na FROM tot) AS BIGINT) AS n_a,
                   CAST((SELECT nb FROM tot) AS BIGINT) AS n_b,
                   round(SUM(CASE WHEN p > 0 AND q > 0
                                  THEN p * ln(p / q) ELSE 0 END), 6) AS kl_ab,
                   round(SUM(CASE WHEN p > 0 AND q > 0
                                  THEN q * ln(q / p) ELSE 0 END), 6) AS kl_ba,
                   round(SUM(CASE WHEN p > 0
                                  THEN 0.5 * p * ln(p / ((p + q) / 2)) ELSE 0 END)
                       + SUM(CASE WHEN q > 0
                                  THEN 0.5 * q * ln(q / ((p + q) / 2)) ELSE 0 END), 6) AS js
            FROM pq
        """,
        "qty_price_spearman": """
            WITH r AS (SELECT
                (rank() OVER (ORDER BY l_quantity)
                 + (count(*) OVER (PARTITION BY l_quantity) - 1)/2.0) AS rx,
                (rank() OVER (ORDER BY l_extendedprice)
                 + (count(*) OVER (PARTITION BY l_extendedprice) - 1)/2.0) AS ry
            FROM lineitem)
            SELECT count(*) AS n, round(corr(rx, ry), 6) AS rho FROM r
        """,
        "ab_value_ttest": """
            WITH a AS (SELECT count(value) n, avg(value) m, var_samp(value) v
                       FROM events WHERE event_type = 'purchase'),
                 b AS (SELECT count(value) n, avg(value) m, var_samp(value) v
                       FROM events WHERE event_type = 'click')
            SELECT a.n AS n_a, b.n AS n_b,
                   round(a.m, 6) AS mean_a, round(b.m, 6) AS mean_b,
                   round(a.v, 6) AS var_a, round(b.v, 6) AS var_b,
                   round((a.m - b.m) / sqrt(a.v/a.n + b.v/b.n), 6) AS t,
                   round(pow(a.v/a.n + b.v/b.n, 2) /
                         (pow(a.v/a.n, 2)/(a.n-1) + pow(b.v/b.n, 2)/(b.n-1)),
                         4) AS df
            FROM a, b
        """,
        "order_value_zscore": """
            SELECT o_orderkey, o_custkey, o_totalprice,
                   round((o_totalprice - avg(o_totalprice) OVER w)
                         / stddev_samp(o_totalprice) OVER w, 6) AS zscore
            FROM orders
            WINDOW w AS (PARTITION BY o_custkey)
            QUALIFY count(*) OVER w >= 2
               AND stddev_samp(o_totalprice) OVER w > 0
            ORDER BY o_orderkey
        """,
        "small_qty_revenue": """
            SELECT round(sum(l.l_extendedprice)/7.0, 2) AS avg_yearly
            FROM lineitem l, part p
            WHERE p.p_partkey = l.l_partkey AND p.p_brand = 'Brand#23'
              AND l.l_quantity < 0.2 * (
                  SELECT avg(l2.l_quantity) FROM lineitem l2
                  WHERE l2.l_partkey = l.l_partkey)
        """,
        "waiting_suppliers": """
            SELECT s.s_name, count(*) AS numwait
            FROM supplier s, lineitem l1, orders o
            WHERE s.s_suppkey = l1.l_suppkey
              AND o.o_orderkey = l1.l_orderkey
              AND o.o_orderstatus = 'F'
              AND l1.l_returnflag = 'R'
              AND EXISTS (SELECT 1 FROM lineitem l2
                          WHERE l2.l_orderkey = l1.l_orderkey
                            AND l2.l_suppkey <> l1.l_suppkey)
              AND NOT EXISTS (SELECT 1 FROM lineitem l3
                              WHERE l3.l_orderkey = l1.l_orderkey
                                AND l3.l_suppkey <> l1.l_suppkey
                                AND l3.l_returnflag = 'R')
            GROUP BY s.s_name
            ORDER BY numwait DESC, s.s_name
        """,
        "part_skyline": """
            SELECT p_partkey, p_size, p_retailprice FROM part p
            WHERE NOT EXISTS (
                SELECT 1 FROM part q
                WHERE q.p_retailprice <= p.p_retailprice
                  AND q.p_size >= p.p_size
                  AND (q.p_retailprice < p.p_retailprice
                       OR q.p_size > p.p_size))
            ORDER BY p_partkey
        """,
        "qty_price_regression": """
            SELECT l_returnflag, l_linestatus, count(*) AS n,
                   round(regr_slope(l_extendedprice, l_quantity), 4) AS slope,
                   round(regr_intercept(l_extendedprice, l_quantity), 2) AS intercept,
                   round(corr(l_extendedprice, l_quantity), 6) AS corr
            FROM lineitem
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "qty_price_moments": """
            SELECT count(*) AS n,
                   round(avg(l_quantity), 6) AS mean_x,
                   round(avg(l_extendedprice), 2) AS mean_y,
                   round(covar_pop(l_quantity, l_extendedprice), 2) AS covar_xy,
                   round(corr(l_quantity, l_extendedprice), 6) AS corr_xy,
                   round(regr_slope(l_extendedprice, l_quantity), 4) AS slope_yx
            FROM lineitem
            WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL
        """,
        "winsorized_price": """
            WITH ranked AS (
                SELECT l_extendedprice AS v,
                       row_number() OVER (ORDER BY l_extendedprice) AS rn,
                       count(*) OVER () AS n
                FROM lineitem WHERE l_extendedprice IS NOT NULL),
            b AS (
                SELECT (SELECT v FROM ranked WHERE rn = CAST(ceil(0.05 * n) AS BIGINT)) AS lo,
                       (SELECT v FROM ranked WHERE rn = CAST(ceil(0.95 * n) AS BIGINT)) AS hi)
            SELECT round(lo, 2) AS lo, round(hi, 2) AS hi,
                   round(CAST(SUM(CAST(round((CASE WHEN v < lo THEN lo
                                  WHEN v > hi THEN hi ELSE v END) * 100.0)
                              AS BIGINT)) AS DOUBLE) / 100.0, 2)
                     AS sum_winsorized,
                   COUNT(CASE WHEN v < lo THEN 1 END) AS n_clipped_lo,
                   COUNT(CASE WHEN v > hi THEN 1 END) AS n_clipped_hi
            FROM ranked, b GROUP BY lo, hi
        """,
        "flag_status_dependence": """
            WITH cells AS (
                SELECT l_returnflag AS x, l_linestatus AS y,
                       CAST(count(*) AS DOUBLE) AS c
                FROM lineitem
                WHERE l_returnflag IS NOT NULL AND l_linestatus IS NOT NULL
                GROUP BY 1, 2),
            m AS (
                SELECT x, y, c,
                       SUM(c) OVER ()            AS n,
                       SUM(c) OVER (PARTITION BY x) AS rx,
                       SUM(c) OVER (PARTITION BY y) AS cy
                FROM cells)
            SELECT CAST(max(n) AS BIGINT) AS n,
                   CAST((count(DISTINCT x) - 1) * (count(DISTINCT y) - 1) AS BIGINT) AS dof,
                   round(SUM((c / n) * ln((c * n) / (rx * cy))), 6) AS mi,
                   round(SUM((c * c * n) / (rx * cy)) - max(n), 4) AS chi2
            FROM m
        """,
        "pmi_collocations": """
            WITH toks AS (
                SELECT DISTINCT doc_id, t AS term
                FROM (SELECT doc_id,
                             unnest(regexp_extract_all(lower(COALESCE(text,'')), '[a-z]+')) AS t
                      FROM documents)),
            df AS (SELECT term, count(*) AS df FROM toks GROUP BY term),
            n AS (SELECT count(*) AS n FROM documents),
            pairs AS (
                SELECT a.term AS term_a, b.term AS term_b, count(*) AS n_ab
                FROM toks a JOIN toks b
                  ON a.doc_id = b.doc_id AND a.term < b.term
                GROUP BY 1, 2 HAVING count(*) >= 5),
            s AS (
                SELECT term_a, term_b, n_ab,
                       round(ln((CAST(n AS DOUBLE) * n_ab) / (da.df * db.df)), 6) AS pmi
                FROM pairs
                JOIN df da ON da.term = term_a
                JOIN df db ON db.term = term_b, n)
            SELECT term_a, term_b, n_ab, pmi FROM s
            ORDER BY pmi DESC, term_a, term_b LIMIT 20
        """,
        "user_value_ewma": """
            WITH e AS (
                SELECT user_id, value,
                       row_number() OVER (
                           PARTITION BY user_id ORDER BY ts, event_id) AS rn
                FROM events),
            m AS (SELECT user_id, max(rn) AS mx, count(*) AS n_events
                  FROM e GROUP BY user_id),
            s AS (
                SELECT e.user_id,
                       SUM(e.value * power(0.5, m.mx - e.rn))
                       / SUM(power(0.5, m.mx - e.rn)) AS ew
                FROM e JOIN m USING (user_id) GROUP BY e.user_id)
            SELECT s.user_id, m.n_events, round(s.ew, 6) AS ewma_last
            FROM s JOIN m USING (user_id)
        """,
        "part_name_links": """
            WITH p AS (
                SELECT min(p_partkey) AS id, p_name AS name
                FROM part GROUP BY p_name)
            SELECT a.id AS a, b.id AS b,
                   round(jaccard(a.name, b.name), 6) AS sim
            FROM p a JOIN p b
              ON substr(a.name, 1, 1) = substr(b.name, 1, 1) AND a.id < b.id
            WHERE jaccard(a.name, b.name) >= 0.7
        """,
        "order_value_ntile": """
            WITH t AS (
                SELECT o_totalprice,
                       NTILE(8) OVER (ORDER BY o_totalprice, o_orderkey) AS tile
                FROM orders)
            SELECT tile, count(*) AS n,
                   round(min(o_totalprice), 2) AS lo,
                   round(max(o_totalprice), 2) AS hi
            FROM t GROUP BY tile
        """,
        "tfidf_keywords": """
            WITH tf AS (
                SELECT doc_id, t AS term, count(*) AS tf
                FROM (SELECT doc_id,
                             unnest(regexp_extract_all(lower(COALESCE(text,'')), '[a-z]+')) AS t
                      FROM documents)
                GROUP BY doc_id, t),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            n AS (SELECT count(*) AS n FROM documents),
            s AS (
                SELECT doc_id, term, tf,
                       round(tf * ln(CAST(n AS DOUBLE) / df), 6) AS tfidf
                FROM tf JOIN df USING (term), n),
            r AS (
                SELECT *, row_number() OVER (
                    PARTITION BY doc_id ORDER BY tfidf DESC, term) AS rk
                FROM s)
            SELECT doc_id, term, tf, tfidf FROM r WHERE rk <= 5
        """,
        "basket_rules": """
            WITH d AS (SELECT DISTINCT l_orderkey AS b, l_partkey AS i
                       FROM lineitem),
            n AS (SELECT count(DISTINCT b) AS nb FROM d),
            s AS (SELECT i, count(*) AS n_item FROM d GROUP BY i),
            p AS (
                SELECT a.i AS ia, c.i AS ib, count(*) AS n_both
                FROM d a JOIN d c ON a.b = c.b AND a.i < c.i
                GROUP BY 1, 2 HAVING count(*) >= 2),
            r AS (
                SELECT ia AS antecedent, ib AS consequent, n_both FROM p
                UNION ALL
                SELECT ib, ia, n_both FROM p)
            SELECT r.antecedent, r.consequent, r.n_both,
                   sa.n_item AS n_ant, sc.n_item AS n_cons,
                   round(r.n_both / CAST(n.nb AS DOUBLE), 6) AS support,
                   round(r.n_both / CAST(sa.n_item AS DOUBLE), 6)
                       AS confidence,
                   round(r.n_both * CAST(n.nb AS DOUBLE)
                         / (sa.n_item * sc.n_item), 6) AS lift
            FROM r
            JOIN s sa ON sa.i = r.antecedent
            JOIN s sc ON sc.i = r.consequent, n
            ORDER BY r.antecedent, r.consequent
        """,
        "value_twa": """
            WITH o AS (
                SELECT user_id, value, ts, lead(ts) OVER (
                    PARTITION BY user_id ORDER BY ts) AS nts
                FROM events
            )
            SELECT user_id,
                   round(sum(value * epoch(nts - ts))
                         / sum(epoch(nts - ts)), 6) AS twa,
                   count(*) AS n_segments,
                   round(sum(epoch(nts - ts)), 6) AS span_seconds
            FROM o WHERE nts IS NOT NULL
            GROUP BY user_id ORDER BY user_id
        """,
        "value_ffill": """
            SELECT event_id, user_id,
                   last_value(CASE WHEN event_id % 7 = 0 THEN NULL
                                   ELSE value END IGNORE NULLS) OVER (
                       PARTITION BY user_id ORDER BY ts
                       ROWS UNBOUNDED PRECEDING) AS value_filled
            FROM events ORDER BY event_id
        """,
        "retrieval_eval": """
            WITH t(term) AS (VALUES ('hash'), ('join'), ('vector')),
            tf AS (
                SELECT t.term, d.doc_id, d.lang,
                       len(list_filter(string_split(d.text, ' '),
                                       x -> x = t.term)) AS tf
                FROM documents d CROSS JOIN t
            ),
            ranked AS (
                SELECT term, doc_id, row_number() OVER (
                    PARTITION BY term ORDER BY tf DESC, doc_id) AS rnk
                FROM tf WHERE tf > 0
            ),
            top AS (SELECT * FROM ranked WHERE rnk <= 10),
            rel AS (
                SELECT term, doc_id FROM tf
                WHERE tf > 0 AND lang = 'en'
            ),
            nrel AS (SELECT term, count(*) AS n_rel FROM rel GROUP BY 1),
            hits AS (
                SELECT top.term, top.rnk
                FROM top JOIN rel USING (term, doc_id)
            ),
            ten AS (SELECT unnest(range(1, 11)) AS i),
            cum AS (
                SELECT a.i, sum(1.0 / log2(b.i + 1)) AS idcg
                FROM ten a JOIN ten b ON b.i <= a.i GROUP BY a.i
            ),
            agg AS (
                SELECT term, sum(1.0 / log2(rnk + 1)) AS dcg,
                       min(rnk) AS first_rel, count(*) AS n_hit
                FROM hits GROUP BY 1
            )
            SELECT t.term, coalesce(n.n_rel, 0) AS n_rel,
                   CASE WHEN coalesce(n.n_rel, 0) = 0 THEN NULL
                        ELSE coalesce(round(a.dcg / c.idcg, 6), 0.0)
                   END AS ndcg,
                   CASE WHEN coalesce(n.n_rel, 0) = 0 THEN NULL
                        ELSE coalesce(round(1.0 / a.first_rel, 6), 0.0)
                   END AS mrr,
                   CASE WHEN coalesce(n.n_rel, 0) = 0 THEN NULL
                        ELSE coalesce(round(
                            CAST(a.n_hit AS DOUBLE) / n.n_rel, 6), 0.0)
                   END AS recall
            FROM t
            LEFT JOIN nrel n USING (term)
            LEFT JOIN agg a USING (term)
            LEFT JOIN cum c ON c.i = least(n.n_rel, 10)
            ORDER BY t.term
        """,
        "user_active_periods": """
            WITH s AS (
                SELECT user_id, ts AS st,
                       ts + INTERVAL 30 MINUTE AS en
                FROM events
            ),
            o AS (
                SELECT *, max(en) OVER (
                    PARTITION BY user_id ORDER BY st, en
                    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                ) AS prev_max FROM s
            ),
            g AS (
                SELECT *, sum(CASE WHEN prev_max IS NULL OR st > prev_max
                                   THEN 1 ELSE 0 END) OVER (
                    PARTITION BY user_id ORDER BY st, en) AS grp
                FROM o
            )
            SELECT user_id, min(st) AS start, max(en) AS "end",
                   count(*) AS n_merged
            FROM g GROUP BY user_id, grp
            ORDER BY user_id, start
        """,
        "events_hourly_filled": """
            WITH b AS (
                SELECT min(date_trunc('hour', ts)) AS mn,
                       max(date_trunc('hour', ts)) AS mx
                FROM events
            ),
            hours AS (
                SELECT unnest(generate_series(
                    (SELECT mn FROM b), (SELECT mx FROM b),
                    INTERVAL 1 HOUR)) AS h
            ),
            types AS (SELECT DISTINCT event_type FROM events),
            cnt AS (
                SELECT date_trunc('hour', ts) AS h, event_type,
                       count(*) AS n
                FROM events GROUP BY 1, 2
            )
            SELECT strftime(hours.h, '%Y-%m-%d %H:00:00') AS period,
                   types.event_type,
                   coalesce(cnt.n, 0) AS n
            FROM hours CROSS JOIN types
            LEFT JOIN cnt ON cnt.h = hours.h
                         AND cnt.event_type = types.event_type
            ORDER BY period, types.event_type
        """,
        "negative_samples": """
            WITH r AS (
                SELECT doc_id, lang, row_number() OVER (
                           ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
                       ) - 1 AS p,
                       count(*) OVER () AS n
                FROM documents
            ),
            pairs AS (
                SELECT a.doc_id, b.doc_id AS neg_id,
                       ((b.p - a.p + a.n) % a.n) AS d
                FROM r a JOIN r b
                  ON ((b.p - a.p + a.n) % a.n) BETWEEN 1 AND 8
                 AND b.lang <> a.lang
            ),
            ranked AS (
                SELECT doc_id, neg_id, row_number() OVER (
                           PARTITION BY doc_id ORDER BY d) AS neg_rank
                FROM pairs
            )
            SELECT doc_id, neg_rank, neg_id FROM ranked
            WHERE neg_rank <= 2 ORDER BY doc_id, neg_rank
        """,
        "zorder_layout": """
            WITH q AS (
                SELECT event_id, user_id % 1024 AS uid,
                       (epoch_us(ts) // 3600000000) % 1024 AS hr
                FROM events
            ),
            z AS (SELECT event_id, uid, hr,
                         (((uid >> 0) & 1) << 0) + (((hr >> 0) & 1) << 1) + (((uid >> 1) & 1) << 2) + (((hr >> 1) & 1) << 3) + (((uid >> 2) & 1) << 4) + (((hr >> 2) & 1) << 5) + (((uid >> 3) & 1) << 6) + (((hr >> 3) & 1) << 7) + (((uid >> 4) & 1) << 8) + (((hr >> 4) & 1) << 9) + (((uid >> 5) & 1) << 10) + (((hr >> 5) & 1) << 11) + (((uid >> 6) & 1) << 12) + (((hr >> 6) & 1) << 13) + (((uid >> 7) & 1) << 14) + (((hr >> 7) & 1) << 15) + (((uid >> 8) & 1) << 16) + (((hr >> 8) & 1) << 17) + (((uid >> 9) & 1) << 18) + (((hr >> 9) & 1) << 19) AS zkey
                  FROM q),
            r AS (SELECT uid, hr, row_number() OVER (
                      ORDER BY zkey, event_id) - 1 AS rn FROM z)
            SELECT rn // 500 AS part, count(*) AS n_rows,
                   min(uid) AS min_uid, max(uid) AS max_uid,
                   min(hr) AS min_hr, max(hr) AS max_hr
            FROM r GROUP BY 1 ORDER BY 1
        """,
        "value_acf": """
            SELECT user_id, 1 AS lag, count(*) AS n_pairs,
                   round(corr(v, pv), 6) AS acf
            FROM (SELECT user_id, value AS v, lag(value, 1) OVER (
                      PARTITION BY user_id ORDER BY ts) AS pv FROM events)
            WHERE pv IS NOT NULL GROUP BY user_id
            UNION ALL
            SELECT user_id, 2 AS lag, count(*) AS n_pairs,
                   round(corr(v, pv), 6) AS acf
            FROM (SELECT user_id, value AS v, lag(value, 2) OVER (
                      PARTITION BY user_id ORDER BY ts) AS pv FROM events)
            WHERE pv IS NOT NULL GROUP BY user_id
            UNION ALL
            SELECT user_id, 3 AS lag, count(*) AS n_pairs,
                   round(corr(v, pv), 6) AS acf
            FROM (SELECT user_id, value AS v, lag(value, 3) OVER (
                      PARTITION BY user_id ORDER BY ts) AS pv FROM events)
            WHERE pv IS NOT NULL GROUP BY user_id
            ORDER BY user_id, lag
        """,
        "doc_repetition": """
            WITH toks AS (
                SELECT doc_id, string_split(text, ' ') AS arr,
                       length(replace(text, ' ', '')) AS total_chars
                FROM documents
            ),
            g2 AS (
                SELECT doc_id,
                       unnest(range(1, greatest(len(arr)-1, 0)+1)) AS i, arr
                FROM toks
            ),
            grams2 AS (
                SELECT doc_id, array_to_string(arr[i:i+1], ' ') AS gr FROM g2
            ),
            cnt2 AS (
                SELECT doc_id, gr, count(*) AS c FROM grams2 GROUP BY 1, 2
            ),
            top2 AS (
                SELECT doc_id, gr, c FROM (
                    SELECT doc_id, gr, c, row_number() OVER (
                        PARTITION BY doc_id ORDER BY c DESC, gr) AS rn
                    FROM cnt2) WHERE rn = 1
            ),
            g5 AS (
                SELECT doc_id,
                       unnest(range(1, greatest(len(arr)-4, 0)+1)) AS i, arr
                FROM toks
            ),
            grams5 AS (
                SELECT doc_id, i, array_to_string(arr[i:i+4], ' ') AS gr
                FROM g5
            ),
            dup AS (
                SELECT doc_id, i FROM (
                    SELECT doc_id, i, count(*) OVER (
                        PARTITION BY doc_id, gr) AS c
                    FROM grams5) WHERE c >= 2
            ),
            cov AS (
                SELECT DISTINCT doc_id, unnest(range(i, i+5)) AS p FROM dup
            ),
            covc AS (
                SELECT c.doc_id, cast(sum(length(t.arr[c.p])) AS bigint) AS dc
                FROM cov c JOIN toks t USING (doc_id) GROUP BY 1
            )
            SELECT t.doc_id, len(t.arr) AS n_tokens,
                   coalesce(p.gr, '') AS top_gram,
                   coalesce(p.c, 0) AS top_count,
                   coalesce(p.c * length(replace(p.gr, ' ', '')), 0)
                     AS top_chars,
                   coalesce(cc.dc, 0) AS dup_chars, t.total_chars
            FROM toks t
            LEFT JOIN top2 p USING (doc_id)
            LEFT JOIN covc cc USING (doc_id)
            ORDER BY t.doc_id
        """,
        "dup_ngram_audit": """
            WITH toks AS (
                SELECT doc_id, string_split(text, ' ') AS arr,
                       length(replace(text, ' ', '')) AS total_chars
                FROM documents
            ),
            g AS (
                SELECT doc_id,
                       unnest(range(1, greatest(len(arr)-4, 0)+1)) AS i, arr
                FROM toks
            ),
            grams AS (
                SELECT doc_id, i, array_to_string(arr[i:i+4], ' ') AS gr
                FROM g
            ),
            dup AS (
                SELECT doc_id, i FROM (
                    SELECT doc_id, i, count(*) OVER (PARTITION BY gr) AS c
                    FROM grams) WHERE c >= 2
            ),
            hits AS (
                SELECT doc_id, count(*) AS dup_hits FROM dup GROUP BY 1
            ),
            cov AS (
                SELECT DISTINCT doc_id, unnest(range(i, i+5)) AS p FROM dup
            ),
            covagg AS (
                SELECT c.doc_id, count(*) AS covered_tokens,
                       cast(sum(length(t.arr[c.p])) AS bigint) AS dup_chars
                FROM cov c JOIN toks t USING (doc_id) GROUP BY 1
            )
            SELECT t.doc_id, len(t.arr) AS n_tokens, t.total_chars,
                   coalesce(h.dup_hits, 0) AS dup_hits,
                   coalesce(ca.covered_tokens, 0) AS covered_tokens,
                   coalesce(ca.dup_chars, 0) AS dup_chars
            FROM toks t
            LEFT JOIN hits h USING (doc_id)
            LEFT JOIN covagg ca USING (doc_id)
            ORDER BY t.doc_id
        """,
        "html_extract": """
            SELECT doc_id,
                   'Doc ' || doc_id || chr(10) || text || chr(10)
                     || 'ref 0'
                     || CASE WHEN doc_id % 3 >= 1 THEN ' ref 1'
                             ELSE '' END
                     || CASE WHEN doc_id % 3 >= 2 THEN ' ref 2'
                             ELSE '' END AS text,
                   1 + doc_id % 3 AS n_links,
                   CAST(2 AS BIGINT) AS n_paragraphs,
                   CAST(3 AS BIGINT) AS n_blocks
            FROM documents ORDER BY doc_id
        """,
        "value_ks_test": """
            WITH x AS (
                SELECT value, event_type FROM events
                WHERE event_type IN ('view', 'purchase')
                  AND value IS NOT NULL),
            n AS (SELECT
                      count(*) FILTER (WHERE event_type = 'view') AS n1,
                      count(*) FILTER (WHERE event_type = 'purchase') AS n2
                  FROM x),
            d AS (SELECT value,
                      count(*) FILTER (WHERE event_type = 'view') AS c1,
                      count(*) FILTER (WHERE event_type = 'purchase') AS c2
                  FROM x GROUP BY value),
            c AS (SELECT sum(c1) OVER (ORDER BY value) AS s1,
                         sum(c2) OVER (ORDER BY value) AS s2
                  FROM d)
            SELECT round(max(abs(s1 / CAST(n.n1 AS DOUBLE)
                               - s2 / CAST(n.n2 AS DOUBLE))), 6) AS ks_d,
                   n.n1 AS n1, n.n2 AS n2
            FROM c, n GROUP BY n.n1, n.n2
        """,
        "user_state_intervals": """
            WITH e AS (
                SELECT user_id, event_type, ts, event_id,
                       CASE WHEN lag(event_type) OVER w
                                 IS DISTINCT FROM event_type
                            THEN 1 ELSE 0 END AS chg
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            r AS (
                SELECT *, sum(chg) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id
                    ROWS UNBOUNDED PRECEDING) AS run
                FROM e),
            g AS (
                SELECT user_id, event_type, run, min(ts) AS valid_from,
                       count(*) AS n_rows
                FROM r GROUP BY 1, 2, 3)
            SELECT user_id, event_type, valid_from,
                   lead(valid_from) OVER (
                       PARTITION BY user_id ORDER BY run) AS valid_to,
                   n_rows
            FROM g ORDER BY user_id, valid_from, event_type
        """,
        "rolling_active_users": """
            WITH offs AS (SELECT unnest([0, 1, 2]) AS off),
            d AS (
                SELECT DISTINCT
                       date_trunc('hour', ts) + off * INTERVAL 1 HOUR
                           AS win_end,
                       user_id
                FROM events, offs)
            SELECT win_end, count(*) AS n_active
            FROM d GROUP BY 1 ORDER BY 1
        """,
        "audience_overlap": """
            WITH d AS (SELECT DISTINCT user_id, event_type FROM events),
            s AS (SELECT event_type, count(*) AS n FROM d GROUP BY event_type),
            p AS (
                SELECT a.event_type AS cat_a, b.event_type AS cat_b,
                       count(*) AS n_both
                FROM d a JOIN d b
                  ON a.user_id = b.user_id AND a.event_type < b.event_type
                GROUP BY 1, 2)
            SELECT p.cat_a, p.cat_b,
                   sa.n AS n_a, sb.n AS n_b, p.n_both,
                   round(p.n_both / CAST(sa.n + sb.n - p.n_both AS DOUBLE), 6)
                       AS jaccard
            FROM p JOIN s sa ON sa.event_type = p.cat_a
                 JOIN s sb ON sb.event_type = p.cat_b
            ORDER BY p.cat_a, p.cat_b
        """,
        "value_mad_outliers": """
            WITH r AS (
                SELECT event_id, event_type, value,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY value) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM events WHERE value IS NOT NULL),
            med AS (SELECT event_type, value AS med FROM r
                    WHERE rn = CAST(ceil(0.5 * n) AS BIGINT)),
            d AS (SELECT r.event_id, r.event_type, r.value, med.med,
                         abs(r.value - med.med) AS dev
                  FROM r JOIN med USING (event_type)),
            r2 AS (SELECT *,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY dev) AS rn2,
                       count(*) OVER (PARTITION BY event_type) AS n2
                   FROM d),
            mad AS (SELECT event_type, dev AS mad FROM r2
                    WHERE rn2 = CAST(ceil(0.5 * n2) AS BIGINT))
            SELECT d.event_id, d.event_type, d.value,
                   round(d.med, 6) AS med, round(mad.mad, 6) AS mad
            FROM d JOIN mad USING (event_type)
            WHERE abs(d.value - d.med) > 2.5 * 1.4826 * mad.mad
            ORDER BY d.event_id
        """,
        "signup_to_purchase": """
            WITH s AS (
                SELECT user_id, min(ts) AS from_ts FROM events
                WHERE event_type = 'signup' GROUP BY user_id),
            p AS (
                SELECT s.user_id, min(e.ts) AS to_ts
                FROM s JOIN events e
                  ON e.user_id = s.user_id
                 AND e.event_type = 'purchase'
                 AND e.ts >= s.from_ts
                GROUP BY s.user_id)
            SELECT s.user_id,
                   strftime(s.from_ts, '%Y-%m-%d %H:%M:%S.%f') AS from_ts,
                   strftime(p.to_ts, '%Y-%m-%d %H:%M:%S.%f') AS to_ts,
                   floor(epoch(p.to_ts - s.from_ts) / 3600)
                       AS hours_to_convert
            FROM s LEFT JOIN p ON p.user_id = s.user_id
            ORDER BY s.user_id
        """,
        "embedding_audit": """
            WITH p AS (
                SELECT vec_id,
                       list_transform(
                           embedding,
                           x -> CAST(x AS DOUBLE) * (1 + vec_id % 5)
                       ) AS v
                FROM embeddings),
            norms AS (
                SELECT vec_id, len(v) AS d,
                       sqrt(list_sum(list_transform(v, x -> x * x))) AS nrm
                FROM p)
            SELECT count(*) AS n_rows,
                   CAST(0 AS BIGINT) AS n_bad_dim,
                   CAST(0 AS BIGINT) AS n_nonfinite,
                   round(min(nrm), 6) AS min_norm,
                   round(max(nrm), 6) AS max_norm,
                   round(sum(nrm) / count(*), 6) AS mean_norm
            FROM norms
        """,
        "snapshot_diff": """
            WITH old AS (SELECT o_orderkey AS k, o_totalprice AS v FROM orders),
            new1 AS (
                SELECT o_orderkey AS k,
                       CASE WHEN o_orderkey % 7 = 0 THEN o_totalprice + 10
                            ELSE o_totalprice END AS v
                FROM orders WHERE o_orderkey % 13 <> 0),
            new2 AS (
                SELECT o_orderkey + 10000000 AS k, o_totalprice AS v
                FROM orders WHERE o_orderkey % 11 = 0),
            nw AS (SELECT * FROM new1 UNION ALL SELECT * FROM new2),
            d AS (
                SELECT CASE WHEN old.k IS NULL THEN 'added'
                            WHEN nw.k IS NULL THEN 'removed'
                            WHEN old.v <> nw.v THEN 'changed'
                            ELSE 'unchanged' END AS status
                FROM old FULL OUTER JOIN nw ON old.k = nw.k)
            SELECT status, count(*) AS n FROM d
            GROUP BY status ORDER BY status
        """,
        "psi_drift": """
            WITH b AS (SELECT value FROM events
                       WHERE ts < TIMESTAMP '2024-01-16'
                         AND value IS NOT NULL),
            c AS (SELECT value FROM events
                  WHERE ts >= TIMESTAMP '2024-01-16'
                    AND value IS NOT NULL),
            ranked AS (SELECT value AS v,
                              row_number() OVER (ORDER BY value) AS rn,
                              count(*) OVER () AS n
                       FROM b),
            qs AS (SELECT unnest([0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9]) AS q),
            cuts AS (SELECT v FROM qs
                     JOIN ranked ON rn = CAST(ceil(q * n) AS BIGINT)),
            bins AS (SELECT unnest(generate_series(0, 9)) AS bin),
            bb AS (SELECT (SELECT count(*) FROM cuts WHERE cuts.v < b.value)
                       AS bin FROM b),
            cc AS (SELECT (SELECT count(*) FROM cuts WHERE cuts.v < c.value)
                       AS bin FROM c),
            nb AS (SELECT bin, count(*) AS n FROM bb GROUP BY bin),
            nc AS (SELECT bin, count(*) AS n FROM cc GROUP BY bin),
            tot AS (SELECT (SELECT count(*) FROM b) AS tb,
                           (SELECT count(*) FROM c) AS tc)
            SELECT bins.bin,
                   COALESCE(nb.n, 0) AS n_base,
                   COALESCE(nc.n, 0) AS n_cur,
                   CASE WHEN COALESCE(nb.n, 0) = 0 OR COALESCE(nc.n, 0) = 0
                        THEN NULL
                        ELSE round(
                            (nb.n / CAST(tb AS DOUBLE)
                             - nc.n / CAST(tc AS DOUBLE))
                            * ln((nb.n / CAST(tb AS DOUBLE))
                                 / (nc.n / CAST(tc AS DOUBLE))), 6)
                   END AS psi_term
            FROM bins
            LEFT JOIN nb ON nb.bin = bins.bin
            LEFT JOIN nc ON nc.bin = bins.bin
            CROSS JOIN tot
            ORDER BY bins.bin
        """,
        "dq_audit": """
            WITH r AS (
                SELECT 'events_type_accepted' AS "check",
                       (SELECT count(*) FROM events) AS n_rows,
                       (SELECT count(*) FROM events WHERE event_type NOT IN
                            ('click','view','purchase','signup')) AS n_violations
                UNION ALL
                SELECT 'lineitem_discount_range',
                       (SELECT count(*) FROM lineitem),
                       (SELECT count(*) FROM lineitem
                        WHERE NOT (l_discount BETWEEN 0.0 AND 0.08)
                           OR l_discount IS NULL)
                UNION ALL
                SELECT 'lineitem_orderkey_fk',
                       (SELECT count(*) FROM lineitem),
                       (SELECT count(*) FROM lineitem
                        WHERE l_orderkey NOT IN (SELECT o_orderkey FROM orders))
                UNION ALL
                SELECT 'lineitem_quantity_range',
                       (SELECT count(*) FROM lineitem),
                       (SELECT count(*) FROM lineitem
                        WHERE NOT (l_quantity BETWEEN 1 AND 50)
                           OR l_quantity IS NULL)
                UNION ALL
                SELECT 'orders_custkey_fk',
                       (SELECT count(*) FROM orders),
                       (SELECT count(*) FROM orders
                        WHERE o_custkey NOT IN (SELECT c_custkey FROM customer))
                UNION ALL
                SELECT 'orders_custkey_not_null',
                       (SELECT count(*) FROM orders),
                       (SELECT count(*) FROM orders WHERE o_custkey IS NULL)
                UNION ALL
                SELECT 'orders_orderkey_unique',
                       (SELECT count(*) FROM orders),
                       (SELECT count(*) FROM orders)
                       - (SELECT count(DISTINCT o_orderkey) FROM orders)
                UNION ALL
                SELECT 'orders_totalprice_positive',
                       (SELECT count(*) FROM orders),
                       (SELECT count(*) FROM orders
                        WHERE NOT (o_totalprice >= 0.0)
                           OR o_totalprice IS NULL))
            SELECT "check", n_rows, n_violations,
                   n_violations = 0 AS passed
            FROM r ORDER BY "check"
        """,
        "debounce_events": """
            WITH w AS (
                SELECT user_id, event_id, ts, event_type,
                       lag(ts) OVER (PARTITION BY user_id, event_type
                                     ORDER BY ts, event_id) AS prev
                FROM events)
            SELECT user_id, event_id,
                   strftime(ts, '%Y-%m-%d %H:%M:%S.%f') AS ts, event_type
            FROM w
            WHERE prev IS NULL OR ts - prev > INTERVAL 600 SECOND
            ORDER BY event_id
        """,
        "min_cost_supplier": """
            WITH w AS (
                SELECT l_partkey, l_suppkey, l_extendedprice,
                       row_number() OVER (PARTITION BY l_partkey
                           ORDER BY l_extendedprice ASC, l_suppkey ASC) AS rn
                FROM lineitem),
            m AS (SELECT l_partkey, l_suppkey,
                         l_extendedprice AS min_price FROM w WHERE rn = 1)
            SELECT CAST(m.l_partkey AS BIGINT) AS p_partkey, p.p_name,
                   s.s_name, n.n_name, m.min_price
            FROM m
            JOIN supplier s ON s.s_suppkey = m.l_suppkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            JOIN part p ON p.p_partkey = m.l_partkey
            WHERE r.r_name = 'EUROPE'
            ORDER BY p_partkey
        """,
        "events_ohlc": """
            WITH b AS (
                SELECT date_trunc('hour', ts) AS hour, ts, event_id, value
                FROM events),
            w AS (
                SELECT *,
                    row_number() OVER (PARTITION BY hour
                        ORDER BY ts ASC, event_id ASC) AS rn_a,
                    row_number() OVER (PARTITION BY hour
                        ORDER BY ts DESC, event_id DESC) AS rn_d
                FROM b)
            SELECT strftime(hour, '%Y-%m-%d %H:%M:%S') AS hour,
                   max(CASE WHEN rn_a = 1 THEN value END) AS open,
                   max(value) AS high, min(value) AS low,
                   max(CASE WHEN rn_d = 1 THEN value END) AS close,
                   count(*) AS n_events
            FROM w GROUP BY hour ORDER BY hour
        """,
        "events_cdc_merge": """
            WITH base AS (
                SELECT user_id, event_id, ts, event_type, value,
                       FALSE AS is_delete, 0 AS side
                FROM (
                    SELECT *, row_number() OVER (
                        PARTITION BY user_id ORDER BY ts DESC, event_id ASC
                    ) AS rn
                    FROM events WHERE ts < TIMESTAMP '2024-01-16')
                WHERE rn = 1),
            ch AS (
                SELECT user_id, event_id, ts, event_type, value,
                       event_type = 'error' AS is_delete, 1 AS side
                FROM events WHERE ts >= TIMESTAMP '2024-01-16'),
            u AS (SELECT * FROM base UNION ALL SELECT * FROM ch),
            w AS (SELECT *, row_number() OVER (
                      PARTITION BY user_id
                      ORDER BY side DESC, ts DESC, event_id ASC) AS rn
                  FROM u)
            SELECT user_id, event_id,
                   strftime(ts, '%Y-%m-%d %H:%M:%S.%f') AS ts,
                   event_type, value
            FROM w WHERE rn = 1 AND NOT (side = 1 AND is_delete)
            ORDER BY user_id
        """,
        "link_prediction": """
            WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
                        WHERE l_orderkey % 3 = 0),
            e0 AS (
                SELECT DISTINCT a.l_partkey AS a, b.l_partkey AS b
                FROM li a JOIN li b
                  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
            deg AS (
                SELECT node, COUNT(*) AS deg FROM (
                    SELECT a AS node FROM e0
                    UNION ALL SELECT b FROM e0) GROUP BY node),
            adj AS (SELECT a AS c, b AS n FROM e0
                    UNION ALL SELECT b AS c, a AS n FROM e0),
            af AS (SELECT adj.c, adj.n FROM adj
                   JOIN deg ON deg.node = adj.c WHERE deg.deg <= 30),
            w AS (SELECT x.n AS u, y.n AS v
                  FROM af x JOIN af y ON x.c = y.c AND x.n < y.n),
            cnt AS (SELECT u, v, COUNT(*) AS common FROM w GROUP BY u, v)
            SELECT CAST(cnt.u AS BIGINT) AS u, CAST(cnt.v AS BIGINT) AS v,
                   CAST(cnt.common AS BIGINT) AS common
            FROM cnt LEFT JOIN e0 ON e0.a = cnt.u AND e0.b = cnt.v
            WHERE e0.a IS NULL AND cnt.common >= 2
            ORDER BY u, v
        """,
        "graph_bfs": """
            WITH RECURSIVE li AS (
                SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
                WHERE l_orderkey % 3 = 0),
            e0 AS (
                SELECT DISTINCT a.l_partkey AS a, b.l_partkey AS b
                FROM li a JOIN li b
                  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
            e AS (SELECT a, b FROM e0 UNION ALL SELECT b, a FROM e0),
            walk(node, dist) AS (
                SELECT (SELECT MIN(a) FROM e), 0
                UNION
                SELECT e.b, w.dist + 1
                FROM walk w JOIN e ON e.a = w.node
                WHERE w.dist < 4)
            SELECT CAST(node AS BIGINT) AS node,
                   CAST(MIN(dist) AS BIGINT) AS dist
            FROM walk GROUP BY node ORDER BY node
        """,
        "triangle_count": """
            WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
                        WHERE l_orderkey % 3 = 0),
            e AS (
                SELECT DISTINCT a.l_partkey AS a, b.l_partkey AS b
                FROM li a JOIN li b
                  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey)
            SELECT (SELECT count(*) FROM e) AS n_edges,
                   (SELECT count(*)
                    FROM e ab JOIN e bc ON ab.b = bc.a
                    JOIN e ac ON ac.a = ab.a AND ac.b = bc.b) AS n_triangles
        """,
        "order_pivot": """
            SELECT o_orderpriority,
                   round(COALESCE(SUM(CASE WHEN o_orderstatus='F' THEN o_totalprice END), 0), 2) AS sum_F,
                   round(COALESCE(SUM(CASE WHEN o_orderstatus='O' THEN o_totalprice END), 0), 2) AS sum_O,
                   round(COALESCE(SUM(CASE WHEN o_orderstatus='P' THEN o_totalprice END), 0), 2) AS sum_P
            FROM orders GROUP BY o_orderpriority
        """,
        "lineitem_unpivot": """
            WITH long AS (
                SELECT l_orderkey, l_linenumber, 'l_quantity' AS measure,
                       l_quantity AS value FROM lineitem
                UNION ALL
                SELECT l_orderkey, l_linenumber, 'l_extendedprice',
                       l_extendedprice FROM lineitem
                UNION ALL
                SELECT l_orderkey, l_linenumber, 'l_tax', l_tax FROM lineitem)
            SELECT measure, count(*) AS n, round(SUM(value), 2) AS total
            FROM long GROUP BY measure
        """,
        "event_attribution": """
            WITH w AS (
                SELECT event_type, value,
                       last_value(CASE WHEN event_type <> 'purchase'
                                       THEN event_type END IGNORE NULLS)
                         OVER (PARTITION BY user_id ORDER BY ts, event_id
                               ROWS BETWEEN UNBOUNDED PRECEDING
                                        AND 1 PRECEDING) AS touch
                FROM events)
            SELECT coalesce(touch, '(none)')       AS touch,
                   CAST(count(*) AS BIGINT)        AS n_conversions,
                   round(sum(value), 2)            AS attributed_value
            FROM w WHERE event_type = 'purchase'
            GROUP BY 1 ORDER BY 1
        """,
        "session_paths": """
            WITH o AS (
                SELECT user_id, ts, event_id, event_type,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR epoch(ts - lag(ts) OVER w) > 1800
                            THEN 1 ELSE 0 END AS brk
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            s AS (
                SELECT *, sum(brk) OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id) AS sess
                FROM o),
            p AS (
                SELECT user_id, sess,
                       string_agg(event_type, '>' ORDER BY ts, event_id)
                         AS path
                FROM s GROUP BY user_id, sess)
            SELECT path, CAST(count(*) AS BIGINT) AS n_sessions
            FROM p GROUP BY path
            ORDER BY n_sessions DESC, path LIMIT 20
        """,
        "benford_prices": """
            WITH d AS (
                SELECT CAST(substr(CAST(CAST(floor(o_totalprice) AS BIGINT)
                                        AS VARCHAR), 1, 1) AS BIGINT) AS digit
                FROM orders)
            SELECT digit, CAST(count(*) AS BIGINT) AS n,
                   round(count(*) * 1.0 / (SELECT count(*) FROM d), 6)
                     AS share,
                   round(log10(1.0 + 1.0 / digit), 6) AS expected_share
            FROM d GROUP BY digit ORDER BY digit
        """,
        "revenue_gini": """
            WITH r AS (
                SELECT o_orderpriority,
                       o_totalprice AS x,
                       row_number() OVER (PARTITION BY o_orderpriority
                                          ORDER BY o_totalprice) AS i,
                       count(*) OVER (PARTITION BY o_orderpriority) AS n,
                       sum(o_totalprice) OVER (PARTITION BY o_orderpriority)
                         AS s
                FROM orders)
            SELECT o_orderpriority,
                   CAST(n AS BIGINT) AS n,
                   round(2.0 * sum(i * x) / (n * s) - (n + 1.0) / n, 6)
                     AS gini
            FROM r GROUP BY o_orderpriority, n, s
            ORDER BY o_orderpriority
        """,
        "signup_survival": """
            WITH f AS (
                SELECT user_id, min(ts) AS from_ts FROM events
                WHERE event_type = 'signup' GROUP BY user_id),
            t AS (
                SELECT e.user_id, min(e.ts) AS to_ts
                FROM events e JOIN f ON e.user_id = f.user_id
                                    AND e.ts >= f.from_ts
                WHERE e.event_type = 'purchase' GROUP BY e.user_id),
            base AS (
                SELECT f.user_id, f.from_ts, t.to_ts
                FROM f LEFT JOIN t USING (user_id)),
            dur AS (
                SELECT date_diff('microsecond', from_ts,
                           coalesce(to_ts, (SELECT max(ts) FROM events)))
                           // 86400000000 AS t,
                       CASE WHEN to_ts IS NULL THEN 0 ELSE 1 END AS ev
                FROM base),
            agg AS (
                SELECT t, CAST(sum(ev) AS BIGINT) AS d,
                       CAST(count(*) AS BIGINT) AS c
                FROM dur GROUP BY t),
            rk AS (
                SELECT t, d,
                       (SELECT count(*) FROM dur)
                         - coalesce(sum(c) OVER (ORDER BY t
                               ROWS BETWEEN UNBOUNDED PRECEDING
                                        AND 1 PRECEDING), 0) AS n_risk
                FROM agg),
            w AS (
                SELECT t, d, n_risk,
                       exp(sum(ln(CASE WHEN d = n_risk THEN 1.0
                                       ELSE 1.0 - d * 1.0 / n_risk END))
                           OVER (ORDER BY t)) AS surv,
                       sum(CASE WHEN d = n_risk THEN 1 ELSE 0 END)
                           OVER (ORDER BY t) AS nz
                FROM rk)
            SELECT t, CAST(n_risk AS BIGINT) AS n_risk,
                   CAST(d AS BIGINT) AS n_events,
                   round(CASE WHEN nz > 0 THEN 0.0 ELSE surv END, 6)
                     AS survival
            FROM w WHERE d > 0 ORDER BY t
        """,
        "value_cusum": """
            WITH c AS (
                SELECT user_id, ts, event_id,
                       sum(value - 50.0) OVER w AS cum
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING)),
            s AS (
                SELECT user_id,
                       cum - least(0, min(cum) OVER
                           (PARTITION BY user_id ORDER BY ts, event_id
                            ROWS UNBOUNDED PRECEDING)) AS cusum
                FROM c)
            SELECT user_id,
                   CAST(count(*) FILTER (WHERE cusum > 100.001) AS BIGINT)
                     AS n_alerts,
                   round(max(cusum), 4) AS max_cusum
            FROM s GROUP BY user_id ORDER BY user_id
        """,
        "dau_mau": """
            WITH d AS (
                SELECT date_trunc('day', ts) AS day, user_id FROM events),
            dau AS (
                SELECT day, count(DISTINCT user_id) AS dau
                FROM d GROUP BY day),
            mau AS (
                SELECT a.day,
                       count(DISTINCT b.user_id) AS mau
                FROM (SELECT DISTINCT day FROM d) a
                JOIN d b ON b.day > a.day - INTERVAL 30 DAY
                        AND b.day <= a.day
                GROUP BY a.day)
            SELECT CAST(dau.day AS TIMESTAMP) AS day,
                   CAST(dau AS BIGINT) AS dau,
                   CAST(mau AS BIGINT) AS mau,
                   round(dau * 1.0 / mau, 6) AS stickiness
            FROM dau JOIN mau USING (day) ORDER BY day
        """,
        "value_mannwhitney": """
            WITH s AS (
                SELECT value AS v,
                       CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS g
                FROM events WHERE event_type IN ('click', 'view')),
            r AS (
                SELECT v, g,
                       rank() OVER (ORDER BY v)
                         + (count(*) OVER (PARTITION BY v) - 1) / 2.0 AS ar
                FROM s),
            agg AS (
                SELECT count(*) FILTER (WHERE g = 1) AS n1,
                       count(*) FILTER (WHERE g = 0) AS n2,
                       sum(ar) FILTER (WHERE g = 1)  AS r1
                FROM r),
            ties AS (
                SELECT sum(t * t * t - t) AS corr
                FROM (SELECT count(*) * 1.0 AS t FROM s GROUP BY v))
            SELECT CAST(n1 AS BIGINT) AS n_a,
                   CAST(n2 AS BIGINT) AS n_b,
                   round(r1 - n1 * (n1 + 1) / 2.0, 4) AS u,
                   round((r1 - n1 * (n1 + 1) / 2.0 - n1 * n2 / 2.0)
                         / sqrt(n1 * n2 / 12.0
                                * ((n1 + n2 + 1)
                                   - corr / ((n1 + n2) * (n1 + n2 - 1.0)))),
                         6) AS z
            FROM agg, ties
        """,
        "revenue_wow": """
            WITH w AS (
                SELECT date_trunc('week', o_orderdate) AS week,
                       sum(o_totalprice) AS revenue
                FROM orders GROUP BY 1),
            g AS (
                SELECT week, revenue,
                       lag(revenue) OVER (ORDER BY week) AS prev
                FROM w)
            SELECT CAST(week AS TIMESTAMP) AS week,
                   round(revenue, 2) AS revenue,
                   round((revenue - prev) / prev, 6) AS growth
            FROM g WHERE prev IS NOT NULL ORDER BY week
        """,
        "new_vs_returning": """
            WITH du AS (
                SELECT DISTINCT date_trunc('day', ts) AS day, user_id
                FROM events),
            f AS (
                SELECT user_id, min(day) AS fday FROM du GROUP BY user_id)
            SELECT CAST(day AS TIMESTAMP) AS day,
                   CAST(count(*) FILTER (WHERE day = fday) AS BIGINT)
                     AS n_new,
                   CAST(count(*) FILTER (WHERE day > fday) AS BIGINT)
                     AS n_returning
            FROM du JOIN f USING (user_id)
            GROUP BY day ORDER BY day
        """,
        "nearest_view": """
            SELECT p.user_id,
                   p.event_id AS purchase_id,
                   v.event_id AS view_id,
                   CAST(abs(date_diff('microsecond', v.ts, p.ts))
                        AS BIGINT) AS gap_us
            FROM events p,
                 LATERAL (
                     SELECT e.ts, e.event_id FROM events e
                     WHERE e.user_id = p.user_id
                       AND e.event_type = 'view'
                       AND abs(date_diff('microsecond', e.ts, p.ts))
                             <= 7200000000
                     ORDER BY abs(date_diff('microsecond', e.ts, p.ts)),
                              e.ts, e.event_id
                     LIMIT 1) v
            WHERE p.event_type = 'purchase'
            ORDER BY purchase_id
        """,
        "session_stats": """
            WITH o AS (
                SELECT user_id, ts, event_id,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR epoch(ts - lag(ts) OVER w) > 1800
                            THEN 1 ELSE 0 END AS brk
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            s AS (
                SELECT user_id,
                       sum(brk) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS sess
                FROM o),
            z AS (SELECT count(*) AS len FROM s GROUP BY user_id, sess)
            SELECT CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(count(*) FILTER (WHERE len = 1) AS BIGINT)
                     AS n_bounces,
                   round(count(*) FILTER (WHERE len = 1) * 1.0 / count(*),
                         6) AS bounce_rate,
                   round(sum(len) * 1.0 / count(*), 6) AS avg_len
            FROM z
        """,
        "value_wasserstein": """
            WITH s AS (
                SELECT value AS v,
                       CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS g
                FROM events WHERE event_type IN ('click', 'view')),
            h AS (
                SELECT v,
                       count(*) FILTER (WHERE g = 1) * 1.0 AS ca,
                       count(*) FILTER (WHERE g = 0) * 1.0 AS cb
                FROM s GROUP BY v),
            w AS (
                SELECT v,
                       sum(ca) OVER (ORDER BY v)
                         / (SELECT sum(ca) FROM h) AS fa,
                       sum(cb) OVER (ORDER BY v)
                         / (SELECT sum(cb) FROM h) AS fb,
                       lead(v) OVER (ORDER BY v) AS nv
                FROM h)
            SELECT CAST((SELECT sum(ca) FROM h) AS BIGINT) AS n_a,
                   CAST((SELECT sum(cb) FROM h) AS BIGINT) AS n_b,
                   round(sum(abs(fa - fb) * (nv - v)), 6) AS w1
            FROM w WHERE nv IS NOT NULL
        """,
        "vocab_coverage": """
            WITH topk AS (
                SELECT token, count(*) AS n
                FROM (SELECT unnest(regexp_split_to_array(
                          lower(COALESCE(text, '')), '\\s+')) AS token
                      FROM documents)
                WHERE token <> ''
                GROUP BY token ORDER BY n DESC, token LIMIT 1000),
            tok AS (
                SELECT source,
                       unnest(regexp_split_to_array(
                           lower(COALESCE(text, '')), '\\s+')) AS token
                FROM documents),
            t2 AS (SELECT source, token FROM tok WHERE token <> '')
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   CAST(count(*) FILTER (WHERE token NOT IN
                        (SELECT token FROM topk)) AS BIGINT) AS n_oov,
                   round(count(*) FILTER (WHERE token NOT IN
                        (SELECT token FROM topk)) * 1.0 / count(*), 6)
                     AS oov_rate
            FROM t2 GROUP BY source ORDER BY source
        """,
        "quality_lift": """
            WITH scored AS (
                SELECT doc_id,
                       round(len(list_filter(regexp_split_to_array(lower(trim(text)), '\\s+'),
                                             x -> x IN """ + _ENGLISH_STOPS + """))
                             / greatest(CASE WHEN trim(text) = '' THEN 0
                                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                        END, 1), 6) AS score,
                       round(length(regexp_replace(trim(text), '\\s+', '', 'g'))
                             / greatest(CASE WHEN trim(text) = '' THEN 0
                                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                        END, 1), 6) AS mtl
                FROM documents),
            t AS (
                SELECT NTILE(10) OVER (ORDER BY score, doc_id) AS tile,
                       CASE WHEN score >= 0.05 AND mtl < 8.0
                            THEN 1 ELSE 0 END AS label
                FROM scored)
            SELECT tile, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(label) AS BIGINT) AS pos,
                   round(sum(label) * 1.0 / count(*), 6) AS pos_rate
            FROM t GROUP BY tile ORDER BY tile
        """,
        "langid_agreement": """
            WITH c AS (
                SELECT doc_id, lang,
                       len(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                           x -> x IN ('the','and','of','to','a','in','is','it','you','that','was','for'))) AS n_en,
                       len(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                           x -> x IN ('le','la','les','de','des','et','un','une','est','que','pour','dans'))) AS n_fr,
                       len(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                           x -> x IN ('der','die','das','und','ist','ein','eine','zu','den','von','mit','für'))) AS n_de,
                       len(list_filter(regexp_split_to_array(lower(COALESCE(text,'')), '\\s+'),
                           x -> x IN ('el','la','los','las','de','y','un','una','es','que','por','para'))) AS n_es
                FROM documents),
            j AS (
                SELECT lang AS a,
                       CASE WHEN greatest(n_en, n_fr, n_de, n_es) = 0 THEN 'und'
                            WHEN n_en = greatest(n_en, n_fr, n_de, n_es) THEN 'en'
                            WHEN n_fr = greatest(n_en, n_fr, n_de, n_es) THEN 'fr'
                            WHEN n_de = greatest(n_en, n_fr, n_de, n_es) THEN 'de'
                            ELSE 'es' END AS b
                FROM c),
            cells AS (SELECT a, b, count(*) * 1.0 AS c FROM j GROUP BY 1, 2),
            tot AS (SELECT sum(c) AS n FROM cells),
            rows_ AS (SELECT a AS k, sum(c) AS r FROM cells GROUP BY a),
            cols_ AS (SELECT b AS k, sum(c) AS s FROM cells GROUP BY b),
            agg AS (
                SELECT (SELECT coalesce(sum(c), 0) FROM cells WHERE a = b)
                         / n AS po,
                       (SELECT sum(r * s)
                        FROM rows_ JOIN cols_ USING (k)) / (n * n) AS pe,
                       n
                FROM tot)
            SELECT CAST(n AS BIGINT) AS n,
                   round(po, 6) AS accuracy,
                   round((po - pe) / (1 - pe), 6) AS kappa
            FROM agg
        """,
        "conversion_ab_ztest": """
            WITH u AS (
                SELECT user_id,
                       max(CASE WHEN event_type = 'purchase'
                                THEN 1 ELSE 0 END) AS conv
                FROM events GROUP BY 1),
            g AS (
                SELECT user_id % 2 AS grp, count(*) * 1.0 AS n,
                       sum(conv) * 1.0 AS x
                FROM u GROUP BY 1)
            SELECT CAST(a.n AS BIGINT) AS n_a,
                   CAST(b.n AS BIGINT) AS n_b,
                   round(a.x / a.n, 6) AS rate_a,
                   round(b.x / b.n, 6) AS rate_b,
                   round((a.x / a.n - b.x / b.n)
                         / sqrt(((a.x + b.x) / (a.n + b.n))
                                * (1 - (a.x + b.x) / (a.n + b.n))
                                * (1 / a.n + 1 / b.n)), 6) AS z
            FROM (SELECT * FROM g WHERE grp = 0) a,
                 (SELECT * FROM g WHERE grp = 1) b
        """,
        "hourly_profile": """
            SELECT event_type,
                   CAST(extract(hour FROM ts) AS BIGINT) AS hour,
                   CAST(count(*) AS BIGINT) AS n,
                   round(count(*) * 1.0 /
                         sum(count(*)) OVER (PARTITION BY event_type), 6)
                     AS share
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "value_anova": """
            WITH g AS (
                SELECT event_type, count(*) * 1.0 AS n,
                       sum(value) AS s, sum(value * value) AS ss
                FROM events GROUP BY 1),
            t AS (SELECT sum(n) AS big_n, sum(s) AS tot_s,
                         count(*) AS k FROM g)
            SELECT CAST(big_n AS BIGINT) AS n,
                   CAST(k AS BIGINT) AS k,
                   round(sum(n * power(s / n - tot_s / big_n, 2)), 2)
                     AS ssb,
                   round(sum(ss - n * (s / n) * (s / n)), 2) AS ssw,
                   round((sum(n * power(s / n - tot_s / big_n, 2))
                          / (k - 1))
                         / (sum(ss - n * (s / n) * (s / n))
                            / (big_n - k)), 6) AS f
            FROM g, t GROUP BY big_n, k
        """,
        "user_diversity": """
            WITH c AS (
                SELECT user_id, event_type, count(*) AS k
                FROM events GROUP BY 1, 2),
            t AS (SELECT user_id, sum(k) AS n FROM c GROUP BY 1)
            SELECT c.user_id,
                   CAST(n AS BIGINT) AS n_events,
                   round(-sum((k * 1.0 / n) * ln(k * 1.0 / n)), 6)
                     AS entropy,
                   round(exp(-sum((k * 1.0 / n) * ln(k * 1.0 / n))), 6)
                     AS eff_cats
            FROM c JOIN t USING (user_id)
            GROUP BY c.user_id, n ORDER BY c.user_id
        """,
        "revenue_concentration": """
            WITH cr AS (
                SELECT c_mktsegment, o_custkey, sum(o_totalprice) AS rev
                FROM orders JOIN customer ON o_custkey = c_custkey
                GROUP BY 1, 2),
            r AS (
                SELECT c_mktsegment, rev,
                       row_number() OVER (PARTITION BY c_mktsegment
                                          ORDER BY rev DESC, o_custkey)
                         AS i,
                       sum(rev) OVER (PARTITION BY c_mktsegment) AS tot
                FROM cr)
            SELECT c_mktsegment,
                   CAST(count(*) AS BIGINT) AS n_customers,
                   round(max(tot), 2) AS total_revenue,
                   round(sum(rev) FILTER (WHERE i <= 10) / max(tot), 6)
                     AS cr10
            FROM r GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "quality_gate_by_lang": """
            WITH s AS (
                SELECT lang,
                       round(len(list_filter(regexp_split_to_array(
                                 lower(trim(text)), '\\s+'),
                                 x -> x IN """ + _ENGLISH_STOPS + """))
                             / greatest(CASE WHEN trim(text) = '' THEN 0
                                             ELSE array_length(
                                                 regexp_split_to_array(
                                                     trim(text), '\\s+'))
                                        END, 1), 6) AS score
                FROM documents),
            r AS (
                SELECT lang, score,
                       row_number() OVER (PARTITION BY lang ORDER BY score)
                         AS i,
                       count(*) OVER (PARTITION BY lang) AS n
                FROM s),
            thr AS (
                SELECT lang,
                       max(CASE WHEN i = CAST(ceil(0.5 * n) AS BIGINT)
                                THEN score END) AS threshold
                FROM r GROUP BY lang)
            SELECT s.lang,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(*) FILTER (WHERE s.score >= thr.threshold)
                        AS BIGINT) AS n_kept,
                   thr.threshold AS threshold
            FROM s JOIN thr USING (lang)
            GROUP BY s.lang, thr.threshold ORDER BY s.lang
        """,
        "zipf_slope": """
            WITH topk AS (
                SELECT token, count(*) AS n
                FROM (SELECT unnest(regexp_split_to_array(
                                 lower(COALESCE(text, '')), '\\s+')) AS token
                      FROM documents)
                WHERE token <> ''
                GROUP BY token
                ORDER BY n DESC, token
                LIMIT 100),
            ranked AS (
                SELECT n, row_number() OVER (ORDER BY n DESC, token) AS r
                FROM topk)
            SELECT CAST(count(*) AS BIGINT) AS k,
                   round(regr_slope(ln(n), ln(r * 1.0)), 6) AS slope
            FROM ranked
        """,
        "value_trend_by_user": """
            WITH b AS (
                SELECT user_id,
                       date_diff('microsecond',
                                 min(ts) OVER (PARTITION BY user_id), ts)
                         / 86400000000.0 AS x,
                       value AS y
                FROM events),
            s AS (SELECT user_id, count(*) n, sum(x) sx, sum(y) sy,
                         sum(x*y) sxy, sum(x*x) sxx
                  FROM b GROUP BY user_id)
            SELECT user_id, CAST(n AS BIGINT) AS n,
                   CASE WHEN n*sxx - sx*sx > 0
                        THEN round((n*sxy - sx*sy)/(n*sxx - sx*sx), 6)
                   END AS slope_per_day
            FROM s ORDER BY user_id
        """,
        "value_rolling_median": """
            SELECT user_id, event_id,
                   round(median(value) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN 4 PRECEDING AND CURRENT ROW), 6)
                     AS rolling_median
            FROM events ORDER BY event_id
        """,
        "value_skew_by_type": """
            WITH s AS (
                SELECT event_type, count(*) n, sum(value) s1,
                       sum(value*value) s2, sum(value*value*value) s3,
                       sum(value*value*value*value) s4
                FROM events GROUP BY 1)
            SELECT event_type, CAST(n AS BIGINT) n,
                   CASE WHEN s2/n - (s1/n)*(s1/n) > 0 THEN
                     round((s3/n - 3*(s1/n)*(s2/n) + 2*pow(s1/n,3))
                           / pow(s2/n - pow(s1/n,2), 1.5), 6)
                   END AS skewness,
                   CASE WHEN s2/n - (s1/n)*(s1/n) > 0 THEN
                     round((s4/n - 4*(s1/n)*(s3/n)
                            + 6*pow(s1/n,2)*(s2/n) - 3*pow(s1/n,4))
                           / pow(s2/n - pow(s1/n,2), 2) - 3, 6)
                   END AS ex_kurtosis
            FROM s ORDER BY event_type
        """,
        "event_entropy_rate": """
            WITH t AS (
                SELECT user_id, event_type ft,
                       lead(event_type) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id) tt
                FROM events),
            c AS (SELECT ft, tt, count(*) n FROM t
                  WHERE tt IS NOT NULL GROUP BY 1, 2),
            m AS (SELECT ft, sum(n) tot FROM c GROUP BY 1)
            SELECT c.ft AS from_type, CAST(m.tot AS BIGINT) n_transitions,
                   round(-sum((n*1.0/tot) * log2(n*1.0/tot)), 6) h_bits
            FROM c JOIN m USING (ft)
            GROUP BY c.ft, m.tot ORDER BY from_type
        """,
        "event_type_xcorr": """
            WITH f AS (SELECT ts, event_type FROM events
                       WHERE event_type IN ('click', 'view')),
            b AS (SELECT min(date_trunc('hour', ts)) mn,
                         max(date_trunc('hour', ts)) mx FROM f),
            hours AS (SELECT unnest(generate_series(
                (SELECT mn FROM b), (SELECT mx FROM b),
                INTERVAL 1 HOUR)) h),
            cnt AS (SELECT date_trunc('hour', ts) h, event_type,
                           count(*) n FROM f GROUP BY 1, 2),
            g AS (SELECT hours.h,
                    coalesce(max(n) FILTER (WHERE event_type='click'), 0) a,
                    coalesce(max(n) FILTER (WHERE event_type='view'), 0) b
                  FROM hours LEFT JOIN cnt ON cnt.h = hours.h
                  GROUP BY hours.h),
            s AS (SELECT count(*) n, sum(a) sa, sum(b) sb, sum(a*a) saa,
                         sum(b*b) sbb, sum(a*b) sab FROM g)
            SELECT CAST(n AS BIGINT) n_periods, CAST(sa AS BIGINT) sum_a,
                   CAST(sb AS BIGINT) sum_b,
                   CASE WHEN n*saa - sa*sa > 0 AND n*sbb - sb*sb > 0 THEN
                     round((n*sab - sa*sb)
                           / sqrt((n*saa - sa*sa)*1.0 * (n*sbb - sb*sb)), 6)
                   END AS r
            FROM s
        """,
        "lexical_diversity": """
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE array_length(regexp_split_to_array(trim(text),
                                                                '\\s+'))
                   END AS n_tokens,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(list_distinct(regexp_split_to_array(
                                 lower(trim(text)), '\\s+')))
                   END AS n_types,
                   CASE WHEN trim(text) = '' THEN NULL ELSE
                     round(len(list_distinct(regexp_split_to_array(
                               lower(trim(text)), '\\s+'))) * 1.0
                           / array_length(regexp_split_to_array(trim(text),
                                                                '\\s+')), 6)
                   END AS ttr
            FROM documents ORDER BY doc_id
        """,
        "customer_rfm": """
            WITH a AS (
                SELECT o_custkey, count(*) freq,
                       CAST(sum(CAST(round(o_totalprice*100) AS BIGINT))
                            AS BIGINT) money_c,
                       max(o_orderdate) last_d
                FROM orders GROUP BY 1),
            g AS (SELECT max(last_d) mx FROM a),
            b AS (SELECT o_custkey,
                    CAST(date_diff('microsecond', last_d,
                                   (SELECT mx FROM g)) // 86400000000
                         AS BIGINT) recency_days,
                    freq, money_c FROM a),
            t AS (SELECT *,
                    NTILE(5) OVER (ORDER BY recency_days, o_custkey) r_tile,
                    NTILE(5) OVER (ORDER BY freq DESC, o_custkey) f_tile,
                    NTILE(5) OVER (ORDER BY money_c DESC, o_custkey) m_tile
                  FROM b)
            SELECT o_custkey, recency_days, CAST(freq AS BIGINT) frequency,
                   money_c AS monetary_cents,
                   CAST(r_tile AS BIGINT) r_tile,
                   CAST(f_tile AS BIGINT) f_tile,
                   CAST(m_tile AS BIGINT) m_tile,
                   CAST(r_tile*100 + f_tile*10 + m_tile AS BIGINT) rfm_code
            FROM t ORDER BY o_custkey
        """,
        "part_abc_class": """
            WITH r AS (
                SELECT l_partkey,
                       CAST(sum(CAST(round(l_extendedprice*(1-l_discount)
                                           *10000) AS BIGINT)) AS BIGINT)
                         rev4
                FROM lineitem GROUP BY 1),
            c AS (SELECT l_partkey, rev4,
                    CAST(sum(rev4) OVER (ORDER BY rev4 DESC, l_partkey)
                         AS BIGINT) cum,
                    CAST(row_number() OVER (ORDER BY rev4 DESC, l_partkey)
                         - 1 AS BIGINT) pos,
                    (SELECT CAST(sum(rev4) AS BIGINT) FROM r) tot FROM r)
            SELECT l_partkey, rev4, cum AS cum_rev4, pos AS position,
                   CASE WHEN cum*5 <= tot*4 THEN 'A'
                        WHEN cum*20 <= tot*19 THEN 'B'
                        ELSE 'C' END abc_class
            FROM c ORDER BY l_partkey
        """,
        "dataset_checksum": """
            SELECT CAST(count(*) AS BIGINT) n_rows,
                   CAST(sum(CAST(concat('0x',
                            substr(md5(concat(CAST(doc_id AS VARCHAR), '|',
                                              COALESCE(text, ''))), 1, 15))
                            AS BIGINT)) % 9223372036854775807 AS BIGINT)
                     AS checksum
            FROM documents
        """,
        "customer_reorder_gap": """
            WITH g AS (
                SELECT o_custkey,
                       date_diff('microsecond',
                           lag(o_orderdate) OVER (
                               PARTITION BY o_custkey
                               ORDER BY o_orderdate, o_orderkey),
                           o_orderdate) AS gap
                FROM orders)
            SELECT o_custkey, CAST(count(gap) AS BIGINT) n_gaps,
                   CAST(min(gap) AS BIGINT) min_gap_us,
                   CAST(max(gap) AS BIGINT) max_gap_us,
                   median(gap) * 1.0 AS median_gap_us
            FROM g WHERE gap IS NOT NULL
            GROUP BY o_custkey ORDER BY o_custkey
        """,
        "lineitem_corr_matrix": """
            WITH s AS (
                SELECT count(*)*1.0 n,
                       sum(l_quantity) s0, sum(l_extendedprice) s1,
                       sum(l_discount) s2, sum(l_tax) s3,
                       sum(l_quantity*l_quantity) p00,
                       sum(l_quantity*l_extendedprice) p01,
                       sum(l_quantity*l_discount) p02,
                       sum(l_quantity*l_tax) p03,
                       sum(l_extendedprice*l_extendedprice) p11,
                       sum(l_extendedprice*l_discount) p12,
                       sum(l_extendedprice*l_tax) p13,
                       sum(l_discount*l_discount) p22,
                       sum(l_discount*l_tax) p23,
                       sum(l_tax*l_tax) p33
                FROM lineitem)
            SELECT 'l_quantity' col_a, 'l_extendedprice' col_b,
                   CAST(n AS BIGINT) n,
                   CASE WHEN n*p00-s0*s0 > 0 AND n*p11-s1*s1 > 0 THEN
                     round((n*p01-s0*s1)
                           / sqrt((n*p00-s0*s0)*(n*p11-s1*s1)), 6) END r
            FROM s
            UNION ALL SELECT 'l_quantity', 'l_discount', CAST(n AS BIGINT),
                   CASE WHEN n*p00-s0*s0 > 0 AND n*p22-s2*s2 > 0 THEN
                     round((n*p02-s0*s2)
                           / sqrt((n*p00-s0*s0)*(n*p22-s2*s2)), 6) END
            FROM s
            UNION ALL SELECT 'l_quantity', 'l_tax', CAST(n AS BIGINT),
                   CASE WHEN n*p00-s0*s0 > 0 AND n*p33-s3*s3 > 0 THEN
                     round((n*p03-s0*s3)
                           / sqrt((n*p00-s0*s0)*(n*p33-s3*s3)), 6) END
            FROM s
            UNION ALL SELECT 'l_extendedprice', 'l_discount',
                   CAST(n AS BIGINT),
                   CASE WHEN n*p11-s1*s1 > 0 AND n*p22-s2*s2 > 0 THEN
                     round((n*p12-s1*s2)
                           / sqrt((n*p11-s1*s1)*(n*p22-s2*s2)), 6) END
            FROM s
            UNION ALL SELECT 'l_extendedprice', 'l_tax', CAST(n AS BIGINT),
                   CASE WHEN n*p11-s1*s1 > 0 AND n*p33-s3*s3 > 0 THEN
                     round((n*p13-s1*s3)
                           / sqrt((n*p11-s1*s1)*(n*p33-s3*s3)), 6) END
            FROM s
            UNION ALL SELECT 'l_discount', 'l_tax', CAST(n AS BIGINT),
                   CASE WHEN n*p22-s2*s2 > 0 AND n*p33-s3*s3 > 0 THEN
                     round((n*p23-s2*s3)
                           / sqrt((n*p22-s2*s2)*(n*p33-s3*s3)), 6) END
            FROM s
            ORDER BY col_a, col_b
        """,
        "key_skew_profile": """
            WITH k AS (SELECT user_id, count(*) n_per_key
                       FROM events GROUP BY 1)
            SELECT CAST(n_per_key AS BIGINT) n_per_key,
                   CAST(count(*) AS BIGINT) n_keys
            FROM k GROUP BY 1 ORDER BY 1
        """,
        "event_linear_attribution": """
            WITH conv AS (SELECT event_id, user_id, ts FROM events
                          WHERE event_type = 'purchase'),
            tou AS (SELECT user_id, ts, event_type FROM events
                    WHERE event_type <> 'purchase'),
            j AS (
                SELECT c.event_id, t.ts tts, t.event_type
                FROM conv c LEFT JOIN tou t
                  ON t.user_id = c.user_id AND t.ts < c.ts
                 AND t.ts >= c.ts - INTERVAL 86400 SECOND),
            k AS (SELECT event_id, count(tts) k FROM j GROUP BY 1),
            cr AS (SELECT j.event_type t, 1.0/k.k credit
                   FROM j JOIN k USING (event_id) WHERE j.tts IS NOT NULL
                   UNION ALL SELECT '(none)', 1.0 FROM k WHERE k = 0)
            SELECT t AS touch_type, round(sum(credit), 6) credit
            FROM cr GROUP BY 1 ORDER BY 1
        """,
        "part_clustering_coeff": """
            WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
                        WHERE l_orderkey % 3 = 0),
            e AS (SELECT DISTINCT a.l_partkey AS a, b.l_partkey AS b
                  FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey
                                      AND a.l_partkey < b.l_partkey),
            tri AS (SELECT ab.a x, ab.b y, bc.b z
                    FROM e ab JOIN e bc ON ab.b = bc.a
                    JOIN e ac ON ac.a = ab.a AND ac.b = bc.b),
            tn AS (SELECT node, CAST(count(*) AS BIGINT) t FROM
                   (SELECT x node FROM tri UNION ALL SELECT y FROM tri
                    UNION ALL SELECT z FROM tri) GROUP BY 1),
            deg AS (SELECT node, CAST(count(*) AS BIGINT) deg FROM
                    (SELECT a node FROM e UNION ALL SELECT b FROM e)
                    GROUP BY 1)
            SELECT deg.node, deg.deg, COALESCE(tn.t, 0) AS triangles,
                   CASE WHEN deg.deg >= 2 THEN
                     round(2.0 * COALESCE(tn.t, 0)
                           / (deg.deg * (deg.deg - 1.0)), 6)
                   END AS cc
            FROM deg LEFT JOIN tn USING (node) ORDER BY node
        """,
        "value_theilsen": """
            WITH s AS (
                SELECT user_id, value AS v,
                       row_number() OVER (
                           PARTITION BY user_id ORDER BY ts, event_id) - 1 AS rn
                FROM events),
            p AS (
                SELECT a.user_id AS user_id,
                       (b.v - a.v) / CAST(b.rn - a.rn AS DOUBLE) AS slope
                FROM s a JOIN s b
                  ON a.user_id = b.user_id AND a.rn < b.rn),
            r AS (
                SELECT user_id, slope,
                       row_number() OVER (
                           PARTITION BY user_id ORDER BY slope) AS rnk,
                       count(*) OVER (PARTITION BY user_id) AS n
                FROM p)
            SELECT user_id, CAST(n AS BIGINT) AS n_pairs, slope AS ts_slope
            FROM r WHERE rnk = (n + 1) // 2
            ORDER BY user_id
        """,
        "weighted_median_price": """
            WITH h AS (
                SELECT l_returnflag, l_extendedprice AS v,
                       sum(l_quantity) AS w
                FROM lineitem GROUP BY 1, 2),
            c AS (
                SELECT l_returnflag, v,
                       sum(w) OVER (PARTITION BY l_returnflag
                                    ORDER BY v) AS cw,
                       sum(w) OVER (PARTITION BY l_returnflag) AS tw
                FROM h)
            SELECT l_returnflag, max(tw) AS total_weight, min(v) AS wmedian
            FROM c WHERE 2 * cw >= tw
            GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "part_jaccard_links": """
            WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
                        WHERE l_orderkey % 3 = 0),
            e0 AS (
                SELECT DISTINCT a.l_partkey AS a, b.l_partkey AS b
                FROM li a JOIN li b
                  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
            deg AS (
                SELECT node, COUNT(*) AS deg FROM (
                    SELECT a AS node FROM e0
                    UNION ALL SELECT b FROM e0) GROUP BY node),
            adj AS (SELECT a AS c, b AS n FROM e0
                    UNION ALL SELECT b AS c, a AS n FROM e0),
            af AS (SELECT adj.c, adj.n FROM adj
                   JOIN deg ON deg.node = adj.c WHERE deg.deg <= 30),
            w AS (SELECT x.n AS u, y.n AS v
                  FROM af x JOIN af y ON x.c = y.c AND x.n < y.n),
            cnt AS (SELECT u, v, COUNT(*) AS common FROM w GROUP BY u, v),
            nonadj AS (
                SELECT cnt.u, cnt.v, cnt.common
                FROM cnt LEFT JOIN e0 ON e0.a = cnt.u AND e0.b = cnt.v
                WHERE e0.a IS NULL AND cnt.common >= 2)
            SELECT CAST(n.u AS BIGINT) AS u, CAST(n.v AS BIGINT) AS v,
                   CAST(n.common AS BIGINT) AS common,
                   CAST(du.deg AS BIGINT) AS deg_u,
                   CAST(dv.deg AS BIGINT) AS deg_v,
                   CAST(du.deg + dv.deg - n.common AS BIGINT) AS union_size,
                   CAST(n.common AS DOUBLE)
                     / CAST(du.deg + dv.deg - n.common AS DOUBLE) AS jaccard
            FROM nonadj n
            JOIN deg du ON du.node = n.u
            JOIN deg dv ON dv.node = n.v
            ORDER BY u, v
        """,
        "hourly_mase": """
            WITH b AS (
                SELECT min(date_trunc('hour', ts)) AS mn,
                       max(date_trunc('hour', ts)) AS mx FROM events),
            hours AS (
                SELECT unnest(generate_series(
                    (SELECT mn FROM b), (SELECT mx FROM b),
                    INTERVAL 1 HOUR)) AS h),
            types AS (SELECT DISTINCT event_type FROM events),
            cnt AS (
                SELECT date_trunc('hour', ts) AS h, event_type,
                       count(*) AS n
                FROM events GROUP BY 1, 2),
            grid AS (
                SELECT types.event_type, hours.h,
                       coalesce(cnt.n, 0) AS n
                FROM hours CROSS JOIN types
                LEFT JOIN cnt ON cnt.h = hours.h
                             AND cnt.event_type = types.event_type),
            lagged AS (
                SELECT event_type, n,
                       lag(n, 24) OVER (PARTITION BY event_type
                                        ORDER BY h) AS sn,
                       lag(n, 1) OVER (PARTITION BY event_type
                                       ORDER BY h) AS pn
                FROM grid),
            agg AS (
                SELECT event_type,
                       CAST(count(*) AS BIGINT) AS n_periods,
                       CAST(sum(abs(n - sn))
                            FILTER (WHERE sn IS NOT NULL) AS BIGINT)
                           AS sae_seasonal,
                       CAST(sum(abs(n - pn))
                            FILTER (WHERE pn IS NOT NULL) AS BIGINT)
                           AS sae_naive,
                       count(*) FILTER (WHERE sn IS NOT NULL) AS n_s,
                       count(*) FILTER (WHERE pn IS NOT NULL) AS n_n
                FROM lagged GROUP BY 1)
            SELECT event_type, n_periods, sae_seasonal, sae_naive,
                   CASE WHEN sae_naive > 0 THEN
                       CAST(sae_seasonal * n_n AS DOUBLE)
                         / CAST(sae_naive * n_s AS DOUBLE)
                   END AS mase
            FROM agg WHERE n_periods > 24 ORDER BY event_type
        """,
        "fuzzy_name_pairs": """
            WITH v AS (SELECT c_name FROM customer WHERE c_custkey % 7 = 0)
            SELECT a.c_name AS a, b.c_name AS b
            FROM v a JOIN v b
              ON a.c_name < b.c_name
             AND levenshtein(a.c_name, b.c_name) <= 1
            ORDER BY a, b
        """,
        "bigram_kn": """
            WITH toks AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(lower(COALESCE(text, '')),
                                                         '\\s+'),
                                   x -> x <> '') AS arr
                FROM documents),
            pos AS (
                SELECT doc_id, unnest(arr) AS tok,
                       generate_subscripts(arr, 1) AS i
                FROM toks),
            pairs AS (
                SELECT x.tok AS a, y.tok AS b
                FROM pos x JOIN pos y
                  ON x.doc_id = y.doc_id AND y.i = x.i + 1),
            bg AS (SELECT a, b, count(*) AS cab FROM pairs GROUP BY 1, 2),
            ctx AS (SELECT a, CAST(sum(cab) AS BIGINT) AS ctot,
                           CAST(count(*) AS BIGINT) AS n1f
                    FROM bg GROUP BY a),
            nbt AS (SELECT b, CAST(count(*) AS BIGINT) AS n1b
                    FROM bg GROUP BY b),
            dd AS (SELECT count(*) AS d FROM bg)
            SELECT bg.a, bg.b, CAST(bg.cab AS BIGINT) AS cab,
                   ctx.ctot, ctx.n1f, nbt.n1b,
                   (greatest(bg.cab - 0.75, 0)
                    + 0.75 * ctx.n1f * (CAST(nbt.n1b AS DOUBLE) / dd.d))
                   / ctx.ctot AS kn_prob
            FROM bg JOIN ctx USING (a) JOIN nbt USING (b) CROSS JOIN dd
            ORDER BY cab DESC, a, b LIMIT 200
        """,
        "quality_calibration": """
            WITH scored AS (
                SELECT doc_id,
                       round(len(list_filter(regexp_split_to_array(lower(trim(text)), '\\s+'),
                                             x -> x IN """ + _ENGLISH_STOPS + """))
                             / greatest(CASE WHEN trim(text) = '' THEN 0
                                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                        END, 1), 6) AS score,
                       round(length(regexp_replace(trim(text), '\\s+', '', 'g'))
                             / greatest(CASE WHEN trim(text) = '' THEN 0
                                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                        END, 1), 6) AS mtl
                FROM documents),
            t AS (
                SELECT NTILE(10) OVER (ORDER BY score, doc_id) AS tile, score,
                       CASE WHEN score >= 0.05 AND mtl < 8.0
                            THEN 1 ELSE 0 END AS label
                FROM scored)
            SELECT tile, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(label) AS BIGINT) AS pos,
                   CAST(sum(CAST(round(score * 1000000) AS BIGINT)) AS BIGINT)
                       AS sum_score_u,
                   CAST(sum(CAST(round(score * 1000000) AS BIGINT)) AS DOUBLE)
                       / (1000000.0 * count(*)) AS mean_score,
                   CAST(sum(label) AS DOUBLE) / count(*) AS pos_rate
            FROM t GROUP BY tile ORDER BY tile
        """,
        "trimmed_mean_price": """
            WITH r AS (
                SELECT l_returnflag, l_extendedprice AS v,
                       row_number() OVER (PARTITION BY l_returnflag
                                          ORDER BY l_extendedprice) AS rn,
                       count(*) OVER (PARTITION BY l_returnflag) AS n
                FROM lineitem),
            b AS (SELECT l_returnflag, v, n,
                         CAST(floor(0.1 * n) AS BIGINT) AS lo
                  FROM r WHERE rn > floor(0.1 * n)
                           AND rn <= n - floor(0.1 * n))
            SELECT l_returnflag,
                   CAST(max(n) AS BIGINT) AS n,
                   CAST(max(n - 2 * lo) AS BIGINT) AS n_used,
                   CAST(sum(CAST(round(v * 100) AS BIGINT)) AS BIGINT)
                       AS sum_cents,
                   CAST(sum(CAST(round(v * 100) AS BIGINT)) AS DOUBLE)
                       / (100.0 * max(n - 2 * lo)) AS trimmed_mean
            FROM b GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "source_ablation": """
            WITH scored AS (
                SELECT source,
                       CAST(round(round(len(list_filter(
                           regexp_split_to_array(lower(trim(text)), '\\s+'),
                           x -> x IN """ + _ENGLISH_STOPS + """))
                           / greatest(CASE WHEN trim(text) = '' THEN 0
                                           ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                      END, 1), 6) * 1000000) AS BIGINT) AS u
                FROM documents),
            g AS (SELECT source, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(u) AS BIGINT) AS sum_u
                  FROM scored GROUP BY source),
            t AS (SELECT CAST(sum(n) AS BIGINT) AS nn,
                         CAST(sum(sum_u) AS BIGINT) AS ss FROM g)
            SELECT g.source, g.n, g.sum_u,
                   CAST(g.sum_u AS DOUBLE) / (1000000.0 * g.n) AS mean_score,
                   CASE WHEN g.n < t.nn THEN
                       CAST(t.ss - g.sum_u AS DOUBLE)
                           / (1000000.0 * (t.nn - g.n)) END AS loo_mean,
                   CASE WHEN g.n < t.nn THEN
                       CAST(t.ss - g.sum_u AS DOUBLE)
                           / (1000000.0 * (t.nn - g.n))
                       - CAST(t.ss AS DOUBLE) / (1000000.0 * t.nn)
                   END AS delta
            FROM g CROSS JOIN t ORDER BY g.source
        """,
        "kanon_audit": """
            SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey, c_mktsegment,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(CASE WHEN count(*) < 10 THEN 1 ELSE 0 END AS BIGINT)
                       AS risky
            FROM customer GROUP BY c_nationkey, c_mktsegment
            ORDER BY c_nationkey, c_mktsegment
        """,
        "part_name_extract": """
            SELECT CAST(p_partkey AS BIGINT) AS p_partkey,
                   CASE WHEN regexp_matches(p_name, '^[a-z]+ [a-z]+$')
                        THEN regexp_extract(p_name, '^([a-z]+) ([a-z]+)$', 1)
                   END AS adj,
                   CASE WHEN regexp_matches(p_name, '^[a-z]+ [a-z]+$')
                        THEN regexp_extract(p_name, '^([a-z]+) ([a-z]+)$', 2)
                   END AS noun
            FROM part ORDER BY p_partkey
        """,
        "incremental_join_view": """
            SELECT o.o_orderkey, o.o_orderstatus,
                   CAST(l.l_linenumber AS BIGINT) AS l_linenumber,
                   l.l_quantity
            FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
            WHERE o.o_orderkey % 4 = 0 OR l.l_linenumber = 1
            ORDER BY o.o_orderkey, l_linenumber, l.l_quantity
        """,
        "copurchase_cosine": """
            WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
                        WHERE l_orderkey % 3 = 0),
            pairs AS (
                SELECT a.l_partkey AS item_a, b.l_partkey AS item_b,
                       count(*) AS n_ab
                FROM li a JOIN li b
                  ON a.l_orderkey = b.l_orderkey
                 AND a.l_partkey < b.l_partkey
                GROUP BY 1, 2 HAVING count(*) >= 2),
            cnt AS (SELECT l_partkey, count(*) AS n FROM li GROUP BY 1)
            SELECT CAST(p.item_a AS BIGINT) AS item_a,
                   CAST(p.item_b AS BIGINT) AS item_b,
                   CAST(p.n_ab AS BIGINT) AS n_ab,
                   CAST(ca.n AS BIGINT) AS n_a,
                   CAST(cb.n AS BIGINT) AS n_b,
                   p.n_ab / sqrt(CAST(ca.n * cb.n AS DOUBLE)) AS cosine
            FROM pairs p
            JOIN cnt ca ON ca.l_partkey = p.item_a
            JOIN cnt cb ON cb.l_partkey = p.item_b
            ORDER BY item_a, item_b
        """,
        "value_rolling_slope": """
            WITH s AS (
                SELECT user_id,
                       CAST(round(value * 100) AS BIGINT) AS y,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) - 1 AS rn
                FROM events),
            f AS (
                SELECT user_id, rn,
                       CAST(sum(y) OVER w AS BIGINT) AS fy,
                       CAST(sum(rn) OVER w AS BIGINT) AS fx,
                       CAST(sum(rn * y) OVER w AS BIGINT) AS fxy,
                       CAST(sum(rn * rn) OVER w AS BIGINT) AS fxx
                FROM s
                WINDOW w AS (PARTITION BY user_id ORDER BY rn
                             ROWS BETWEEN 7 PRECEDING AND CURRENT ROW))
            SELECT user_id, rn,
                   CAST(8 * fxy - fx * fy AS DOUBLE)
                       / (8 * fxx - fx * fx) AS slope_cents
            FROM f WHERE rn >= 7 ORDER BY user_id, rn
        """,
        "doc_containment": """
            WITH t AS (
                SELECT doc_id,
                       regexp_split_to_array(lower(trim(text)), '\\s+') AS a
                FROM documents
                WHERE trim(COALESCE(text, '')) <> ''
            ),
            g AS (
                SELECT doc_id,
                       list_aggregate(a[u.i:u.i + 3], 'string_agg', ' ') AS gram
                FROM t, unnest(range(1, len(a) - 2)) u(i)
            ),
            p AS (SELECT DISTINCT doc_id, gram FROM g),
            d AS (SELECT gram FROM p GROUP BY gram HAVING count(*) <= 20),
            rp AS (SELECT p.gram, p.doc_id FROM p JOIN d USING (gram)),
            cand AS (
                SELECT x.doc_id AS doc_a, y.doc_id AS doc_b
                FROM rp x JOIN rp y
                  ON x.gram = y.gram AND x.doc_id < y.doc_id
                GROUP BY 1, 2 HAVING count(*) >= 2),
            inter AS (
                SELECT x.doc_id AS doc_a, y.doc_id AS doc_b,
                       count(*) AS ns
                FROM p x JOIN p y ON x.gram = y.gram
                                 AND x.doc_id < y.doc_id
                JOIN cand c ON c.doc_a = x.doc_id AND c.doc_b = y.doc_id
                GROUP BY 1, 2),
            sz AS (SELECT doc_id, count(*) AS s FROM p GROUP BY 1)
            SELECT CAST(i.doc_a AS BIGINT) AS doc_a,
                   CAST(i.doc_b AS BIGINT) AS doc_b,
                   CAST(i.ns AS BIGINT) AS n_shared,
                   CAST(sa.s AS BIGINT) AS size_a,
                   CAST(sb.s AS BIGINT) AS size_b,
                   CAST(i.ns AS DOUBLE) / sa.s AS containment_a,
                   CAST(i.ns AS DOUBLE) / sb.s AS containment_b,
                   CAST(i.ns AS DOUBLE) / (sa.s + sb.s - i.ns) AS jaccard
            FROM inter i
            JOIN sz sa ON sa.doc_id = i.doc_a
            JOIN sz sb ON sb.doc_id = i.doc_b
            ORDER BY doc_a, doc_b
        """,
        "fuzzy_name_clusters": """
            WITH RECURSIVE v AS (
                SELECT c_name FROM customer WHERE c_custkey % 7 = 0),
            e0 AS (
                SELECT CAST(substr(a.c_name, 10) AS BIGINT) AS a,
                       CAST(substr(b.c_name, 10) AS BIGINT) AS b
                FROM v a JOIN v b
                  ON a.c_name < b.c_name
                 AND levenshtein(a.c_name, b.c_name) <= 1),
            e AS (SELECT a, b FROM e0 UNION ALL SELECT b, a FROM e0),
            walk(node, reach) AS (
                SELECT a, a FROM e
                UNION
                SELECT w.node, e.b FROM walk w JOIN e ON e.a = w.reach)
            SELECT CAST(node AS BIGINT) AS doc_id,
                   CAST(min(reach) AS BIGINT) AS component
            FROM walk GROUP BY node ORDER BY doc_id
        """,
        "ab_value_cuped": """
            WITH u AS (
                SELECT user_id,
                       CAST(sum(CASE WHEN ts < TIMESTAMP '2024-01-16'
                                THEN CAST(round(value * 100) AS BIGINT)
                                ELSE 0 END) AS BIGINT) AS x,
                       CAST(sum(CASE WHEN ts >= TIMESTAMP '2024-01-16'
                                THEN CAST(round(value * 100) AS BIGINT)
                                ELSE 0 END) AS BIGINT) AS y
                FROM events GROUP BY user_id),
            m AS (
                SELECT CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(x) AS BIGINT) AS sx,
                       CAST(sum(y) AS BIGINT) AS sy,
                       CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx,
                       CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy
                FROM u),
            t AS (
                SELECT n, sx,
                       CAST(n * sxy - CAST(sx AS HUGEINT) * sy AS DOUBLE)
                         / CAST(n * sxx - CAST(sx AS HUGEINT) * sx AS DOUBLE)
                           AS theta,
                       sx / (100.0 * n) AS gxbar
                FROM m),
            c AS (
                SELECT user_id % 2 AS cohort,
                       CAST(count(*) AS BIGINT) AS n_users,
                       CAST(sum(x) AS BIGINT) AS sum_x_cents,
                       CAST(sum(y) AS BIGINT) AS sum_y_cents
                FROM u GROUP BY 1)
            SELECT CAST(c.cohort AS BIGINT) AS cohort, c.n_users,
                   c.sum_x_cents, c.sum_y_cents,
                   c.sum_y_cents / (100.0 * c.n_users) AS mean_y,
                   c.sum_y_cents / (100.0 * c.n_users)
                     - t.theta * (c.sum_x_cents / (100.0 * c.n_users)
                                  - t.gxbar) AS mean_adj
            FROM c CROSS JOIN t ORDER BY cohort
        """,
        "quality_roc_points": """
            WITH scored AS (
                SELECT round(len(list_filter(regexp_split_to_array(lower(trim(text)), '\\s+'),
                                             x -> x IN """ + _ENGLISH_STOPS + """))
                             / greatest(CASE WHEN trim(text) = '' THEN 0
                                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                        END, 1), 6) AS score,
                       round(length(regexp_replace(trim(text), '\\s+', '', 'g'))
                             / greatest(CASE WHEN trim(text) = '' THEN 0
                                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                        END, 1), 6) AS mtl
                FROM documents),
            lab AS (
                SELECT score,
                       CASE WHEN score >= 0.05 AND mtl < 8.0
                            THEN 1 ELSE 0 END AS label
                FROM scored),
            h AS (SELECT score AS thr, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(label) AS BIGINT) AS pos
                  FROM lab GROUP BY 1),
            t AS (SELECT CAST(sum(pos) AS BIGINT) AS p,
                         CAST(sum(n - pos) AS BIGINT) AS nn FROM h),
            c AS (SELECT thr,
                         CAST(sum(pos) OVER (ORDER BY thr DESC) AS BIGINT)
                             AS tp,
                         CAST(sum(n - pos) OVER (ORDER BY thr DESC) AS BIGINT)
                             AS fp
                  FROM h)
            SELECT c.thr, c.tp, c.fp,
                   CAST(c.tp AS DOUBLE) / t.p AS tpr,
                   CAST(c.fp AS DOUBLE) / t.nn AS fpr
            FROM c CROSS JOIN t ORDER BY thr DESC
        """,
        "dup_weighting": """
            SELECT doc_id,
                   CAST(count(*) OVER (PARTITION BY
                       regexp_replace(lower(trim(text)), '\\s+', ' ', 'g'))
                       AS BIGINT) AS n_copies,
                   1.0 / count(*) OVER (PARTITION BY
                       regexp_replace(lower(trim(text)), '\\s+', ' ', 'g'))
                       AS weight
            FROM documents ORDER BY doc_id
        """,
        "customer_fd_audit": """
            WITH f1 AS (SELECT c_custkey AS d,
                               count(DISTINCT c_nationkey) AS m
                        FROM customer GROUP BY 1),
            f2 AS (SELECT c_nationkey AS d,
                          count(DISTINCT c_mktsegment) AS m
                   FROM customer GROUP BY 1),
            f3 AS (SELECT c_mktsegment AS d,
                          count(DISTINCT c_nationkey) AS m
                   FROM customer GROUP BY 1)
            SELECT 'c_custkey' AS det, 'c_nationkey' AS dep,
                   CAST(count(*) AS BIGINT) AS n_det,
                   CAST(sum(m) AS BIGINT) AS n_pairs,
                   CAST(sum(CASE WHEN m > 1 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_violating,
                   CAST(CASE WHEN max(m) <= 1 THEN 1 ELSE 0 END AS BIGINT)
                       AS holds
            FROM f1
            UNION ALL
            SELECT 'c_nationkey', 'c_mktsegment',
                   CAST(count(*) AS BIGINT), CAST(sum(m) AS BIGINT),
                   CAST(sum(CASE WHEN m > 1 THEN 1 ELSE 0 END) AS BIGINT),
                   CAST(CASE WHEN max(m) <= 1 THEN 1 ELSE 0 END AS BIGINT)
            FROM f2
            UNION ALL
            SELECT 'c_mktsegment', 'c_nationkey',
                   CAST(count(*) AS BIGINT), CAST(sum(m) AS BIGINT),
                   CAST(sum(CASE WHEN m > 1 THEN 1 ELSE 0 END) AS BIGINT),
                   CAST(CASE WHEN max(m) <= 1 THEN 1 ELSE 0 END AS BIGINT)
            FROM f3
            ORDER BY det, dep
        """,
        "vocab_drift": """
            WITH toks AS (
                SELECT doc_id % 2 AS side,
                       unnest(regexp_split_to_array(lower(COALESCE(text, '')),
                                                    '\\s+')) AS token
                FROM documents),
            c AS (SELECT side, token, CAST(count(*) AS BIGINT) AS n
                  FROM toks WHERE token <> '' GROUP BY 1, 2),
            ra AS (SELECT token, n,
                          row_number() OVER (ORDER BY n DESC, token) AS rnk
                   FROM c WHERE side = 0 ORDER BY n DESC, token LIMIT 50),
            rb AS (SELECT token, n,
                          row_number() OVER (ORDER BY n DESC, token) AS rnk
                   FROM c WHERE side = 1 ORDER BY n DESC, token LIMIT 50)
            SELECT COALESCE(ra.token, rb.token) AS token,
                   CAST(COALESCE(ra.n, 0) AS BIGINT) AS n_a,
                   CAST(COALESCE(rb.n, 0) AS BIGINT) AS n_b,
                   CAST(ra.rnk AS DOUBLE) AS rank_a,
                   CAST(rb.rnk AS DOUBLE) AS rank_b
            FROM ra FULL JOIN rb ON ra.token = rb.token
            ORDER BY token
        """,
        "event_mix_shift": """
            WITH e AS (
                SELECT event_type,
                       CASE WHEN ts >= TIMESTAMP '2024-01-16'
                            THEN 1 ELSE 0 END AS p,
                       CAST(round(value * 100) AS BIGINT) AS c
                FROM events),
            g AS (SELECT event_type, p, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(c) AS BIGINT) AS cents
                  FROM e GROUP BY 1, 2),
            t0 AS (SELECT CAST(sum(n) AS BIGINT) AS tn FROM g WHERE p = 0),
            t1 AS (SELECT CAST(sum(n) AS BIGINT) AS tn FROM g WHERE p = 1),
            w AS (SELECT o.event_type, o.n AS n_old, nn.n AS n_new,
                         o.cents AS cents_old, nn.cents AS cents_new
                  FROM (SELECT * FROM g WHERE p = 0) o
                  JOIN (SELECT * FROM g WHERE p = 1) nn USING (event_type))
            SELECT w.event_type, w.n_old, w.n_new, w.cents_old, w.cents_new,
                   CAST(w.n_old AS DOUBLE) / t0.tn AS share_old,
                   CAST(w.n_new AS DOUBLE) / t1.tn AS share_new,
                   CAST(w.cents_old AS DOUBLE) / (100.0 * w.n_old)
                       AS rate_old,
                   CAST(w.cents_new AS DOUBLE) / (100.0 * w.n_new)
                       AS rate_new,
                   (CAST(w.n_new AS DOUBLE) / t1.tn
                    - CAST(w.n_old AS DOUBLE) / t0.tn)
                     * (CAST(w.cents_old AS DOUBLE) / (100.0 * w.n_old))
                       AS mix_effect,
                   CAST(w.n_new AS DOUBLE) / t1.tn
                     * (CAST(w.cents_new AS DOUBLE) / (100.0 * w.n_new)
                        - CAST(w.cents_old AS DOUBLE) / (100.0 * w.n_old))
                       AS rate_effect
            FROM w CROSS JOIN t0 CROSS JOIN t1
            ORDER BY event_type
        """,
        "zorder_pruning": """
            WITH q AS (
                SELECT event_id, user_id % 1024 AS uid,
                       (epoch_us(ts) // 3600000000) % 1024 AS hr
                FROM events
            ),
            z AS (SELECT event_id, uid, hr, (((uid >> 0) & 1) << 0) + (((hr >> 0) & 1) << 1) + (((uid >> 1) & 1) << 2) + (((hr >> 1) & 1) << 3) + (((uid >> 2) & 1) << 4) + (((hr >> 2) & 1) << 5) + (((uid >> 3) & 1) << 6) + (((hr >> 3) & 1) << 7) + (((uid >> 4) & 1) << 8) + (((hr >> 4) & 1) << 9) + (((uid >> 5) & 1) << 10) + (((hr >> 5) & 1) << 11) + (((uid >> 6) & 1) << 12) + (((hr >> 6) & 1) << 13) + (((uid >> 7) & 1) << 14) + (((hr >> 7) & 1) << 15) + (((uid >> 8) & 1) << 16) + (((hr >> 8) & 1) << 17) + (((uid >> 9) & 1) << 18) + (((hr >> 9) & 1) << 19) AS zkey
                  FROM q),
            rn AS (SELECT uid, hr, row_number() OVER (
                       ORDER BY event_id) - 1 AS p_nat,
                   row_number() OVER (ORDER BY zkey, event_id) - 1 AS p_z
                   FROM z),
            bn AS (SELECT p_nat // 500 AS part, count(*) AS n,
                          min(uid) mnx, max(uid) mxx,
                          min(hr) mny, max(hr) mxy
                   FROM rn GROUP BY 1),
            bz AS (SELECT p_z // 500 AS part, count(*) AS n,
                          min(uid) mnx, max(uid) mxx,
                          min(hr) mny, max(hr) mxy
                   FROM rn GROUP BY 1),
            sn AS (SELECT 'natural' AS layout,
                          CAST(count(*) AS BIGINT) AS n_files,
                          CAST(sum(CASE WHEN mxx < 100 OR mnx > 200
                                        OR mxy < 300 OR mny > 400
                                   THEN 1 ELSE 0 END) AS BIGINT)
                              AS n_skipped,
                          CAST(sum(CASE WHEN mxx < 100 OR mnx > 200
                                        OR mxy < 300 OR mny > 400
                                   THEN 0 ELSE n END) AS BIGINT)
                              AS rows_scanned
                   FROM bn),
            sz AS (SELECT 'zorder' AS layout,
                          CAST(count(*) AS BIGINT) AS n_files,
                          CAST(sum(CASE WHEN mxx < 100 OR mnx > 200
                                        OR mxy < 300 OR mny > 400
                                   THEN 1 ELSE 0 END) AS BIGINT)
                              AS n_skipped,
                          CAST(sum(CASE WHEN mxx < 100 OR mnx > 200
                                        OR mxy < 300 OR mny > 400
                                   THEN 0 ELSE n END) AS BIGINT)
                              AS rows_scanned
                   FROM bz)
            SELECT * FROM sn UNION ALL SELECT * FROM sz ORDER BY layout
        """,
        "session_conversion": """
            WITH s AS (
                SELECT user_id, ts, event_id, event_type,
                       CASE WHEN lag(ts) OVER w IS NULL
                            OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS brk
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            t AS (
                SELECT user_id, event_type, ts, event_id,
                       sum(brk) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS sess
                FROM s),
            q AS (
                SELECT user_id, sess,
                       string_agg(event_type, ','
                                  ORDER BY ts, event_id) AS seq
                FROM t GROUP BY 1, 2)
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(sum(CASE WHEN regexp_matches(
                       seq, 'view.*click.*purchase') THEN 1 ELSE 0 END)
                       AS BIGINT) AS n_matching
            FROM q GROUP BY user_id ORDER BY user_id
        """,
        "churn_weekly_labels": """
            WITH g AS (
                SELECT user_id,
                       epoch_us(ts) // 604800000000 AS period,
                       CAST(count(*) AS BIGINT) AS n_events
                FROM events GROUP BY 1, 2)
            SELECT g.user_id, CAST(g.period AS BIGINT) AS period,
                   g.n_events,
                   CAST(CASE WHEN nx.period IS NOT NULL
                        THEN 1 ELSE 0 END AS BIGINT) AS returned
            FROM g LEFT JOIN (SELECT DISTINCT user_id, period FROM g) nx
              ON nx.user_id = g.user_id AND nx.period = g.period + 1
            ORDER BY g.user_id, period
        """,
        "sqlite_roundtrip": """
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                       AS sum_cents
            FROM events WHERE event_id % 10 = 0
            GROUP BY event_type ORDER BY event_type
        """,
        "doc_cosine_tf": """
            WITH t AS (
                SELECT doc_id,
                       regexp_split_to_array(lower(trim(text)), '\\s+') AS a
                FROM documents
                WHERE trim(COALESCE(text, '')) <> ''
            ),
            g AS (
                SELECT doc_id,
                       list_aggregate(a[u.i:u.i + 3], 'string_agg', ' ') AS gram
                FROM t, unnest(range(1, len(a) - 2)) u(i)
            ),
            p AS (SELECT DISTINCT doc_id, gram FROM g),
            d AS (SELECT gram FROM p GROUP BY gram HAVING count(*) <= 20),
            rp AS (SELECT p.gram, p.doc_id FROM p JOIN d USING (gram)),
            cand AS (
                SELECT x.doc_id AS doc_a, y.doc_id AS doc_b
                FROM rp x JOIN rp y
                  ON x.gram = y.gram AND x.doc_id < y.doc_id
                GROUP BY 1, 2 HAVING count(*) >= 2),
            tok AS (
                SELECT doc_id, u.tk AS token
                FROM t, unnest(a) u(tk) WHERE u.tk <> ''),
            tf AS (SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf
                   FROM tok GROUP BY 1, 2),
            dots AS (
                SELECT c.doc_a, c.doc_b,
                       CAST(sum(x.tf * y.tf) AS BIGINT) AS dot
                FROM cand c
                JOIN tf x ON x.doc_id = c.doc_a
                JOIN tf y ON y.doc_id = c.doc_b AND y.token = x.token
                GROUP BY 1, 2),
            norms AS (SELECT doc_id, CAST(sum(tf * tf) AS BIGINT) AS n2
                      FROM tf GROUP BY 1)
            SELECT CAST(dd.doc_a AS BIGINT) AS doc_a,
                   CAST(dd.doc_b AS BIGINT) AS doc_b, dd.dot,
                   na.n2 AS norm2_a, nb.n2 AS norm2_b,
                   dd.dot / (sqrt(CAST(na.n2 AS DOUBLE))
                             * sqrt(CAST(nb.n2 AS DOUBLE))) AS cosine
            FROM dots dd
            JOIN norms na ON na.doc_id = dd.doc_a
            JOIN norms nb ON nb.doc_id = dd.doc_b
            ORDER BY doc_a, doc_b
        """,
        "user_coverage_ratio": """
            WITH s AS (
                SELECT user_id, ts AS st,
                       ts + INTERVAL 30 MINUTE AS en
                FROM events),
            o AS (
                SELECT *, max(en) OVER (
                    PARTITION BY user_id ORDER BY st, en
                    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                ) AS prev_max FROM s),
            g AS (
                SELECT *, sum(CASE WHEN prev_max IS NULL OR st > prev_max
                                   THEN 1 ELSE 0 END) OVER (
                    PARTITION BY user_id ORDER BY st, en) AS grp
                FROM o),
            isl AS (
                SELECT user_id, epoch_us(min(st)) AS s_us,
                       epoch_us(max(en)) AS e_us
                FROM g GROUP BY user_id, grp)
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_islands,
                   CAST(sum(e_us - s_us) AS BIGINT) AS covered_us,
                   CAST(max(e_us) - min(s_us) AS BIGINT) AS span_us,
                   CAST(sum(e_us - s_us) AS DOUBLE)
                       / (max(e_us) - min(s_us)) AS coverage
            FROM isl GROUP BY user_id ORDER BY user_id
        """,
        "grouped_kfold": """
            WITH g AS (
                SELECT user_id % 5 AS fold, event_type,
                       CAST(count(*) AS BIGINT) AS n
                FROM events GROUP BY 1, 2),
            f AS (SELECT fold, CAST(sum(n) AS BIGINT) AS ft
                  FROM g GROUP BY 1),
            t AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS tt
                  FROM g GROUP BY 1),
            nn AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM g)
            SELECT CAST(g.fold AS BIGINT) AS fold, g.event_type, g.n,
                   f.ft AS fold_total,
                   CAST(g.n AS DOUBLE) / f.ft AS rate,
                   CAST(t.tt AS DOUBLE) / nn.total AS global_rate,
                   CAST(g.n AS DOUBLE) / f.ft
                     - CAST(t.tt AS DOUBLE) / nn.total AS dev
            FROM g JOIN f USING (fold) JOIN t USING (event_type)
            CROSS JOIN nn
            ORDER BY fold, g.event_type
        """,
        "length_batching": """
            WITH r AS (
                SELECT n_chars,
                       row_number() OVER (ORDER BY doc_id) - 1 AS p_nat,
                       row_number() OVER (ORDER BY n_chars, doc_id) - 1
                           AS p_srt
                FROM documents),
            bn AS (SELECT p_nat // 32 AS b, count(*) AS n,
                          max(n_chars) AS mx, sum(n_chars) AS sm
                   FROM r GROUP BY 1),
            bs AS (SELECT p_srt // 32 AS b, count(*) AS n,
                          max(n_chars) AS mx, sum(n_chars) AS sm
                   FROM r GROUP BY 1),
            sn AS (SELECT 'natural' AS layout,
                          CAST(count(*) AS BIGINT) AS n_batches,
                          CAST(sum(mx * n) AS BIGINT) AS total_cells,
                          CAST(sum(mx * n - sm) AS BIGINT) AS padded_cells
                   FROM bn),
            ss AS (SELECT 'sorted' AS layout,
                          CAST(count(*) AS BIGINT) AS n_batches,
                          CAST(sum(mx * n) AS BIGINT) AS total_cells,
                          CAST(sum(mx * n - sm) AS BIGINT) AS padded_cells
                   FROM bs),
            u AS (SELECT * FROM sn UNION ALL SELECT * FROM ss)
            SELECT layout, n_batches, total_cells, padded_cells,
                   CAST(padded_cells AS DOUBLE) / total_cells
                       AS pad_fraction
            FROM u ORDER BY layout
        """,
        "mix_rebalance": """
            WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n_in
                       FROM documents GROUP BY 1),
            ns AS (SELECT count(*) AS k FROM c),
            nout AS (SELECT min(n_in / (1.0 / (SELECT k FROM ns)))
                         AS n_out FROM c),
            p AS (SELECT source, n_in,
                         CAST(floor(100.0 * (1.0 / (SELECT k FROM ns))
                                    * (SELECT n_out FROM nout) / n_in
                                    + 0.000000001)
                              AS BIGINT) AS pct
                  FROM c),
            kept AS (
                SELECT d.source, CAST(count(*) AS BIGINT) AS n_kept
                FROM documents d JOIN p ON p.source = d.source
                WHERE ((CAST(d.doc_id AS HUGEINT) * 2654435761)
                       % 4294967296 + 4294967296) % 4294967296 % 100
                      < p.pct
                GROUP BY 1)
            SELECT p.source, p.n_in, p.pct,
                   CAST(COALESCE(kept.n_kept, 0) AS BIGINT) AS n_kept
            FROM p LEFT JOIN kept ON kept.source = p.source
            ORDER BY p.source
        """,
        "vocab_growth": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_split_to_array(lower(trim(text)),
                                                    '\\s+')) AS token
                FROM documents
                WHERE trim(COALESCE(text, '')) <> ''),
            t2 AS (SELECT token, min(doc_id) AS first_doc
                   FROM toks WHERE token <> '' GROUP BY 1),
            nt AS (SELECT doc_id,
                          CASE WHEN trim(COALESCE(text, '')) = '' THEN 0
                               ELSE array_length(
                                   regexp_split_to_array(trim(text),
                                                         '\\s+'))
                          END AS n
                   FROM documents),
            g(k) AS (VALUES (10), (20), (50), (100), (200), (500))
            SELECT CAST(k AS BIGINT) AS k,
                   CAST((SELECT count(*) FROM t2 WHERE first_doc < k)
                        AS BIGINT) AS vocab,
                   CAST((SELECT COALESCE(sum(n), 0) FROM nt
                         WHERE doc_id < k) AS BIGINT)
                       AS total_tokens_at_k
            FROM g ORDER BY k
        """,
        "event_trigrams": """
            WITH s AS (
                SELECT event_type AS t_0,
                       lead(event_type, 1) OVER w AS t_1,
                       lead(event_type, 2) OVER w AS t_2
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
            SELECT t_0, t_1, t_2, CAST(count(*) AS BIGINT) AS n
            FROM s WHERE t_1 IS NOT NULL AND t_2 IS NOT NULL
            GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
        """,
        "population_estimate": """
            WITH u AS (SELECT DISTINCT user_id FROM events),
            f AS (SELECT
                CASE WHEN ((CAST(user_id AS HUGEINT) * 2654435761)
                           % 4294967296 + 4294967296) % 4294967296
                          % 100 < 30 THEN 1 ELSE 0 END AS in1,
                CASE WHEN ((CAST(user_id AS HUGEINT) * 2246822519)
                           % 4294967296 + 4294967296) % 4294967296
                          % 100 < 30 THEN 1 ELSE 0 END AS in2
                  FROM u)
            SELECT CAST(sum(in1) AS BIGINT) AS n1,
                   CAST(sum(in2) AS BIGINT) AS n2,
                   CAST(sum(in1 * in2) AS BIGINT) AS m,
                   CASE WHEN sum(in1 * in2) > 0 THEN
                       CAST(sum(in1) AS DOUBLE) * sum(in2)
                           / sum(in1 * in2)
                   END AS est_lp,
                   CAST(sum(in1) + 1 AS DOUBLE) * (sum(in2) + 1)
                       / (sum(in1 * in2) + 1) - 1 AS est_chapman
            FROM f
        """,
        "simpson_check": """
            WITH j AS (
                SELECT p.p_brand,
                       CAST(l.l_quantity AS BIGINT) AS x,
                       CAST(round(l.l_extendedprice * 100) AS BIGINT) AS y
                FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey),
            g AS (SELECT p_brand, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(x) AS BIGINT) AS sx,
                         CAST(sum(y) AS BIGINT) AS sy,
                         CAST(sum(x * y) AS BIGINT) AS sxy
                  FROM j GROUP BY 1),
            t AS (SELECT CAST(sum(n) AS HUGEINT) AS tn,
                         CAST(sum(sx) AS HUGEINT) AS tsx,
                         CAST(sum(sy) AS HUGEINT) AS tsy,
                         CAST(sum(sxy) AS HUGEINT) AS tsxy FROM g),
            p AS (SELECT CAST(sign(tn * tsxy - tsx * tsy) AS BIGINT)
                      AS sgn FROM t)
            SELECT g.p_brand, g.n,
                   CAST(g.n * g.sxy - g.sx * g.sy AS BIGINT) AS slope_num,
                   CAST(sign(g.n * g.sxy - g.sx * g.sy) AS BIGINT)
                       AS sign_seg,
                   p.sgn AS sign_pooled,
                   CAST(CASE WHEN sign(g.n * g.sxy - g.sx * g.sy) <> 0
                             AND sign(g.n * g.sxy - g.sx * g.sy) <> p.sgn
                        THEN 1 ELSE 0 END AS BIGINT) AS flip
            FROM g CROSS JOIN p ORDER BY g.p_brand
        """,
        "doc_novelty": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_split_to_array(lower(trim(text)),
                                                    '\\s+')) AS token
                FROM documents
                WHERE trim(COALESCE(text, '')) <> ''),
            p AS (SELECT DISTINCT doc_id, token FROM toks
                  WHERE token <> ''),
            f AS (SELECT token, min(doc_id) AS fd FROM p GROUP BY 1)
            SELECT CAST(p.doc_id AS BIGINT) AS doc,
                   CAST(count(*) AS BIGINT) AS n_distinct,
                   CAST(sum(CASE WHEN p.doc_id = f.fd THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_new,
                   CAST(sum(CASE WHEN p.doc_id = f.fd THEN 1 ELSE 0 END)
                        AS DOUBLE) / count(*) AS novelty
            FROM p JOIN f USING (token)
            GROUP BY p.doc_id ORDER BY doc
        """,
        "ldiversity_audit": """
            WITH b AS (
                SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
                       c_mktsegment,
                       CAST(sign(c_acctbal) AS BIGINT) AS bal_sign
                FROM customer)
            SELECT c_nationkey, c_mktsegment,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(count(DISTINCT bal_sign) AS BIGINT) AS n_sensitive,
                   CAST(CASE WHEN count(DISTINCT bal_sign) < 2
                        THEN 1 ELSE 0 END AS BIGINT) AS risky
            FROM b GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "session_type_pairs": """
            WITH s AS (
                SELECT user_id, ts, event_id, event_type,
                       CASE WHEN lag(ts) OVER w IS NULL
                            OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS brk
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            t AS (
                SELECT user_id, event_type,
                       sum(brk) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS sess
                FROM s),
            d AS (SELECT DISTINCT user_id, sess, event_type FROM t)
            SELECT a.event_type AS item_a, b.event_type AS item_b,
                   CAST(count(*) AS BIGINT) AS n_sessions
            FROM d a JOIN d b
              ON a.user_id = b.user_id AND a.sess = b.sess
             AND a.event_type < b.event_type
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "value_robust_scaled": """
            WITH r AS (
                SELECT event_type, value,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY value) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM events),
            q AS (
                SELECT event_type,
                       max(CASE WHEN rn = CAST(ceil(0.25 * n) AS BIGINT)
                           THEN value END) AS q25,
                       max(CASE WHEN rn = CAST(ceil(0.5 * n) AS BIGINT)
                           THEN value END) AS q50,
                       max(CASE WHEN rn = CAST(ceil(0.75 * n) AS BIGINT)
                           THEN value END) AS q75
                FROM r GROUP BY event_type)
            SELECT e.event_id, e.event_type, e.value,
                   CASE WHEN q.q75 - q.q25 > 0 THEN
                       (e.value - q.q50) / (q.q75 - q.q25) END AS robust_z
            FROM events e JOIN q USING (event_type)
            ORDER BY e.event_id
        """,
        "value_dispersion": """
            WITH pu AS (
                SELECT event_type, user_id, CAST(count(*) AS BIGINT) AS c
                FROM events GROUP BY 1, 2),
            g AS (
                SELECT event_type,
                       CAST(count(*) AS BIGINT) AS n_users,
                       CAST(sum(c) AS BIGINT) AS sc,
                       CAST(sum(c * c) AS BIGINT) AS scc
                FROM pu GROUP BY 1)
            SELECT event_type, n_users, sc, scc,
                   CAST(sc AS DOUBLE) / n_users AS mean_c,
                   (scc - CAST(sc AS DOUBLE) * sc / n_users) / n_users
                       AS var_c,
                   ((scc - CAST(sc AS DOUBLE) * sc / n_users) / n_users)
                       / (CAST(sc AS DOUBLE) / n_users) AS vmr
            FROM g ORDER BY event_type
        """,
        "worst_slices": """
            WITH scored AS (
                SELECT lang, source,
                       CAST(round(round(len(list_filter(
                           regexp_split_to_array(lower(trim(text)), '\\s+'),
                           x -> x IN """ + _ENGLISH_STOPS + """))
                           / greatest(CASE WHEN trim(text) = '' THEN 0
                                           ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                      END, 1), 6) * 1000000) AS BIGINT) AS u
                FROM documents),
            g AS (SELECT lang, source, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(u) AS BIGINT) AS sum_u
                  FROM scored GROUP BY 1, 2),
            t AS (SELECT CAST(sum(n) AS BIGINT) AS nn,
                         CAST(sum(sum_u) AS BIGINT) AS ss FROM g)
            SELECT g.lang, g.source, g.n, g.sum_u,
                   CAST(g.sum_u AS DOUBLE) / (1000000.0 * g.n)
                       AS mean_score,
                   CAST(g.sum_u AS DOUBLE) / (1000000.0 * g.n)
                     - CAST(t.ss AS DOUBLE) / (1000000.0 * t.nn) AS delta,
                   CAST(row_number() OVER (
                       ORDER BY CAST(g.sum_u AS DOUBLE) / (1000000.0 * g.n)
                                - CAST(t.ss AS DOUBLE) / (1000000.0 * t.nn),
                                g.lang, g.source) AS BIGINT) AS rank
            FROM g CROSS JOIN t
            ORDER BY delta, g.lang, g.source
        """,
        "transition_dwell": """
            WITH s AS (
                SELECT event_type AS next_type,
                       lag(event_type) OVER w AS prev_type,
                       epoch_us(ts) - lag(epoch_us(ts)) OVER w AS gap_us
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
            SELECT prev_type, next_type,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(gap_us) AS BIGINT) AS sum_us,
                   CAST(sum(gap_us) AS DOUBLE) / count(*) AS mean_us
            FROM s WHERE prev_type IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "skipgram_pairs": """
            WITH t AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(lower(trim(text)),
                                                         '\\s+'),
                                   x -> x <> '') AS arr
                FROM documents
                WHERE trim(COALESCE(text, '')) <> ''),
            pos AS (
                SELECT doc_id, unnest(arr) AS tok,
                       generate_subscripts(arr, 1) AS i
                FROM t),
            p AS (
                SELECT x.tok AS center, y.tok AS context
                FROM pos x JOIN pos y
                  ON x.doc_id = y.doc_id
                 AND abs(x.i - y.i) BETWEEN 1 AND 3)
            SELECT center, context, CAST(count(*) AS BIGINT) AS n
            FROM p GROUP BY 1, 2 HAVING count(*) >= 5
            ORDER BY 1, 2
        """,
        "conformal_intervals": """
            WITH m AS (
                SELECT event_type,
                       CAST(count(*) AS BIGINT) AS n_train,
                       CAST(sum(CAST(round(value * 100) AS BIGINT))
                            AS BIGINT) AS sum_c
                FROM events WHERE event_id % 2 = 0 GROUP BY 1),
            mp AS (SELECT event_type, n_train,
                          sum_c / (100.0 * n_train) AS mean_pred
                   FROM m WHERE n_train > 0),
            r AS (
                SELECT e.event_type,
                       abs(e.value - mp.mean_pred) AS resid,
                       e.event_id,
                       row_number() OVER (
                           PARTITION BY e.event_type
                           ORDER BY abs(e.value - mp.mean_pred),
                                    e.event_id) AS rnk,
                       count(*) OVER (PARTITION BY e.event_type) AS n
                FROM events e JOIN mp USING (event_type)
                WHERE e.event_id % 2 = 1)
            SELECT r.event_type, mp.n_train,
                   CAST(r.n AS BIGINT) AS n_cal, r.resid AS qhat,
                   mp.mean_pred
            FROM r JOIN mp USING (event_type)
            WHERE r.rnk = least(CAST(ceil((r.n + 1) * 0.9) AS BIGINT), r.n)
            ORDER BY r.event_type
        """,
        "erasure_audit": """
            WITH v AS (
                SELECT c_custkey FROM customer
                WHERE ((CAST(c_custkey AS HUGEINT) * 2654435761)
                       % 4294967296 + 4294967296) % 4294967296 % 100 < 5),
            vo AS (SELECT o_orderkey FROM orders
                   WHERE o_custkey IN (SELECT c_custkey FROM v))
            SELECT 'customer' AS table_name,
                   CAST((SELECT count(*) FROM v) AS BIGINT) AS n_rows
            UNION ALL
            SELECT 'events',
                   CAST((SELECT count(*) FROM events
                         WHERE user_id IN (SELECT c_custkey FROM v))
                        AS BIGINT)
            UNION ALL
            SELECT 'lineitem',
                   CAST((SELECT count(*) FROM lineitem
                         WHERE l_orderkey IN (SELECT o_orderkey FROM vo))
                        AS BIGINT)
            UNION ALL
            SELECT 'orders',
                   CAST((SELECT count(*) FROM vo) AS BIGINT)
            ORDER BY table_name
        """,
        "value_kendall": """
            WITH s AS (
                SELECT user_id, value AS v,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) AS rn,
                       count(*) OVER (PARTITION BY user_id) AS n
                FROM events),
            p AS (
                SELECT a.user_id, a.n,
                       CASE WHEN b.v > a.v THEN 1 ELSE 0 END AS c,
                       CASE WHEN b.v < a.v THEN 1 ELSE 0 END AS d
                FROM s a JOIN s b
                  ON a.user_id = b.user_id AND a.rn < b.rn)
            SELECT user_id, CAST(max(n) AS BIGINT) AS n,
                   CAST(sum(c) AS BIGINT) AS concordant,
                   CAST(sum(d) AS BIGINT) AS discordant,
                   CAST(sum(c) - sum(d) AS DOUBLE)
                       / (max(n) * (max(n) - 1) / 2) AS tau
            FROM p GROUP BY user_id ORDER BY user_id
        """,
        "hourly_peaks": """
            WITH b AS (
                SELECT min(date_trunc('hour', ts)) AS mn,
                       max(date_trunc('hour', ts)) AS mx FROM events),
            hours AS (
                SELECT unnest(generate_series(
                    (SELECT mn FROM b), (SELECT mx FROM b),
                    INTERVAL 1 HOUR)) AS h),
            types AS (SELECT DISTINCT event_type FROM events),
            cnt AS (
                SELECT date_trunc('hour', ts) AS h, event_type,
                       count(*) AS n
                FROM events GROUP BY 1, 2),
            grid AS (
                SELECT types.event_type, hours.h,
                       coalesce(cnt.n, 0) AS n
                FROM hours CROSS JOIN types
                LEFT JOIN cnt ON cnt.h = hours.h
                             AND cnt.event_type = types.event_type),
            w AS (
                SELECT event_type, h, n,
                       lag(n) OVER win AS prev_n,
                       lead(n) OVER win AS next_n
                FROM grid
                WINDOW win AS (PARTITION BY event_type ORDER BY h))
            SELECT event_type,
                   strftime(h, '%Y-%m-%d %H:00:00') AS period,
                   CAST(n AS BIGINT) AS n,
                   CAST(prev_n AS BIGINT) AS prev_n,
                   CAST(next_n AS BIGINT) AS next_n
            FROM w
            WHERE prev_n IS NOT NULL AND next_n IS NOT NULL
              AND n >= prev_n + 2 AND n >= next_n + 2
            ORDER BY event_type, period
        """,
        "feature_aucs": """
            WITH scored AS (
                SELECT round((length(text) - length(regexp_replace(text, '[^\\w\\s]', '', 'g')))
                             / greatest(length(text), 1), 6) AS punct_ratio,
                       round((length(text) - length(regexp_replace(text, '\\d', '', 'g')))
                             / greatest(length(text), 1), 6) AS digit_ratio,
                       round(len(list_filter(regexp_split_to_array(lower(trim(text)), '\\s+'),
                                             x -> x IN """ + _ENGLISH_STOPS + """))
                             / greatest(CASE WHEN trim(text) = '' THEN 0
                                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                        END, 1), 6) AS stopword_ratio,
                       round(length(regexp_replace(trim(text), '\\s+', '', 'g'))
                             / greatest(CASE WHEN trim(text) = '' THEN 0
                                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                                        END, 1), 6) AS mean_token_len
                FROM documents),
            lab AS (
                SELECT punct_ratio, digit_ratio, stopword_ratio,
                       mean_token_len,
                       CASE WHEN stopword_ratio >= 0.05
                                 AND mean_token_len < 8.0
                            THEN 1 ELSE 0 END AS label
                FROM scored)
            SELECT 'digit_ratio' AS feature,
                   CAST(sum(label) AS BIGINT) AS n_pos,
                   CAST(count(*) - sum(label) AS BIGINT) AS n_neg,
                   CAST(sum(CASE WHEN label = 1
                                 THEN 2 * rk + t - 1 ELSE 0 END)
                        - sum(label) * (sum(label) + 1) AS BIGINT) AS u2,
                   (CAST(sum(CASE WHEN label = 1
                                  THEN 2 * rk + t - 1 ELSE 0 END)
                         - sum(label) * (sum(label) + 1) AS DOUBLE) / 2)
                       / (CAST(sum(label) AS DOUBLE)
                          * (count(*) - sum(label))) AS auc
            FROM (SELECT label,
                         CAST(rank() OVER (ORDER BY digit_ratio) AS BIGINT)
                             AS rk,
                         CAST(count(*) OVER (PARTITION BY digit_ratio)
                              AS BIGINT) AS t
                  FROM lab)\n            UNION ALL\n            SELECT 'mean_token_len' AS feature,
                   CAST(sum(label) AS BIGINT) AS n_pos,
                   CAST(count(*) - sum(label) AS BIGINT) AS n_neg,
                   CAST(sum(CASE WHEN label = 1
                                 THEN 2 * rk + t - 1 ELSE 0 END)
                        - sum(label) * (sum(label) + 1) AS BIGINT) AS u2,
                   (CAST(sum(CASE WHEN label = 1
                                  THEN 2 * rk + t - 1 ELSE 0 END)
                         - sum(label) * (sum(label) + 1) AS DOUBLE) / 2)
                       / (CAST(sum(label) AS DOUBLE)
                          * (count(*) - sum(label))) AS auc
            FROM (SELECT label,
                         CAST(rank() OVER (ORDER BY mean_token_len) AS BIGINT)
                             AS rk,
                         CAST(count(*) OVER (PARTITION BY mean_token_len)
                              AS BIGINT) AS t
                  FROM lab)\n            UNION ALL\n            SELECT 'punct_ratio' AS feature,
                   CAST(sum(label) AS BIGINT) AS n_pos,
                   CAST(count(*) - sum(label) AS BIGINT) AS n_neg,
                   CAST(sum(CASE WHEN label = 1
                                 THEN 2 * rk + t - 1 ELSE 0 END)
                        - sum(label) * (sum(label) + 1) AS BIGINT) AS u2,
                   (CAST(sum(CASE WHEN label = 1
                                  THEN 2 * rk + t - 1 ELSE 0 END)
                         - sum(label) * (sum(label) + 1) AS DOUBLE) / 2)
                       / (CAST(sum(label) AS DOUBLE)
                          * (count(*) - sum(label))) AS auc
            FROM (SELECT label,
                         CAST(rank() OVER (ORDER BY punct_ratio) AS BIGINT)
                             AS rk,
                         CAST(count(*) OVER (PARTITION BY punct_ratio)
                              AS BIGINT) AS t
                  FROM lab)\n            UNION ALL\n            SELECT 'stopword_ratio' AS feature,
                   CAST(sum(label) AS BIGINT) AS n_pos,
                   CAST(count(*) - sum(label) AS BIGINT) AS n_neg,
                   CAST(sum(CASE WHEN label = 1
                                 THEN 2 * rk + t - 1 ELSE 0 END)
                        - sum(label) * (sum(label) + 1) AS BIGINT) AS u2,
                   (CAST(sum(CASE WHEN label = 1
                                  THEN 2 * rk + t - 1 ELSE 0 END)
                         - sum(label) * (sum(label) + 1) AS DOUBLE) / 2)
                       / (CAST(sum(label) AS DOUBLE)
                          * (count(*) - sum(label))) AS auc
            FROM (SELECT label,
                         CAST(rank() OVER (ORDER BY stopword_ratio) AS BIGINT)
                             AS rk,
                         CAST(count(*) OVER (PARTITION BY stopword_ratio)
                              AS BIGINT) AS t
                  FROM lab)
            ORDER BY feature
        """,
        "type_staleness": """
            WITH g AS (
                SELECT event_type,
                       CAST(max(epoch_us(ts)) AS BIGINT) AS last_us,
                       CAST(count(*) AS BIGINT) AS n
                FROM events GROUP BY 1),
            w AS (SELECT max(last_us) AS wm FROM g)
            SELECT g.event_type, g.last_us, g.n,
                   CAST(w.wm - g.last_us AS BIGINT) AS staleness_us
            FROM g CROSS JOIN w ORDER BY g.event_type
        """,
        "split_shipments": """
            WITH p AS (SELECT l_orderkey,
                              count(DISTINCT l_shipdate) AS n_dates
                       FROM lineitem GROUP BY 1)
            SELECT CAST(n_dates AS BIGINT) AS n_dates,
                   CAST(count(*) AS BIGINT) AS n_orders
            FROM p GROUP BY 1 ORDER BY 1
        """,
        "order_lead_time": """
            WITH f AS (SELECT l_orderkey, min(l_shipdate) AS first_ship
                       FROM lineitem GROUP BY 1),
            j AS (SELECT CAST(f.first_ship AS DATE)
                         - CAST(o.o_orderdate AS DATE) AS lead_days
                  FROM f JOIN orders o ON o.o_orderkey = f.l_orderkey)
            SELECT CAST(lead_days AS BIGINT) AS lead_days,
                   CAST(count(*) AS BIGINT) AS n_orders
            FROM j GROUP BY 1 ORDER BY 1
        """,
        # ann_lsh / minhash_components / simhash_pairs / bpe_* /
        # kg_* / entity_lookup / table_* / media_features: heuristic,
        # approximate or model-driven — no SQL equivalent; the driver
        # records rows-only checks.
    }
