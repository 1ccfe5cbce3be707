"""End-to-end Ray pipeline tests: the P/R gate, the per-turn text
invariant, and checkpoint/resume equivalence (north_rule)."""

import os

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def triples_df(ray_session, synth_root):
    from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline

    ds = run_kg_pipeline(
        os.path.join(synth_root, "transcripts.parquet"), os.path.join(synth_root, "kb")
    )
    return ds.to_pandas()


def test_triple_pr_gate(triples_df, synth_root):
    """P/R >= 0.95 vs the golden triple set (BASELINE.json gate)."""
    golden = pq.read_table(os.path.join(synth_root, "golden_triples.parquet")).to_pandas()
    got = set(zip(triples_df.subj, triples_df.pred, triples_df.obj))
    want = set(zip(golden.subj, golden.pred, golden.obj))
    tp = len(got & want)
    precision = tp / max(1, len(got))
    recall = tp / max(1, len(want))
    assert precision >= 0.95, f"precision {precision:.3f}"
    assert recall >= 0.95, f"recall {recall:.3f}"


def test_triples_deduplicated(triples_df):
    assert not triples_df.duplicated(subset=["subj", "pred", "obj"]).any()


def test_per_turn_text_equality(ray_session, synth_root):
    """Per-turn text equality under stable (conv_id, turn_idx) ordering
    (input_hint invariant): reading + cleaning + re-joining cells must
    reproduce the de-mojibake'd text exactly, independent of block order."""
    import ray.data as rd

    from table_annotation_ray.functions.text import fix_encoding
    from table_annotation_ray.stages.clean import clean_and_explode
    from table_annotation_ray.schemas import CELL_SEP

    path = os.path.join(synth_root, "transcripts.parquet")
    raw = pq.read_table(path).to_pylist()
    expected = {
        (r["conv_id"], r["turn_idx"]): fix_encoding(r["text"]) for r in raw
    }

    ds = rd.read_parquet(path, columns=["conv_id", "turn_idx", "text"])
    cells = ds.map_batches(clean_and_explode, batch_format="pyarrow").to_pandas()
    rebuilt = (
        cells.sort_values(["conv_id", "turn_idx", "col_slot"])
        .groupby(["conv_id", "turn_idx"])["mention"]
        .agg(lambda xs: CELL_SEP.join(xs))
    )
    assert len(rebuilt) == len(expected)
    for (conv, turn), text in rebuilt.items():
        assert text == expected[(conv, turn)], (conv, turn)


def test_resume_equals_single_run(ray_session, synth_root, tmp_path):
    """Killing after some partitions and resuming yields the same output
    as a single run (north_rule resumability)."""
    import pandas as pd
    import ray
    import ray.data as rd

    from table_annotation_ray.pipelines.kg_pipeline import (
        read_transcripts,
        triples_from_turns,
    )
    from table_annotation_ray.stages.triples import write_triples_partitioned
    from table_annotation_ray.state.kb import broadcast_kb

    kb_ref = broadcast_kb(os.path.join(synth_root, "kb"))
    path = os.path.join(synth_root, "transcripts.parquet")

    def build():
        return triples_from_turns(read_transcripts(path), kb_ref)

    single_dir = str(tmp_path / "single")
    write_triples_partitioned(build(), single_dir, num_partitions=4)

    resumed_dir = str(tmp_path / "resumed")
    # first run: pretend partitions 0 and 2 were committed by an earlier
    # run — write everything, then delete markers+dirs for 1 and 3
    write_triples_partitioned(build(), resumed_dir, num_partitions=4)
    import shutil

    for part in (1, 3):
        shutil.rmtree(os.path.join(resumed_dir, f"part={part}"))
    # resume: must rewrite only 1 and 3
    manifest = write_triples_partitioned(build(), resumed_dir, num_partitions=4)
    assert manifest["partitions"]["0"]["status"] == "resumed(skip)"
    assert manifest["partitions"]["1"]["status"] == "written"

    def read_all(d):
        df = pq.read_table(d).to_pandas()
        cols = ["subj", "pred", "obj"]
        return df[cols].sort_values(cols).reset_index(drop=True)

    pd.testing.assert_frame_equal(read_all(single_dir), read_all(resumed_dir))


def test_manifest_lineage(ray_session, synth_root, tmp_path):
    """The sink writes per-partition row counts (lineage sidecar)."""
    import json

    import ray

    from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline

    out = str(tmp_path / "triples")
    run_kg_pipeline(
        os.path.join(synth_root, "transcripts.parquet"),
        os.path.join(synth_root, "kb"),
        out_dir=out,
    )
    with open(os.path.join(out, "_MANIFEST.json")) as f:
        manifest = json.load(f)
    total = sum(p["rows"] for p in manifest["partitions"].values())
    assert total > 0
    for part_name in os.listdir(out):
        if part_name.startswith("part="):
            assert os.path.exists(os.path.join(out, part_name, "_SUCCESS"))


def test_sharded_input_directory(ray_session, synth_root, tmp_path):
    """100 TB inputs arrive as many files: a directory of transcript
    shards must produce the identical triple set as the single file."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline

    t = pq.read_table(os.path.join(synth_root, "transcripts.parquet"))
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    n = t.num_rows
    for i, (lo, hi) in enumerate([(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]):
        pq.write_table(t.slice(lo, hi - lo), str(shard_dir / f"shard-{i}.parquet"))

    single = run_kg_pipeline(
        os.path.join(synth_root, "transcripts.parquet"), os.path.join(synth_root, "kb")
    ).to_pandas()
    sharded = run_kg_pipeline(
        str(shard_dir), os.path.join(synth_root, "kb")
    ).to_pandas()
    key = ["subj", "pred", "obj"]
    assert sorted(map(tuple, single[key].values.tolist())) == sorted(
        map(tuple, sharded[key].values.tolist())
    )


def _worker_reference_triples(hot, kb):
    """Reference semantics: the annotate worker sees ALL rows of each
    conversation and caps in-group (D4) — computed directly, no Ray."""
    import pandas as pd

    from table_annotation_ray.functions.text import fix_encoding
    from table_annotation_ray.schemas import CELL_SEP
    from table_annotation_ray.stages.annotate_stage import AnnotateBucket
    from table_annotation_ray.stages.triples import conversation_outputs_to_rows

    stage = AnnotateBucket(kb)
    rows_all = []
    for conv_id, sub in hot.groupby("conv_id"):
        turns = []
        for t, x in zip(sub["turn_idx"], sub["text"]):
            fixed = fix_encoding(x) if x else ""
            for s, cell in enumerate(fixed.split(CELL_SEP)):
                turns.append((int(t), s, cell.strip()))
        result, cells = stage._annotate_rows(turns)
        rows_all.extend(conversation_outputs_to_rows(conv_id, result, cells))
    return (
        pd.DataFrame(rows_all, columns=["subj", "pred", "obj", "conv_id", "score"])
        .groupby(["subj", "pred", "obj"], as_index=False)
        .agg(conv_id=("conv_id", "min"), score=("score", "max"))
        [["subj", "pred", "obj", "score", "conv_id"]]
        .sort_values(["subj", "pred", "obj"])
        .reset_index(drop=True)
    )


def test_hot_conversation_prefilter_identical(ray_session, synth_root, tmp_path):
    """The flagship's pre-shuffle skew filter (turn_idx < cap) must
    equal the annotate worker's own in-group cap on DENSE 0-based
    turn_idx (the input-hint contract) — checked on a SINGLE hot
    conversation so cross-conversation triple dedup cannot mask a
    divergence (code-review r4): one conv, 3x the cap in dense turns,
    real mention text throughout."""
    import os

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from table_annotation_ray.config import DEFAULT_CONFIG
    from table_annotation_ray.pipelines.kg_pipeline import (
        read_transcripts,
        triples_from_turns,
    )
    from table_annotation_ray.state.kb import load_kb

    base = pq.read_table(
        os.path.join(synth_root, "transcripts.parquet")
    ).to_pandas()
    conv = (
        base[base["conv_id"] == base["conv_id"].iloc[0]]
        .sort_values("turn_idx")
        .reset_index(drop=True)
    )
    n_cap = DEFAULT_CONFIG.runtime.max_rows_per_conv
    n_hot = 3 * n_cap
    # dense hot conversation: real turn texts cycled over 3x the cap
    hot = pd.DataFrame(
        {
            "conv_id": conv["conv_id"].iloc[0],
            "turn_idx": pd.array(range(n_hot), dtype="int32"),
            "role": "user",
            "text": [conv["text"].iloc[i % len(conv)] for i in range(n_hot)],
            "tool": "",
            "ts": conv["ts"].iloc[0],
        }
    )
    path = str(tmp_path / "hot_dense.parquet")
    pq.write_table(pa.Table.from_pandas(hot, preserve_index=False), path)

    kb = load_kb(os.path.join(synth_root, "kb"))
    got = (
        triples_from_turns(read_transcripts(path), ray.put(kb), DEFAULT_CONFIG)
        .to_pandas()
        .sort_values(["subj", "pred", "obj"])
        .reset_index(drop=True)
    )
    want = _worker_reference_triples(hot, kb)
    assert len(want) > 0  # the hot conversation must actually emit triples
    pd.testing.assert_frame_equal(got[want.columns.tolist()], want)


def test_sparse_turn_idx_matches_worker(ray_session, synth_root, tmp_path):
    """SPARSE turn indexes (the case outside the input-hint contract):
    since the worker derives table dims from capped rows only
    (code-review r4 fix), the pipeline's pre-shuffle cap is
    output-identical for ANY turn_idx distribution — it must equal the
    worker on a conversation mixing in-cap rows with beyond-cap rows
    carrying a WIDER col_slot payload."""
    import os

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from table_annotation_ray.pipelines.kg_pipeline import (
        read_transcripts,
        triples_from_turns,
    )
    from table_annotation_ray.schemas import CELL_SEP
    from table_annotation_ray.state.kb import load_kb

    base = pq.read_table(
        os.path.join(synth_root, "transcripts.parquet")
    ).to_pandas()
    conv = base[base["conv_id"] == base["conv_id"].iloc[0]].copy()
    # beyond-cap rows with MORE cells per turn than any in-cap row: the
    # old dims bug would widen the in-cap table with empty columns
    wide_text = CELL_SEP.join(["x"] * 12)
    beyond = pd.DataFrame(
        {
            "conv_id": conv["conv_id"].iloc[0],
            "turn_idx": pd.array([500, 501], dtype="int32"),
            "role": "user",
            "text": wide_text,
            "tool": "",
            "ts": conv["ts"].iloc[0],
        }
    )
    sparse = pd.concat([conv, beyond], ignore_index=True)
    path = str(tmp_path / "sparse.parquet")
    pq.write_table(pa.Table.from_pandas(sparse, preserve_index=False), path)

    kb = load_kb(os.path.join(synth_root, "kb"))
    want = _worker_reference_triples(sparse, kb)
    got = triples_from_turns(read_transcripts(path), ray.put(kb)).to_pandas()
    if len(want):
        got = got.sort_values(["subj", "pred", "obj"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns.tolist()], want)
    else:
        assert len(got) == 0


# --- seventh code-review batch regressions ----------------------------------


def test_dedup_triples_empty_block_schema(ray_session):
    """An all-literal bucket can emit a 0-row block; local_dedup's
    partial must carry the explicit string schema or the groupby
    exchange dies unifying null-typed columns (CLAUDE.md r2 rule)."""
    import pandas as pd
    import ray.data as rd

    from table_annotation_ray.stages.triples import dedup_triples

    full = pd.DataFrame(
        {
            "subj": ["s1", "s1"], "pred": ["p", "p"], "obj": ["o", "o"],
            "conv_id": ["c2", "c1"], "score": [0.5, 0.9],
        }
    )
    empty = full.iloc[:0]
    ds = rd.from_pandas([full, empty])
    out = dedup_triples(ds).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["score"] == 0.9 and out.iloc[0]["conv_id"] == "c1"


def test_ref_key_takes_refs_only(ray_session):
    """A broadcast ObjectRef keys by its hex and None by None; any other
    value raises TypeError, since a raw value keyed by id() could serve
    state built from a different object once its address is reused
    (values with a ``hex`` method of their own included)."""
    import pytest
    import ray

    from table_annotation_ray.state.worker_state import ref_key

    ref = ray.put({"kb": 1})
    assert ref_key(ref) == ref.hex()
    assert ref_key(None) is None
    for raw in ({"kb": 1}, object(), b"\x01", 1.5, "abc123"):
        with pytest.raises(TypeError):
            ref_key(raw)


def test_run_query_cli_list():
    """--list enumerates the full registry with oracle modes and needs
    no Ray session (pure import path)."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "jobs/run_query.py", "--list"],
        capture_output=True, text=True, cwd=repo, timeout=120,
    )
    assert out.returncode == 0
    lines = [l for l in out.stdout.strip().splitlines() if "\t" in l]
    assert len(lines) >= 105
    modes = {l.split("\t")[1] for l in lines}
    assert modes == {"sql", "rows_only"}
    names = {l.split("\t")[0] for l in lines}
    assert {"kg_triples", "pricing_summary", "triangle_count"} <= names
