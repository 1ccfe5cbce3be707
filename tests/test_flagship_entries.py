"""The flagship's single bucketed reader: the stateless cells view agrees
with it on hostile text, the job CLI takes its defaults from the config,
and the Ray entries equal an in-process run over locally formed buckets
(differential oracle for the bucketing, the cap and the dedup)."""

import importlib.util
import json
import os
from types import SimpleNamespace

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_cells_view_matches_turn_reader_on_null_text():
    """clean_and_explode gives a null text the turn reader's one empty
    cell at slot 0 instead of failing in its slot arithmetic, and agrees
    with the reader on empty and control-character text."""
    from table_annotation_ray.stages.annotate_stage import _conversations
    from table_annotation_ray.stages.clean import clean_and_explode

    texts = [None, "", "a | b", "\x1c a \x1c | b"]
    batch = pa.table({
        "conv_id": pa.array(["c0", "c0", "c1", "c1"], pa.string()),
        "turn_idx": pa.array([0, 1, 0, 1], pa.int32()),
        "text": pa.array(texts, pa.string()),
    })
    cells = clean_and_explode(batch)
    got = sorted(zip(*(cells[c].to_pylist()
                       for c in ("conv_id", "turn_idx", "col_slot", "mention"))))
    want = sorted((conv, t, s, m)
                  for conv, rows in _conversations(batch).items()
                  for t, s, m in rows)
    assert got == want
    assert ("c0", 0, 0, "") in got and ("c1", 1, 0, "a") in got


def test_run_kg_cli_defaults_come_from_config(tmp_path, monkeypatch):
    """With no tuning flags the job runs DEFAULT_CONFIG's runtime and
    annotation values, e.g. the tuned num_buckets, not a CLI copy."""
    import ray
    from ray.data.context import DataContext

    from table_annotation_ray.config import DEFAULT_CONFIG
    from table_annotation_ray.pipelines import kg_pipeline

    seen = {}

    def fake_run(transcripts, kb, out_dir=None, cfg=None, **kwargs):
        seen["cfg"] = cfg
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "_MANIFEST.json"), "w") as f:
            json.dump({"total_rows": 0, "partitions": {},
                       "resumed_partitions": []}, f)

    monkeypatch.setattr(kg_pipeline, "run_kg_pipeline", fake_run)
    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "shutdown", lambda: None)
    # the job sets the session's shuffle strategy: keep it off this one
    monkeypatch.setattr(DataContext, "get_current", lambda: SimpleNamespace())
    out = str(tmp_path / "out")
    monkeypatch.setattr("sys.argv", ["run_kg.py", "--transcripts", "t.parquet",
                                     "--kb", "kb", "--out", out])
    spec = importlib.util.spec_from_file_location(
        "run_kg_cli", os.path.join(REPO, "jobs", "run_kg.py"))
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)

    assert cli.main() == 0
    assert seen["cfg"].runtime == DEFAULT_CONFIG.runtime
    assert seen["cfg"].annotation == DEFAULT_CONFIG.annotation


def _local_buckets(turns: pa.Table, cfg) -> list[pa.Table]:
    """The flagship's annotate groups formed in process: pre-shuffle cap,
    add_bucket, one table per bucket value."""
    from table_annotation_ray.stages.annotate_stage import add_bucket

    capped = turns.filter(pc.less(turns["turn_idx"], cfg.runtime.max_rows_per_conv))
    bucketed = add_bucket(capped, cfg.runtime.num_buckets)
    return [bucketed.filter(pc.equal(bucketed["bucket"], b))
            for b in sorted(set(bucketed["bucket"].to_pylist()))]


def test_ray_entries_equal_in_process_annotation(ray_session, synth_root, tmp_path):
    """Differential oracle: triples_from_turns and annotations_dataset on
    Ray equal one in-process AnnotateBucket run over the same buckets,
    value for value — with a null-text turn and an all-empty
    conversation in the input."""
    import ray

    from table_annotation_ray.config import DEFAULT_CONFIG
    from table_annotation_ray.pipelines.kg_pipeline import (
        annotations_dataset,
        read_transcripts,
        triples_from_turns,
    )
    from table_annotation_ray.stages.annotate_stage import AnnotateBucket
    from table_annotation_ray.state.kb import load_kb

    base = pq.read_table(os.path.join(synth_root, "transcripts.parquet"),
                         columns=["conv_id", "turn_idx", "text"])
    first = base["conv_id"][0].as_py()
    last_turn = pc.max(base.filter(pc.equal(base["conv_id"], first))["turn_idx"]).as_py()
    extra = pa.table({
        "conv_id": pa.array([first, "conv-empty", "conv-empty"], pa.string()),
        "turn_idx": pa.array([last_turn + 1, 0, 1], base.schema.field("turn_idx").type),
        "text": pa.array([None, "", ""], pa.string()),
    })
    turns = pa.concat_tables([base, extra.cast(base.schema)])
    path = str(tmp_path / "transcripts.parquet")
    pq.write_table(turns, path, row_group_size=256)

    kb = load_kb(os.path.join(synth_root, "kb"))
    cfg = DEFAULT_CONFIG
    stage = AnnotateBucket(kb, cfg)
    buckets = _local_buckets(turns, cfg)
    raw = pa.concat_tables([stage.annotate_turns_table(b) for b in buckets]).to_pandas()
    key = ["subj", "pred", "obj"]
    want_triples = (
        raw.groupby(key, as_index=False)
        .agg(score=("score", "max"), conv_id=("conv_id", "min"))
        .sort_values(key).reset_index(drop=True)
    )
    ann_cols = ["conv_id", "kind", "row", "col", "col2", "id", "score", "coverage"]
    want_ann = (
        pa.concat_tables([stage.annotations_table(b) for b in buckets]).to_pandas()
        .sort_values(ann_cols).reset_index(drop=True)
    )
    assert len(want_triples) and len(want_ann)
    assert not (want_ann["conv_id"] == "conv-empty").any()

    kb_ref = ray.put(kb)
    got_triples = (
        triples_from_turns(read_transcripts(path), kb_ref, cfg).to_pandas()
        [want_triples.columns.tolist()].sort_values(key).reset_index(drop=True)
    )
    got_ann = (
        annotations_dataset(read_transcripts(path), kb_ref, cfg).to_pandas()
        [ann_cols].sort_values(ann_cols).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got_triples, want_triples)
    pd.testing.assert_frame_equal(got_ann, want_ann)
