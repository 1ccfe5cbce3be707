"""The triple dedup shares the sink's hash(subj) exchange: the string-key
partition rule, a differential check of ``dedup_triples`` against a
pure-Python reduce, and the sink's file layout."""

import json
import os
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

_COLS = ["subj", "pred", "obj", "conv_id", "score"]


def test_str_partitions_matches_crc32():
    import pyarrow as pa

    from table_annotation_ray.stages.annotate_stage import add_bucket
    from table_annotation_ray.stages.sinks import assign_part_str, str_partitions

    keys = ["a", "b", "a", "Zürich", "東京", "", "Zürich", "a" * 300, "b"]
    for n in (1, 7, 16, 128):
        want = [zlib.crc32(k.encode()) % n for k in keys]
        chunked = pa.chunked_array([keys[:4], keys[4:]])
        assert str_partitions(chunked, n, "key").tolist() == want
        assert str_partitions(pa.array(keys), n, "key").tolist() == want
        t = pa.table({"conv_id": keys})
        assert add_bucket(t, n)["bucket"].to_pylist() == want
        assert assign_part_str(t, "conv_id", n)["part"].to_pylist() == want
    assert str_partitions(pa.array([], pa.string()), 4, "key").tolist() == []


def test_str_partitions_null_key_raises():
    import pyarrow as pa

    from table_annotation_ray.stages.annotate_stage import add_bucket
    from table_annotation_ray.stages.sinks import assign_part_str, str_partitions

    with pytest.raises(ValueError, match="1 null key"):
        str_partitions(pa.array(["a", None, "b"]), 4, "key")
    with pytest.raises(ValueError, match="conv_id"):
        add_bucket(pa.table({"conv_id": ["c1", None]}), 8)
    with pytest.raises(ValueError, match="subj"):
        assign_part_str(pa.table({"subj": [None]}), "subj", 16)


def _python_dedup(rows):
    """(subj, pred, obj) -> (max score, min conv_id)."""
    best = {}
    for s, p, o, c, sc in rows:
        prev = best.get((s, p, o))
        best[(s, p, o)] = (sc, c) if prev is None else (max(prev[0], sc), min(prev[1], c))
    return {(s, p, o, sc, c) for (s, p, o), (sc, c) in best.items()}


_row = st.tuples(
    st.sampled_from(["s1", "s2", "é", "東京", "s" * 40]),
    st.sampled_from(["p", "P31"]),
    st.sampled_from(["o1", "o2"]),
    st.sampled_from(["c1", "c2", "c3"]),
    st.sampled_from([0.25, 0.5, 1.0]),
)


@settings(max_examples=12, deadline=None)
@given(blocks=st.lists(st.lists(_row, max_size=12), min_size=1, max_size=5),
       num_partitions=st.sampled_from([1, 3, 16]))
@example(  # one triple in three blocks, tied scores, different conv_ids
    blocks=[[("s1", "p", "o1", "c3", 0.5)], [], [("s1", "p", "o1", "c1", 0.5)],
            [("s1", "p", "o1", "c2", 0.25)]],
    num_partitions=16,
)
@example(  # more input blocks than partitions, every partition hit twice
    blocks=[[(s, "p", "o1", c, 0.5)] for c in ("c1", "c2")
            for s in ("s1", "s2", "é", "s3", "s4", "s7")] + [[]],
    num_partitions=3,
)
@example(  # subjects in 12 of 16 partitions: more partitions than reducers
    blocks=[[(f"s{i}", p, "o1", "c1", 1.0) for i in range(20) for p in ("p", "P31")],
            [(f"s{i}", "p", "o2", "c2", 0.25) for i in range(0, 20, 3)]],
    num_partitions=16,
)
def test_dedup_triples_matches_python_reduce(ray_session, blocks, num_partitions):
    """Each sink partition lies whole in one output block, sorted by
    (subj, pred, obj), and the exchange runs at most
    ``min(P, max(2, CPUs))`` reducers, not one per partition."""
    import pandas as pd
    import ray
    import ray.data as rd

    from table_annotation_ray.stages.triples import _TRIPLE_SCHEMA, dedup_triples

    # an empty frame's object columns reach Arrow as type NULL
    frames = [pd.DataFrame(b, columns=_COLS, dtype=object) if not b
              else pd.DataFrame(b, columns=_COLS) for b in blocks]
    out = dedup_triples(rd.from_pandas(frames), num_partitions)
    got = set()
    block_of_part = {}
    n_blocks = 0
    for i, block in enumerate(out.iter_batches(batch_size=None, batch_format="pyarrow")):
        if block.num_rows == 0:
            continue
        n_blocks += 1
        assert block.schema == _TRIPLE_SCHEMA
        rows = list(zip(*(block[k].to_pylist() for k in _TRIPLE_SCHEMA.names)))
        by_part = {}
        for row in rows:
            by_part.setdefault(zlib.crc32(row[0].encode()) % num_partitions, []).append(row[:3])
        for part, keys in by_part.items():
            assert block_of_part.setdefault(part, i) == i, (part, "split over blocks")
            assert keys == sorted(keys), part
        assert not set(rows) & got
        got |= set(rows)
    assert got == _python_dedup([r for b in blocks for r in b])
    cpus = int(ray.cluster_resources()["CPU"])
    assert cpus == 4  # the session fixture's; 16 partitions -> 4 reducers
    assert n_blocks <= min(num_partitions, max(2, cpus)), n_blocks


class _SchemaChanges:
    """Collects the ``ray.data`` logger's "Operator produced a RefBundle
    with a different schema" warnings while active."""

    def __enter__(self):
        import logging

        class Collect(logging.Handler):
            def __init__(self):
                super().__init__(logging.WARNING)
                self.messages = []

            def emit(self, record):
                self.messages.append(record.getMessage())

        self.logger = logging.getLogger("ray.data")
        self.handler, self.level = Collect(), self.logger.level
        self.logger.addHandler(self.handler)
        self.logger.setLevel(logging.WARNING)
        return self

    def __exit__(self, *exc):
        self.logger.setLevel(self.level)
        self.logger.removeHandler(self.handler)

    @property
    def diverged(self) -> list[str]:
        return [m for m in self.handler.messages
                if "Operator produced a RefBundle with a different schema" in m]


def test_dedup_logs_no_schema_divergence(ray_session, synth_root, tmp_path):
    """The dedup exchange emits no schema-less empty blocks on the 60-
    conversation fixture, whose triples miss 3 of the 16 sink partitions:
    Ray logs each such block as a schema change."""
    from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline

    out = str(tmp_path / "triples")
    with _SchemaChanges() as log:
        run_kg_pipeline(os.path.join(synth_root, "transcripts.parquet"),
                        os.path.join(synth_root, "kb"), out_dir=out)
    with open(os.path.join(out, "_MANIFEST.json")) as f:
        assert len(json.load(f)["partitions"]) == 13  # 3 partitions get no triple
    assert log.diverged == []


def test_sparse_dedup_logs_no_schema_divergence(ray_session):
    """One triple in a 4-CPU session: three of the four part ranges of
    the dedup exchange get only pad rows, and each must still get its
    reduce call, or Ray logs the empty block as a schema change."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from table_annotation_ray.stages.triples import dedup_triples

    assert ray.cluster_resources()["CPU"] == 4
    one = pa.table({"subj": ["Q1"], "pred": ["P1"], "obj": ["Q2"],
                    "conv_id": ["c"], "score": [1.0]})
    with _SchemaChanges() as log:
        assert dedup_triples(rd.from_arrow(one)).take_all() == [
            {"subj": "Q1", "pred": "P1", "obj": "Q2", "score": 1.0, "conv_id": "c"}]
    assert log.diverged == []


def test_dedup_null_subj_raises(ray_session):
    """A triple with a null subj is an error, not a pad row of the
    exchange: dedup_triples raises the partition rule's ValueError."""
    import pyarrow as pa
    import ray.data as rd

    from table_annotation_ray.stages.triples import dedup_triples

    bad = pa.table({"subj": ["Q1", None], "pred": ["P1", "P1"], "obj": ["Q2", "Q3"],
                    "conv_id": ["c", "c"], "score": [1.0, 1.0]})
    out = dedup_triples(rd.from_arrow(bad))
    out.context.raise_original_map_exception = True
    with pytest.raises(ValueError, match="null subj"):
        out.take_all()


def test_sink_writes_one_file_per_partition(ray_session, synth_root, tmp_path):
    import pyarrow.parquet as pq

    from table_annotation_ray.config import DEFAULT_CONFIG
    from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline

    out = str(tmp_path / "triples")
    run_kg_pipeline(os.path.join(synth_root, "transcripts.parquet"),
                    os.path.join(synth_root, "kb"), out_dir=out)
    part_dirs = [d for d in os.listdir(out) if d.startswith("part=")]
    assert 0 < len(part_dirs) <= DEFAULT_CONFIG.runtime.triple_partitions
    with open(os.path.join(out, "_MANIFEST.json")) as f:
        manifest = json.load(f)
    for d in part_dirs:
        files = [f for f in os.listdir(os.path.join(out, d)) if f.endswith(".parquet")]
        assert len(files) == 1, (d, files)
        rows = pq.read_table(os.path.join(out, d, files[0])).num_rows
        assert manifest["partitions"][d.split("=")[1]]["rows"] == rows


def test_sink_all_empty_blocks(ray_session, tmp_path):
    import pandas as pd
    import ray.data as rd

    from table_annotation_ray.stages.triples import dedup_triples, write_triples_partitioned

    empty = pd.DataFrame(columns=_COLS, dtype=object)
    out = str(tmp_path / "triples")
    manifest = write_triples_partitioned(
        dedup_triples(rd.from_pandas([empty, empty, empty]), 4), out, 4,
        lineage={"input": "empty"},
    )
    assert manifest["total_rows"] == 0
    with open(os.path.join(out, "_MANIFEST.json")) as f:
        on_disk = json.load(f)
    assert on_disk == manifest
    assert on_disk["num_partitions"] == 4
    assert on_disk["resumed_partitions"] == []
    assert on_disk["lineage"] == {"input": "empty"}
    assert all(p["rows"] == 0 for p in on_disk["partitions"].values())
