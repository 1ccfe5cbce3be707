"""Hostile buckets through the in-process annotate stage: unseen
characters, empty / whitespace-only / null text, 1-turn and over-cap
conversations, sparse (or negative) ``turn_idx`` and all-literal rows each give a
typed raw-triple table, never a hang or a schema crash; a null
``conv_id`` is a clear error at the bucketing step."""

import signal
from contextlib import contextmanager
from dataclasses import replace

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from table_annotation_ray.config import DEFAULT_CONFIG
from table_annotation_ray.schemas import CELL_SEP
from table_annotation_ray.stages.annotate_stage import _RAW_TRIPLE_SCHEMA, AnnotateBucket, add_bucket

# a small cap keeps the over-cap conversation (cap + 50 turns) cheap
CAP = 12
CFG = replace(DEFAULT_CONFIG, runtime=replace(DEFAULT_CONFIG.runtime, max_rows_per_conv=CAP))

_LABELS = st.sampled_from(["Paris", "France", "Berlin", "Hamburg", "Pulp Fiction", "paris", "Frnace"])
_LITERALS = st.sampled_from(["1994", "3.5", "-7", "1e9", "2021-03-04", "12 kg", "$5", "50%", "0"])
_BLANK = st.sampled_from(["", " ", "\t\n", "　", " "])
# any code point but surrogates: astral, combining, control, private use
_UNSEEN = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)
_CELL = st.one_of(_LABELS, _LITERALS, _BLANK, _UNSEEN)
_TEXT = st.one_of(st.none(), _BLANK, st.lists(_CELL, min_size=1, max_size=4).map(CELL_SEP.join))
_LITERAL_TEXT = st.lists(_LITERALS, min_size=1, max_size=4).map(CELL_SEP.join)


@st.composite
def _conversation(draw):
    shape = draw(st.sampled_from(["one_turn", "over_cap", "sparse", "all_literal", "mixed"]))
    if shape == "one_turn":
        turns = [0]
    elif shape == "over_cap":
        turns = list(range(CAP + 50))
    elif shape == "sparse":
        turns = sorted(draw(st.sets(
            st.one_of(st.integers(-3, CAP + 50), st.just(2**31 - 1)), min_size=1, max_size=6)))
    else:
        turns = list(range(draw(st.integers(1, CAP))))
    text = _LITERAL_TEXT if shape == "all_literal" else _TEXT
    return turns, draw(st.lists(text, min_size=len(turns), max_size=len(turns)))


@st.composite
def _bucket(draw):
    conv_ids = draw(st.lists(_UNSEEN, min_size=1, max_size=3, unique=True))
    rows = {"conv_id": [], "turn_idx": [], "text": []}
    for conv_id in conv_ids:
        turns, texts = draw(_conversation())
        rows["conv_id"] += [conv_id] * len(turns)
        rows["turn_idx"] += turns
        rows["text"] += texts
    return pa.table({
        "conv_id": pa.array(rows["conv_id"], pa.string()),
        "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
        "text": pa.array(rows["text"], pa.string()),
    })


@contextmanager
def _deadline(seconds: int):
    def hang(signum, frame):
        raise TimeoutError(f"no result within {seconds}s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="module")
def stage(kb_objects):
    return AnnotateBucket(kb_objects[0], CFG)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bucket=_bucket())
def test_hostile_bucket_gives_typed_triples(stage, bucket):
    with _deadline(30):
        out = stage.annotate_turns_table(bucket)
    assert out.schema == _RAW_TRIPLE_SCHEMA
    assert set(out["conv_id"].to_pylist()) <= set(bucket["conv_id"].to_pylist())


def test_known_bucket_still_annotates(stage):
    """The strategies above reach real annotations: a city table does."""
    texts = ["Paris | France", "Berlin | Germany", "Hamburg | Germany"]
    bucket = pa.table({"conv_id": ["c"] * 3, "turn_idx": pa.array([0, 1, 2], pa.int32()),
                       "text": texts})
    assert stage.annotate_turns_table(bucket).num_rows > 0


def test_negative_turn_idx_is_dropped(stage):
    """Found by the test above: a conversation whose only turn_idx is -1
    raised IndexError, and a -1 beside real turns wrote into the last
    row.  A negative turn is no row of the table, like a capped one."""
    def bucket(turns):
        texts = ["Paris | France", "Berlin | Germany", "Hamburg | Germany"]
        return pa.table({"conv_id": ["c"] * len(turns), "turn_idx": pa.array(turns, pa.int32()),
                         "text": texts[-len(turns):]})

    only = stage.annotate_turns_table(bucket([-1]))
    assert only.schema == _RAW_TRIPLE_SCHEMA and only.num_rows == 0
    assert stage.annotate_turns_table(bucket([-1, 0, 1])).equals(
        stage.annotate_turns_table(bucket([0, 1])))


def test_null_conv_id_is_a_clear_error():
    bucket = pa.table({"conv_id": pa.array(["a", None], pa.string()),
                       "turn_idx": pa.array([0, 0], pa.int32()), "text": ["x", "y"]})
    with pytest.raises(ValueError, match="conv_id"):
        add_bucket(bucket, 8)


# ------------------------------------------------ the same shapes through Ray

_CITIES = ["Paris | France", "Berlin | Germany", "Hamburg | Germany", "Frnace | 1994"]
# conv_id -> [(turn_idx, text)]: the strategies' shapes above, drawn by hand
_HOSTILE_CONVS = {
    "unseen \U0001d518\u0301": [(0, "\U0001d518\U0001d52b | Paris"), (1, "\x07 | \u0301x"),
                              (2, "Berlin | \U0001f600\U0001f600")],
    "blank": [(0, ""), (1, " "), (2, "\t\n"), (3, None), (4, "　 |  ")],
    "one_turn": [(0, "Paris | France")],
    "sparse": [(-3, "Paris | France"), (0, "Berlin | Germany"), (5, "Hamburg | Germany"),
               (2**31 - 1, "Paris | France")],
    "all_literal": [(0, "1994 | 3.5 | 12 kg"), (1, "2021-03-04 | $5 | 50%"), (2, "-7 | 1e9 | 0")],
    "mixed": [(t, text) for t, text in enumerate(_CITIES)],
    # 10,000 turns: the map-side cap ships DEFAULT_CONFIG's 400 of them
    "hot": [(t, _CITIES[t % 3]) for t in range(10_000)],
}


def _transcript(path, convs) -> str:
    rows = [(c, t, x) for c, turns in convs.items() for t, x in turns]
    conv, turn, text = zip(*rows)
    pq.write_table(pa.table({"conv_id": pa.array(conv, pa.string()),
                             "turn_idx": pa.array(turn, pa.int32()),
                             "text": pa.array(text, pa.string())}), path)
    return path


def _spo(table) -> set:
    return set(zip(table["subj"].to_pylist(), table["pred"].to_pylist(), table["obj"].to_pylist()))


@pytest.mark.parametrize("sharded_kb", [False, True], ids=["broadcast", "sharded"])
def test_hostile_transcript_through_ray(ray_session, synth_root, kb_objects, tmp_path, sharded_kb):
    """One flagship job per KB path over the hostile shapes plus a
    10,000-turn conversation gives the in-process stage's triples, and a
    null conv_id is a clear error; each job under a deadline."""
    import os

    from ray.data import DataContext

    from table_annotation_ray.pipelines.kg_pipeline import run_kg_pipeline

    kb_dir = os.path.join(synth_root, "kb")
    path = _transcript(str(tmp_path / "hostile.parquet"), _HOSTILE_CONVS)
    want = _spo(AnnotateBucket(kb_objects[0], DEFAULT_CONFIG).annotate_turns_table(pq.read_table(path)))
    assert want
    with _deadline(300):
        got = run_kg_pipeline(path, kb_dir, sharded_kb=sharded_kb).to_pandas()
    assert set(zip(got["subj"], got["pred"], got["obj"])) == want

    # the job raises add_bucket's ValueError as its own type, and only
    # that job's DataContext carries the setting that does so
    null = _transcript(str(tmp_path / "null.parquet"), {"c": [(0, "Paris | France")], None: [(0, "x")]})
    with _deadline(300), pytest.raises(ValueError, match=r"1 null conv_id value\(s\)"):
        run_kg_pipeline(null, kb_dir, sharded_kb=sharded_kb).to_pandas()
    assert not DataContext.get_current().raise_original_map_exception
