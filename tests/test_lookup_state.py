"""One label index per worker, KB and config: the lookup stages read the
annotate stage's index, the stage is keyed on the config fields its
build reads, and the lookup queries' outputs are pinned by value."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter, OrderedDict
from dataclasses import replace

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rows_sha256(df) -> str:
    """sha256 over the sorted JSON lines of ``df``'s rows (floats exact)."""
    rows = sorted(json.dumps(r, sort_keys=True) for r in df.to_dict("records"))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# sorted-row hashes at sf0.01 (70-conversation synth): the two rows-only
# lookup queries, taken before their stages were rewired onto the
# annotate stage's index, the three flagship KG queries, taken before
# the lookup miss path was batched, and the two generic-table queries
# (tables from the sf0.01 nation / region files), taken before the KB
# loaders were merged into one
_LOOKUP_QUERY_SHA256 = {
    "kg_candidates": (1184, "b2340fdfe7162f378b28af216d8ae887380efd80132f82d4b0315dedf26db57f"),
    "entity_lookup": (96, "5e42c3b52e8fcf36dc2b3ed76d2dc642340ad8b60212a07ad2222398c58654ba"),
    "kg_triples": (142, "0160333fb97ae43a58b4035886381065379986d693a643de615c71fb2154a35c"),
    "kg_annotations": (1457, "42c1f678717cdcd87132df93d60e02838b9ee3239f0788692c20158da556d3b9"),
    "kg_mentions": (1975, "698ef75e5ac32043f53d40ff60aa13d4829ac76fed2526d3c8839993782f9d8b"),
    "table_preprocess": (2, "6a0175e68b8b982b4296db68e2ae1b4bf0d073fc8dec7220d9866b391dbb2c36"),
    "table_annotate": (3, "2e092762efcc84e1f260f51edb6a298c3efa7342549d0bd54d8dff5ec72aabb6"),
}


def test_lookup_queries_match_pinned_rows(ray_session):
    """``kg_candidates`` and ``entity_lookup`` have no SQL oracle, and the
    KG and table queries' oracles check row counts only; their rows at
    sf0.01 are pinned here as value hashes."""
    sys.path.insert(0, REPO)
    sys.path.insert(0, os.path.join(REPO, "tools"))
    import __ray_entry__ as entry
    from check_oracles import SF_DIR

    for name, (n_rows, digest) in _LOOKUP_QUERY_SHA256.items():
        # the table queries read the sf0.01 nation / region files
        out = entry.queries()[name](SF_DIR if name.startswith("table_") else "sf0.01")
        assert (len(out), _rows_sha256(out)) == (n_rows, digest), name


def test_lookup_labels_null_label_has_no_rows(ray_session, kb_objects):
    """A null label gives no rows, like a null mention in the candidates
    stage, instead of failing the task in ``label.lower()``."""
    import ray
    import ray.data as rd

    from table_annotation_ray.pipelines.table_pipeline import lookup_labels

    kb, _, idx = kb_objects
    assert idx.search("") == []
    ds = rd.from_items([{"label": None}, {"label": "paris"}, {"label": None}])
    out = lookup_labels(ds, ray.put(kb)).to_pandas()
    assert len(out) > 0
    assert set(out["label"]) == {"paris"}


def test_annotate_stage_key_holds_the_fields_it_reads(ray_session, kb_objects, monkeypatch):
    """Configs that differ only in knobs the stage does not read share one
    stage; a changed lookup, annotation or cap knob builds a new one, and
    None means DEFAULT_CONFIG."""
    import ray

    from table_annotation_ray.config import DEFAULT_CONFIG
    from table_annotation_ray.stages import annotate_stage
    from table_annotation_ray.state import worker_state

    monkeypatch.setattr(worker_state, "_STATE", OrderedDict())
    monkeypatch.setattr(worker_state, "MAX_PER_NAME", 8)
    kb_ref = ray.put(kb_objects[0])

    def stage(cfg):
        return annotate_stage.get_annotate_stage(kb_ref, cfg)

    base = stage(DEFAULT_CONFIG)
    assert stage(None) is base
    runtime = DEFAULT_CONFIG.runtime
    for same in (replace(runtime, num_buckets=8), replace(runtime, triple_partitions=4),
                 replace(runtime, typing_batch_size=7)):
        assert stage(replace(DEFAULT_CONFIG, runtime=same)) is base
    changed = [
        replace(DEFAULT_CONFIG, runtime=replace(runtime, max_rows_per_conv=3)),
        replace(DEFAULT_CONFIG, lookup=replace(DEFAULT_CONFIG.lookup, two_edit_min_token_len=0)),
        replace(DEFAULT_CONFIG, annotation=replace(DEFAULT_CONFIG.annotation, k=5)),
    ]
    stages = [stage(cfg) for cfg in changed]
    assert len({id(s) for s in [base, *stages]}) == 4
    for cfg, s in zip(changed, stages):
        assert s.cfg == cfg and stage(cfg) is s
    assert sum(k[0] == "annotate" for k in worker_state._STATE) == 4


_ONE_WORKER_SCRIPT = r"""
import json, os, sys
from dataclasses import replace
import ray
sys.path.insert(0, sys.argv[1])
from table_annotation_ray.config import DEFAULT_CONFIG, LookupConfig, PipelineConfig
from table_annotation_ray.pipelines.kg_pipeline import read_transcripts, triples_from_turns
from table_annotation_ray.pipelines.table_pipeline import lookup_labels
from table_annotation_ray.stages.clean import clean_and_explode
from table_annotation_ray.stages.lookup_stage import lookup_candidates
from table_annotation_ray.state.kb import broadcast_kb, load_kb
from table_annotation_ray.state.lookup_index import LabelIndex

kb_dir, transcripts, log = sys.argv[2:5]


def note(*item):
    with open(log, "a") as f:
        f.write(json.dumps(item) + "\n")


def log_builds():
    # every worker logs each LabelIndex and AnnotateBucket it builds
    from table_annotation_ray.stages.annotate_stage import AnnotateBucket

    def logged(cls, describe):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            note(cls.__name__, os.getpid(), describe(self))

        cls.__init__ = __init__

    logged(LabelIndex, lambda ix: repr(ix.cfg))
    logged(AnnotateBucket, lambda st: repr((st.cfg.lookup, st.cfg.annotation,
                                            st.cfg.runtime.max_rows_per_conv)))


ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
         runtime_env={"worker_process_setup_hook": log_builds,
                      "env_vars": {"PYTHONPATH": sys.argv[1]}})
kb_ref = broadcast_kb(kb_dir)
mentions = read_transcripts(transcripts).map_batches(
    clean_and_explode, batch_format="pyarrow").materialize()
cells = mentions.to_pandas()
labels = ray.data.from_items([{"label": m} for m in sorted(set(cells["mention"]))])


def run_lookups(cfg):
    got_labels = sorted(lookup_labels(labels, kb_ref, cfg).to_pandas().itertuples(index=False, name=None))
    got_cands = sorted(lookup_candidates(mentions, kb_ref, cfg).to_pandas()[
        ["conv_id", "turn_idx", "col_slot", "mention", "entity_id", "lookup_score", "rank"]
    ].itertuples(index=False, name=None))
    index = LabelIndex(load_kb(kb_dir), cfg.lookup)
    want_labels = sorted(
        (label, e, s, r) for label in labels.to_pandas()["label"]
        for r, (e, s) in enumerate(index.search(label.lower()), 1))
    want_cands = sorted(
        (c, t, sl, m, e, s, r)
        for c, t, sl, m in cells[["conv_id", "turn_idx", "col_slot", "mention"]].itertuples(index=False)
        if len(m.lower()) > 1
        for r, (e, s) in enumerate(index.search(m.lower(), cfg.annotation.k), 1))
    return {"labels_equal": got_labels == want_labels, "cands_equal": got_cands == want_cands,
            "labels": repr(got_labels), "cands": repr(got_cands)}


def triples(cfg):
    return triples_from_turns(read_transcripts(transcripts), kb_ref, cfg).count()


a = DEFAULT_CONFIG
note("phase", "a")
out = {"a": run_lookups(a), "a_triples": triples(a)}
note("phase", "knobs")
triples(replace(a, runtime=replace(a.runtime, num_buckets=8, triple_partitions=4)))
note("phase", "cap")
triples(replace(a, runtime=replace(a.runtime, max_rows_per_conv=3)))
note("phase", "b")
out["b"] = run_lookups(PipelineConfig(
    lookup=LookupConfig(adaptive_ratio_min_threshold=0.95, two_edit_min_token_len=0)))
ray.shutdown()
print(json.dumps(out))
"""


def test_one_label_index_per_worker_and_config(synth_root, tmp_path):
    """In a one-CPU session (its own process: it starts Ray), with every
    worker logging the LabelIndex and AnnotateBucket objects it builds:
    - ``lookup_labels``, ``lookup_candidates`` and ``triples_from_turns``
      on one KB and config build ONE LabelIndex per worker, the annotate
      stage's, and no other;
    - a job that changes only ``num_buckets`` and ``triple_partitions``
      builds no second stage for the same fields in any worker, a
      changed ``max_rows_per_conv`` builds a new one;
    - after config A, both lookup stages under config B give exactly an
      in-process ``LabelIndex(kb, B.lookup)``'s answers."""
    log = tmp_path / "builds.jsonl"
    out = subprocess.run(
        [sys.executable, "-c", _ONE_WORKER_SCRIPT, REPO, os.path.join(synth_root, "kb"),
         os.path.join(synth_root, "transcripts.parquet"), str(log)],
        capture_output=True, text=True, timeout=600, cwd=REPO,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    got = json.loads(out.stdout.strip().splitlines()[-1])
    for cfg in ("a", "b"):
        assert got[cfg]["labels_equal"] and got[cfg]["cands_equal"], got
    # config B answers differently
    assert got["a"]["labels"] != got["b"]["labels"] and got["a"]["cands"] != got["b"]["cands"]
    assert got["a_triples"] > 0

    phase, builds = None, []
    for line in log.read_text().splitlines():
        kind, *rest = json.loads(line)
        if kind == "phase":
            phase = rest[0]
        else:
            builds.append((phase, kind, *rest))
    indexes = Counter((p, pid) for p, kind, pid, _ in builds if kind == "LabelIndex")
    stages = Counter((p, pid) for p, kind, pid, _ in builds if kind == "AnnotateBucket")
    assert indexes == stages, builds  # every index is an annotate stage's
    assert indexes and max(n for (p, _), n in indexes.items() if p == "a") == 1, builds
    keys = Counter((pid, what) for _, kind, pid, what in builds if kind == "AnnotateBucket")
    assert max(keys.values()) == 1, builds  # no worker rebuilds a stage it holds
    assert any(p == "cap" for p, _ in stages), builds
