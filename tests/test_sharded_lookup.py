"""Sharded KB tier's label lookup ≡ single-index lookup (state/sharded_kb.py)."""

import os

import pytest


@pytest.fixture(scope="module")
def tier(ray_session, synth_root):
    from table_annotation_ray.state.sharded_kb import shard_kb

    return shard_kb(os.path.join(synth_root, "kb"), num_shards=4)


MENTIONS = [
    "paris", "pari", "mufc", "berlin", "anne moreau", "pulp fiction",
    "john travlta", "manchestr", "france", "eternal city", "washington",
    "zzz nothing", "", "a",
]


def test_sharded_equals_single_index(tier, kb_objects):
    _, _, idx = kb_objects
    for m in MENTIONS:
        single = idx.search(m)
        sharded = tier.search(m)
        assert len(single) == len(sharded), m
        for (e1, s1), (e2, s2) in zip(single, sharded):
            assert e1 == e2, m
            assert s1 == pytest.approx(s2, abs=1e-12), m


def test_shards_are_balanced_partition(tier, kb_objects):
    import ray

    kb, _, _ = kb_objects
    sizes = ray.get([a.num_rows.remote() for a in tier.actors])
    assert sum(sizes) == len([r for r in kb.label_rows if r[1].strip()])
    assert min(sizes) > 0  # every shard got rows


def test_parquet_tier_equals_single_index(ray_session, synth_root, kb_objects):
    """shard_kb (shard actors load their own label slices, IDF stats
    merged from disjoint partials) must score exactly like the
    single index."""
    import os

    from table_annotation_ray.state.sharded_kb import shard_kb

    _, _, idx = kb_objects
    tier = shard_kb(os.path.join(synth_root, "kb"), num_shards=3)
    for m in MENTIONS:
        single = idx.search(m)
        sharded = tier.search(m)
        assert len(single) == len(sharded), m
        for (e1, s1), (e2, s2) in zip(single, sharded):
            assert e1 == e2, m
            assert s1 == pytest.approx(s2, abs=1e-12), m


def test_batch_api_and_cache(tier):
    out = tier.search_batch(["paris", "paris", "mufc"], k=3)
    assert len(out) == 3
    assert out[0] == out[1]
    assert out[2][0][0] == "Q18656"


def test_sharded_stage_in_pipeline(ray_session, kb_objects, synth_root, tier):
    """The tier behind the candidates stage produces the candidates relation
    with ranks matching the single index (per-mention score equivalence
    is pinned by test_sharded_equals_single_index; here we drive the
    Ray stage end-to-end)."""
    import os

    import ray

    from table_annotation_ray.pipelines.kg_pipeline import read_transcripts
    from table_annotation_ray.stages.clean import clean_and_explode
    from table_annotation_ray.stages.lookup_stage import lookup_candidates
    from table_annotation_ray.state.kb import load_kb

    kb = load_kb(os.path.join(synth_root, "kb"))
    kb_ref = ray.put(kb)
    mentions = read_transcripts(
        os.path.join(synth_root, "transcripts.parquet")
    ).map_batches(clean_and_explode, batch_format="pyarrow").materialize()

    sharded = lookup_candidates(mentions, kb_ref, tier=tier).to_pandas()
    assert len(sharded) > 0
    assert set(sharded.columns) == {
        "conv_id", "turn_idx", "col_slot", "mention", "entity_id",
        "lookup_score", "rank",
    }
    # spot-check one known mention against the single index
    _, _, idx = kb_objects
    one = sharded[sharded.mention.str.lower() == "paris"]
    row0 = one[one["rank"] == 1]
    expected = idx.search("paris", 1)[0]
    assert (row0.entity_id == expected[0]).all()
    assert (abs(row0.lookup_score - expected[1]) < 1e-9).all()
