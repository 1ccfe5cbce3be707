"""The cold-KB path: KB columns converted through ``state/kb.py::pylist``,
null KB values rejected by ``load_kb``, and the batched lookup miss path
(``LabelIndex.scored_candidates_batch``) against the per-mention scorer
it replaced, written here over ``functions/fuzzy.py`` as the oracle."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from table_annotation_ray.config import LookupConfig
from table_annotation_ray.functions import fuzzy
from table_annotation_ray.functions.text import normalize_label
from table_annotation_ray.state.kb import KBData, KBReader, load_kb, pylist
from table_annotation_ray.state.lookup_index import LabelIndex, finalize_candidates

# ---------------------------------------------------------------- pylist

_INT_TYPES = [pa.int8(), pa.int16(), pa.int32(), pa.int64(), pa.uint8(), pa.uint32(), pa.uint64()]


@st.composite
def _columns(draw):
    kind = draw(st.sampled_from(["string", "large_string", "int", "float32", "float64",
                                 "bool", "dictionary"]))
    nulls = draw(st.booleans())

    def values(elements):
        vals = draw(st.lists(elements, max_size=12))
        if nulls:
            vals = [None if draw(st.booleans()) else v for v in vals]
        return vals

    if kind in ("string", "large_string", "dictionary"):
        text = st.text(alphabet="ab\x00é𝔘́ ", max_size=6)
        typ = pa.large_string() if kind == "large_string" else pa.string()
        make = lambda v: pa.array(v, typ)  # noqa: E731
        if kind == "dictionary":
            make = lambda v: pa.array(v, pa.string()).dictionary_encode()  # noqa: E731
        vals = values(text)
    elif kind == "int":
        typ = draw(st.sampled_from(_INT_TYPES))
        lo, hi = (0, 255) if typ in (pa.uint8(),) else (0, 2**31) if pa.types.is_unsigned_integer(typ) else (-100, 100)
        vals = values(st.integers(lo, hi))
        make = lambda v: pa.array(v, typ)  # noqa: E731
    elif kind == "bool":
        vals = values(st.booleans())
        make = lambda v: pa.array(v, pa.bool_())  # noqa: E731
    else:
        typ = pa.float32() if kind == "float32" else pa.float64()
        vals = values(st.floats(width=32 if kind == "float32" else 64))
        make = lambda v: pa.array(v, typ)  # noqa: E731
    # one array, or a chunked array of slices of it (maybe no chunks)
    arr = make(vals)
    shape = draw(st.sampled_from(["array", "sliced", "chunked", "empty_chunked"]))
    if shape == "sliced":
        lo = draw(st.integers(0, len(vals)))
        return arr.slice(lo, draw(st.integers(0, len(vals) - lo)))
    if shape == "chunked":
        cut = draw(st.integers(0, len(vals)))
        return pa.chunked_array([arr.slice(0, cut), arr.slice(cut)], arr.type)
    if shape == "empty_chunked":
        return pa.chunked_array([], arr.type)
    return arr


@settings(max_examples=300, deadline=None)
@given(col=_columns())
def test_pylist_equals_to_pylist(col):
    """Same values, same Python types, NaN included (``repr`` tells
    1 from 1.0 and True, and spells NaN alike on both sides)."""
    assert repr(pylist(col)) == repr(col.to_pylist())


def test_pylist_dictionary_null_is_none():
    """``to_numpy`` on a dictionary array with a null returns a
    neighbouring value; ``pylist`` must not."""
    arr = pa.array(["a", "b", None, "a"]).dictionary_encode()
    assert pylist(arr) == ["a", "b", None, "a"]
    assert pylist(pa.chunked_array([arr])) == ["a", "b", None, "a"]


# ------------------------------------------------------- null KB values


def _kb_copy(synth_root, tmp_path, name, column, null_at=(0,)):
    kb_dir = tmp_path / "kb"
    shutil.copytree(os.path.join(synth_root, "kb"), kb_dir)
    path = kb_dir / name
    t = pq.read_table(path)
    vals = t[column].to_pylist()
    for i in null_at:
        vals[i] = None
    t = t.set_column(t.schema.get_field_index(column), column, pa.array(vals, t[column].type))
    pq.write_table(t, path)
    return str(kb_dir)


@pytest.mark.parametrize("name,column", [
    ("kb_labels.parquet", "pr"),
    ("kb_labels.parquet", "label"),
    ("kb_entity_meta.parquet", "num_edges"),
    ("kb_edges.parquet", "src"),
])
def test_null_kb_value_is_a_clear_error(synth_root, tmp_path, name, column):
    kb_dir = _kb_copy(synth_root, tmp_path, name, column, null_at=(0, 3))
    with pytest.raises(ValueError, match=rf"{name}: column '{column}' has 2 null"):
        load_kb(kb_dir)


def test_null_en_label_keeps_its_meaning(synth_root, tmp_path):
    kb_dir = _kb_copy(synth_root, tmp_path, "kb_entity_meta.parquet", "en_label")
    entity = pq.read_table(os.path.join(kb_dir, "kb_entity_meta.parquet"))["entity"][0].as_py()
    kb = load_kb(kb_dir)
    assert entity not in kb.labels and entity in kb.num_edges
    assert KBReader(kb).get_label_of_entity(entity) == "No English Label"


def test_sharded_loaders_reject_null_kb_values(synth_root, tmp_path):
    """A shard's load rejects a null KB value like the broadcast load."""
    kb_dir = _kb_copy(synth_root, tmp_path, "kb_labels.parquet", "pr")
    with pytest.raises(ValueError, match="kb_labels.parquet: column 'pr' has 1 null"):
        load_kb(kb_dir, 1, 0)


# ------------------------------------------------- batched miss path


def oracle_scored_candidates(index, raw_mention):
    """The per-mention scorer the batch replaced, over functions/fuzzy.py
    (es_lookup.py:108-168), reading the recall layer of ``index``."""
    cfg = index.cfg
    new_label = normalize_label(raw_mention)
    label_lower = new_label.lower()
    if not label_lower:
        return {}
    hits = index._candidate_rows(label_lower)
    if not hits:
        return {}
    lo1 = int(len(new_label) * cfg.label_length_min_factor)
    hi1 = int(len(new_label) * cfg.label_length_max_factor)
    lo2 = max(0, len(new_label) - cfg.label_token_diff)
    hi2 = len(new_label) + cfg.label_token_diff
    n_mention_toks = len(label_lower.split())
    entity_fuzzy, entity_overlap, entity_pr, partial_exact = {}, {}, {}, set()
    n_hits = 0
    for rid, overlap in sorted(hits.items(), key=lambda kv: -kv[1]):
        if n_hits >= cfg.max_hits:
            break
        entity, ent_label, ent_lower, origin, pr, n_toks = index.rows[rid]
        if not (lo1 <= len(ent_label) <= hi1 or lo2 <= len(ent_label) <= hi2):
            continue
        n_hits += 1
        entity_pr[entity] = pr
        entity_overlap[entity] = max(entity_overlap.get(entity, overlap), overlap)
        char_r = 0.9 * fuzzy.ratio(label_lower, ent_lower) + 0.1 * fuzzy.ratio(new_label, ent_label)
        tsort_r = 0.9 * fuzzy.token_sort_ratio(label_lower, ent_lower) + 0.1 * (
            fuzzy.token_sort_ratio(new_label, ent_label))
        len_ratio = len(label_lower) / max(1, len(ent_lower))
        if 0.5 < len_ratio < 2.0:
            tset_r = 0.9 * fuzzy.token_set_ratio(label_lower, ent_lower) + 0.1 * (
                fuzzy.token_set_ratio(new_label, ent_label))
        else:
            tset_r = 0.0
        partial_r = 0.9 * fuzzy.partial_ratio(label_lower, ent_lower) + 0.1 * (
            fuzzy.partial_ratio(new_label, ent_label))
        is_partial = (partial_r > 0.9 and abs(n_mention_toks - n_toks) <= 2) or (
            tset_r > 0.9 and 0.5 < len_ratio < 2.0)
        r2 = sorted((char_r, tsort_r, tset_r), reverse=True)[:2]
        r = (r2[0] + r2[1]) / 2
        if origin == "MAIN_ALIAS":
            r *= cfg.main_alias_factor
        elif origin == "SUB_ALIAS":
            r *= cfg.sub_alias_factor
        if is_partial:
            partial_exact.add(entity)
        if r > entity_fuzzy.get(entity, -1.0):
            entity_fuzzy[entity] = r
    return {e: (entity_fuzzy[e], entity_overlap[e], entity_pr[e], e in partial_exact)
            for e in entity_fuzzy}


# upper and lower case, a quote, whitespace, an astral and a combining char
_CHARS = "abcAB\"  é𝔘́"
_ORIGINS = ("LABEL", "MAIN_ALIAS", "SUB_ALIAS")


def _kb(labels):
    kb = KBData()
    kb.label_rows = [(f"Q{i % 7}", lab, _ORIGINS[i % 3], 1.0 + i % 4)
                     for i, lab in enumerate(labels)]
    return kb


def _mutate(draw, label):
    """A mention near ``label``: a few deletions, insertions or case
    flips, or a long padding that puts it over 64 chars."""
    chars = list(label)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["del", "ins", "case", "pad"]))
        i = draw(st.integers(0, len(chars)))
        if op == "del" and chars:
            del chars[min(i, len(chars) - 1)]
        elif op == "ins":
            chars.insert(i, draw(st.sampled_from(_CHARS)))
        elif op == "case" and chars:
            j = min(i, len(chars) - 1)
            chars[j] = chars[j].swapcase()
        elif op == "pad":
            chars.extend(" " + "ab" * 35)
    return "".join(chars)


@st.composite
def _lookups(draw):
    words = st.text(alphabet=_CHARS, min_size=1, max_size=9)
    long_word = st.text(alphabet="abcé", min_size=60, max_size=70)
    label = st.lists(st.one_of(words, words, long_word), min_size=1, max_size=4).map(" ".join)
    labels = draw(st.lists(label, min_size=1, max_size=10))
    near = [_mutate(draw, draw(st.sampled_from(labels))) for _ in range(draw(st.integers(0, 6)))]
    odd = draw(st.lists(st.sampled_from(["", "   ", '"', '""', " \" ", labels[0]]), max_size=3))
    mentions = near + odd + draw(st.lists(st.text(alphabet=_CHARS, max_size=12), max_size=3))
    if mentions:  # a mention repeated within the batch
        mentions.append(draw(st.sampled_from(mentions)))
    return labels, draw(st.permutations(mentions)), draw(st.sampled_from([0, 3, 6]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_lookups())
def test_scored_candidates_batch_matches_fuzzy_oracle(case):
    """Every float and flag equal: the batch over all mentions, each
    mention alone, and the fuzzy.py oracle over a fresh index (whose
    recall probes one token at a time)."""
    labels, mentions, two = case
    cfg = LookupConfig(two_edit_min_token_len=two)
    kb = _kb(labels)
    oracle = LabelIndex(kb, cfg)
    want = [oracle_scored_candidates(oracle, m) for m in mentions]
    assert LabelIndex(kb, cfg).scored_candidates_batch(mentions) == want
    single = LabelIndex(kb, cfg)
    assert [single.scored_candidates(m) for m in mentions] == want


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_lookups(), warm=st.integers(0, 8))
def test_search_batch_all_hit_and_mixed(case, warm):
    """``search_batch`` with none, some or all of a batch cached equals
    finalizing the oracle's partials, mention by mention."""
    labels, mentions, two = case
    cfg = LookupConfig(two_edit_min_token_len=two)
    kb = _kb(labels)
    oracle = LabelIndex(kb, cfg)
    index = LabelIndex(kb, cfg)
    index.search_batch(mentions[:warm])
    for k in (None, 2):
        got = index.search_batch(mentions, k)
        want = [list(finalize_candidates(oracle_scored_candidates(oracle, m), cfg)[:k])
                for m in mentions]
        assert got == want


def test_search_batch_runs_inside_search(kb_objects):
    """A wrapper set on ``index.search`` (as a tracer does) sees every
    mention of a batch, and the mention cache's misses grow by exactly
    the batch's new distinct mentions; the whole batch is scored on the
    first of them."""
    kb = kb_objects[0]
    index = LabelIndex(kb)
    index.search_batch(["paris", "berlin"])
    seen, scored = [], []
    search, batch_scorer = index.search, index.scored_candidates_batch

    def traced(mention, k=None):
        seen.append(mention)
        return search(mention, k)

    def scorer(mentions):
        scored.append(list(mentions))
        return batch_scorer(mentions)

    index.search = traced
    index.scored_candidates_batch = scorer
    mentions = ["paris", "rome", "londn", "rome", "berlin", "tokyo", "paris"]
    before = index._search_cached.cache_info()
    out = index.search_batch(mentions, 5)
    after = index._search_cached.cache_info()
    assert seen == mentions
    assert after.misses - before.misses == 3  # rome, londn, tokyo
    assert after.hits - before.hits == 4
    assert scored == [["rome", "londn", "tokyo"]]
    fresh = LabelIndex(kb)
    assert out == [fresh.search(m, 5) for m in mentions]
