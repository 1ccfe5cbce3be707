"""The NumPy neighborhood table of ``state/lookup_index.py`` against the
dict-of-lists index it replaced.

``DictIndex`` below is that former index (token, 1-deletion and
2-deletion dicts, built with a per-row loop, probed with nine lookups
per long token), kept here only as the oracle: every case asserts that
``LabelIndex._candidate_rows`` returns the same ``{row: overlap}``
mapping, at every ``two_edit_min_token_len`` the table treats apart.
"""

import math
import os
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from table_annotation_ray.config import LookupConfig
from table_annotation_ray.functions.text import normalize_label
from table_annotation_ray.state import lookup_index
from table_annotation_ray.state.kb import KBData
from table_annotation_ray.state.lookup_index import LabelIndex

TWO_EDIT_LENS = (0, 1, 2, 3, 4, 6)


def _deletions(token):
    if len(token) <= 3:
        return set()
    return {token[:i] + token[i + 1 :] for i in range(len(token))}


def _deletions2(token):
    out = set()
    for i in range(len(token)):
        d1 = token[:i] + token[i + 1 :]
        for j in range(len(d1)):
            out.add(d1[:j] + d1[j + 1 :])
    return out


class DictIndex:
    """The former recall layer, verbatim in behaviour."""

    def __init__(self, kb, cfg):
        self.cfg = cfg
        self.rows, self.exact = [], {}
        self.token_index, self.deletion_index, self.deletion2_index = {}, {}, {}
        self.token_df = {}
        two_edit_len = cfg.two_edit_min_token_len
        for entity, label, origin, pr in kb.label_rows:
            norm = normalize_label(label).lower()
            if not norm:
                continue
            row_id = len(self.rows)
            toks = norm.split()
            self.rows.append((entity, label, norm, origin, float(pr), len(toks)))
            self.exact.setdefault(norm, []).append(row_id)
            for tok in set(toks):
                self.token_index.setdefault(tok, []).append(row_id)
                self.token_df[tok] = self.token_df.get(tok, 0) + 1
                for d in _deletions(tok):
                    self.deletion_index.setdefault(d, []).append(row_id)
                if two_edit_len and len(tok) >= two_edit_len:
                    for d in _deletions2(tok):
                        self.deletion2_index.setdefault(d, []).append(row_id)
        self.n_docs = max(1, len(self.rows))

    def _idf_of_row(self, rid):
        toks = self.rows[rid][2].split()
        return sum(
            math.log(1.0 + self.n_docs / (1 + self.token_df.get(t, 0))) for t in toks
        ) / max(1, len(toks))

    def candidate_rows(self, norm_mention):
        hits = {}
        for rid in self.exact.get(norm_mention, []):
            hits[rid] = hits.get(rid, 0.0) + 2.0 * self._idf_of_row(rid)
        two_edit_len = self.cfg.two_edit_min_token_len
        for tok in set(norm_mention.split()):
            idf = math.log(1.0 + self.n_docs / (1 + self.token_df.get(tok, 0)))
            matched = set(self.token_index.get(tok, ()))
            dels1 = _deletions(tok)
            for d in dels1:
                matched.update(self.token_index.get(d, ()))
                matched.update(self.deletion_index.get(d, ()))
            matched.update(self.deletion_index.get(tok, ()))
            if two_edit_len and len(tok) >= two_edit_len:
                matched.update(self.deletion2_index.get(tok, ()))
                for d in dels1:
                    matched.update(self.deletion2_index.get(d, ()))
                for d2 in _deletions2(tok):
                    matched.update(self.token_index.get(d2, ()))
                    matched.update(self.deletion_index.get(d2, ()))
                    matched.update(self.deletion2_index.get(d2, ()))
            for rid in matched:
                hits[rid] = hits.get(rid, 0.0) + idf
        return hits


def _kb(labels):
    kb = KBData()
    kb.label_rows = [(f"Q{i}", lab, "LABEL", 1.0 + i % 3) for i, lab in enumerate(labels)]
    return kb


def _edits(tok, rng):
    """The token, every 1-deletion, and a few substitutions, insertions,
    transpositions and double edits."""
    out = {tok} | _deletions(tok)
    for _ in range(4):
        if not tok:
            break
        i = rng.randrange(len(tok))
        c = rng.choice("aeiouxz\x00é𝔘")
        out.add(tok[:i] + c + tok[i + 1 :])
        out.add(tok[:i] + c + tok[i:])
        if len(tok) > 1:
            j = min(i + 1, len(tok) - 1)
            sw = list(tok)
            sw[i], sw[j] = sw[j], sw[i]
            out.add("".join(sw))
            out.add(tok[:i] + c + tok[i + 1 : j] + c + tok[j + 1 :])
    return out


def _assert_same(labels, queries, two, df_stats=None):
    """``df_stats=(token_df, n_docs)`` replaces both indexes' IDF counts
    after the build, as a sharded KB tier's shard actor installs the
    corpus-global counts (state/sharded_kb.py::KBShardActor.set_df_stats)."""
    kb = _kb(labels)
    cfg = LookupConfig(two_edit_min_token_len=two)
    new = LabelIndex(kb, cfg)
    old = DictIndex(kb, cfg)
    if df_stats is not None:
        new.token_df, new.n_docs = old.token_df, old.n_docs = df_stats
    assert [r[:3] for r in new.rows] == [r[:3] for r in old.rows]
    assert new.token_df == old.token_df and new.n_docs == old.n_docs
    for q in queries:
        m = normalize_label(q).lower()
        assert new._candidate_rows(m) == old.candidate_rows(m), (two, q)
    return new


EDGE_LABELS = [
    "Paris",
    "Manchester United",
    "John Travolta",
    "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 Tower",  # astral (non-BMP) letters
    "😀😀 smile",
    "café déjà",  # combining accents
    "ab\x00 cd",  # tokens ending in NUL
    "abc\x00",
    "\x00\x00",
    "new new york",  # one label holding the same token twice
    "abab abab x",
    "",
    '""',
    '"',
    "   ",
    "ab ba a",
    "xy",
    "ab",
    "Gernamy Germany",
    "aaaaaa aaaaab",
]


@pytest.mark.parametrize("two", TWO_EDIT_LENS)
def test_edge_labels_match_dict_index(two):
    rng = random.Random(two)
    toks = {t for lab in EDGE_LABELS for t in normalize_label(lab).lower().split()}
    queries = set(EDGE_LABELS) | {"cd ab\x00", "zz", "", "a b", "ba"}
    for t in sorted(toks):
        queries |= _edits(t, rng)
    _assert_same(EDGE_LABELS, sorted(queries), two)


@pytest.mark.parametrize("two", TWO_EDIT_LENS)
def test_df_override_matches_dict_index(two):
    df = {"paris": 7, "new": 3, "york": 1000, "ab\x00": 2}
    queries = ["paris", "pari", "new yrok", "ab\x00", "abx", "john travlta"]
    new = _assert_same(EDGE_LABELS, queries, two, df_stats=(df, 5000))
    assert (new.token_df, new.n_docs) == (df, 5000)


@pytest.mark.parametrize("two", TWO_EDIT_LENS)
def test_two_char_tokens_reach_the_empty_key(two):
    """Two 2-char tokens share the empty 2-deletion key: at
    two_edit_min_token_len ≤ 2 every 2-char query token recalls every
    label with a 2-char token."""
    new = _assert_same(["ab", "cd ef", "ghi"], ["xy", "ab", "q", "ghj"], two)
    assert (0 in new.table) == (0 < two <= 2)
    if 0 < two <= 2:
        assert set(new._candidate_rows("xy")) == {0, 1}


def test_200_char_token_matches_dict_index_and_chunks(monkeypatch):
    rng = random.Random(200)
    long_tok = "".join(rng.choice("abcdefghijklmnopqrstuvwxyzé") for _ in range(200))
    labels = [f"Big {long_tok}", "Paris", long_tok[:7], long_tok[-9:]]
    sub = long_tok[:50] + "q" + long_tok[51:]
    queries = [long_tok, long_tok[1:], long_tok[:100] + long_tok[102:], sub, "big",
               long_tok[:7], long_tok[-9:]]
    for two in (0, 6):
        _assert_same(labels, queries, two)
    # a slice budget below one token's keys cuts them in many slices,
    # over variants and over tokens; the table must not change
    whole = LabelIndex(_kb(labels), LookupConfig())
    monkeypatch.setattr(lookup_index, "_GEN_CHARS", 1000)
    cut = LabelIndex(_kb(labels), LookupConfig())
    assert whole.table.keys() == cut.table.keys()
    for L, part in whole.table.items():
        for name in ("keys", "off", "rows", "depth"):
            assert np.array_equal(getattr(part, name), getattr(cut.table[L], name)), (L, name)


def _key(idx, L, text):
    """``text`` as the length-L partition of ``idx`` stores it."""
    if L * idx._bits <= 64:
        ranks = np.searchsorted(idx._alphabet, [ord(c) for c in text]).astype(np.uint64)
        return lookup_index._pack(ranks, idx._bits)
    return np.array(text, dtype=f"<U{L}")


def test_table_layout():
    """Sorted unique keys (packed alphabet ranks where a key fits 64
    bits, fixed-width strings beyond), int64 offsets, int32 rows, int8
    depths; each (key, row) once, at its smallest depth."""
    # six distinct chars, 3 bits a rank: keys up to 21 chars pack, and
    # the 30-char token's keys stay strings
    idx = LabelIndex(_kb(["abcdef abcde", "abcdef", "bcdef", "abcdef" * 5]), LookupConfig())
    assert idx._bits == 3
    for L, part in idx.table.items():
        assert part.keys.dtype == (np.dtype(np.uint64) if L * 3 <= 64 else np.dtype(f"<U{L}"))
        assert (part.keys[1:] > part.keys[:-1]).all()
        assert part.off.dtype == np.int64 and part.off[-1] == len(part.rows)
        assert part.rows.dtype == np.int32 and part.depth.dtype == np.int8
    assert {28, 29, 30} <= {L for L, part in idx.table.items() if part.keys.dtype.kind == "U"}
    part = idx.table[5]
    k = int(np.searchsorted(part.keys, _key(idx, 5, "bcdef")))
    assert part.keys[k] == _key(idx, 5, "bcdef")
    lo, hi = part.off[k], part.off[k + 1]
    # row 0 has "abcde" (depth 0 for "abcde", not this key) and "abcdef"
    # (depth 1); row 2 holds "bcdef" itself
    assert part.rows[lo:hi].tolist() == [0, 1, 2]
    assert part.depth[lo:hi].tolist() == [1, 1, 0]
    long = idx.table[29]
    k = int(np.searchsorted(long.keys, _key(idx, 29, ("abcdef" * 5)[1:])))
    assert long.rows[long.off[k]:long.off[k + 1]].tolist() == [3]
    assert idx.nbytes() == sum(p.nbytes() for p in idx.table.values())


_ALPHABET = "ab\x00é𝔘́ "


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    labels=st.lists(st.text(alphabet=_ALPHABET, max_size=9), min_size=1, max_size=12),
    queries=st.lists(st.text(alphabet=_ALPHABET + "c", max_size=9), max_size=8),
    two=st.sampled_from(TWO_EDIT_LENS),
)
def test_random_labels_match_dict_index(labels, queries, two):
    _assert_same(labels, queries + labels, two)


def test_fixture_mentions_match_dict_index(kb_objects, synth_root):
    """Every cell of the synthetic transcripts, at the default and at
    two_edit_min_token_len 0."""
    import pyarrow.parquet as pq

    from table_annotation_ray.functions.text import fix_encoding
    from table_annotation_ray.schemas import CELL_SEP

    kb, _, idx = kb_objects
    texts = pq.read_table(os.path.join(synth_root, "transcripts.parquet"))["text"]
    mentions = sorted({
        normalize_label(c.strip()).lower()
        for t in texts.to_pylist() if t
        for c in fix_encoding(t).split(CELL_SEP)
    })
    assert len(mentions) > 100
    for cfg in (idx.cfg, LookupConfig(two_edit_min_token_len=0)):
        new = idx if cfg is idx.cfg else LabelIndex(kb, cfg)
        old = DictIndex(kb, cfg)
        for m in mentions:
            assert new._candidate_rows(m) == old.candidate_rows(m), m
