"""In-actor fuzzy entity-lookup index — from-scratch replacement for the
Elasticsearch lookup (`lookup/es_lookup.py:27-210`, `lookup/settings.py`).

Recall layer (stands in for the ES ``match`` + ``fuzziness: AUTO`` query,
es_lookup.py:30-77):
  * exact normalized-label dict;
  * one SymSpell-style neighborhood table over the distinct label
    tokens.  A token yields itself (depth 0), its 1-deletions when it
    is longer than 3 chars (depth 1: edit distance 1, the dominant typo
    class) and its 2-deletions when it has at least
    ``two_edit_min_token_len`` chars (depth 2, default 6: ES
    ``fuzziness: AUTO`` allows 2 edits at length ≥ 6, es_lookup.py:30-44).
    The table is partitioned by key length; a partition holds its
    sorted unique keys, int64 CSR offsets, int32 row ids and an int8
    depth, the smallest at which one of the row's tokens yields the key.
    A key is one uint64 of packed alphabet ranks when it fits 64 bits
    (10 chars of a 64-char alphabet), else a ``U<L>`` string.  It is
    built with NumPy: each token length's ``(N, n)`` rank matrix is
    fancy-indexed with precomputed keep-index arrays, and no Python
    string is made per key.
  * a query token expands by the same rule and matches every posting
    of every variant, at depth ≤ 2 when the token is long enough for
    two edits and ≤ 1 otherwise; one ``searchsorted`` per variant
    length finds the keys of every new token of a lookup batch.  This
    equals the nine lookups of the former
    token / 1-deletion / 2-deletion dict indexes: a long token probed
    all three with itself, its 1-deletions and its 2-deletions; a short
    one probed the token and 1-deletion indexes with itself and its
    1-deletions.  An index key of depth d is an entry of the d-th dict,
    and the depth filter is a bound, so the smallest depth per
    (key, row) decides.  The fuzzy-ratio scorer verifies every
    candidate.  A token's rows are memoized: label tokens recur across
    distinct mentions;
  * ES-style label-length window filters: len·0.25 ≤ len(label) ≤ len·4
    OR |len(label) − len| ≤ 4 (es_lookup.py:205-210).

Scoring layer — the reference formula, term by term
(es_lookup.py:108-198):
  ratio components mix lowercased and raw-case comparisons 0.9/0.1;
  token-set only at 0.5 < length ratio < 2; partial-exact-match set
  (partial>0.9 ∧ token_diff ≤ 2, or token_set>0.9 at similar length);
  final fuzzy = mean of top-2 of {char, token_sort, token_set};
  alias factors MAIN_ALIAS 0.94 / SUB_ALIAS 0.88; adaptive threshold
  max(0.70, max_ratio − 0.25); final score = 0.7·fuzzy +
  0.1·log2-normalized pagerank + 0.2·bm25 — bm25 here is an IDF
  token-overlap score normalized by the best hit, standing in for the
  ES BM25 ``_score/max_score``.

Miss path, set at a time: :meth:`LabelIndex.search_batch` answers a
batch through ``search``, mention by mention, from a per-mention LRU;
the first miss scores every uncached mention of the batch in one
:meth:`LabelIndex.scored_candidates_batch` pass, inside that ``search``
call, so a wrapper set on ``search`` still times and counts each lookup.
The pass probes the batch's new tokens together and scores its (mention,
label) pairs through one :class:`_Ratios` memo, which computes fewer
LCS lengths than the ``functions/fuzzy.py`` calls it stands for and
yields the same floats: pairs repeated across the ratio family are
computed once, token-set sub-ratios whose LCS is a known prefix are
closed-form, and the partial ratio (it only decides the partial flag)
is skipped when a bound settles the flag.  The LCS is fuzzy.py's
bit-parallel recurrence on Python ints, which has no length limit;
fuzzy.py itself is the tests' oracle.

The index is built once per actor in ``__init__`` from the broadcast
KBData (SURVEY.md §2.4 J1/J2; ST3).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from ..config import LookupConfig
from ..functions import fuzzy
from ..functions.text import normalize_label
from .kb import KBData

# key chars cut per slice of the build: bounds its temporaries (one
# 200-char token alone has C(200, 2) = 19,900 two-deletion keys)
_GEN_CHARS = 1 << 21


def _keep(n: int, depth: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Positions kept by deletion variants ``lo:hi`` of an n-char token,
    shape ``(hi - lo, n - depth)``.  Depth 0 keeps every position,
    depth 1 variant i drops position i, depth 2 variants drop the
    ``np.triu_indices(n, 1)`` pairs i < j in that order."""
    k = np.arange(n - depth)
    if depth == 0:
        return k[None, :]
    if depth == 1:
        return k + (k >= np.arange(n)[lo:hi, None])
    i, j = np.triu_indices(n, 1)
    return k + (k >= i[lo:hi, None]) + (k >= j[lo:hi, None] - 1)


_query_keep = lru_cache(maxsize=128)(_keep)
_NO_ROWS = np.zeros(0, dtype=np.int32)
_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _Partition:
    """The neighborhood keys of one length L: ``keys`` sorted and unique
    (:func:`_pack`-ed uint64 when ``L * bits <= 64``, else ``U<L>``), and
    per key ``k`` its rows ``rows[off[k]:off[k + 1]]`` ascending, each
    with the smallest deletion ``depth`` (0, 1 or 2) at which one of the
    row's tokens yields the key."""

    __slots__ = ("keys", "off", "rows", "depth")

    def __init__(self, keys, off, rows, depth):
        self.keys, self.off, self.rows, self.depth = keys, off, rows, depth

    def nbytes(self) -> int:
        return self.keys.nbytes + self.off.nbytes + self.rows.nbytes + self.depth.nbytes

    def postings(
        self, variants: np.ndarray, owner: np.ndarray, max_depth: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(owner, row)`` of every posting of the keys among
        ``variants``, the owner repeated from the variant's, at a depth
        up to the variant's ``max_depth`` (None: no bound)."""
        pos = self.keys.searchsorted(variants)
        hit = self.keys.take(pos, mode="clip") == variants
        pos, owner = pos[hit], owner[hit]
        lo = self.off[pos]
        cnt = self.off[pos + 1] - lo
        if np.add.reduce(cnt) == len(cnt):  # one row per key
            idx = lo
        else:
            idx = np.repeat(lo - cnt.cumsum() + cnt, cnt) + np.arange(np.add.reduce(cnt))
            owner = np.repeat(owner, cnt)
        rows = self.rows[idx]
        if max_depth is not None:
            ok = self.depth[idx] <= np.repeat(max_depth[hit], cnt)
            owner, rows = owner[ok], rows[ok]
        return owner, rows


def _pack(ranks: np.ndarray, bits: int) -> np.ndarray:
    """One uint64 per key of ``bits``-bit alphabet ranks (an unsigned
    array) along the last axis, first char most significant, so numeric
    order is the keys' string order; needs ``ranks.shape[-1] * bits <=
    64``."""
    L = ranks.shape[-1]
    # disjoint bit fields: their sum is their OR, and no product carries
    return ranks @ (np.uint64(1) << np.uint64(bits) * np.arange(L - 1, -1, -1, dtype=np.uint64))


def _depths(n: int, two_edit_len: int) -> tuple[int, ...]:
    """Deletion depths of an n-char token's neighborhood: itself, its
    1-deletions when longer than 3 chars, its 2-deletions (none below 2
    chars) when at least ``two_edit_len`` chars.  Index keys and query
    variants use the same rule."""
    return (0,) + ((1,) if n > 3 else ()) + ((2,) if two_edit_len and n >= two_edit_len else ())


def _neighborhood_table(
    tokens: list[str], tok_off: np.ndarray, tok_rows: np.ndarray, n_rows: int,
    two_edit_len: int,
) -> tuple[dict[int, _Partition], np.ndarray, int]:
    """``(table, alphabet, bits)``: key length -> :class:`_Partition`
    over the :func:`_depths` neighborhoods of the distinct label tokens
    (token ``t`` is in rows ``tok_rows[tok_off[t]:tok_off[t + 1]]``), the
    sorted code points of the tokens and the bits of one rank.

    Keys are cut from each token length's ``(N, n)`` code matrix with
    :func:`_keep` index arrays, ``_GEN_CHARS`` at a time.  A key of
    length L is :func:`_pack`-ed into one uint64 of alphabet ranks when
    ``L * bits <= 64``, and stays a ``U<L>`` string otherwise."""
    by_len: dict[int, list[int]] = {}
    for t, tok in enumerate(tokens):
        by_len.setdefault(len(tok), []).append(t)
    codes = {
        n: np.array([tokens[t] for t in ids], dtype=f"<U{n}").view(np.uint32).reshape(-1, n)
        for n, ids in by_len.items()
    }
    alphabet = np.unique(np.concatenate([c.ravel() for c in codes.values()]))
    bits = max(1, (len(alphabet) - 1).bit_length())
    rank_dt = np.uint8 if bits <= 8 else np.uint16 if bits <= 16 else np.uint32
    pieces: dict[int, list[tuple[np.ndarray, np.ndarray, int]]] = {}
    for n, ids in by_len.items():
        ranks = np.searchsorted(alphabet, codes.pop(n)).astype(rank_dt)
        tids = np.asarray(ids, dtype=np.int32)
        for depth in _depths(n, two_edit_len):
            L = n - depth
            n_var = math.comb(n, depth)
            var_step = max(1, min(n_var, _GEN_CHARS // max(1, L)))
            tok_step = max(1, _GEN_CHARS // (var_step * max(1, L)))
            for v0 in range(0, n_var, var_step):
                keep = _keep(n, depth, v0, v0 + var_step)
                for t0 in range(0, len(tids), tok_step):
                    r = ranks[t0 : t0 + tok_step]
                    if L * bits <= 64:
                        sk = _pack(r[:, keep], bits).ravel()
                    else:
                        sk = np.ascontiguousarray(alphabet[r[:, keep]]).reshape(-1, L)
                        sk = sk.view(f"<U{L}").ravel()
                    tid = np.repeat(tids[t0 : t0 + tok_step], len(keep))
                    pieces.setdefault(L, []).append((sk, tid, depth))

    tok_cnt = np.diff(tok_off)
    table = {}
    while pieces:  # popped, so each length's raw keys are freed in turn
        L, parts = pieces.popitem()
        sk = np.concatenate([p[0] for p in parts])
        tid = np.concatenate([p[1] for p in parts])
        dep = np.concatenate([np.full(len(p[0]), p[2], dtype=np.int8) for p in parts])
        del parts
        order = np.argsort(sk)
        sk, tid, dep = sk[order], tid[order], dep[order]
        del order
        new = np.empty(len(sk), dtype=bool)
        new[0] = True
        np.not_equal(sk[1:], sk[:-1], out=new[1:])
        keys = sk[new]
        del sk
        kid = np.cumsum(new, dtype=np.int64)
        kid -= 1
        del new
        # (key, token, depth) -> (key, row, depth)
        cnt = tok_cnt[tid]
        if (cnt == 1).all():
            rows = tok_rows[tok_off[tid]]
        else:
            rep = np.repeat(np.arange(len(tid)), cnt)
            within = np.arange(len(rep)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            rows = tok_rows[tok_off[tid][rep] + within]
            kid, dep = kid[rep], dep[rep]
        del tid, cnt
        # one posting per (key, row), at its smallest depth
        comp = kid
        comp *= n_rows
        comp += rows
        comp *= 4
        comp += dep
        del kid, rows, dep
        comp.sort()
        pair = comp >> 2
        first = np.empty(len(pair), dtype=bool)
        first[0] = True
        np.not_equal(pair[1:], pair[:-1], out=first[1:])
        comp, pair = comp[first], pair[first]
        off = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(np.bincount(pair // n_rows, minlength=len(keys)), out=off[1:])
        table[L] = _Partition(
            keys, off, (pair % n_rows).astype(np.int32), (comp & 3).astype(np.int8)
        )
    return table, alphabet, bits


class LabelIndex:
    def __init__(self, kb: KBData, cfg: LookupConfig | None = None):
        """IDF weights count ``kb``'s label rows (``token_df``,
        ``n_docs``); a shard of the label table replaces both with the
        corpus-global counts (state/sharded_kb.py::KBShardActor), so
        its bm25 weights match the single index exactly."""
        self.cfg = cfg or LookupConfig()
        # label rows: (entity, label, norm_lower, origin, pr, token_count)
        self.rows: list[tuple[str, str, str, str, float, int]] = []
        self.exact: dict[str, list[int]] = {}
        tok_ids: dict[str, int] = {}
        post_tok: list[int] = []
        post_row: list[int] = []
        for entity, label, origin, pr in kb.label_rows:
            norm = normalize_label(label).lower()
            if not norm:
                continue
            row_id = len(self.rows)
            toks = norm.split()
            self.rows.append((entity, label, norm, origin, float(pr), len(toks)))
            self.exact.setdefault(norm, []).append(row_id)
            for tok in set(toks):
                post_tok.append(tok_ids.setdefault(tok, len(tok_ids)))
                post_row.append(row_id)
        tokens = list(tok_ids)
        post_tok_a = np.asarray(post_tok, dtype=np.int64)
        df = np.bincount(post_tok_a, minlength=len(tokens))
        self.token_df: dict[str, int] = dict(zip(tokens, df.tolist()))
        self.table: dict[int, _Partition] = {}
        self._alphabet, self._bits = None, 0
        if tokens:
            tok_off = np.zeros(len(tokens) + 1, dtype=np.int64)
            np.cumsum(df, out=tok_off[1:])
            # stable: rows stay ascending within a token
            tok_rows = np.asarray(post_row, dtype=np.int64)[
                np.argsort(post_tok_a, kind="stable")
            ]
            self.table, self._alphabet, self._bits = _neighborhood_table(
                tokens, tok_off, tok_rows, len(self.rows), self.cfg.two_edit_min_token_len
            )
        self.n_docs = max(1, len(self.rows))
        # bound the per-actor result caches (per query token and per mention)
        self._near = _LRU(lambda tok: self._near_rows([tok])[0], self.cfg.cache_size)
        self._search_cached = _LRU(self._search, self.cfg.cache_size)
        # the batch being served by search_batch, and its scored misses
        self._batch: list[str] | tuple = ()
        self._batch_results: dict[str, tuple[tuple[str, float], ...]] = {}

    def nbytes(self) -> int:
        """Bytes held by the neighborhood table's arrays."""
        return sum(p.nbytes() for p in self.table.values())

    # ---------------- recall ----------------
    def _near_rows(self, tokens: list[str]) -> list[np.ndarray]:
        """Per query token, the ascending rows holding a token within its
        neighborhood (see the module docstring): the variants of every
        token are probed with one ``searchsorted`` per key length."""
        if not self.table:
            return [_NO_ROWS] * len(tokens)
        two_edit_len, alphabet, bits = self.cfg.two_edit_min_token_len, self._alphabet, self._bits
        by_len: dict[int, list[int]] = {}
        for i, tok in enumerate(tokens):
            by_len.setdefault(len(tok), []).append(i)
        # key length -> [(variants, owner token, max posting depth)]
        probes: dict[int, list[tuple[np.ndarray, np.ndarray, int]]] = {}
        for n, ids in by_len.items():
            depths = _depths(n, two_edit_len)
            max_depth = 2 if 2 in depths else 1
            owner = np.asarray(ids, dtype=np.int64)
            codes = np.array([tokens[i] for i in ids], dtype=f"<U{n}").view(np.uint32)
            codes = codes.reshape(len(ids), n)
            ranks = alphabet.searchsorted(codes)
            # a char outside the index's alphabet is in no key
            known = alphabet.take(ranks, mode="clip") == codes
            known = None if known.all() else known
            ranks = ranks.astype(np.uint64)
            for depth in depths:
                L = n - depth
                if L not in self.table:
                    continue
                keep = _query_keep(n, depth) if n <= 64 else _keep(n, depth)
                own = np.repeat(owner, len(keep))
                if L * bits <= 64:
                    variants = _pack(ranks[:, keep], bits).ravel()
                    if known is not None:
                        ok = known[:, keep].all(axis=2).ravel()
                        variants, own = variants[ok], own[ok]
                else:
                    variants = np.ascontiguousarray(codes[:, keep]).view(f"<U{L}").ravel()
                probes.setdefault(L, []).append((variants, own, max_depth))
        n_rows = len(self.rows)
        found: list[np.ndarray] = []
        for L, items in probes.items():
            max_depth = None
            if any(d < 2 for _, _, d in items):  # a short token reaches depth 1 only
                max_depth = np.concatenate([np.full(len(v), d, np.int8) for v, _, d in items])
            owner, rows = self.table[L].postings(
                np.concatenate([v for v, _, _ in items]),
                np.concatenate([o for _, o, _ in items]),
                max_depth,
            )
            owner *= n_rows
            owner += rows
            found.append(owner)
        if not found:
            return [_NO_ROWS] * len(tokens)
        pairs = np.unique(np.concatenate(found))
        rows = (pairs % n_rows).astype(np.int32)
        bounds = np.searchsorted(pairs // n_rows, np.arange(len(tokens) + 1)).tolist()
        return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def _candidate_rows(self, norm_mention: str) -> dict[int, float]:
        """row_id -> accumulated IDF overlap (the bm25 stand-in, pre-norm)."""
        hits: dict[int, float] = {}
        for rid in self.exact.get(norm_mention, []):
            hits[rid] = hits.get(rid, 0.0) + 2.0 * self._idf_of_row(rid)
        for tok in set(norm_mention.split()):
            idf = math.log(1.0 + self.n_docs / (1 + self.token_df.get(tok, 0)))
            for rid in self._near(tok).tolist():
                hits[rid] = hits.get(rid, 0.0) + idf
        return hits

    def _idf_of_row(self, rid: int) -> float:
        toks = self.rows[rid][2].split()
        return sum(
            math.log(1.0 + self.n_docs / (1 + self.token_df.get(t, 0))) for t in toks
        ) / max(1, len(toks))

    # ---------------- scoring ----------------
    def scored_candidates(
        self, raw_mention: str
    ) -> dict[str, tuple[float, float, float, bool]]:
        """Per-entity partial scores BEFORE the query-global steps:
        ``{entity: (fuzzy_ratio, raw_overlap, pr, is_partial_exact)}``.

        The query-global steps (bm25 normalization by the best hit,
        adaptive threshold from the max ratio, PR log-normalization,
        final mix, sort) live in :func:`finalize_candidates` — this
        split is what makes the sharded KB tier's label lookup
        (state/sharded_kb.py) EXACTLY equivalent to the single
        index WHILE the ``cfg.max_hits`` row cap does not bind: shards
        compute partials over their rows, the router merges and
        finalizes globally.  When a mention's filtered candidate rows
        EXCEED max_hits, truncation is inherently layout-dependent
        (the kept set under equal-overlap ties follows index insertion
        order, so even two differently-built single indexes can
        differ); the sharded tier then evaluates the union of
        per-shard top-max_hits — a SUPERSET of any single index's rows
        (recall never lower; adaptive-threshold scores may shift).
        Mentions with >max_hits surviving rows are ultra-generic
        strings the annotator's candidate cap would down-rank anyway
        (code-review r4)."""
        return self.scored_candidates_batch([raw_mention])[0]

    def scored_candidates_batch(
        self, raw_mentions: list[str]
    ) -> list[dict[str, tuple[float, float, float, bool]]]:
        """:meth:`scored_candidates` of each mention, scored in one pass:
        the batch's new query tokens are probed together, and one
        :class:`_Ratios` memo serves every (mention, label) pair."""
        norms = [normalize_label(m) for m in raw_mentions]
        new_toks = [
            t for t in dict.fromkeys(t for m in norms for t in m.lower().split())
            if t not in self._near
        ]
        for tok, rows in zip(new_toks, self._near_rows(new_toks)):
            self._near.put(tok, rows)
        ratios = _Ratios()
        return [self._scored(new_label, ratios) for new_label in norms]

    def _scored(self, new_label: str, ratios: _Ratios) -> dict[str, tuple[float, float, float, bool]]:
        """:meth:`scored_candidates` of a normalized mention."""
        cfg = self.cfg
        label_lower = new_label.lower()
        if not label_lower:
            return {}
        hits = self._candidate_rows(label_lower)
        if not hits:
            return {}
        # ES length-window filters (es_lookup.py:205-210): analyzed-field
        # window OR keyword-field ±LABEL_TOKEN_DIFF window
        lo1 = int(len(new_label) * cfg.label_length_min_factor)
        hi1 = int(len(new_label) * cfg.label_length_max_factor)
        lo2 = max(0, len(new_label) - cfg.label_token_diff)
        hi2 = len(new_label) + cfg.label_token_diff
        n_mention_toks = len(label_lower.split())

        entity_fuzzy: dict[str, float] = {}
        entity_overlap: dict[str, float] = {}
        entity_pr: dict[str, float] = {}
        partial_exact: set[str] = set()
        n_hits = 0
        # ratio components depend only on the LABEL STRING (not the
        # entity), and label strings repeat heavily across entities
        # (namesakes) — memoize per (label, origin) within this search
        label_score_cache: dict[tuple[str, str], tuple[float, bool]] = {}
        for rid, overlap in sorted(hits.items(), key=lambda kv: -kv[1]):
            if n_hits >= cfg.max_hits:
                break
            entity, ent_label, ent_norm, origin, pr, n_toks = self.rows[rid]
            ll = len(ent_label)
            if not (lo1 <= ll <= hi1 or lo2 <= ll <= hi2):
                continue
            n_hits += 1
            entity_pr[entity] = pr
            entity_overlap[entity] = max(entity_overlap.get(entity, overlap), overlap)

            cached = label_score_cache.get((ent_label, origin))
            if cached is None:
                r, is_partial = ratios.score(
                    new_label, label_lower, ent_label, ent_norm, abs(n_mention_toks - n_toks)
                )
                if origin == "MAIN_ALIAS":
                    r *= cfg.main_alias_factor
                elif origin == "SUB_ALIAS":
                    r *= cfg.sub_alias_factor
                cached = (r, is_partial)
                label_score_cache[(ent_label, origin)] = cached
            r, is_partial = cached
            if is_partial:
                partial_exact.add(entity)
            if r > entity_fuzzy.get(entity, -1.0):
                entity_fuzzy[entity] = r

        return {
            e: (entity_fuzzy[e], entity_overlap[e], entity_pr[e], e in partial_exact)
            for e in entity_fuzzy
        }

    def _search(self, raw_mention: str) -> tuple[tuple[str, float], ...]:
        """A miss of the mention cache.  Inside :meth:`search_batch` the
        first miss scores every uncached mention of the batch at once,
        and later misses of the batch read their result: the batch runs
        inside ``search``, so a wrapper set on ``search`` still times and
        counts each lookup."""
        res = self._batch_results.pop(raw_mention, None)
        if res is None:
            batch = [m for m in dict.fromkeys(self._batch) if m not in self._search_cached]
            if raw_mention not in batch:
                batch = [raw_mention]
            for m, cands in zip(batch, self.scored_candidates_batch(batch)):
                self._batch_results[m] = finalize_candidates(cands, self.cfg)
            res = self._batch_results.pop(raw_mention)
        return res

    def search(self, raw_mention: str, k: int | None = None) -> list[tuple[str, float]]:
        res = self._search_cached(raw_mention)
        return list(res[:k]) if k else list(res)

    def search_batch(self, mentions: list[str], k: int | None = None) -> list[list[tuple[str, float]]]:
        """:meth:`search` over a batch of mentions: the one lookup seam
        of the annotator and the lookup stages, shared with
        state/sharded_kb.py::ShardedKB.  Each mention goes
        through ``self.search``, so a wrapper set on the instance sees
        every lookup; the batch's misses are scored together
        (:meth:`_search`)."""
        self._batch = mentions
        try:
            return [self.search(m, k) for m in mentions]
        finally:
            self._batch = ()
            self._batch_results.clear()


class _LRU:
    """``functools.lru_cache`` over ``fn`` as a dict, with the same
    ``cache_info()``, that also answers membership and takes ``put``: a
    batch finds its misses first and computes them together."""

    __slots__ = ("_fn", "_maxsize", "_data", "_hits", "_misses")

    def __init__(self, fn, maxsize: int):
        self._fn, self._maxsize = fn, maxsize
        self._data: dict = {}
        self._hits = self._misses = 0

    def __contains__(self, key) -> bool:
        return key in self._data

    def __call__(self, key):
        data = self._data
        if key in data:
            self._hits += 1
            value = data[key] = data.pop(key)
            return value
        self._misses += 1
        value = self._fn(key)
        self.put(key, value)
        return value

    def put(self, key, value) -> None:
        data = self._data
        data.pop(key, None)
        if len(data) >= self._maxsize:
            del data[next(iter(data))]
        data[key] = value

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self._maxsize, len(self._data))


class _Ratios:
    """The ratio family of functions/fuzzy.py over one batch of lookups,
    exact to the float: every LCS is the same integer and every ratio
    the same expression.  What a batch repeats is computed once: LCS
    lengths per string pair, and per string its character masks, token
    set and sorted forms.  A pair's common prefix and suffix are matched
    outright (``LCS(cx, cy) = 1 + LCS(x, y)``), and the bit-parallel
    loop runs over the rest with the base string's masks shifted into
    place."""

    __slots__ = ("_masks", "_lcs", "_forms")

    def __init__(self):
        self._masks: dict[str, dict[str, int]] = {}
        self._lcs: dict[tuple[str, str], int] = {}
        # string -> (token set, tokens sorted, distinct tokens sorted)
        self._forms: dict[str, tuple[frozenset, str, str]] = {}

    def _forms_of(self, s: str) -> tuple[frozenset, str, str]:
        forms = self._forms.get(s)
        if forms is None:
            toks = s.split()
            tset = frozenset(toks)
            forms = self._forms[s] = (tset, " ".join(sorted(toks)), " ".join(sorted(tset)))
        return forms

    def _masks_of(self, s: str) -> dict[str, int]:
        masks = self._masks.get(s)
        if masks is None:
            masks = self._masks[s] = fuzzy._char_masks(s)
        return masks

    def lcs(self, a: str, b: str) -> int:
        key = (a, b) if a <= b else (b, a)
        n = self._lcs.get(key)
        if n is None:
            n = self._lcs[key] = self._lcs_of(a, b)
        return n

    def ratio(self, a: str, b: str) -> float:
        total = len(a) + len(b)
        return 2.0 * self.lcs(a, b) / total if total else 1.0

    def _lcs_of(self, a: str, b: str) -> int:
        """LCS length, bit-parallel over ``b`` with the masks of ``a`` (the
        mention's side in :meth:`score`, so one mask table serves all of
        a mention's labels)."""
        n = min(len(a), len(b))
        p = 0
        while p < n and a[p] == b[p]:
            p += 1
        s = 0
        while s < n - p and a[-1 - s] == b[-1 - s]:
            s += 1
        if p + s == n:
            return n
        masks = self._masks_of(a)
        row = 0
        if p or s:
            low = (1 << (len(a) - s)) - 1
            for ch in b[p : len(b) - s]:
                x = ((masks.get(ch, 0) & low) >> p) | row
                row = x & ~(x - ((row << 1) | 1))
        else:
            for ch in b:
                x = masks.get(ch, 0) | row
                row = x & ~(x - ((row << 1) | 1))
        return p + s + bin(row).count("1")

    def token_sort_ratio(self, a: str, b: str) -> float:
        return self.ratio(self._forms_of(a)[1], self._forms_of(b)[1])

    def token_set_ratio(self, a: str, b: str) -> float:
        ta, _, set_a = self._forms_of(a)
        tb, _, set_b = self._forms_of(b)
        if not ta and not tb:
            return 1.0
        if ta.isdisjoint(tb):  # no shared token: the sorted distinct tokens
            return self.ratio(set_a, set_b)
        s_inter = " ".join(sorted(ta & tb))
        s1 = (s_inter + " " + " ".join(sorted(ta - tb))).strip()
        s2 = (s_inter + " " + " ".join(sorted(tb - ta))).strip()
        # s_inter is a prefix of s1 and of s2: their LCS is len(s_inter)
        n = len(s_inter)
        return max(self.ratio(s1, s2), 2.0 * n / (n + len(s1)), 2.0 * n / (n + len(s2)))

    def _partial_bound(self, a: str, b: str) -> float:
        """An upper bound of ``fuzzy.partial_ratio(a, b)`` in float, from
        the LCS of the whole pair (memoized by ``ratio(a, b)``): a
        window's LCS is at most the whole pair's, and ``2.0 * k / (2 *
        la)`` is monotone in k."""
        la, lb = sorted((len(a), len(b)))
        if la == 0:
            return 1.0 if lb == 0 else 0.0
        return 2.0 * self.lcs(a, b) / (2 * la)

    def score(
        self, new_label: str, label_lower: str, ent_label: str, ent_lower: str, token_diff: int
    ) -> tuple[float, bool]:
        """(fuzzy ratio before the alias factor, is_partial_exact) of a
        mention against a label (es_lookup.py:138-168): lowercased and
        raw-case comparisons mixed 0.9/0.1, token-set only at a similar
        length, the mean of the top two of char, token-sort and token-set.
        The partial ratio only decides ``is_partial``, so it is skipped
        when the token-set clause already holds or the token counts
        differ by more than 2, and each of its terms when a bound (see
        :meth:`_partial_bound`) keeps the sum at or under 0.9 (IEEE
        rounding is monotone, so a bound on a term bounds the sum)."""
        char_r = 0.9 * self.ratio(label_lower, ent_lower) + 0.1 * self.ratio(new_label, ent_label)
        tsort_r = 0.9 * self.token_sort_ratio(label_lower, ent_lower) + 0.1 * (
            self.token_sort_ratio(new_label, ent_label)
        )
        len_ratio = len(label_lower) / max(1, len(ent_lower))
        similar = 0.5 < len_ratio < 2.0
        if similar:
            tset_r = 0.9 * self.token_set_ratio(label_lower, ent_lower) + 0.1 * (
                self.token_set_ratio(new_label, ent_label)
            )
        else:
            tset_r = 0.0
        if similar and tset_r > 0.9:
            is_partial = True
        elif token_diff > 2:
            is_partial = False
        else:
            # partial_r = 0.9 * pl + 0.1 * pr > 0.9, with pl and pr bounded
            # before their windows are scanned
            is_partial = (
                0.9 * self._partial_bound(label_lower, ent_lower) + 0.1 > 0.9
                and (pl := 0.9 * fuzzy.partial_ratio(label_lower, ent_lower)) + 0.1 > 0.9
                and pl + 0.1 * self._partial_bound(new_label, ent_label) > 0.9
                and pl + 0.1 * fuzzy.partial_ratio(new_label, ent_label) > 0.9
            )
        r2 = sorted((char_r, tsort_r, tset_r), reverse=True)[:2]
        return (r2[0] + r2[1]) / 2, is_partial


def finalize_candidates(
    cands: dict[str, tuple[float, float, float, bool]],
    cfg: LookupConfig,
) -> tuple[tuple[str, float], ...]:
    """Query-global scoring tail (es_lookup.py:170-198): adaptive
    threshold over the max fuzzy ratio, bm25 normalization by the best
    overlap, locally log-normalized pagerank, 0.7/0.1/0.2 mix,
    deterministic sort.  Shared by the single index and the sharded
    tier (merge shard partials, then call this once)."""
    if not cands:
        return ()
    max_ratio = max(v[0] for v in cands.values())
    bm25_max = max(v[1] for v in cands.values()) or 1.0
    threshold = max(cfg.adaptive_ratio_min_threshold, max_ratio - cfg.adaptive_ratio_max_gap)
    kept = [e for e, (r, _o, _p, part) in cands.items() if r >= threshold or part]
    if not kept:
        return ()
    max_pr = max((cands[e][2] for e in kept), default=0.0) or 1.0
    fuzz_w = 1.0 - cfg.page_rank_factor - cfg.bm25_factor
    scored = [
        (
            e,
            fuzz_w * cands[e][0]
            + cfg.page_rank_factor * math.log2(cands[e][2] + 1) / math.log2(max_pr + 1)
            + cfg.bm25_factor * (cands[e][1] / bm25_max),
        )
        for e in kept
    ]
    # deterministic total order: score desc, then entity id (SURVEY §7
    # "hard parts" — the reference relies on dict insertion order)
    scored.sort(key=lambda t: (-t[1], t[0]))
    return tuple(scored)


def merge_candidates(
    parts: list[dict[str, tuple[float, float, float, bool]]],
) -> dict[str, tuple[float, float, float, bool]]:
    """Merge per-shard partials: max fuzzy/overlap/pr, OR partial flag.
    (An entity lives in exactly one shard when sharding by entity hash,
    so this is a plain union there; max-merge keeps it correct for any
    sharding.)"""
    out: dict[str, tuple[float, float, float, bool]] = {}
    for part in parts:
        for e, (r, o, p, flag) in part.items():
            cur = out.get(e)
            if cur is None:
                out[e] = (r, o, p, flag)
            else:
                out[e] = (max(cur[0], r), max(cur[1], o), max(cur[2], p), cur[3] or flag)
    return out
