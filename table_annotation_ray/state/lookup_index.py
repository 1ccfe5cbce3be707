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
    sorted unique keys (``U<L>``), int64 CSR offsets, int32 row ids and
    an int8 depth, the smallest at which one of the row's tokens yields
    the key.  It is built with NumPy: each token length's ``(N, n)``
    code-point matrix is fancy-indexed with precomputed keep-index
    arrays, and no Python string is made per key.
  * a query token expands by the same rule and matches every posting
    of every variant, at depth ≤ 2 when the token is long enough for
    two edits and ≤ 1 otherwise; one ``searchsorted`` per variant
    length finds the keys.  This equals the nine lookups of the former
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

The index is built once per actor in ``__init__`` from the broadcast
KBData (SURVEY.md §2.4 J1/J2; ST3).
"""

from __future__ import annotations

import math
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


class _Partition:
    """The neighborhood keys of one length: ``keys`` sorted and unique
    (``U<L>``; the empty key is a ``U1`` ""), and per key ``k`` its rows
    ``rows[off[k]:off[k + 1]]`` ascending, each with the smallest
    deletion ``depth`` (0, 1 or 2) at which one of the row's tokens
    yields the key."""

    __slots__ = ("keys", "off", "rows", "depth")

    def __init__(self, keys, off, rows, depth):
        self.keys, self.off, self.rows, self.depth = keys, off, rows, depth

    def nbytes(self) -> int:
        return self.keys.nbytes + self.off.nbytes + self.rows.nbytes + self.depth.nbytes

    def postings(self, variants: np.ndarray, max_depth: int) -> np.ndarray | None:
        """Rows of the keys among ``variants`` at depth ≤ max_depth, or
        None when no variant is a key (a row repeats when several
        variants hit it)."""
        pos = self.keys.searchsorted(variants)
        pos = pos[self.keys.take(pos, mode="clip") == variants]
        if not len(pos):
            return None
        lo = self.off[pos]
        n = self.off[pos + 1] - lo
        total = np.add.reduce(n)
        if total == len(n):  # one row per key
            idx = lo
        elif len(n) == 1:
            idx = slice(lo[0], lo[0] + total)
        else:
            idx = np.repeat(lo - n.cumsum() + n, n) + np.arange(total)
        rows = self.rows[idx]
        return rows[self.depth[idx] <= max_depth] if max_depth < 2 else rows


def _depths(n: int, two_edit_len: int) -> tuple[int, ...]:
    """Deletion depths of an n-char token's neighborhood: itself, its
    1-deletions when longer than 3 chars, its 2-deletions (none below 2
    chars) when at least ``two_edit_len`` chars.  Index keys and query
    variants use the same rule."""
    return (0,) + ((1,) if n > 3 else ()) + ((2,) if two_edit_len and n >= two_edit_len else ())


def _neighborhood_table(
    tokens: list[str], tok_off: np.ndarray, tok_rows: np.ndarray, n_rows: int,
    two_edit_len: int,
) -> dict[int, _Partition]:
    """Key length -> :class:`_Partition` over the :func:`_depths`
    neighborhoods of the distinct label tokens; token ``t`` is in rows
    ``tok_rows[tok_off[t]:tok_off[t + 1]]``.

    Keys are cut from each token length's ``(N, n)`` code matrix with
    :func:`_keep` index arrays, ``_GEN_CHARS`` at a time.  To sort, a key
    of length L is packed into one uint64 of b-bit alphabet ranks, first
    char most significant (so numeric order is ``U<L>`` order), when
    ``L * b <= 64``; longer keys sort as ``U<L>`` strings."""
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
                        sk = np.zeros((len(r), len(keep)), dtype=np.uint64)
                        for c in range(L):
                            sk <<= np.uint64(bits)
                            sk |= r[:, keep[:, c]]
                        sk = sk.ravel()
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
        uniq = sk[new]
        del sk
        kid = np.cumsum(new, dtype=np.int64)
        kid -= 1
        del new
        if L == 0:
            keys = np.array([""], dtype="<U1")
        elif uniq.dtype == np.uint64:
            shifts = np.uint64(bits) * np.arange(L - 1, -1, -1, dtype=np.uint64)
            ranks = (uniq[:, None] >> shifts) & np.uint64((1 << bits) - 1)
            keys = np.ascontiguousarray(alphabet[ranks]).view(f"<U{L}").ravel()
        else:
            keys = uniq
        del uniq
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
    return table


class LabelIndex:
    def __init__(
        self,
        kb: KBData,
        cfg: LookupConfig | None = None,
        df_override: tuple[dict[str, int], int] | None = None,
    ):
        """``df_override=(token_df, n_docs)``: use CORPUS-GLOBAL document
        frequencies for IDF weighting instead of the locally-counted ones
        — required when this index holds only a shard of the label table
        (state/sharded_lookup.py) so bm25 weights match the single
        index exactly."""
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
        if tokens:
            tok_off = np.zeros(len(tokens) + 1, dtype=np.int64)
            np.cumsum(df, out=tok_off[1:])
            # stable: rows stay ascending within a token
            tok_rows = np.asarray(post_row, dtype=np.int64)[
                np.argsort(post_tok_a, kind="stable")
            ]
            self.table = _neighborhood_table(
                tokens, tok_off, tok_rows, len(self.rows), self.cfg.two_edit_min_token_len
            )
        self.n_docs = max(1, len(self.rows))
        if df_override is not None:
            self.token_df, self.n_docs = df_override
        # bound the per-actor result caches (per query token and per mention)
        self._near_cached = lru_cache(maxsize=self.cfg.cache_size)(self._near_rows)
        self._search_cached = lru_cache(maxsize=self.cfg.cache_size)(self._search)

    def nbytes(self) -> int:
        """Bytes held by the neighborhood table's arrays."""
        return sum(p.nbytes() for p in self.table.values())

    def df_stats(self) -> tuple[dict[str, int], int]:
        return self.token_df, self.n_docs

    # ---------------- recall ----------------
    def _near_rows(self, tok: str) -> np.ndarray:
        """Ascending rows holding a token within the query token's
        neighborhood (see the module docstring)."""
        n = len(tok)
        depths = _depths(n, self.cfg.two_edit_min_token_len)
        max_depth = 2 if 2 in depths else 1
        query = np.array([tok], dtype=f"<U{n}")
        found: list[np.ndarray] = []
        for depth in depths:
            part = self.table.get(n - depth)
            if part is None:
                continue
            if depth == 0:
                variants = query
            elif n == depth:
                variants = part.keys
            else:
                keep = _query_keep(n, depth) if n <= 64 else _keep(n, depth)
                variants = query.view(np.uint32)[keep].view(f"<U{n - depth}").ravel()
            rows = part.postings(variants, max_depth)
            if rows is not None:
                found.append(rows)
        if not found:
            return _NO_ROWS
        rows = np.concatenate(found)
        if len(rows) < 2:
            return rows
        rows.sort()
        first = np.empty(len(rows), dtype=bool)
        first[0] = True
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        return rows[first]

    def _candidate_rows(self, norm_mention: str) -> dict[int, float]:
        """row_id -> accumulated IDF overlap (the bm25 stand-in, pre-norm)."""
        hits: dict[int, float] = {}
        for rid in self.exact.get(norm_mention, []):
            hits[rid] = hits.get(rid, 0.0) + 2.0 * self._idf_of_row(rid)
        for tok in set(norm_mention.split()):
            idf = math.log(1.0 + self.n_docs / (1 + self.token_df.get(tok, 0)))
            for rid in self._near_cached(tok).tolist():
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
        split is what makes the sharded lookup tier
        (state/sharded_lookup.py) EXACTLY equivalent to the single
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
        cfg = self.cfg
        new_label = normalize_label(raw_mention)
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
                ent_lower = ent_norm
                char_r = 0.9 * fuzzy.ratio(label_lower, ent_lower) + 0.1 * fuzzy.ratio(
                    new_label, ent_label
                )
                tsort_r = 0.9 * fuzzy.token_sort_ratio(label_lower, ent_lower) + 0.1 * (
                    fuzzy.token_sort_ratio(new_label, ent_label)
                )
                len_ratio = len(label_lower) / max(1, len(ent_lower))
                if 0.5 < len_ratio < 2.0:
                    tset_r = 0.9 * fuzzy.token_set_ratio(label_lower, ent_lower) + 0.1 * (
                        fuzzy.token_set_ratio(new_label, ent_label)
                    )
                else:
                    tset_r = 0.0
                partial_r = 0.9 * fuzzy.partial_ratio(label_lower, ent_lower) + 0.1 * (
                    fuzzy.partial_ratio(new_label, ent_label)
                )
                token_diff = abs(n_mention_toks - n_toks)
                is_partial = (partial_r > 0.9 and token_diff <= 2) or (
                    tset_r > 0.9 and 0.5 < len_ratio < 2.0
                )
                r2 = sorted((char_r, tsort_r, tset_r), reverse=True)[:2]
                r = (r2[0] + r2[1]) / 2
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
        return finalize_candidates(self.scored_candidates(raw_mention), self.cfg)

    def search(self, raw_mention: str, k: int | None = None) -> list[tuple[str, float]]:
        res = self._search_cached(raw_mention)
        return list(res[:k]) if k else list(res)

    def search_batch(self, mentions: list[str], k: int | None = None) -> list[list[tuple[str, float]]]:
        """:meth:`search` over a batch of mentions: the one lookup seam
        of the annotator and the lookup stages, shared with
        state/sharded_lookup.py::ShardedLookupTier.  Each mention goes
        through ``self.search``, so a wrapper set on the instance sees
        every lookup."""
        return [self.search(m, k) for m in mentions]


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
