"""Unigram-LM tokenizer training (SentencePiece-style, Kudo 2018) —
the second of the two standard subword-tokenizer trainers (BPE lives in
``stages/bpe.py``): seed a large candidate-piece inventory from corpus
substrings, then alternate Viterbi segmentation of the corpus under the
current piece distribution with count re-estimation, pruning the
lowest-probability pieces each round until the target vocab size.

Design choices for a DISTRIBUTED, bit-reproducible trainer:

* **Hard EM (Viterbi counts).**  Each E-step assigns every word its
  single best segmentation and accumulates INTEGER piece counts
  (weighted by word frequency), so the per-bucket partial sums are
  order-independent — the distributed run is byte-identical to a
  single-process reference regardless of block layout (the soft-EM
  float posteriors would be summation-order-dependent).
* **Work on the distinct-word table.**  Segmentation cost scales with
  DISTINCT words × word length, not corpus tokens: one grouped_reduce
  collapses the corpus to ``(word, count)`` once, materialized and
  reused every round.
* **Bounded model broadcast.**  The piece table (≤ seed_size rows) is
  captured in the segmentation closure per round — the lm.py
  bounded-model-broadcast pattern; piece counts come back through one
  grouped_reduce per round and the driver renormalizes/prunes (vocab-
  sized work).
* **Single characters are never pruned** — full coverage by
  construction (every corpus word segments, no OOV).

No reference counterpart (SURVEY §2 beyond-reference LLM-pipeline
catalog; same family as stages/bpe.py).
"""

from __future__ import annotations

import math
import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

_WS = re.compile(r"\s+")


def word_counts(
    docs: rd.Dataset, text_col: str = "text", num_buckets: int = 64
) -> rd.Dataset:
    """Distinct lowercased whitespace tokens with corpus counts —
    ``(word, n)`` — one grouped_reduce exchange."""
    from .agg import grouped_reduce

    def explode(b: pd.DataFrame) -> pa.Table:
        toks: list[str] = []
        for t in b[text_col].fillna(""):
            toks.extend(w for w in _WS.split(t.lower()) if w)
        p = pd.Series(toks, dtype="object").value_counts()
        return pa.table(
            {
                "word": pa.array(p.index.tolist(), pa.string()),
                "n": pa.array(p.to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    return grouped_reduce(
        docs.map_batches(explode, batch_format="pandas", batch_size=65536),
        ["word"],
        {"n": ("n", "sum")},
        num_buckets=num_buckets,
    )


def _seed_pieces(
    words: rd.Dataset,
    seed_size: int,
    max_piece_len: int,
    num_buckets: int,
) -> pd.DataFrame:
    """Candidate inventory: every substring of length 1..max_piece_len
    of every distinct word, counted with the word's corpus frequency;
    ALL single characters plus the top (seed_size - n_chars) longer
    substrings by (count desc, piece) — the train_bigram_lm bounded
    top-K collect (per-block prune under the same total order)."""
    from .agg import grouped_reduce

    def substrings(b: pd.DataFrame) -> pa.Table:
        pieces: list[str] = []
        counts: list[int] = []
        for w, n in zip(b["word"], b["n"].to_numpy(dtype=np.int64)):
            L = len(w)
            for i in range(L):
                for j in range(i + 1, min(i + max_piece_len, L) + 1):
                    pieces.append(w[i:j])
                    counts.append(int(n))
        df = pd.DataFrame(
            {"piece": pd.Series(pieces, dtype="object"),
             "n": pd.Series(counts, dtype="int64")}
        )
        p = df.groupby("piece", sort=False)["n"].sum().reset_index()
        return pa.table(
            {
                "piece": pa.array(p["piece"].tolist(), pa.string()),
                "n": pa.array(p["n"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    counts = grouped_reduce(
        words.map_batches(substrings, batch_format="pandas"),
        ["piece"],
        {"n": ("n", "sum")},
        num_buckets=num_buckets,
    )

    def prune(b: pd.DataFrame) -> pd.DataFrame:
        is_char = b["piece"].str.len() == 1
        top = (
            b[~is_char]
            .sort_values(["n", "piece"], ascending=[False, True])
            .head(seed_size)
        )
        return pd.concat([b[is_char], top], ignore_index=True)

    allp = counts.map_batches(prune, batch_format="pandas").to_pandas()
    chars = allp[allp["piece"].str.len() == 1]
    multi = (
        allp[allp["piece"].str.len() > 1]
        .sort_values(["n", "piece"], ascending=[False, True])
        .head(max(0, seed_size - len(chars)))
    )
    return pd.concat([chars, multi], ignore_index=True)[["piece", "n"]]


# score of an unseen character's 1-char piece: finite, so the positions
# after it stay reachable, and below any real piece's log-prob, so a
# known piece spanning the character still wins
_UNSEEN_LOGP = -1e9


def _viterbi(word: str, logp: dict, max_piece_len: int) -> list[str]:
    """Best segmentation of ``word`` under piece log-probs — fixed
    iteration order (piece length ascending, strict improvement only)
    so ties resolve identically everywhere.  A position no piece ends
    at (a character missing from the piece table) becomes its own
    1-char piece scored :data:`_UNSEEN_LOGP`."""
    L = len(word)
    best = [0.0] + [-math.inf] * L
    back = [0] * (L + 1)
    for i in range(1, L + 1):
        for l in range(1, min(max_piece_len, i) + 1):
            lp = logp.get(word[i - l:i])
            if lp is None:
                continue
            s = best[i - l] + lp
            if s > best[i]:
                best[i] = s
                back[i] = l
        if back[i] == 0:
            best[i] = best[i - 1] + _UNSEEN_LOGP
            back[i] = 1
    out: list[str] = []
    i = L
    while i > 0:
        out.append(word[i - back[i]:i])
        i -= back[i]
    out.reverse()
    return out


def train_unigram_lm(
    docs: rd.Dataset,
    text_col: str = "text",
    vocab_size: int = 64,
    seed_size: int = 512,
    max_piece_len: int = 6,
    n_iters: int = 4,
    shrink: float = 0.25,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Train the unigram tokenizer; returns the final piece table
    ``(piece, count, logprob)`` sorted by (count desc, piece), where
    ``count`` is the piece's Viterbi count in the last E-step and
    ``logprob = ln(count / total)`` (unused pieces keep count 0 and
    logprob NULL).  See module docstring for the distributed shape.
    """
    from .agg import grouped_reduce

    words = word_counts(docs, text_col, num_buckets).materialize()
    pieces = _seed_pieces(words, seed_size, max_piece_len, num_buckets)

    cur = dict(zip(pieces["piece"], pieces["n"].astype(int)))

    for it in range(n_iters):
        total = float(sum(cur.values()))
        logp = {p: math.log(c / total) for p, c in cur.items() if c > 0}
        # chars must stay segmentable even at count 0 (coverage floor)
        floor = math.log(0.5 / total)
        for p in cur:
            if len(p) == 1 and p not in logp:
                logp[p] = floor
        mpl = max_piece_len

        def estep(b: pd.DataFrame, _lp=logp, _mpl=mpl) -> pa.Table:
            cnt: dict[str, int] = {}
            for w, n in zip(b["word"], b["n"].to_numpy(dtype=np.int64)):
                for piece in _viterbi(w, _lp, _mpl):
                    cnt[piece] = cnt.get(piece, 0) + int(n)
            return pa.table(
                {
                    "piece": pa.array(list(cnt.keys()), pa.string()),
                    "n": pa.array(
                        np.fromiter(cnt.values(), np.int64, len(cnt)),
                        pa.int64(),
                    ),
                }
            )

        got = (
            grouped_reduce(
                words.map_batches(estep, batch_format="pandas"),
                ["piece"],
                {"n": ("n", "sum")},
                num_buckets=num_buckets,
            )
            .to_pandas()
        )
        newc = dict(zip(got["piece"], got["n"].astype(int)))
        cur = {p: newc.get(p, 0) for p in cur}

        # prune toward vocab_size: drop the lowest-count multi-char
        # pieces (chars are always kept); deterministic (count asc, piece)
        multi = sorted(
            ((c, p) for p, c in cur.items() if len(p) > 1),
            key=lambda t: (t[0], t[1]),
        )
        n_chars = sum(1 for p in cur if len(p) == 1)
        target_multi = max(0, vocab_size - n_chars)
        if it < n_iters - 1:
            keep_multi = max(
                target_multi, int(len(multi) * (1.0 - shrink))
            )
        else:
            keep_multi = target_multi
        drop = {p for _, p in multi[: max(0, len(multi) - keep_multi)]}
        cur = {p: c for p, c in cur.items() if p not in drop}

    total = float(sum(cur.values()))
    out = pd.DataFrame(
        {
            "piece": list(cur.keys()),
            "count": np.fromiter(cur.values(), np.int64, len(cur)),
        }
    )
    count = out["count"].to_numpy(np.float64)
    out["logprob"] = np.log(
        count / total, where=count > 0, out=np.full(len(count), np.nan)
    )
    return (
        out.sort_values(["count", "piece"], ascending=[False, True])
        .reset_index(drop=True)
    )


def unigram_encode(
    docs: rd.Dataset,
    model: pd.DataFrame,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_piece_len: int = 6,
) -> rd.Dataset:
    """Segment every document with a trained piece table: per doc, the
    Viterbi piece count and character coverage — map-only (model
    broadcast in the closure), the bpe_encode counterpart."""
    total = float(model["count"].sum())
    logp = {
        p: math.log(c / total)
        for p, c in zip(model["piece"], model["count"]) if c > 0
    }
    floor = math.log(0.5 / max(total, 1.0))
    for p in model["piece"]:
        if len(p) == 1 and p not in logp:
            logp[p] = floor

    def seg(b: pd.DataFrame) -> pa.Table:
        ids, n_pieces, n_chars, n_words = [], [], [], []
        for did, t in zip(b[id_col], b[text_col].fillna("")):
            c = 0
            ch = 0
            nw = 0
            for w in _WS.split(t.lower()):
                if not w:
                    continue
                c += len(_viterbi(w, logp, max_piece_len))
                ch += len(w)
                nw += 1
            ids.append(did)
            n_pieces.append(c)
            n_chars.append(ch)
            n_words.append(nw)
        return pa.table(
            {
                id_col: pa.array(ids),
                "n_pieces": pa.array(n_pieces, pa.int64()),
                "n_chars": pa.array(n_chars, pa.int64()),
                "n_words": pa.array(n_words, pa.int64()),
            }
        )

    return docs.map_batches(seg, batch_format="pandas")
