"""Fuzzy string similarity — from-scratch indel-based ratios.

Semantics follow the similarity family the reference uses via rapidfuzz
(`annotation/annot_scripts/utils.py:65-75`, `lookup/es_lookup.py:138-152`):
``ratio`` (normalized indel similarity), ``token_sort_ratio``,
``token_set_ratio``, ``partial_ratio``, and the combined
``textual_similarity`` = mean of the top-2 of the three ratios.

rapidfuzz is not available in this environment, so the ratios are
implemented here directly:

* ``ratio(a, b)`` = 2*LCS(a, b) / (len(a)+len(b)) — identical to
  rapidfuzz's normalized InDel similarity.
* LCS length uses the Allison–Dix bit-parallel algorithm (O(n·m/w)),
  verified against a reference DP in tests.

All ratios return floats in [0, 1] (the reference divides rapidfuzz's
0–100 output by 100 everywhere, so [0, 1] is the native scale here).
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "ratio",
    "partial_ratio",
    "token_sort_ratio",
    "token_set_ratio",
    "textual_similarity",
]


def _char_masks(s: str) -> dict[str, int]:
    masks: dict[str, int] = {}
    bit = 1
    for ch in s:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    return masks


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence (bit-parallel).

    Python ints are arbitrary precision, so one "word" covers any
    string length; cost is O(len(b)) big-int ops of width len(a).
    """
    if not a or not b:
        return 0
    if len(a) < len(b):  # fewer iterations over the longer string as mask base
        a, b = b, a
    masks = _char_masks(a)
    row = 0
    for ch in b:
        x = masks.get(ch, 0) | row
        row = x & ~(x - ((row << 1) | 1))
    return bin(row).count("1")


def ratio(a: str, b: str) -> float:
    """Normalized indel similarity in [0, 1]."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * lcs_length(a, b) / total


def partial_ratio(a: str, b: str) -> float:
    """Best ``ratio`` of the shorter string against any equal-length
    substring window of the longer one."""
    if len(a) > len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    if la == 0:
        return 1.0 if lb == 0 else 0.0
    if la == lb:
        return ratio(a, b)
    best = 0.0
    masks = _char_masks(a)
    for start in range(lb - la + 1):
        window = b[start : start + la]
        row = 0
        for ch in window:
            x = masks.get(ch, 0) | row
            row = x & ~(x - ((row << 1) | 1))
        sim = 2.0 * bin(row).count("1") / (2 * la)
        if sim > best:
            best = sim
            if best == 1.0:
                break
    return best


def _tokens(s: str) -> list[str]:
    return s.split()


def token_sort_ratio(a: str, b: str) -> float:
    return ratio(" ".join(sorted(_tokens(a))), " ".join(sorted(_tokens(b))))


def token_set_ratio(a: str, b: str) -> float:
    ta, tb = set(_tokens(a)), set(_tokens(b))
    if not ta and not tb:
        return 1.0
    inter = sorted(ta & tb)
    diff_ab = sorted(ta - tb)
    diff_ba = sorted(tb - ta)
    s_inter = " ".join(inter)
    s1 = (s_inter + " " + " ".join(diff_ab)).strip()
    s2 = (s_inter + " " + " ".join(diff_ba)).strip()
    scores = [ratio(s1, s2)]
    if s_inter:
        scores.append(ratio(s_inter, s1))
        scores.append(ratio(s_inter, s2))
    return max(scores)


@lru_cache(maxsize=131072)
def textual_similarity(s1: str, s2: str) -> float:
    """Mean of the top-2 of {char ratio, token_sort, token_set} on
    lowercased inputs (annot_scripts/utils.py:65-75)."""
    a, b = s1.lower(), s2.lower()
    r = sorted(
        (ratio(a, b), token_sort_ratio(a, b), token_set_ratio(a, b)),
        reverse=True,
    )
    return (r[0] + r[1]) / 2.0
