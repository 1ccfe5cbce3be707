"""Text cleaning / normalization scalar+vector functions.

Covers the reference's encoding recovery and label normalization:
* ``fix_encoding`` — `preprocessing/prp_scripts/utils.py:135-147`
  (latin1 re-encode + unicode-escape decode, then a mojibake repair
  pass standing in for ftfy, which is not available here).
* ``normalize_label`` — `lookup/es_lookup.py:202-204` (strip double
  quotes, collapse whitespace; lookup additionally lowercases).
* ``string_datatype`` — `prp_scripts/utils.py:49-62`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "fix_encoding",
    "fix_encoding_column",
    "normalize_label",
    "string_datatype",
]

_ASCII = tuple(chr(i) for i in range(128))


def _fix_mojibake(s: str) -> str:
    """Repair the classic UTF-8-read-as-latin1 mojibake (ftfy's core
    trick, reimplemented): if the string re-encodes to latin-1 bytes
    that decode as valid UTF-8 with fewer non-ASCII chars, prefer that.
    """
    try:
        b = s.encode("latin-1")
    except UnicodeEncodeError:
        try:
            b = s.encode("windows-1252")
        except UnicodeEncodeError:
            return s
    try:
        fixed = b.decode("utf-8")
    except UnicodeDecodeError:
        return s
    if fixed == s:
        return s
    # accept only if it strictly reduced non-ASCII weirdness
    bad_before = sum(1 for ch in s if ord(ch) > 127)
    bad_after = sum(1 for ch in fixed if ord(ch) > 127)
    return fixed if bad_after < bad_before else s


def fix_encoding(cell: str) -> str:
    """Recover a poorly encoded cell (utils.py:135-147 semantics):
    1. encode('latin1').decode('unicode-escape') to unfold literal
       ``\\uXXXX`` / ``\\xXX`` escapes left by bad serializers;
    2. mojibake repair (ftfy-equivalent core fix).
    Falls back to the repair-only path when step 1 fails.
    An ASCII cell without a backslash comes back unchanged from both
    steps, so it returns at once.
    """
    if cell.isascii() and "\\" not in cell:
        return cell
    import warnings

    try:
        with warnings.catch_warnings():
            # invalid escape sequences in arbitrary text raise a
            # DeprecationWarning from unicode-escape; they are expected here
            warnings.simplefilter("ignore", DeprecationWarning)
            unescaped = cell.encode("latin-1").decode("unicode-escape")
        # unicode-escape decodes via latin-1, re-introducing mojibake for
        # genuine UTF-8 text — the repair pass below undoes that.
        return _fix_mojibake(unescaped)
    except Exception:
        return _fix_mojibake(cell)


_NEEDS_FIX = None  # lazily-built set of chars that trigger the slow path


def fix_encoding_column(arr: pa.Array) -> pa.Array:
    """Vectorized wrapper: run ``fix_encoding`` only on strings that
    contain a backslash or non-ASCII byte; pure-ASCII strings (the vast
    majority at scale) pass through zero-copy."""
    if len(arr) == 0:
        return arr
    ascii_only = pc.match_substring_regex(arr, r"^[ -\[\]-~\t]*$")
    if pc.all(ascii_only).as_py():
        return arr
    py = arr.to_pylist()
    mask = ascii_only.to_pylist()
    out = [
        v if (v is None or clean) else fix_encoding(v)
        for v, clean in zip(py, mask)
    ]
    return pa.array(out, type=pa.string())


def normalize_label(label: str) -> str:
    """ES-input normalization (es_lookup.py:202-204): drop double
    quotes, collapse runs of whitespace, strip."""
    return " ".join(label.replace('"', "").split())


def string_datatype(label: str) -> str:
    """String-datatype bucketing (prp_scripts/utils.py:49-62)."""
    if len(label) >= 100:
        return "String_Normal"
    if 2 * sum(ch.isdigit() for ch in label) >= len(label):
        return "String_Number"
    if label.upper() == label:
        return "String_Uppercase"
    return "String_Normal"
