"""Generic-table preprocessing — orientation / header / key-column /
primitive-typing detection.

Faithful re-derivation of the reference preprocessing stack
(`preprocessing/table_preprocessing.py:29-100`,
`prp_scripts/utils.py:149-446`,
`prp_scripts/table_info_extraction_modules.py:57-361`) for parity
testing and for the generic-table ingestion path (a table that is NOT a
fixed-schema transcript).  Pure per-table functions — at scale they run
inside ``map_groups(table_id)`` (each logical table is one group), so
none of this shuffles anything beyond the per-table exchange.

One typed pass per table.  The reference computes each statistic as a
separate pass over a transposed copy (NumPy per line); here, on the
serve path's median table of ~8 rows, each such copy or NumPy call
costs more than the per-cell work it wraps, so:

  * :func:`table_filtering` drops empty rows, repairs encoding, pads and
    drops all-empty columns in one pass over the rows, no transposes;
  * :func:`detect_orientation` looks each inner cell's datatypes up once
    and scores rows and columns from that one grid;
  * :func:`detect_header` types the body's columns once and returns that
    typing (``Header.column_typing``): it is the preprocessing output's
    primitive typing, and the annotator's own column typing whenever
    the header row is dropped from the same rows
    (pipelines/table_pipeline.py::annotate_single);
  * means and standard deviations come from :func:`mean_std`, pure
    Python over lists of a few floats.  It adds in NumPy's order
    (pairwise summation: sequential below 8 values, 8 interleaved
    accumulators up to 128, halves above), because float addition is
    not associative: a plain left-to-right sum can differ from
    ``np.mean``/``np.std`` in the last bit, and the orientation rule
    compares those statistics with thresholds, so one bit can flip a
    table's orientation.

Divergences (deliberate, documented):
  * the ≤400-row subsample uses a seeded RNG (reference shuffles with
    the global random state — non-deterministic, table_preprocessing.py:50-55);
  * the stray debug print in orientation step 4 is dropped
    (table_info_extraction_modules.py:211).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..functions.text import fix_encoding
from ..functions.typing_rules import (
    GazetteerNER,
    is_concept,
    key_column_related_datatype,
    type_cell,
    typing_priority,
)
from .annotator import types_per_column

_PUNCT_STRIP = ".@_!#$%^&*()<>?/\\|}{][~:'-+~~_°¨"


# ---------------------------------------------------------------------------
# table shaping (utils.py:149-218)
# ---------------------------------------------------------------------------

def table_filtering(table: list[list[str]]) -> list[list[str]]:
    """Drop all-empty rows, repair encoding per cell, pad short rows to
    the widest row, drop all-empty columns (utils.py:149-177), in one
    pass over the rows."""
    if not table:
        return []
    width = max(map(len, table))
    rows = []
    for row in table:
        # reference missing-cell test is EMPTY-OR-SPACES-ONLY
        # (utils.py:165: cell != "" and cell != " "*len(cell)) — a
        # tab/newline-only cell counts as content there, so strip only
        # spaces (code-review r4 parity fix)
        if not any(c.strip(" ") for c in row):
            continue
        fixed = [fix_encoding(c) for c in row]
        if len(fixed) < width:
            fixed.extend([""] * (width - len(fixed)))
        rows.append(fixed)
    # a column is dropped when every kept row has "" there (the repaired
    # text, so a space-only cell keeps its column)
    kept = [i for i in range(width) if any(row[i] for row in rows)]
    if len(kept) == width:
        return rows
    if not kept:
        return []
    return [[row[i] for i in kept] for row in rows]


def _padded(table: list[list], fill="") -> list[list]:
    """``table`` itself when its rows have one length, else a copy with
    the short rows padded with ``fill`` to the widest."""
    width = len(table[0])
    if all(len(row) == width for row in table):
        return table
    width = max(map(len, table))
    return [list(row) + [fill] * (width - len(row)) for row in table]


def columns_of(table: list[list], fill="") -> list[tuple]:
    """The columns of ``table`` as tuples, short rows read as ``fill``
    (a read-only :func:`transpose`)."""
    return list(zip(*_padded(table, fill))) if table else []


def transpose(table: list[list[str]]) -> list[list[str]]:
    """Transpose with implicit '' padding for ragged rows (utils.py:199-218)."""
    return [list(col) for col in columns_of(table)]


def subsample_rows(table: list[list[str]], limit: int = 400, seed: int = 42) -> list[list[str]]:
    """Deterministic ≤400-row sample keeping the first 10 rows
    (table_preprocessing.py:47-55 semantics, seeded).  A table within
    the limit is returned itself."""
    if len(table) <= limit:
        return table
    rng = np.random.RandomState(seed)
    rest = np.arange(10, len(table))
    rng.shuffle(rest)
    idx = sorted(list(range(10)) + sorted(rest[: limit - 10].tolist()))
    return [table[i] for i in idx]


# ---------------------------------------------------------------------------
# typing of the unique cell set (utils.py:221-224)
# ---------------------------------------------------------------------------

# entries in a CellTyper's memo (bounds a long-lived worker's memory)
TYPER_CACHE_SIZE = 262_144


class CellTyper:
    """``typer(cell) -> (typings, datatypes)``: :func:`type_cell` with a
    gazetteer NER built once from ``gazetteer`` and a bounded memo, so a
    cell string is typed once per worker (the reference types each
    unique cell once).  The memo returns tuples, never a mutable object
    (callers build their own lists), and is a thread-safe
    ``lru_cache``, so serve threads share one."""

    def __init__(self, gazetteer: dict[str, str]):
        ner = GazetteerNER(gazetteer)
        self._memo = lru_cache(maxsize=TYPER_CACHE_SIZE)(
            lambda cell: tuple(map(tuple, type_cell(cell, ner))))
        self.cache_info = self._memo.cache_info

    def __call__(self, cell: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return self._memo(cell)


def parse_table(
    table: list[list[str]], typer: CellTyper
) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Typings and datatypes of the table's cells; a cell that types to
    nothing is left out (readers tell absent from ``[]``)."""
    typings: dict[str, list[str]] = {}
    datatypes: dict[str, list[str]] = {}
    for row in table:
        for cell in row:
            if cell not in typings:
                ty, dt = typer(cell)
                if ty:
                    typings[cell] = list(ty)
                    datatypes[cell] = list(dt)
    return typings, datatypes


# ---------------------------------------------------------------------------
# homogeneity + word-length statistics (utils.py:339-411)
# ---------------------------------------------------------------------------

def _pairwise_sum(a: list, lo: int, n: int) -> float:
    """NumPy's pairwise sum of ``a[lo:lo+n]`` (numpy/core/src/umath/
    loops_utils.h.src ``pairwise_sum``), operation for operation."""
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += a[i]
        return res
    if n <= 128:
        r0, r1, r2, r3 = float(a[lo]), float(a[lo + 1]), float(a[lo + 2]), float(a[lo + 3])
        r4, r5, r6, r7 = float(a[lo + 4]), float(a[lo + 5]), float(a[lo + 6]), float(a[lo + 7])
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += a[i]
            r1 += a[i + 1]
            r2 += a[i + 2]
            r3 += a[i + 3]
            r4 += a[i + 4]
            r5 += a[i + 5]
            r6 += a[i + 6]
            r7 += a[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            res += a[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(a, lo, n2) + _pairwise_sum(a, lo + n2, n - n2)


def mean_std(values: list, ddof: int = 0) -> tuple[float, float]:
    """``(np.mean(values), np.std(values, ddof=ddof))`` bit for bit, for
    a list of floats or ints: the same pairwise sums (NumPy adds them
    to a 0.0 start), the mean as sum / n, the variance as the pairwise
    sum of squared deviations over ``n - ddof``.  NaN where NumPy gives
    NaN (an empty list, or ``n <= ddof``)."""
    n = len(values)
    if n == 0:
        return math.nan, math.nan
    mean = (0.0 + _pairwise_sum(values, 0, n)) / n
    if n <= ddof:
        return mean, math.nan
    sq = [(v - mean) * (v - mean) for v in values]
    return mean, math.sqrt((0.0 + _pairwise_sum(sq, 0, n)) / (n - ddof))


def _line_homogeneity(lines) -> tuple[float | None, float | None]:
    """Body of :func:`homogeneity_compute` over lines given as each
    cell's datatypes (None for an untyped cell)."""
    per_line = []
    for line in lines:
        counts: dict[str, int] = {}
        n_typed = 0
        multi = False
        for dts in line:
            if dts:
                for dt in dts:
                    counts[dt] = counts.get(dt, 0) + 1
                n_typed += 1
                if len(dts) > 1:
                    multi = True
        if multi:  # rank a multi-typed cell's types, keep only its top one
            for dts in line:
                if dts and len(dts) > 1:
                    ranked = sorted(
                        dts, key=lambda x: (counts.get(x, 0), typing_priority(x)), reverse=True
                    )
                    for other in ranked[1:]:
                        if other in counts:
                            counts[other] -= 1
                            if counts[other] == 0:
                                del counts[other]
        if not line or n_typed / len(line) < 0.25 or not counts:
            continue
        coef = sum(1 - (1 - 2 * (c / n_typed)) ** 2 for c in counts.values())
        per_line.append((coef / len(counts)) ** 2)
    if len(per_line) > 1:
        return mean_std(per_line, 1)
    return None, None


def homogeneity_compute(
    table: list[list[str]],
    datatypes: dict[str, list[str]],
    direction: str = "horizontal",
):
    """Per-line datatype homogeneity mean/std (utils.py:339-391):
    per-line popularity score 1-(1-2f)^2 per type, averaged over
    distinct types, squared; lines with <25% typed cells skipped."""
    get = datatypes.get
    grid = [[get(c) for c in row] for row in table]
    if direction != "horizontal":
        grid = columns_of(grid, get(""))
    return _line_homogeneity(grid)


def std_column_word_length(table: list[list[str]], direction: str = "horizontal") -> float:
    """Mean over lines of the std of non-empty cell lengths; lines with
    <50% non-empty skipped (utils.py:393-411)."""
    lines = table if direction == "horizontal" else columns_of(table)
    stds = []
    for line in lines:
        lens = [len(c) for c in line if c]
        if 2 * len(lens) >= len(line):
            stds.append(mean_std(lens)[1])
    return mean_std(stds)[0] if stds else 0.0


# ---------------------------------------------------------------------------
# orientation (table_info_extraction_modules.py:57-220)
# ---------------------------------------------------------------------------

@dataclass
class Orientation:
    orientation: str
    score: float


def _typed_ratio(cells, typings: dict[str, list[str]]) -> float:
    hits = 0
    for c in cells:
        ts = typings.get(c)
        if ts and any(t not in ("", "UNKNOWN") for t in ts):
            hits += 1
    return hits / len(cells) if cells else 0.0


def _homo_typing_exists(cols, typings: dict[str, list[str]]) -> bool:
    """Some column's top typing is a real type on over 80% of its cells."""
    return any(
        v[0]["type"] not in ("", "UNKNOWN") and v[0]["score"] > 0.8
        for v in types_per_column(cols, typings, 1, False).values()
    )


def detect_orientation(
    table: list[list[str]],
    datatypes: dict[str, list[str]],
    typings: dict[str, list[str]],
) -> Orientation:
    n_rows, n_cols = len(table), len(table[0]) if table else 0
    if n_rows <= 2 or n_cols <= 2:
        return Orientation("HORIZONTAL", 0.1)

    # step 1: homogeneity bounds with soft margin, ignoring first row/col;
    # each inner cell's datatypes are looked up once, for both directions
    get = datatypes.get
    inner = [[get(c) for c in row[1:]] for row in table[1:]]
    h_mean, h_std = _line_homogeneity(inner)
    v_mean, v_std = _line_homogeneity(columns_of(inner, get("")))
    if h_mean is not None and v_mean is not None:
        h_lo = h_mean - 0.5 * h_std / math.sqrt(n_rows)
        h_hi = h_mean + 0.5 * h_std / math.sqrt(n_rows)
        v_lo = v_mean - 0.5 * v_std / math.sqrt(n_cols)
        v_hi = v_mean + 0.5 * v_std / math.sqrt(n_cols)
        if h_hi + 0.01 < v_lo:
            smooth = 0.1 if h_mean < 0.1 else 0.0
            return Orientation("VERTICAL", (v_lo - h_hi) / (v_lo + smooth))
        if h_lo >= v_hi + 0.01:
            smooth = 0.1 if v_mean < 0.1 else 0.0
            return Orientation("HORIZONTAL", (h_lo - v_hi) / (h_lo + smooth))

    # step 2: first-row/first-column typing exposure
    top_ratio = _typed_ratio(table[0][1:], typings)
    left_ratio = _typed_ratio([line[0] for line in table[1:]], typings)
    if top_ratio > 0.5 and left_ratio < 0.05:
        return Orientation("VERTICAL", 0.2)
    if left_ratio > 0.5 and top_ratio < 0.05:
        return Orientation("HORIZONTAL", 0.2)

    # step 3: exists-a-homogeneous-column test, on the columns below the
    # first row and on the rows right of the first column (the ORDINAL
    # relabel of a CARDINAL column does not change the test)
    h_exists = _homo_typing_exists(columns_of(table[1:]), typings)
    v_exists = _homo_typing_exists([row[1:] for row in _padded(table)], typings)
    if h_exists and not v_exists:
        return Orientation("HORIZONTAL", 0.15)
    if v_exists and not h_exists:
        return Orientation("VERTICAL", 0.15)

    # step 4: aspect ratio, then word-length std
    if n_rows / n_cols <= 0.25 or n_rows / n_cols >= 4.0:
        return Orientation("HORIZONTAL" if n_rows >= n_cols else "VERTICAL", 0.1)
    if std_column_word_length(table, "horizontal") >= std_column_word_length(table, "vertical"):
        return Orientation("HORIZONTAL", 0.1)
    return Orientation("VERTICAL", 0.1)


# ---------------------------------------------------------------------------
# header (modules.py:222-267)
# ---------------------------------------------------------------------------

@dataclass
class Header:
    has_header: bool
    header: list[str]
    score: float
    # types_per_column(body columns, typings, 3, True), body = the rows
    # below the first (the whole table when it has one row); shared, so
    # readers must not mutate it
    column_typing: dict[int, list[dict]] | None = None


def detect_header(
    table: list[list[str]],
    orientation_score: float,
    typings: dict[str, list[str]],
) -> Header:
    potential = table[0]
    header_typings = [typings.get(c, "") for c in potential]
    body = table[1:] if len(table) > 1 else table
    column_typings = types_per_column(columns_of(body), typings, 3, True)

    noheader = 0.0
    for i_col, col_types in column_typings.items():
        hts = header_typings[i_col]
        if not hts:
            continue
        top = col_types[0]
        if not any(map(is_concept, hts)):
            if top["type"] in hts and top["score"] > 0.2:
                noheader = max(noheader, top["score"])
        elif "UNKNOWN" not in hts and "PERSON" not in hts:
            if top["type"] in hts and top["score"] > 0.2:
                noheader = max(noheader, top["score"])
    if noheader > 0.0:
        return Header(False, [], noheader * orientation_score, column_typings)

    has_score = 0.0
    for i_col, col_types in column_typings.items():
        hts = header_typings[i_col]
        if not hts:
            continue
        for dt in col_types:
            if dt["type"] not in hts:
                has_score += dt["score"]
    has_score /= max(1, len(column_typings))
    return Header(True, list(potential), has_score * orientation_score, column_typings)


# ---------------------------------------------------------------------------
# key column (modules.py:284-361)
# ---------------------------------------------------------------------------

@dataclass
class KeyColumn:
    key_column: int | None
    score: float


def detect_key_column(
    table: list[list[str]],
    orientation_score: float,
    datatypes: dict[str, list[str]],
) -> KeyColumn:
    body = table[1:] if len(table) > 1 else table
    column_datatypes = types_per_column(transpose(body), datatypes, 3, False)
    columns = transpose(table)
    scores: dict[int, float] = {}
    first_candidate = None
    considered = 0
    max_considered = 3 if len(columns) > 8 else 2
    for col_idx, column in enumerate(columns):
        if not column_datatypes[col_idx][0]["type"]:
            continue
        if considered > max_considered:
            break
        considered += 1
        cand_score = sum(
            dt["score"]
            for dt in column_datatypes[col_idx]
            if key_column_related_datatype(dt["type"])
        )
        if cand_score > 0.5:
            if first_candidate is None:
                first_candidate = col_idx
            uniques, empties = [], 0
            for cell in column:
                if cell in datatypes:
                    cleaned = cell
                    for s in _PUNCT_STRIP:
                        cleaned = cleaned.replace(s, "")
                    for dt in datatypes[cell]:
                        if key_column_related_datatype(dt) and 3 < len(cleaned) < 200:
                            uniques.append(cell)
                            break
                else:
                    empties += 1
            if uniques:
                ratio_unique = len(set(uniques)) / len(column)
                ratio_empty = empties / len(column)
                scores[col_idx] = (ratio_unique - ratio_empty) / math.sqrt(
                    1 + 2 * (col_idx - first_candidate)
                )
            else:
                scores[col_idx] = 0.0
        else:
            scores[col_idx] = 0.0
    if not scores:
        return KeyColumn(None, 0.0)
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(ordered) > 1:
        (key_col, best), (_, second) = ordered[0], ordered[1]
        if best < 0.25:
            return KeyColumn(None, 0.0)
        return KeyColumn(key_col, (best - second) / (best + second) * orientation_score)
    key_col, best = ordered[0]
    if best < 0.25:
        return KeyColumn(None, 0.0)
    return KeyColumn(key_col, orientation_score)


# ---------------------------------------------------------------------------
# short-row realignment (utils.py:414-446) + reshaping (modules.py:363-412)
# ---------------------------------------------------------------------------

def re_align_short_row(
    line: list[str],
    datatypes: dict[str, list[str]],
    column_datatypes: dict[int, list[dict]],
) -> list[str]:
    """Divergence: the reference (utils.py:414-446) compares the
    column-type string list against a list of per-cell datatype LISTS —
    which never matches (dead code behind a TODO,
    table_preprocessing.py:61-64).  Here a cell aligns to a column when
    the column's top datatype is among the cell's datatypes."""
    from itertools import combinations

    line_types = [datatypes.get(cell, "") for cell in line]
    if "" in line_types:
        return line
    for col_types in column_datatypes.values():
        if col_types[0]["type"] == "" or col_types[0]["score"] < 0.75:
            return line
    valid = []
    for idx_set in combinations(range(len(column_datatypes)), len(line)):
        target = [column_datatypes[i][0]["type"] for i in idx_set]
        if all(t in line_types[j] for j, t in enumerate(target)):
            valid.append(idx_set)
    if len(valid) == 1:
        new_line = [""] * len(column_datatypes)
        for idx, val in zip(valid[0], line):
            new_line[idx] = val
        return new_line
    return line


# ---------------------------------------------------------------------------
# full preprocessing (table_preprocessing.py:29-100)
# ---------------------------------------------------------------------------

def preprocess_table(
    raw_table: list[list[str]],
    typer: CellTyper,
    seed: int = 42,
) -> dict:
    """Full preprocessing; output mirrors the reference JSON shape
    (table_preprocessing.py:81-98)."""
    out = {"raw": {"tableDataRaw": raw_table}, "preprocessed": {}}
    table = table_filtering(raw_table)
    if len(table) <= 1:
        return out
    sample = subsample_rows(table, 400, seed)
    typings, datatypes = parse_table(sample, typer)
    orientation = detect_orientation(sample, datatypes, typings)
    if orientation.orientation == "VERTICAL":
        whole = sample is table
        table = transpose(table)
        sample = table if whole else transpose(sample)
    key_col = detect_key_column(sample, orientation.score, datatypes)
    header = detect_header(sample, orientation.score, typings)
    primitive = header.column_typing
    out["preprocessed"] = {
        "tableDataRevised": table,
        "tableOrientation": {
            "orientationLabel": orientation.orientation,
            "orientationScore": round(orientation.score, 2),
        },
        "headerInfo": {
            "hasHeader": header.has_header,
            "headerPosition": 0 if header.has_header else None,
            "headerLabel": header.header,
            "headerScore": round(header.score, 2),
        },
        "primaryKeyInfo": {
            "hasPrimaryKey": key_col.key_column is not None,
            "primaryKeyPosition": key_col.key_column,
            "primaryKeyScore": round(key_col.score, 2),
        },
        "primitiveTyping": [
            {
                "columnIndex": i,
                "typing": [
                    {"typingLabel": t["type"], "typingScore": round(t["score"], 2)}
                    for t in ts
                ],
            }
            for i, ts in primitive.items()
        ],
    }
    return out
