"""The generic-table preprocessing as it was before the one-pass rewrite
of stages/preprocess.py: two transposed copies per filtering, NumPy
mean/std per orientation statistic, and the column typing computed once
by ``detect_header`` and again by the annotator.  Kept only as the
parity oracle of tests/test_preprocess_parity.py; nothing in the
package imports it.

``preprocess_table`` and ``annotate_single`` compose these functions in
the old order; the unchanged steps (typing, subsampling, key column,
payload shape) come from the package."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from table_annotation_ray.functions.text import fix_encoding
from table_annotation_ray.functions.typing_rules import is_concept, typing_priority
from table_annotation_ray.pipelines.table_pipeline import annotation_payload
from table_annotation_ray.stages.preprocess import (
    Header,
    Orientation,
    detect_key_column,
    parse_table,
    subsample_rows,
)


def table_filtering(table: list[list[str]]) -> list[list[str]]:
    if not table:
        return []
    max_width = max(len(row) for row in table)
    new_table = []
    for row in table:
        if not row:
            continue
        non_missing = sum(1 for c in row if c.strip(" ") != "")
        if non_missing == 0:
            continue
        new_table.append([fix_encoding(c) for c in row])
    table_padding(new_table, max_width)
    return remove_null_columns(new_table)


def table_padding(table: list[list[str]], width: int) -> None:
    for row in table:
        row.extend([""] * (width - len(row)))


def remove_null_columns(table: list[list[str]]) -> list[list[str]]:
    if not table:
        return table
    cols = transpose(table)
    kept = [c for c in cols if any(v != "" for v in c)]
    return transpose(kept) if kept else []


def transpose(table: list[list[str]]) -> list[list[str]]:
    if not table:
        return []
    width = max(len(r) for r in table)
    return [
        [row[i] if i < len(row) else "" for row in table] for i in range(width)
    ]


def types_per_column(columns, cell_types, top_k, detect_ordinal):
    out: dict[int, list[dict]] = {}
    for col_idx, col in enumerate(columns):
        counts: dict[str, int] = {}
        n = 0
        for cell in col:
            for t in cell_types.get(cell, ()):
                counts[t] = counts.get(t, 0) + 1
            n += 1
        for cell in col:
            ts = cell_types.get(cell, ())
            if len(ts) > 1:
                ranked = sorted(
                    ts, key=lambda x: (counts.get(x, 0), typing_priority(x)), reverse=True
                )
                for other in ranked[1:]:
                    if other in counts:
                        counts[other] -= 1
                        if counts[other] == 0:
                            del counts[other]
        if counts:
            top = Counter(counts).most_common()
            top.sort(key=lambda kv: (-kv[1], kv[0]))
            out[col_idx] = [
                {"type": t, "score": c / n} for t, c in top[:top_k] if c > 0
            ]
        else:
            out[col_idx] = [{"type": "", "score": 1.0}]

        if detect_ordinal and col_idx == 0 and out[0][0]["type"] == "CARDINAL":
            current, ok, tolerate = None, True, 0
            for cell in col:
                try:
                    idx = int(float(cell))
                    if current:
                        if idx == current + 1:
                            current += 1
                        elif idx != current:
                            ok = False
                            break
                    else:
                        current = idx
                except (TypeError, ValueError, OverflowError):
                    current = None
                    tolerate += 1
                    if tolerate > 4:
                        ok = False
                        break
            if ok:
                out[0][0]["type"] = "ORDINAL"
    return out


def homogeneity_compute(table, datatypes, direction="horizontal"):
    lines = table if direction == "horizontal" else transpose(table)
    per_line = []
    for line in lines:
        counts: dict[str, int] = {}
        n_typed = 0
        for cell in line:
            dts = datatypes.get(cell)
            if dts:
                for dt in dts:
                    counts[dt] = counts.get(dt, 0) + 1
                n_typed += 1
        for cell in line:
            dts = datatypes.get(cell, [])
            if len(dts) > 1:
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
        return float(np.mean(per_line)), float(np.std(per_line, ddof=1))
    return None, None


def std_column_word_length(table, direction="horizontal"):
    lines = table if direction == "horizontal" else transpose(table)
    stds = []
    for line in lines:
        lens = [len(c) for c in line if c]
        if 2 * len(lens) >= len(line):
            stds.append(float(np.std(lens)))
    return float(np.mean(stds)) if stds else 0.0


def detect_orientation(table, datatypes, typings) -> Orientation:
    n_rows, n_cols = len(table), len(table[0]) if table else 0

    if n_rows > 2 and n_cols > 2:
        inner = [line[1:] for line in table[1:]]
        h_mean, h_std = homogeneity_compute(inner, datatypes, "horizontal")
        v_mean, v_std = homogeneity_compute(inner, datatypes, "vertical")
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
    else:
        return Orientation("HORIZONTAL", 0.1)

    def typed_ratio(cells):
        hits = 0
        for c in cells:
            ts = typings.get(c, [])
            if any(t not in ("", "UNKNOWN") for t in ts):
                hits += 1
        return hits / len(cells) if cells else 0.0

    top_ratio = typed_ratio(table[0][1:])
    left_ratio = typed_ratio([line[0] for line in table[1:]])
    if top_ratio > 0.5 and left_ratio < 0.05:
        return Orientation("VERTICAL", 0.2)
    if left_ratio > 0.5 and top_ratio < 0.05:
        return Orientation("HORIZONTAL", 0.2)

    def homo_typing_exists(t):
        cols = transpose(t[1:]) if len(t) > 1 else transpose(t)
        per_col = types_per_column(cols, typings, 1, True)
        return any(
            v[0]["type"] not in ("", "UNKNOWN") and v[0]["score"] > 0.8
            for v in per_col.values()
        )

    h_exists = homo_typing_exists(table)
    v_exists = homo_typing_exists(transpose(table))
    if n_rows > 2 and n_cols > 2 and h_exists and not v_exists:
        return Orientation("HORIZONTAL", 0.15)
    if n_rows > 2 and n_cols > 2 and v_exists and not h_exists:
        return Orientation("VERTICAL", 0.15)

    if n_rows / n_cols <= 0.25 or n_rows / n_cols >= 4.0:
        return Orientation("HORIZONTAL" if n_rows >= n_cols else "VERTICAL", 0.1)
    if std_column_word_length(table, "horizontal") >= std_column_word_length(table, "vertical"):
        return Orientation("HORIZONTAL", 0.1)
    return Orientation("VERTICAL", 0.1)


def detect_header(table, orientation_score, typings) -> Header:
    potential = table[0]
    header_typings = [typings.get(c, "") for c in potential]
    body = table[1:] if len(table) > 1 else table
    column_typings = types_per_column(transpose(body), typings, 3, True)

    noheader = 0.0
    for i_col, col_types in column_typings.items():
        hts = header_typings[i_col]
        if not hts:
            continue
        top = col_types[0]
        if sum(is_concept(t) for t in hts) == 0:
            if top["type"] in hts and top["score"] > 0.2:
                noheader = max(noheader, top["score"])
        elif "UNKNOWN" not in hts and "PERSON" not in hts:
            if top["type"] in hts and top["score"] > 0.2:
                noheader = max(noheader, top["score"])
    if noheader > 0.0:
        return Header(False, [], noheader * orientation_score)

    has_score = 0.0
    for i_col, col_types in column_typings.items():
        hts = header_typings[i_col]
        if not hts:
            continue
        for dt in col_types:
            if dt["type"] not in hts:
                has_score += dt["score"]
    has_score /= max(1, len(column_typings))
    return Header(True, list(potential), has_score * orientation_score)


def preprocess_table(raw_table, typer, seed: int = 42) -> dict:
    out = {"raw": {"tableDataRaw": raw_table}, "preprocessed": {}}
    table = table_filtering(raw_table)
    if len(table) <= 1:
        return out
    sample = subsample_rows(table, 400, seed)
    typings, datatypes = parse_table(sample, typer)
    orientation = detect_orientation(sample, datatypes, typings)
    if orientation.orientation == "VERTICAL":
        sample = transpose(sample)
        table = transpose(table)
    body = sample[1:] if len(sample) > 1 else sample
    primitive = types_per_column(transpose(body), typings, 3, True)
    key_col = detect_key_column(sample, orientation.score, datatypes)
    header = detect_header(sample, orientation.score, typings)
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


def annotate_single(raw_table, stage) -> dict | None:
    table = table_filtering(raw_table)
    if len(table) <= 1:
        return None
    typings, datatypes = parse_table(table, stage._type_cell)
    sample = subsample_rows(table)
    orientation = detect_orientation(sample, datatypes, typings)
    if orientation.orientation == "VERTICAL":
        sample = transpose(sample)
        table = transpose(table)
    header = detect_header(sample, orientation.score, typings)
    first_data_row = 1 if header.has_header else 0
    result = stage.annotator.annotate(
        table, typings, datatypes, first_data_row=first_data_row
    )
    return annotation_payload(result, stage.kbr)
