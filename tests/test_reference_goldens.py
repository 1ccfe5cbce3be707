"""Exact-parity goldens vs the reference README worked example.

The reference's de-facto golden output (README.md "Table Preprocessing")
for the cities table is:

    orientation HORIZONTAL 0.1; header True score 0.09; primary key
    col 0 score 0.03; primitiveTyping col0 [GPE .75, UNKNOWN .25],
    col1 [GPE 1.0]

Those numbers embed the reference's spaCy run (which typed one body
cell UNKNOWN).  Injecting those exact per-cell typings, our detection
modules must reproduce every published score bit-for-bit after
rounding — this pins the header/key/typing formulas, not the NER."""

from table_annotation_ray.stages import preprocess as pp
from table_annotation_ray.stages.annotator import types_per_column

CITIES = [
    ["city", "country"],
    ["Paris", "France"],
    ["Berlin", "Germany"],
    ["Madrid", "Spain"],
    ["Rome", "Italy"],
]

# per-cell typings as the reference's spaCy produced them (README output:
# col0 = 3 GPE + 1 UNKNOWN over 4 body rows)
TYPINGS = {
    "city": ["UNKNOWN"],
    "country": ["UNKNOWN"],
    "Paris": ["GPE"],
    "Berlin": ["GPE"],
    "Madrid": ["UNKNOWN"],
    "Rome": ["GPE"],
    "France": ["GPE"],
    "Germany": ["GPE"],
    "Spain": ["GPE"],
    "Italy": ["GPE"],
}
# datatype of a concept-typed cell is its string type (all String_Normal here)
DATATYPES = {cell: ["String_Normal"] for cell in TYPINGS}


def test_orientation_matches_readme():
    o = pp.detect_orientation(CITIES, DATATYPES, TYPINGS)
    # 2-column table → small-table branch: HORIZONTAL 0.1
    assert o.orientation == "HORIZONTAL"
    assert round(o.score, 2) == 0.1


def test_primitive_typing_matches_readme():
    body = CITIES[1:]
    per_col = types_per_column(pp.transpose(body), TYPINGS, 3, True)
    col0 = [(t["type"], round(t["score"], 2)) for t in per_col[0]]
    col1 = [(t["type"], round(t["score"], 2)) for t in per_col[1]]
    assert col0 == [("GPE", 0.75), ("UNKNOWN", 0.25)]
    assert col1 == [("GPE", 1.0)]


def test_header_score_matches_readme():
    h = pp.detect_header(CITIES, 0.1, TYPINGS)
    assert h.has_header is True
    assert h.header == ["city", "country"]
    # (0.75 [GPE not in header col0] + 1.0 [GPE not in header col1]) / 2 * 0.1
    assert round(h.score, 2) == 0.09


def test_key_column_score_matches_readme():
    k = pp.detect_key_column(CITIES, 0.1, DATATYPES)
    assert k.key_column == 0
    # col0: unique 5/5 → 1.0; col1: 1.0/sqrt(1+2) = 0.577;
    # (1 - 0.577)/(1 + 0.577) * 0.1 = 0.0268 → 0.03
    assert round(k.score, 2) == 0.03


def test_full_output_shape_matches_reference():
    """End-to-end shape of preprocess_table equals the reference JSON
    schema (table_preprocessing.py:81-98)."""
    out = pp.preprocess_table(CITIES, pp.CellTyper({}))
    pre = out["preprocessed"]
    assert set(pre) == {
        "tableDataRevised", "tableOrientation", "headerInfo",
        "primaryKeyInfo", "primitiveTyping",
    }
    assert set(pre["tableOrientation"]) == {"orientationLabel", "orientationScore"}
    assert set(pre["headerInfo"]) == {
        "hasHeader", "headerPosition", "headerLabel", "headerScore",
    }
    assert set(pre["primaryKeyInfo"]) == {
        "hasPrimaryKey", "primaryKeyPosition", "primaryKeyScore",
    }
    assert all(set(c) == {"columnIndex", "typing"} for c in pre["primitiveTyping"])
