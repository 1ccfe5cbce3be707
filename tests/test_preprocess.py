"""Generic-table preprocessing parity (stages/preprocess.py) on the
reference's de-facto fixtures (README examples, SURVEY.md §5)."""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from table_annotation_ray.functions.typing_rules import GazetteerNER, type_cell
from table_annotation_ray.stages import preprocess as pp

TYPER = pp.CellTyper(
    {
        "paris": "GPE", "berlin": "GPE", "madrid": "GPE", "rome": "GPE",
        "france": "GPE", "germany": "GPE", "spain": "GPE", "italy": "GPE",
    }
)

CITIES = [
    ["city", "country"],
    ["Paris", "France"],
    ["Berlin", "Germany"],
    ["Madrid", "Spain"],
    ["Rome", "Italy"],
]


def test_cities_horizontal_with_header():
    out = pp.preprocess_table(CITIES, TYPER)["preprocessed"]
    assert out["tableOrientation"]["orientationLabel"] == "HORIZONTAL"
    assert out["headerInfo"]["hasHeader"] is True
    assert out["headerInfo"]["headerLabel"] == ["city", "country"]
    typing0 = out["primitiveTyping"][0]["typing"][0]["typingLabel"]
    assert typing0 == "GPE"


def test_two_row_table_is_horizontal_reference_quirk():
    # tables with <=2 rows or <=2 cols skip homogeneity and default to
    # HORIZONTAL 0.1 (table_info_extraction_modules.py:117-120)
    vertical = pp.transpose(CITIES)  # 2 rows x 5 cols
    out = pp.preprocess_table(vertical, TYPER)["preprocessed"]
    assert out["tableOrientation"]["orientationLabel"] == "HORIZONTAL"
    assert out["tableOrientation"]["orientationScore"] == 0.1


CITIES3 = [
    ["city", "country", "founded"],
    ["Paris", "France", "1163-04-12"],
    ["Berlin", "Germany", "1237-10-28"],
    ["Madrid", "Spain", "0865-05-09"],
    ["Rome", "Italy", "0753-04-21"],
]


def test_transposed_cities_detected_vertical():
    vertical = pp.transpose(CITIES3)  # 3 attribute rows x 5 record cols
    out = pp.preprocess_table(vertical, TYPER)["preprocessed"]
    assert out["tableOrientation"]["orientationLabel"] == "VERTICAL"
    # revised table is re-transposed back to horizontal
    assert out["tableDataRevised"][0] == ["city", "country", "founded"]


def test_single_row_table_returns_empty_preprocessed():
    out = pp.preprocess_table([["United States", "2015", "FC Kansas City"]], TYPER)
    assert out["preprocessed"] == {}


def test_table_filtering_drops_empty_rows_and_columns():
    t = [["a", "", "b"], ["", "", ""], ["c", "", "d"], []]
    assert pp.table_filtering(t) == [["a", "b"], ["c", "d"]]


def test_table_filtering_fixes_encoding():
    t = [["Ville LumiÃ¨re", "x"], ["y", "z"]]
    assert pp.table_filtering(t)[0][0] == "Ville Lumière"


def test_transpose_ragged():
    assert pp.transpose([["a", "b"], ["c"]]) == [["a", "c"], ["b", ""]]


def test_subsample_deterministic_and_keeps_head():
    table = [[str(i)] for i in range(1000)]
    s1 = pp.subsample_rows(table, 400, seed=7)
    s2 = pp.subsample_rows(table, 400, seed=7)
    assert s1 == s2 and len(s1) == 400
    assert s1[:10] == table[:10]


def test_orientation_long_thin():
    t = [["r%d" % i] * 2 for i in range(40)]
    # no typings at all → falls through to aspect-ratio step
    o = pp.detect_orientation(t, {}, {})
    assert o.orientation == "HORIZONTAL"


def test_key_column_detection_unique_first_col():
    out = pp.preprocess_table(CITIES, TYPER)["preprocessed"]
    assert out["primaryKeyInfo"]["hasPrimaryKey"] is True
    assert out["primaryKeyInfo"]["primaryKeyPosition"] == 0


def test_homogeneity_measures_line_mixedness():
    # the reference's "homogeneity" peaks for 50/50-mixed lines and is 0
    # for single-type lines (popularity = 1-(1-2f)^2, utils.py:370-375);
    # the orientation comparison relies on exactly this
    dt = {"1": ["CARDINAL"], "2": ["CARDINAL"], "a": ["String_Normal"], "b": ["String_Normal"]}
    uniform = [["1", "2"], ["1", "2"], ["1", "2"]]
    mixed = [["1", "a"], ["2", "b"], ["1", "a"]]
    mu, _ = pp.homogeneity_compute(uniform, dt)
    mm, _ = pp.homogeneity_compute(mixed, dt)
    assert mu == 0.0
    assert mm > mu


def test_realign_short_row():
    dts = {"Paris": ["String_Normal"], "12": ["CARDINAL"], "x": ["String_Normal"]}
    col_dts = {
        0: [{"type": "String_Normal", "score": 1.0}],
        1: [{"type": "CARDINAL", "score": 1.0}],
    }
    assert pp.re_align_short_row(["12"], dts, col_dts) == ["", "12"]
    # ambiguous alignment → unchanged
    col_dts2 = {
        0: [{"type": "CARDINAL", "score": 1.0}],
        1: [{"type": "CARDINAL", "score": 1.0}],
    }
    assert pp.re_align_short_row(["12"], dts, col_dts2) == ["12"]


# ---------------------------------------------------------------------------
# CellTyper: the memoized typer against the uncached type_cell loop
# ---------------------------------------------------------------------------

_GAZ = {"paris": "GPE", "john travolta": "PERSON", "orange labs": "ORG",
        "new york city": "GPE"}
_DIFF_TYPER = pp.CellTyper(_GAZ)  # shared: later examples hit the memo
_CELLS = st.one_of(
    st.sampled_from([
        "", "   ", "---", "é", "x" * 71, "a long cell " * 7,
        "2015-06-01", "1994-12-31", "June 1994", "12 March 2001", "1994",
        "Paris", "John Travolta", "New York City", "Orange Labs", "paris 2024",
        "+33 1 23 45 67 89", "12 kg", "3.5%", "N/A",
    ]),
    st.text(max_size=12),
)


def _oracle(table, ner):
    """The uncached loop parse_table replaced: type_cell per unique cell,
    typed cells only."""
    typings, datatypes = {}, {}
    for row in table:
        for cell in row:
            if cell not in typings:
                ty, dt = type_cell(cell, ner)
                if ty:
                    typings[cell], datatypes[cell] = ty, dt
    return typings, datatypes


@contextmanager
def _deadline(seconds: int):
    def hang(signum, frame):
        raise TimeoutError(f"no result within {seconds}s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_CELLS, min_size=1, max_size=4), min_size=1, max_size=6))
def test_cell_typer_matches_uncached_type_cell(table):
    ner = GazetteerNER(_GAZ)
    with _deadline(20):
        want = _oracle(table, ner)
        got = pp.parse_table(table, _DIFF_TYPER)
        assert got == want
        # untypable cells stay absent (re_align_short_row tells absent from [])
        for cell in {c for row in table for c in row}:
            assert (cell in got[0]) == bool(type_cell(cell, ner)[0])
        # the lists handed out are copies: mutating them leaves the memo
        for typs in got[0].values():
            typs.append("MUTATED")
        for dts in got[1].values():
            dts.clear()
        assert pp.parse_table(table, _DIFF_TYPER) == want
