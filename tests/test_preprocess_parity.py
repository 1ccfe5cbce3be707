"""Parity of the one-pass preprocessing (stages/preprocess.py) and the
serve path built on it (pipelines/table_pipeline.py::annotate_single)
with the preprocessing they replaced (tests/preprocess_oracle.py).

``mean_std`` must equal NumPy bit for bit.  Every intermediate
(filtered table, homogeneity, orientation, header, word-length std) is
compared exactly, floats by ``==``; ``preprocess_table`` payloads and
``annotate_single`` payloads must be equal, and so must the unrounded
``AnnotationResult`` behind each payload.  A column typing handed to the
annotator must equal the one it would compute itself.  Inputs:
Hypothesis tables (ragged rows, space-only and tab-only cells,
all-empty columns, multi-typed cells, mojibake), tables of 1-3 rows or
columns, a table of more than 400 rows, and every table of the seed-801
serve_tables pool."""

import json
import math
import os
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import preprocess_oracle as oracle
from table_annotation_ray import synth
from table_annotation_ray.config import DEFAULT_CONFIG
from table_annotation_ray.pipelines.table_pipeline import annotate_single
from table_annotation_ray.stages import preprocess as pp
from table_annotation_ray.stages.annotate_stage import AnnotateBucket
from table_annotation_ray.stages.annotator import types_per_column

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bits(x: float):
    return "nan" if math.isnan(x) else struct.pack("<d", x)


# ---------------------------------------------------------------------------
# mean_std against NumPy
# ---------------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(
    values=st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=300),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=300),
        st.lists(st.integers(-(2 ** 53), 2 ** 53), min_size=1, max_size=300),
        st.lists(st.integers(0, 300), min_size=1, max_size=300),
    ),
    ddof=st.sampled_from([0, 1]),
)
@example(values=[0.1] * 129, ddof=1)
@example(values=[1e16, 1.0, -1e16, 1.0, 3.0, 1e-3, 7.0, 2.5, 1e16], ddof=0)
def test_mean_std_equals_numpy_bit_for_bit(values, ddof):
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # ddof=1 on one value
        want = (float(np.mean(values)), float(np.std(values, ddof=ddof)))
    got = pp.mean_std(values, ddof)
    assert (_bits(got[0]), _bits(got[1])) == (_bits(want[0]), _bits(want[1]))


# ---------------------------------------------------------------------------
# the stage and the comparisons
# ---------------------------------------------------------------------------

class Recorder:
    """Stands in for a stage's annotator: records each result, and checks
    that a column typing handed in equals the annotator's own."""

    def __init__(self, annotator):
        self.annotator = annotator
        self.results = []
        self.handed = 0

    def annotate(self, table, typings, datatypes, first_data_row=0, primitive_typing=None):
        if primitive_typing is not None:
            self.handed += 1
            data_cols = [[row[c] for row in table[first_data_row:]]
                         for c in range(len(table[0]))]
            assert primitive_typing == types_per_column(data_cols, typings, 3, True)
        result = self.annotator.annotate(table, typings, datatypes, first_data_row,
                                         primitive_typing)
        self.results.append(result)
        return result


class View:
    def __init__(self, stage):
        self._type_cell = stage._type_cell
        self.kbr = stage.kbr
        self.annotator = Recorder(stage.annotator)


@pytest.fixture(scope="module")
def stage(kb_objects):
    return AnnotateBucket(kb_objects[0], DEFAULT_CONFIG)


def check_steps(raw, typer):
    """Every preprocessing step on ``raw`` equals the oracle's."""
    table = pp.table_filtering(raw)
    assert table == oracle.table_filtering(raw)
    if not table:
        return
    typings, datatypes = pp.parse_table(table, typer)
    for direction in ("horizontal", "vertical"):
        assert (pp.homogeneity_compute(table, datatypes, direction)
                == oracle.homogeneity_compute(table, datatypes, direction))
        got = pp.std_column_word_length(table, direction)
        assert _bits(got) == _bits(oracle.std_column_word_length(table, direction))
    assert (pp.detect_orientation(table, datatypes, typings)
            == oracle.detect_orientation(table, datatypes, typings))
    for t in (table, pp.transpose(table)):
        got, want = pp.detect_header(t, 0.7, typings), oracle.detect_header(t, 0.7, typings)
        assert (got.has_header, got.header, got.score) == (want.has_header, want.header, want.score)


def check_table(raw, stage) -> bool:
    """The steps, ``preprocess_table`` and ``annotate_single`` on ``raw``
    equal the oracle's; returns whether a column typing was handed to the
    annotator."""
    check_steps(raw, stage._type_cell)
    assert pp.preprocess_table(raw, stage._type_cell) == oracle.preprocess_table(
        raw, stage._type_cell)
    new, old = View(stage), View(stage)
    assert annotate_single(raw, new) == oracle.annotate_single(raw, old)
    assert new.annotator.results == old.annotator.results
    return new.annotator.handed > 0


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

TEMPLATE_ROWS = [[cells for cells, _ in synth._rows_for_template(t, None)]
                 for t in synth.TEMPLATES]
# multi-typed (years are DATE and CARDINAL), blank-looking and repaired
# cells, and index-like numerals (an ORDINAL first column)
ODD_CELLS = ["1994", "2015", "1963", "", " ", "   ", "\t", "\t\t", " \t ",
             "Ville LumiÃ¨re", "1", "2", "3", "12 km", "NY", "-"]


@st.composite
def tables(draw, max_rows=12, max_cols=6):
    """Rows cut from the synth templates with odd cells mixed in; rows may
    be ragged, columns may be all empty, a header row may lead."""
    n_cols = draw(st.integers(1, max_cols))
    template = draw(st.integers(0, len(TEMPLATE_ROWS) - 1))
    rows = TEMPLATE_ROWS[template]
    empty_cols = draw(st.sets(st.integers(0, n_cols - 1), max_size=2))
    table = []
    for _ in range(draw(st.integers(1, max_rows))):
        src = rows[draw(st.integers(0, len(rows) - 1))]
        row = []
        for c in range(n_cols):
            if c in empty_cols:
                row.append(draw(st.sampled_from(["", "", " "])))
            elif draw(st.integers(0, 4)) == 0:
                row.append(draw(st.sampled_from(ODD_CELLS)))
            else:
                row.append(src[c % len(src)])
        if draw(st.integers(0, 5)) == 0:  # ragged
            row = row[: draw(st.integers(0, n_cols))]
        table.append(row)
    if draw(st.booleans()):
        table.insert(0, [f"col{c}" for c in range(n_cols)])
    return table


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(raw=tables())
def test_preprocessing_matches_oracle_on_hypothesis_tables(stage, raw):
    check_table(raw, stage)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(raw=st.one_of(tables(max_rows=3), tables(max_cols=3), tables(max_rows=4, max_cols=3)))
def test_preprocessing_matches_oracle_on_small_tables(stage, raw):
    """1-3 rows or columns: the ≤2 quirk and every later orientation step."""
    check_table(raw, stage)


def test_small_tables_reach_every_orientation_step(stage):
    """Hand-made tables, each also transposed, whose orientation is
    decided at each step: homogeneity (any score), typed first row or
    column (0.2), a homogeneous column (0.15), aspect ratio or word
    length (0.1), and the ≤2 rows or columns quirk (0.1)."""
    typer = stage._type_cell
    years = [["a", "b", "c", "d"], ["1994", "2015", "1963", "2001"],
             ["x", "y", "z", "w"], ["1", "2", "3", "4"]]
    typed_top = [["x", "Paris", "France", "Milan"], ["-", "-", "-", "-"],
                 ["?", "?", "?", "?"], ["-", "?", "-", "?"]]
    one_column = [["h1", "h2", "h3"], ["a", "Paris", "-"], ["b", "Berlin", "-"],
                  ["c", "Madrid", "-"]]
    long_thin = [[f"r{i}", f"s{i}", f"t{i}"] for i in range(14)]
    words = [["aa", "b", "cccc"], ["dddddd", "e", "ff"], ["g", "hhhhhhh", "i"]]
    cities = [["city", "country"]] + [r[:2] for r in TEMPLATE_ROWS[0][:6]]
    scores = set()
    for raw in (years, typed_top, one_column, long_thin, words, cities, [["Paris"]]):
        for t in (raw, pp.transpose(raw)):
            check_table(t, stage)
            t = pp.table_filtering(t)
            typings, datatypes = pp.parse_table(t, typer)
            scores.add(pp.detect_orientation(t, datatypes, typings).score)
    assert {0.1, 0.15, 0.2} < scores


def test_preprocessing_matches_oracle_past_400_rows(stage):
    """More than 400 rows: orientation and header read a 400-row sample,
    so the header's column typing is not the annotator's."""
    rows = [r for template in TEMPLATE_ROWS for r in template]
    raw = [["city", "country", "founded", "x", "y"]]
    for i in range(430):
        row = list(rows[(i * 7) % len(rows)][:5])
        raw.append(row + [""] * (5 - len(row)))
        if i % 3 == 0:
            raw[-1][2] = "1994"  # a year in every third row
    assert len(pp.table_filtering(raw)) > 400
    assert not check_table(raw, stage)
    # 5 rows of 431 cells: the sample is the whole table
    check_table(pp.transpose(raw), stage)


def test_preprocessing_matches_oracle_on_serve_pool(tmp_path_factory):
    """Every table of the seed-801 serve_tables pool, on that pool's KB."""
    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    import gen

    from table_annotation_ray.state.kb import load_kb

    path = gen.serve_tables(str(tmp_path_factory.mktemp("bench")), 801, 2000, 10)
    with open(os.path.join(path, "requests.json")) as f:
        pool = json.load(f)["tables"]
    pool_stage = AnnotateBucket(load_kb(os.path.join(path, "kb")), DEFAULT_CONFIG)
    handed = sum(check_table(raw, pool_stage) for raw in pool)
    assert len(pool) == 2000 and handed > 1000
