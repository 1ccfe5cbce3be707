"""Annotator edge cases from the reference's inline fixtures
(table_annotation.py:151-156: the movies table with MISSING cells)."""

import pytest

from table_annotation_ray import synth
from table_annotation_ray.functions.typing_rules import GazetteerNER, type_cell
from table_annotation_ray.stages.annotator import ActorCaches, TableAnnotator


@pytest.fixture(scope="module")
def run(kb_objects):
    kb, kbr, idx = kb_objects
    ner = GazetteerNER(kbr.build_gazetteer())
    annotator = TableAnnotator(idx, kbr, caches=ActorCaches())

    def _run(table):
        typings, datatypes = {}, {}
        for row in table:
            for cell in row:
                if cell not in typings:
                    typings[cell], datatypes[cell] = type_cell(cell, ner)
        return annotator.annotate(table, typings, datatypes)

    return _run


def test_missing_cells_table(run):
    # rows of unequal semantic completeness (the reference __main__ fixture
    # shape): some rows lack the character / date cells
    table = [
        ["Pulp Fiction", "John Travolta", "Vincent Vega", "1994-05-21"],
        ["Casino Royale", "Daniel Craig", "James Bond", "2006-11-14"],
        ["The Godfather", "Al Pacino", "", ""],
        ["The Matrix", "Keanu Reeves", "", "1999-03-31"],
        ["Titanic", "Leonardo DiCaprio", "Jack Dawson", ""],
    ]
    res = run(table)
    assert res.cea[(0, 0)][0] == "Q104123"
    assert res.cea[(2, 0)][0] == "Q172241"
    assert res.cea[(4, 1)][0] == "Q38111"
    assert res.cpa[(0, 1)][0][0] == "P161"
    # coverage reflects the missing cells (<1.0 for the date column)
    pid, _score, coverage = res.cpa[(0, 3)][0]
    assert pid == "P577"
    assert coverage < 1.0


def test_all_typo_table_still_resolves(run):
    table = [
        ["Pulp Fctio", "Jhn Travolta"],
        ["Casino Royae", "Daniel Crag"],
        ["The Mtrix", "Keanu Reves"],
        ["Titanc", "Leonardo DiCapri"],
    ]
    res = run(table)
    assert res.cea[(0, 0)][0] == "Q104123"
    assert res.cea[(2, 1)][0] == "Q43416"
    assert res.cpa[(0, 1)][0][0] == "P161"


def test_garbage_table_produces_nothing(run):
    table = [
        ["zzzz qqqq", "xxxxx"],
        ["wwww vvvv", "uuuu"],
    ]
    res = run(table)
    assert res.cea == {}


def test_numeric_only_table(run):
    res = run([["1", "2"], ["3", "4"], ["5", "6"]])
    assert res.cea == {} and res.cpa == {}


def test_hot_conversation_cap(kb_objects):
    # conversations beyond max_rows are truncated, not exploded
    from dataclasses import replace

    import pyarrow as pa

    from table_annotation_ray.config import DEFAULT_CONFIG, RuntimeConfig
    from table_annotation_ray.schemas import CELL_SEP
    from table_annotation_ray.stages.annotate_stage import AnnotateBucket

    kb, _, _ = kb_objects
    cfg = replace(DEFAULT_CONFIG, runtime=RuntimeConfig(max_rows_per_conv=50))
    stage = AnnotateBucket(kb, cfg)
    rows = synth._rows_for_template(synth.CITY_TEMPLATE, None)
    texts = [CELL_SEP.join(rows[turn % len(rows)][0]) for turn in range(200)]

    def turns(n):
        return pa.table({"conv_id": ["hot"] * n,
                         "turn_idx": pa.array(range(n), pa.int32()),
                         "text": texts[:n]})

    ann = stage.annotations_table(turns(200)).to_pandas()
    cea_rows = ann.loc[ann["kind"] == "cea", "row"]
    assert len(cea_rows)  # annotated the capped prefix
    assert cea_rows.max() < 50
    triples = stage.annotate_turns_table(turns(200))
    assert triples.num_rows
    # the 150 turns past the cap contribute nothing
    assert triples.equals(stage.annotate_turns_table(turns(50)))
