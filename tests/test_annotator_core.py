"""Parity of the candidate-table annotator core (stages/annotator.py) with
the dict-per-candidate loop model it replaced (tests/annotator_oracle.py).

Every ``AnnotationResult`` must be equal field by field, floats by
``==``, and the CEA/CTA/CPA dicts in the same key order, over:
Hypothesis tables cut from the synth templates (entity, date, quantity
and string columns, empty cells, typos, one-column tables, columns that
D3 demotes, and an index whose scores are rounded so candidates tie);
every table of a serve_tables pool; and the 60-conversation synth."""

import json
import os
import sys
from string import punctuation

import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from annotator_oracle import LoopAnnotator
from table_annotation_ray import synth
from table_annotation_ray.config import DEFAULT_CONFIG
from table_annotation_ray.functions.typing_rules import GazetteerNER, type_cell
from table_annotation_ray.stages.annotate_stage import AnnotateBucket, _conversations
from table_annotation_ray.stages.annotator import _PUNCT, ActorCaches, TableAnnotator

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def assert_same(new, old):
    assert new == old
    for field in ("cea", "cta", "cpa"):
        assert list(getattr(new, field)) == list(getattr(old, field)), field


class BothModels:
    """Stands in for a stage's annotator: runs the core and the oracle on
    the same arguments and checks that they agree."""

    def __init__(self, index, kbr, cfg=None):
        self.new = TableAnnotator(index, kbr, cfg, ActorCaches())
        self.old = LoopAnnotator(index, kbr, cfg, ActorCaches())
        self.tables = 0

    def annotate(self, *args, primitive_typing=None, **kwargs):
        # the oracle types the data columns itself: a column typing the
        # caller hands the core must give the same result
        result = self.new.annotate(*args, primitive_typing=primitive_typing, **kwargs)
        assert_same(result, self.old.annotate(*args, **kwargs))
        self.tables += 1
        return result


class RoundedIndex:
    """A label index whose scores are rounded to quarters, so that
    candidates of a cell tie on score and the id tie-breaks decide."""

    def __init__(self, index):
        self.index = index

    def search_batch(self, mentions, k=None):
        return [[(e, round(s * 4) / 4) for e, s in hits]
                for hits in self.index.search_batch(mentions, k)]


@pytest.fixture(scope="module")
def models(kb_objects):
    _kb, kbr, idx = kb_objects
    ner = GazetteerNER(kbr.build_gazetteer())
    typed: dict = {}

    def run(table, first_data_row, rounded):
        typings, datatypes = {}, {}
        for row in table:
            for cell in row:
                if cell not in typed:
                    typed[cell] = type_cell(cell, ner)
                typings[cell], datatypes[cell] = typed[cell]
        both = BothModels(RoundedIndex(idx) if rounded else idx, kbr)
        return both.annotate(table, typings, datatypes, first_data_row=first_data_row)

    return run


def _people_rows() -> list[list[str]]:
    """[name, birth city] of the mini-KB's filler persons: many share a
    name, so their cells hold several candidates of near-equal score."""
    kb = synth.build_mini_kb()  # the KB of the synth_root fixture
    label: dict[str, str] = {}
    for qid, name, _origin, _pr in kb.labels:
        label.setdefault(qid, name)
    return [[label[s], label[o]] for s, pid, o, _k in kb.edges
            if pid == "P19" and s.startswith("Q87")]


TEMPLATE_ROWS = [[cells for cells, _ in synth._rows_for_template(t, None)]
                 for t in synth.TEMPLATES] + [_people_rows()]


@st.composite
def template_tables(draw):
    """Columns drawn from the synth templates (entity, date, quantity and
    nickname string columns) and the filler persons; each table row takes
    one template row per template, so relations between its columns hold.
    Cells may be emptied, lower-cased or cut (a typo); a header row may
    lead."""
    n_cols = draw(st.integers(1, 5))
    cols = [
        (t, draw(st.integers(0, len(TEMPLATE_ROWS[t][0]) - 1)))
        for t in draw(st.lists(st.integers(0, len(TEMPLATE_ROWS) - 1),
                               min_size=n_cols, max_size=n_cols))
    ]
    table = []
    for _ in range(draw(st.integers(1, 9))):
        picks = {t: draw(st.integers(0, len(TEMPLATE_ROWS[t]) - 1)) for t, _ in cols}
        row = []
        for t, c in cols:
            cell = TEMPLATE_ROWS[t][picks[t]][c]
            edit = draw(st.sampled_from(["keep", "keep", "keep", "empty", "lower", "cut"]))
            if edit == "empty":
                cell = ""
            elif edit == "lower":
                cell = cell.lower()
            elif edit == "cut" and len(cell) > 3:
                cell = cell[:-1]
            row.append(cell)
        table.append(row)
    header = draw(st.booleans())
    if header:
        table.insert(0, [f"col{c}" for c in range(n_cols)])
    return table, int(header)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(case=template_tables(), rounded=st.booleans())
def test_core_matches_loop_model_on_hypothesis_tables(models, case, rounded):
    table, first_data_row = case
    models(table, first_data_row, rounded)


def test_hypothesis_cases_reach_demotion_ties_and_literals(models, kb_objects):
    """The strategy's corners are real: a demoted column (D3), a date, a
    quantity and a string literal context, and tied candidates."""
    cities = [cells for cells in TEMPLATE_ROWS[0][:8]]
    res = models(cities, 0, False)
    assert res.entity_cols == [0, 1]  # col 3 (nicknames) demoted
    assert {(0, 2), (0, 3), (1, 4)} <= set(res.cpa)  # date, string, quantity
    _kb, kbr, idx = kb_objects
    names = [row[0].lower() for row in TEMPLATE_ROWS[-1]]
    ties = [hits for hits in RoundedIndex(idx).search_batch(names)
            if len({s for _e, s in hits}) < len(hits)]
    assert len(ties) > 50  # candidates of one cell share a score
    models(TEMPLATE_ROWS[-1][:9], 0, True)
    # one column: tied candidates stay tied to the end, the id decides
    models([row[:1] for row in TEMPLATE_ROWS[-1][:9]], 0, True)


def test_one_column_and_empty_tables(models):
    models([["Paris"], ["Berlin"], ["Madrid"]], 0, False)
    models([["city"], ["Paris"]], 1, False)
    models([[""], [""]], 0, False)
    models([["Paris", ""], ["", ""]], 0, True)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_punctuation_count_matches_old_expression(cell):
    assert len(_PUNCT.intersection(cell)) == sum(1 for p in set(punctuation) if p in cell)


def test_core_matches_loop_model_on_serve_pool(tmp_path_factory):
    """Every table of a serve_tables pool (perfbench's generator, seed
    801), through the serve path's preprocessing."""
    sys.path.insert(0, os.path.join(REPO, "perfbench"))
    import gen

    from table_annotation_ray.pipelines.table_pipeline import annotate_single
    from table_annotation_ray.state.kb import load_kb

    path = gen.serve_tables(str(tmp_path_factory.mktemp("bench")), 801, 2000, 10)
    with open(os.path.join(path, "requests.json")) as f:
        tables = json.load(f)["tables"]
    stage = AnnotateBucket(load_kb(os.path.join(path, "kb")), DEFAULT_CONFIG)
    stage.annotator = both = BothModels(stage.index, stage.kbr, stage.cfg.annotation)
    for table in tables:
        annotate_single(table, stage)
    assert len(tables) == 2000 and both.tables > 1900


def test_core_matches_loop_model_on_synth(synth_root):
    """The flagship's per-conversation tables of the 60-conversation synth."""
    from table_annotation_ray.state.kb import load_kb

    stage = AnnotateBucket(load_kb(os.path.join(synth_root, "kb")), DEFAULT_CONFIG)
    stage.annotator = both = BothModels(stage.index, stage.kbr, stage.cfg.annotation)
    turns = pq.read_table(os.path.join(synth_root, "transcripts.parquet"))
    for _conv, rows in sorted(_conversations(turns).items()):
        stage._annotate_rows(rows)
    assert both.tables == 60
