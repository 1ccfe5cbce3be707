"""Per-conversation annotation model — CEA / CTA / CPA disambiguation.

From-scratch reimplementation of the reference's ``Baseline_Model``
semantics (`annotation/annot_scripts/annotation_models.py:33-1131`) and
its 4-loop driver (`annotation/table_annotation.py:51-112`) for ONE
logical table (= one conversation).  The loops are inherently
sequential, so they run inside a single call per conversation (SURVEY.md
§7 "hard parts") — the Ray-level parallelism is ACROSS conversations
(see annotate_stage.py).

Per-table layout.  :meth:`TableAnnotator._lookup_task` builds one
candidate table right after the batched lookup, and every later step is
a pass over it:

  cells        cell id -> (row, col), entity columns in order, rows in
               order within a column (``col_cells[col]`` is a range);
  cell_start   CSR offsets: cell c's candidates are ids
               ``cell_start[c]:cell_start[c+1]``;
  c_code       candidate id -> local entity code (``ent_ids[code]`` is
               the KB id), ``c_sim`` its lookup score, ``score`` its
               current entity score, ``pc_count``/``pc_coeff`` its
               potential-CPA matches (last scoring pass);
  e_literal, e_pids, e_flat, e_levels
               each entity's KB facts (literal subgraph, pids, flat
               types, level sets), resolved once per table from
               :class:`ActorCaches`;
  context edges
               a candidate of column ``col`` has one edge per column of
               ``ctx_cols[col]`` (the other entity columns, then the
               literal columns to its right) at ``c_edge0[cand] + p``:
               ``e_score`` and ``e_rids`` (the set of relation ids seen on
               it) are filled by :meth:`_context_scoring`; the edge weight
               depends only on the two columns, so it is kept per column
               and position (``ctx_weights``).

CEA (``cea[cell]`` = [(entity code, score)]), CTA and CPA of the current
loop are small dicts and lists over those ids.  The passes are flat
Python loops: on the median served table (8 rows, 16 candidates) a
NumPy call costs more than the per-candidate work it would replace, and
every float is accumulated in the reference's order, so results are
bit-identical to the dict-per-candidate model (tests/annotator_oracle.py,
the parity oracle of tests/test_annotator_core.py).

Cross-conversation caches (entity-pair relations, hierarchical types,
type graphs, subgraphs, literal matches) live on the owning actor and
are passed in via :class:`ActorCaches` — a strict superset of the
reference's per-table caches ST6/ST7 (annotation_models.py:119-147),
valid because they depend only on the KB (and, for literal matches, the
cell text), not on the table.

Documented divergences from the reference (each makes results
deterministic or fixes a latent bug):
  D1: ties broken by id string everywhere the reference relies on dict
      insertion order (annotation_models.py:867-893, 1017-1024,
      1104-1124): ``_pair_relations``, ``_cea_task``, ``_cta_task``,
      ``_cpa_task`` and ``types_per_column``.
  D2: the CTA per-row rank update uses the level-2/3 type's own rank,
      not t1's (reference bug at annotation_models.py:849, 855):
      ``_flat_types`` / ``_cta_task``.
  D3: the coverage<0.3 demotion iterates over a snapshot of
      entity_cols (the reference mutates the list while iterating,
      annotation_models.py:261-277, silently skipping the next column):
      ``_lookup_task``.
  D4: the reference subsamples 400 rows only for PREPROCESSING stats
      but annotates every row; we apply the bound as a hard per-
      conversation cap, also enforced map-side before the conv shuffle
      (stages/annotate_stage.py docstring; requires the input-hint's
      dense 0-based turn_idx).
  D5: quantity parsing reads numerals locale-aware
      (functions/quantities.py::parse_locale_number): a lone dot is
      always the decimal mark and "3,14" parses as 3.14, where the
      reference's float_parse comma-stripping would give 314
      (utils.py:39-47; quantulum — the reference's actual unit parser —
      behaves like ours).  float_parse itself is kept verbatim for the
      annotator's literal-match path.
  D6: the DateTime literal context score MAX-accumulates across an
      entity's matching date properties; the reference overwrites it
      per property (annotation_models.py:619, last dict-iteration
      order wins — the same insertion-order nondeterminism class D1
      removes).  String/Quantity literals max-accumulate in the
      reference too, so this unifies the rule deterministically:
      ``_literal_context``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from string import punctuation

from ..config import AnnotationConfig
from ..functions import fuzzy
from ..functions.dates import dates_equal, get_year_from_date, split_period
from ..functions.quantities import (
    dimensionless_quantity_similarity,
    standardize_to_base_unit,
)
from ..functions.typing_rules import (
    date_related_typing,
    named_entity_related_typing,
    numerical_typing_with_unit,
    numerical_typing_without_unit,
    typing_priority,
)
from ..state.kb import ENTITY_RANKS, KBReader
from ..state.lookup_index import LabelIndex

_PUNCT = frozenset(punctuation)
# the literal column kinds, each with its one rule in _literal_match
_DATE, _TEXT, _UNIT = 1, 2, 3
# entries of ActorCaches.literal_matches before it is cleared
LITERAL_MEMO_SIZE = 32_768


@dataclass
class ActorCaches:
    """KB-derived caches shared across conversations on one actor."""

    subgraphs: dict[str, dict] = field(default_factory=dict)  # qid -> {"entity","literal","pids"}
    pair_relations: dict[tuple[str, str], list[tuple[str, float]]] = field(default_factory=dict)
    unrelated_pairs: set[tuple[str, str]] = field(default_factory=set)
    hierarchical_types: dict[str, dict] = field(default_factory=dict)
    flat_types: dict[str, list] = field(default_factory=dict)
    level_sets: dict[str, tuple] = field(default_factory=dict)
    type_graph: dict[str, set] = field(default_factory=dict)
    # (entity, literal column kind, cell) -> (context score, matching pids)
    literal_matches: dict[tuple[str, int, str], tuple[float, tuple[str, ...]]] = field(
        default_factory=dict
    )


@dataclass
class AnnotationResult:
    cea: dict[tuple[int, int], tuple[str, float]]  # (row,col) -> (entity, score)
    cta: dict[int, list[tuple[str, float, float]]]  # col -> [(type, score, coverage)]
    cpa: dict[tuple[int, int], list[tuple[str, float, float]]]  # (h,t) -> [(pid, score, cov)]
    entity_cols: list[int]
    literal_cols: list[int]
    avg_lookup_candidates: float = 0.0  # A16 metric (annotation_models.py:285-291)


# ---------------------------------------------------------------------------
# column-level typing aggregation (prp_scripts/utils.py:226-336)
# ---------------------------------------------------------------------------

def types_per_column(
    columns: list[list[str]],
    cell_types: dict[str, list[str]],
    top_k: int,
    detect_ordinal: bool,
) -> dict[int, list[dict]]:
    """Shared body of typing_per_column / datatype_per_column: per-column
    type counting with the ambiguity-resolution decrement pass
    (utils.py:252-258) and optional ORDINAL index-column detection
    (utils.py:308-334)."""
    out: dict[int, list[dict]] = {}
    get = cell_types.get
    for col_idx, col in enumerate(columns):
        counts: dict[str, int] = {}
        multi = []  # the multi-typed cells' types, in column order
        for cell in col:
            ts = get(cell)
            if ts:
                for t in ts:
                    counts[t] = counts.get(t, 0) + 1
                if len(ts) > 1:
                    multi.append(ts)
        n = len(col)  # untyped cells count in the denominator
        for ts in multi:
            ranked = sorted(
                ts, key=lambda x: (counts.get(x, 0), typing_priority(x)), reverse=True
            )
            for other in ranked[1:]:
                if other in counts:
                    counts[other] -= 1
                    if counts[other] == 0:
                        del counts[other]
        if counts:
            # D1: deterministic among equal counts
            top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
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
                    # OverflowError: int(float("9e999")) — the reference's
                    # bare except tolerates it (utils.py:325); without it
                    # one overflow numeral kills the whole bucket task
                    current = None
                    tolerate += 1
                    if tolerate > 4:
                        ok = False
                        break
            if ok:
                out[0][0]["type"] = "ORDINAL"
    return out


class TableAnnotator:
    """Annotates one table (conversation grid).  Construct once per actor
    with the shared index/KB/caches; call :meth:`annotate` per table.
    The per-table state (the candidate and context-edge tables, the
    CEA/CTA/CPA annotations of the current loop) lives on the instance
    for the length of one :meth:`annotate` call."""

    def __init__(
        self,
        index: LabelIndex,
        kbr: KBReader,
        cfg: AnnotationConfig | None = None,
        caches: ActorCaches | None = None,
    ):
        self.index = index
        self.kbr = kbr
        self.cfg = cfg or AnnotationConfig()
        self.caches = caches or ActorCaches()

    # -- KB-derived shared state ------------------------------------------
    def _subgraph(self, qid: str) -> dict:
        """Candidate subgraph split into entity/literal neighbor maps
        (annotation_models.py:306-350)."""
        cached = self.caches.subgraphs.get(qid)
        if cached is not None:
            return cached
        sub = {"entity": {}, "literal": {}, "pids": set()}
        for pid, objs in self.kbr.get_subgraph_of_entity(qid).items():
            sub["pids"].add(pid)
            if pid.startswith("(-)"):
                for obj in objs:
                    sub["entity"].setdefault(obj, []).append((pid, "entity"))
            else:
                for obj, kind in objs.items():
                    if kind in ENTITY_RANKS:
                        sub["entity"].setdefault(obj, []).append((pid, "entity"))
                    else:
                        sub["literal"].setdefault(obj, []).append((pid, kind))
        self.caches.subgraphs[qid] = sub
        return sub

    def _pair_relations(self, head_id: str, tail_id: str) -> list[tuple[str, float]]:
        """Predicate paths head→tail with semantic proximity
        (annotation_models.py:458-533): direct edge → 1.0; else 1-hop
        subgraph intersection with node-popularity weighting, transitive
        PIDs → 1.0, mixed-direction penalty ÷1.75."""
        key = (head_id, tail_id)
        if key in self.caches.unrelated_pairs:
            return []
        cached = self.caches.pair_relations.get(key)
        if cached is not None:
            return cached
        g_head = self._subgraph(head_id)["entity"]
        proximities: dict[str, float] = {}
        if tail_id in g_head:
            for pid, _info in g_head[tail_id]:
                proximities[pid] = 1.0
        else:
            g_tail = self._subgraph(tail_id)["entity"]
            for node in g_head.keys() & g_tail.keys():
                num_edges = self.kbr.get_num_edges(node)
                popularity = 1 / (2 + math.log10(2 + num_edges)) if num_edges else 0.0
                if popularity <= 0:
                    continue
                for rel_head, _ in g_head[node]:
                    for rel_tail_raw, _ in g_tail[node]:
                        rel_tail = (
                            rel_tail_raw[3:]
                            if rel_tail_raw.startswith("(-)")
                            else "(-)" + rel_tail_raw
                        )
                        if rel_head == rel_tail:
                            if rel_head.replace("(-)", "") in self.kbr.transitive_pids:
                                rid, prox = rel_head, 1.0
                            else:
                                rid, prox = rel_head + "::" + rel_tail, popularity
                        else:
                            rid = rel_head + "::" + rel_tail
                            mixed = rel_head.startswith("(-)") != rel_tail.startswith("(-)")
                            prox = popularity / 1.75 if mixed else popularity
                        proximities[rid] = min(proximities.get(rid, prox), prox)
        rels = sorted(proximities.items())  # D1: deterministic order
        if rels:
            self.caches.pair_relations[key] = rels
        else:
            self.caches.unrelated_pairs.add(key)
        return rels

    def _hierarchical_types(self, qid: str) -> dict:
        h = self.caches.hierarchical_types.get(qid)
        if h is None:
            h = self.kbr.get_types_of_entity(qid, num_level=3)
            self.caches.hierarchical_types[qid] = h
        return h

    def _flat_types(self, qid: str) -> list[tuple[str, float, int]]:
        """Cached [(type, level_weight, rank)] across the 3 levels — the
        CTA vote walks this flat list instead of re-walking the level
        dicts per row (hot path)."""
        flat = self.caches.flat_types.get(qid)
        if flat is None:
            h = self._hierarchical_types(qid)
            weights = (
                self.cfg.cta_weight_level1,
                self.cfg.cta_weight_level2,
                self.cfg.cta_weight_level3,
            )
            flat = []
            for lvl, weight in zip(("level_1", "level_2", "level_3"), weights):
                for t, rank in h.get(lvl, {}).items():
                    rank_v = self.kbr.map_rank(rank if isinstance(rank, str) else rank[0])
                    flat.append((t, weight, rank_v))
            self.caches.flat_types[qid] = flat
        return flat

    def _level_sets(self, qid: str) -> tuple[frozenset, frozenset, frozenset]:
        """Cached per-level type id sets (CEA's CTA-membership tests)."""
        s = self.caches.level_sets.get(qid)
        if s is None:
            h = self._hierarchical_types(qid)
            s = (
                frozenset(h.get("level_1", ())),
                frozenset(h.get("level_2", ())),
                frozenset(h.get("level_3", ())),
            )
            self.caches.level_sets[qid] = s
        return s

    def _type_graph(self, type_id: str) -> set:
        """Entity neighbors of a CTA type, minus its instances
        (annotation_models.py:954-969)."""
        g = self.caches.type_graph.get(type_id)
        if g is None:
            g = set()
            for pid, objs in self.kbr.get_subgraph_of_entity(type_id).items():
                if pid == "(-)P31":
                    continue
                if pid.startswith("(-)"):
                    g.update(objs)
                else:
                    g.update(o for o, k in objs.items() if k in ENTITY_RANKS)
            self.caches.type_graph[type_id] = g
        return g

    # ------------------------------------------------------------------
    # main entry
    # ------------------------------------------------------------------
    def annotate(
        self,
        table: list[list[str]],
        typings: dict[str, list[str]],
        datatypes: dict[str, list[str]],
        first_data_row: int = 0,
        primitive_typing: dict[int, list[dict]] | None = None,
    ) -> AnnotationResult:
        """CEA/CTA/CPA of one table.  ``datatypes`` is accepted for the
        preprocessing output's shape; the model reads only ``typings``.
        ``primitive_typing``, when given, is ``types_per_column`` of the
        data rows' columns (top 3, ORDINAL detection) computed by the
        caller on the same rows and typings; it is read, never mutated."""
        self.table = table
        self.first_data_row = first_data_row
        self.num_rows = len(table)
        self.num_columns = len(table[0]) if table else 0
        self.n_data_rows = max(1, self.num_rows - first_data_row)

        if primitive_typing is None:
            data_cols = [
                [table[r][c] for r in range(first_data_row, self.num_rows)]
                for c in range(self.num_columns)
            ]
            primitive_typing = types_per_column(data_cols, typings, 3, True)
        self.primitive_typing = primitive_typing

        self.entity_cols = self._find_semantic_columns()
        self.literal_cols = sorted(set(range(self.num_columns)) - set(self.entity_cols))
        (
            self.date_cols,
            self.numeral_cols,
            self.textual_cols,
            self.index_col,
        ) = self._disambiguate_literal_columns()

        self._lookup_task()
        self._context_scoring()

        # per-table state (reference ST7), keyed on cell ids
        self.unrelated_col_pairs: set[tuple[int, int]] = set()
        self.contextless_cells: dict[int, float] = {}
        n_cands = len(self.c_code)
        self.pc_count = [0] * n_cands  # potential-candidate matches
        self.pc_coeff = [0.0] * n_cands  # and their best CPA coverage
        self.cea: list[list[tuple[int, float]]] = [[] for _ in self.cells]
        self.cta_annot: dict[int, list[tuple[str, float, float]]] = {}
        self.cpa_annot: dict[tuple[int, int], list[tuple[str, float, float, float]]] = {}

        self._run_loops()

        ent_ids = self.ent_ids
        cea_out = {
            self.cells[c]: (ent_ids[ceas[0][0]], ceas[0][1])
            for c, ceas in enumerate(self.cea)
            if ceas
        }
        cta_out = {col: list(ctas) for col, ctas in self.cta_annot.items() if ctas}
        cpa_out = {
            pair: [(rid, score, cov) for rid, score, _sp, cov in cpas]
            for pair, cpas in self.cpa_annot.items()
            if cpas
        }
        return AnnotationResult(
            cea_out, cta_out, cpa_out, list(self.entity_cols),
            list(self.literal_cols), self.avg_candidates,
        )

    # ------------------------------------------------------------------
    # column classification (annotation_models.py:159-225)
    # ------------------------------------------------------------------
    def _find_semantic_columns(self) -> list[int]:
        semantic = []
        n = self.n_data_rows
        for col in range(self.num_columns):
            long_cells = 0
            punctuated = 0
            for row in range(self.first_data_row, self.num_rows):
                cell = self.table[row][col]
                if len(cell) > 150:
                    long_cells += 1
                if len(_PUNCT.intersection(cell)) > 3:  # distinct punctuation
                    punctuated += 1
            score = sum(
                t["score"]
                for t in self.primitive_typing[col]
                if named_entity_related_typing(t["type"])
            )
            if score > 0.5 and long_cells / n < 0.5 and punctuated / n < 0.5:
                semantic.append(col)
        return semantic

    def _disambiguate_literal_columns(self):
        date_cols: list[int] = []
        numeral = {"with_unit": [], "without_unit": []}
        textual: list[int] = []
        index_col = None
        for col in self.literal_cols:
            top = self.primitive_typing[col][0]
            if date_related_typing(top["type"]):
                if top["score"] > 0.5:
                    date_cols.append(col)
            elif col == 0 and top["type"] == "ORDINAL":
                index_col = 0
            else:
                with_unit = sum(
                    t["score"]
                    for t in self.primitive_typing[col]
                    if numerical_typing_with_unit(t["type"])
                )
                without_unit = sum(
                    t["score"]
                    for t in self.primitive_typing[col]
                    if numerical_typing_without_unit(t["type"])
                )
                if with_unit > 0.5:
                    numeral["with_unit"].append(col)
                elif without_unit > 0.5:
                    numeral["without_unit"].append(col)
                else:
                    textual.append(col)
        return date_cols, numeral, textual, index_col

    # ------------------------------------------------------------------
    # lookup → the candidate table (annotation_models.py:234-295)
    # ------------------------------------------------------------------
    def _lookup_task(self) -> None:
        """One batched lookup, D3's coverage demotion, then the candidate
        table of the surviving entity columns (module docstring)."""
        k = self.cfg.k
        table, rows = self.table, range(self.first_data_row, self.num_rows)
        mentions: list[str] = []
        seen: set[str] = set()
        for col in self.entity_cols:
            for row in rows:
                m = table[row][col].lower()
                if len(m) > 1 and m not in seen:
                    seen.add(m)
                    mentions.append(m)
        # one batch per conversation: a remote-backed index
        # (state/sharded_kb.py) serves it in one fan-out round trip
        results = dict(zip(mentions, self.index.search_batch(mentions, k)))
        # remote-backed KB (state/sharded_kb.py): batch-load every
        # candidate subgraph + type hierarchy before the scoring loops
        self.kbr.prefetch(
            [e for hits in results.values() for e, _ in hits]
        )
        found: dict[int, list[tuple[int, list]]] = {}
        for col in list(self.entity_cols):  # D3: snapshot
            coverage = 0.0
            col_hits = []
            for row in rows:
                hits = results.get(table[row][col].lower())
                if hits:
                    coverage += 1 / self.n_data_rows
                    col_hits.append((row, hits))
            if coverage < 0.3:
                self.entity_cols.remove(col)
                self.textual_cols.append(col)
                self.literal_cols = sorted(self.literal_cols + [col])
            else:
                found[col] = col_hits

        self.cells: list[tuple[int, int]] = []  # cell id -> (row, col)
        self.cell_id: dict[tuple[int, int], int] = {}
        self.cell_start = [0]  # CSR: cell c's candidates are cell_start[c]:cell_start[c+1]
        self.col_cells: dict[int, range] = {}  # entity col -> its cell ids, by row
        self.c_code: list[int] = []  # candidate id -> local entity code
        self.c_sim: list[float] = []  # candidate id -> lookup score
        self.ent_ids: list[str] = []  # local entity code -> entity id
        code_of: dict[str, int] = {}
        n_hits = 0
        for col in self.entity_cols:
            first = len(self.cells)
            for row, hits in found[col]:
                self.cell_id[(row, col)] = len(self.cells)
                self.cells.append((row, col))
                n_hits += len(hits)
                # one candidate per entity; a repeated hit keeps its last score
                for eid, score in dict(hits).items():
                    code = code_of.get(eid)
                    if code is None:
                        code = code_of[eid] = len(self.ent_ids)
                        self.ent_ids.append(eid)
                    self.c_code.append(code)
                    self.c_sim.append(score)
                self.cell_start.append(len(self.c_code))
            self.col_cells[col] = range(first, len(self.cells))
        self.avg_candidates = (  # A16 metric (annotation_models.py:285-291)
            round(n_hits / len(self.cells), 2) if self.cells else 0.0
        )

        # each entity's KB facts, resolved once per table
        subs = [self._subgraph(e) for e in self.ent_ids]
        self.e_literal = [s["literal"] for s in subs]
        self.e_pids = [s["pids"] for s in subs]
        self.e_flat = [self._flat_types(e) for e in self.ent_ids]
        self.e_flat_distinct = [len({t for t, _w, _r in f}) == len(f) for f in self.e_flat]
        self.e_levels = [self._level_sets(e) for e in self.ent_ids]

    # ------------------------------------------------------------------
    # context scoring → the context-edge table (annotation_models.py:396-676)
    # ------------------------------------------------------------------
    def _context_scoring(self) -> None:
        """Lay out and score every candidate's context edges.  A candidate
        in entity column ``col`` has one edge per column of
        ``ctx_cols[col]`` (the other entity columns, then the literal
        columns right of ``col``), at ``c_edge0[cand] + position``."""
        cfg, table = self.cfg, self.table
        ents, n_ent = self.entity_cols, len(self.entity_cols)
        self.ctx_cols = {
            col: [e for e in ents if e != col] + [c for c in self.literal_cols if c > col]
            for col in ents
        }
        self.ctx_weights = {
            col: [cfg.semantic_context_weight] * (n_ent - 1)
            + [cfg.literal_context_weight] * (len(ctx) - n_ent + 1)
            for col, ctx in self.ctx_cols.items()
        }
        cell_start, c_code, c_sim = self.cell_start, self.c_code, self.c_sim
        self.c_edge0: list[int] = []  # candidate id -> its first edge
        n_edges = 0
        for col in ents:
            width = len(self.ctx_cols[col])
            for c in self.col_cells[col]:
                for _ in range(cell_start[c], cell_start[c + 1]):
                    self.c_edge0.append(n_edges)
                    n_edges += width
        e_score = self.e_score = [0.1] * n_edges
        e_rids: list[set | None] = [None] * n_edges
        self.e_rids = e_rids
        # the reference's cached_cpa_candidates gate (annotation_models.py:560-566)
        self._conv_reliable_pairs: set[tuple[str, str]] = set()
        # (entity, literal mention) -> {pid: 1.0} over the whole table
        self._conv_literal_rels: dict[tuple[str, str], dict[str, float]] = {}
        ent_ids, c_edge0 = self.ent_ids, self.c_edge0

        # --- semantic (entity×entity) contexts ---------------------------
        for i in range(n_ent - 1):
            head_col = ents[i]
            for j in range(i + 1, n_ent):
                tail_col = ents[j]
                for hc in self.col_cells[head_col]:
                    row = self.cells[hc][0]
                    tc = self.cell_id.get((row, tail_col))
                    if tc is None:
                        continue
                    thr_t = 0.7 if len(table[row][tail_col]) > 5 else 0.9
                    thr_h = 0.7 if len(table[row][head_col]) > 5 else 0.9
                    for h in range(cell_start[hc], cell_start[hc + 1]):
                        head_id, sim_h = ent_ids[c_code[h]], c_sim[h]
                        eh = c_edge0[h] + j - 1  # the head's edge to tail_col
                        for t in range(cell_start[tc], cell_start[tc + 1]):
                            tail_id = ent_ids[c_code[t]]
                            if head_id == tail_id:
                                continue
                            rels = self._pair_relations(head_id, tail_id)
                            if not rels:
                                continue
                            best = max(p for _, p in rels)
                            if best <= 0.0:
                                continue
                            sim_t = c_sim[t]
                            head_score = max(0.1, best * sim_t) if sim_t >= thr_t else 0.1
                            e_score[eh] = max(e_score[eh], head_score)
                            tail_score = max(0.1, best * sim_h) if sim_h >= thr_h else 0.1
                            et = c_edge0[t] + i  # the tail's edge to head_col
                            e_score[et] = max(e_score[et], tail_score)
                            if head_score > 0.1 or tail_score > 0.1:
                                self._conv_reliable_pairs.add((head_id, tail_id))
                                for e in (eh, et):
                                    if e_rids[e] is None:
                                        e_rids[e] = set()
                                    e_rids[e].update(rid for rid, _p in rels)

        # --- literal contexts ---------------------------------------------
        kinds = {c: _DATE for c in self.date_cols}
        kinds.update((c, _TEXT) for c in self.textual_cols)
        kinds.update((c, _UNIT) for c in self.numeral_cols["with_unit"])
        memo = self.caches.literal_matches
        for col in ents:
            # a literal column of no kind matches nothing: its edges keep 0.1
            lits = [
                (p, c, kinds[c])
                for p, c in enumerate(self.ctx_cols[col])
                if p >= n_ent - 1 and c in kinds
            ]
            if not lits:
                continue
            for cell in self.col_cells[col]:
                row = self.cells[cell][0]
                for cand in range(cell_start[cell], cell_start[cell + 1]):
                    entity_id = ent_ids[c_code[cand]]
                    g_literal = self.e_literal[c_code[cand]]
                    for p, literal_col, kind in lits:
                        mention = table[row][literal_col]
                        hit = memo.get((entity_id, kind, mention))
                        if hit is None:
                            hit = self._literal_context(entity_id, g_literal, kind, mention)
                        score, pids = hit
                        if pids:
                            e = c_edge0[cand] + p
                            e_score[e] = score
                            e_rids[e] = set(pids)
                            self._conv_literal_rels.setdefault(
                                (entity_id, mention), {}
                            ).update(dict.fromkeys(pids, 1.0))

    def _literal_context(
        self, entity_id: str, g_literal: dict, kind: int, mention: str
    ) -> tuple[float, tuple[str, ...]]:
        """Score and matching pids of one literal context edge: the max of
        0.1 and every match of the entity's literal objects against the
        cell (D6: a DateTime match max-accumulates too).  Stored in the
        cross-table memo ``ActorCaches.literal_matches``, which
        :meth:`_context_scoring` reads first; it is cleared when it
        reaches :data:`LITERAL_MEMO_SIZE` entries."""
        score, pids = 0.1, {}
        for obj, props in g_literal.items():
            for pid, info in props:
                s = self._literal_match(obj, info, kind, mention)
                if s:
                    score = max(score, s)
                    pids[pid] = None
        hit = (score, tuple(pids))
        memo = self.caches.literal_matches
        if len(memo) >= LITERAL_MEMO_SIZE:
            memo.clear()
        memo[(entity_id, kind, mention)] = hit
        return hit

    def _literal_match(self, obj: str, info: str, col_kind: int, cell: str) -> float:
        """Literal-vs-cell matching (annotation_models.py:595-676)."""
        kind = info.split("-")[0]
        if kind == "DateTime" and col_kind == _DATE:
            if info.split("-")[1] != "Period":
                if dates_equal(obj, cell):
                    return 1.0
                year_obj = get_year_from_date(obj)
                year_cell = get_year_from_date(cell)
                if year_obj and year_cell and dates_equal(year_obj, year_cell):
                    return 0.8
                return 0.0
            parts = obj.split(":")
            if len(parts) != 2:
                return 0.0
            endpoints = split_period(cell)
            if len(endpoints) == 2:
                if dates_equal(parts[0], endpoints[0]) and dates_equal(parts[1], endpoints[1]):
                    return 1.0
            return 0.0
        if kind == "String" and col_kind == _TEXT:
            sim = fuzzy.textual_similarity(obj, cell)
            return sim if sim > 0.9 else 0.0
        if kind == "Quantity":
            unit_qid = info.split("-", 1)[1].replace(
                "http://www.wikidata.org/entity/", ""
            )
            # dimensionless comparison disabled in the reference
            # (annotation_models.py:637-645) — mirrored here
            if col_kind == _UNIT and unit_qid != "1":
                unit_symbol = self.kbr.get_symbol_of_unit_entity(unit_qid)
                std_obj = standardize_to_base_unit({"value": obj, "unit": unit_symbol})
                std_cell = standardize_to_base_unit(cell)
                if std_obj:
                    base = next(iter(std_obj))
                    if len(std_cell) == 1 and base in std_cell and len(std_cell[base]) == 1:
                        sim = dimensionless_quantity_similarity(
                            std_obj[base][0], std_cell[base][0]
                        )
                        thr = 0.75 if base == "dollar" else 0.95
                        if sim > thr:
                            return sim
            return 0.0
        return 0.0

    # ------------------------------------------------------------------
    # entity scoring (annotation_models.py:700-798)
    # ------------------------------------------------------------------
    def _first_entity_scoring(self) -> None:
        """The first scoring pass runs before any CPA, so every context is
        skipped: a candidate scores 0.1 × its lookup score, or the lookup
        score itself in a one-column table."""
        if self.num_columns > 1:
            self.score = [0.1 * s for s in self.c_sim]
        else:
            self.score = list(self.c_sim)

    def _entity_scoring(self, last_step: bool = False) -> None:
        """Score every candidate from its context edges whose column pair
        has a CPA.  Which edges count, their summed column weight and
        their max weight are the same for every candidate of a column, so
        they are found once per column; the weighted context sum is
        accumulated per candidate in edge order."""
        cfg = self.cfg
        sem_w, lit_w = cfg.semantic_context_weight, cfg.literal_context_weight
        score, c_sim, cell_start = self.score, self.c_sim, self.cell_start
        contextless = self.contextless_cells
        if self.num_columns <= 1:
            score[:] = c_sim
            if last_step:
                for c in range(len(self.cells)):
                    contextless.setdefault(c, 0.1)
            return
        ent_set = set(self.entity_cols)
        e_score, e_rids, c_edge0, c_code = self.e_score, self.e_rids, self.c_edge0, self.c_code
        e_pids, pc_count, pc_coeff = self.e_pids, self.pc_count, self.pc_coeff
        exp = math.exp
        for col in self.entity_cols:
            ctx = self.ctx_cols[col]
            weights = self.ctx_weights[col]
            active = []
            context_weight = 0.0
            max_context_weight = 0.0
            for p, col_idx in enumerate(ctx):
                col_pair = (col_idx, col) if col_idx < col else (col, col_idx)
                cpas = self.cpa_annot.get(col_pair)
                if col_pair in self.unrelated_col_pairs or cpas is None:
                    continue
                w = weights[p]
                is_entity = col_idx in ent_set
                if last_step:
                    # the pid a candidate must have for each CPA: its own
                    # direction, or the inverse when it is the tail
                    if col_idx < col and is_entity:
                        pcs = [
                            (rid[3:] if rid.startswith("(-)") else "(-)" + rid, cov)
                            for rid, _s, _sp, cov in cpas
                        ]
                    else:
                        pcs = [(rid, cov) for rid, _s, _sp, cov in cpas]
                else:
                    pcs = ()
                active.append((p, w, cpas, pcs))
                max_context_weight = max(max_context_weight, w)
                context_weight += sem_w if is_entity else lit_w
            for c in self.col_cells[col]:
                for cand in range(cell_start[c], cell_start[c + 1]):
                    if not ctx:
                        context_score = 0.01
                        if last_step:
                            contextless.setdefault(c, 0.1)
                    else:
                        context_score = 0.0
                        e0 = c_edge0[cand]
                        pids = e_pids[c_code[cand]]
                        for p, w, cpas, pcs in active:
                            # the edge's score scaled by the first CPA it saw,
                            # floored at 0.1 (an edge that saw none scales to 0)
                            scaled = 0.1
                            rids = e_rids[e0 + p]
                            if rids:
                                for rid, _s, sp, cov in cpas:
                                    if rid in rids:
                                        scaled = max(0.1, (cov * sp) * e_score[e0 + p])
                                        break
                            context_score += w * scaled
                            if last_step:
                                contextless[c] = max(contextless.get(c, 0.0), scaled)
                                for pid, cov in pcs:
                                    if pid in pids:
                                        pc_coeff[cand] = (
                                            max(pc_coeff[cand], cov) if pc_count[cand] else cov
                                        )
                                        pc_count[cand] += 1
                        context_score = (
                            context_score / context_weight if context_weight else 0.01
                        )
                    sim = c_sim[cand]
                    if max_context_weight > 0.1:
                        score[cand] = context_score / (
                            1 + exp(-(sim**2.5 / 0.5 - 1.0) / 0.2)
                        )
                    else:
                        score[cand] = 0.1 * sim

    # ------------------------------------------------------------------
    # context-weight update (annotation_models.py:352-395)
    # ------------------------------------------------------------------
    def _update_context_weight(self, only_literal_context: bool = False) -> None:
        """An edge's weight depends only on its two columns, so weights are
        kept per (column, context position), not per edge."""
        cfg = self.cfg
        if not only_literal_context:
            if not self.entity_cols:
                return
            min_ecol = min(self.entity_cols)
            ent_set = set(self.entity_cols)
            for col, ctx in self.ctx_cols.items():
                weights = self.ctx_weights[col]
                for p, col_idx in enumerate(ctx):
                    col_pair = (col_idx, col) if col_idx < col else (col, col_idx)
                    cpas = self.cpa_annot.get(col_pair)
                    if cpas:
                        _rid, _s, tau, cnt = cpas[0]
                        df = (
                            1 + 4 * min(abs(col_idx - min_ecol), abs(col - min_ecol))
                        ) ** -1
                        if col_idx in ent_set:
                            weights[p] = max(
                                0.05, cfg.semantic_context_weight * cnt * tau * df
                            )
                        else:
                            weights[p] = max(
                                0.01, cfg.literal_context_weight * cnt * tau * df
                            )
                    else:
                        weights[p] = 0.05 if col_idx in ent_set else 0.01
        else:
            for literal_col in self.literal_cols:
                match_score, match_col = 0.0, None
                for entity_col in self.entity_cols:
                    pair = (entity_col, literal_col)
                    self.unrelated_col_pairs.add(pair)
                    cpas = self.cpa_annot.get(pair)
                    if cpas:
                        cnt = cpas[0][3]
                        if cnt > match_score:
                            match_score, match_col = cnt, entity_col
                if match_col is not None:
                    self.unrelated_col_pairs.discard((match_col, literal_col))

    # ------------------------------------------------------------------
    # CEA (annotation_models.py:904-1031)
    # ------------------------------------------------------------------
    def _cea_task(self, col: int, only_one: bool = True) -> None:
        """CEA of one entity column's cells: ``cea[cell]`` becomes its
        [(entity code, score)].  ``only_one`` keeps the best-scored
        candidates in rank order (more potential CPA matches first, then
        id — D1); otherwise every candidate is kept in candidate order,
        since its readers (the CTA and CPA row aggregates) are order-free."""
        cell_start, c_code, score, cea = self.cell_start, self.c_code, self.score, self.cea
        ctas = self.cta_annot.get(col)
        if not ctas:
            for cell in self.col_cells[col]:
                lo, hi = cell_start[cell], cell_start[cell + 1]
                if only_one and hi - lo > 1:
                    cea[cell] = self._best([(cand, score[cand]) for cand in range(lo, hi)])
                else:
                    cea[cell] = [(c_code[cand], score[cand]) for cand in range(lo, hi)]
            return
        # CTA support of each entity: its best level-weighted CTA score
        cfg = self.cfg
        lw1, lw2, lw3 = cfg.cta_weight_level1, cfg.cta_weight_level2, cfg.cta_weight_level3
        graphs = [(t, s, self._type_graph(t)) for t, s, _cov in ctas]
        mean_w = sum(cov for _t, _s, cov in ctas) / len(ctas)
        support: dict[int, float] = {}
        cells = self.col_cells[col]
        for code in set(c_code[cell_start[cells.start]:cell_start[cells.stop]]):
            l1, l2, l3 = self.e_levels[code]
            best = 0.0
            for cta_type, cta_score, tg in graphs:
                if cta_type in l1:
                    w = lw1
                elif cta_type in l2 or not tg.isdisjoint(l1):
                    w = lw2
                elif cta_type in l3 or not tg.isdisjoint(l2):
                    w = lw3
                else:
                    continue
                best = max(best, w * cta_score)
            support[code] = best
        pc_count, pc_coeff = self.pc_count, self.pc_coeff
        contextless = self.contextless_cells
        for cell in self.col_cells[col]:
            # a cell no context vouched for leans on CTA and potential CPAs
            boost = bool(contextless) and contextless.get(cell, 0.1) == 0.1
            cta_coeff = mean_w if boost else mean_w / 2
            ceas = []
            for cand in range(cell_start[cell], cell_start[cell + 1]):
                s = score[cand]
                if boost and pc_count[cand]:
                    s = min(1.0, s * (1 + pc_coeff[cand]))
                ceas.append((cand, (s + cta_coeff * support[c_code[cand]]) / (1 + cta_coeff)))
            if only_one and len(ceas) > 1:
                cea[cell] = self._best(ceas)
            else:
                cea[cell] = [(c_code[cand], s) for cand, s in ceas]

    def _best(self, ceas: list[tuple[int, float]]) -> list[tuple[int, float]]:
        """The best-scored of a cell's (candidate, score): more potential
        CPA matches first, then entity id (D1)."""
        pc_count, c_code, ent_ids = self.pc_count, self.c_code, self.ent_ids
        best = max(s for _cand, s in ceas)
        top = [(cand, s) for cand, s in ceas if s == best]
        top.sort(key=lambda cs: (-pc_count[cs[0]], ent_ids[c_code[cs[0]]]))
        return [(c_code[cand], s) for cand, s in top]

    # ------------------------------------------------------------------
    # CTA (annotation_models.py:800-902)
    # ------------------------------------------------------------------
    def _cta_task(self, col: int, only_one: bool = True) -> None:
        e_flat, e_flat_distinct = self.e_flat, self.e_flat_distinct
        candidate_types: dict[str, list] = {}  # type -> [count, total score, total rank]
        for cell in self.col_cells[col]:
            ceas = self.cea[cell]
            if len(ceas) == 1 and e_flat_distinct[ceas[0][0]]:
                code, cand_score = ceas[0]
                row_types = [(t, weight * cand_score, rank_v) for t, weight, rank_v in e_flat[code]]
            else:
                # per type the best level-weighted score and rank (D2)
                by_type: dict[str, tuple[float, int]] = {}
                for code, cand_score in ceas:
                    for t, weight, rank_v in e_flat[code]:
                        score = weight * cand_score
                        cur = by_type.get(t)
                        if cur is None:
                            by_type[t] = (score, rank_v)
                        else:
                            by_type[t] = (max(cur[0], score), max(cur[1], rank_v))
                row_types = [(t, score, rank_v) for t, (score, rank_v) in by_type.items()]
            for t, score, rank_v in row_types:
                agg = candidate_types.get(t)
                if agg is None:
                    candidate_types[t] = [1, score, rank_v]
                else:
                    agg[0] += 1
                    agg[1] += score
                    agg[2] += rank_v
        if not candidate_types:
            return
        ordered = sorted(
            candidate_types.items(),
            key=lambda it: (-(it[1][0] * it[1][1]), -it[1][2], it[0]),  # D1
        )
        top_count, top_total, _ = ordered[0][1]
        n = self.n_data_rows
        if only_one:
            out = []
            supertypes: set[str] = set()
            for t, (count, total, _r) in ordered:
                if count * total == top_count * top_total:
                    out.append((t, total / n, count / n))
                    supertypes.update(self.kbr.get_supertypes_of_type(t))
            chosen = {t for t, _s, _c in out}
            for t, (count, total, _r) in ordered:
                if t in supertypes and t not in chosen:
                    out.append((t, total / n, count / n))
        else:
            out = [
                (t, total / n, count / n)
                for t, (count, total, _r) in ordered
                if count >= top_count
            ]
        self.cta_annot[col] = out

    # ------------------------------------------------------------------
    # CPA (annotation_models.py:1033-1131)
    # ------------------------------------------------------------------
    def _cpa_task(self, head_col: int, tail_col: int, only_one: bool = True) -> None:
        if (head_col, tail_col) in self.unrelated_col_pairs or (
            tail_col in self.literal_cols and tail_col < head_col
        ):
            return
        tail_is_entity = tail_col in self.entity_cols
        reliable, literal_rels = self._conv_reliable_pairs, self._conv_literal_rels
        if not (reliable if tail_is_entity else literal_rels):
            return  # no row of the table has a relation to vote for
        ent_ids, cea, cells, table = self.ent_ids, self.cea, self.cells, self.table
        pair_relations = self.caches.pair_relations
        cpa_candidates: dict[str, list] = {}  # rid -> [count, total score, proximity]
        for cell in self.col_cells[head_col]:
            heads = cea[cell]
            row = cells[cell][0]
            # the row's (relations, confidence) of each (head, tail) pair
            if tail_is_entity:
                tc = self.cell_id.get((row, tail_col))
                if tc is None:
                    continue
                found = []
                for head_code, head_score in heads:
                    head_id = ent_ids[head_code]
                    for tail_code, tail_score in cea[tc]:
                        pair = (head_id, ent_ids[tail_code])
                        if pair in reliable:
                            found.append((pair_relations[pair], max(head_score, tail_score)))
            else:
                mention = table[row][tail_col]
                found = []
                for head_code, head_score in heads:
                    rels = literal_rels.get((ent_ids[head_code], mention))
                    if rels:
                        found.append((rels.items(), max(head_score, 0.0)))
            if not found:
                continue
            if len(found) == 1:
                # one pair: its relation ids are distinct already
                rels, conf = found[0]
                row_rels = [(rid, prox * conf, prox) for rid, prox in rels]
            else:
                # per relation the best proximity × conf and the lowest proximity
                merged: dict[str, list[float]] = {}
                for rels, conf in found:
                    for rid, prox in rels:
                        score = prox * conf
                        cur = merged.get(rid)
                        if cur is not None:
                            cur[0] = max(cur[0], score)
                            cur[1] = min(cur[1], prox)
                        else:
                            merged[rid] = [score, prox]
                row_rels = [(rid, score, prox) for rid, (score, prox) in merged.items()]
            for rid, score, prox in row_rels:
                agg = cpa_candidates.get(rid)
                if agg is None:
                    agg = cpa_candidates[rid] = [0, 0.0, prox]
                agg[0] += 1
                agg[1] += score
                agg[2] = min(agg[2], prox)
        if not cpa_candidates:
            return
        ordered = sorted(
            cpa_candidates.items(),
            key=lambda it: (
                -(it[1][0] * it[1][1]),
                -it[1][0],
                -it[1][2],
                "::" in it[0],
                "(-)" in it[0],
                it[0],  # D1
            ),
        )
        top_count, top_total, _ = ordered[0][1]
        n = self.n_data_rows
        if only_one:
            keep = [it for it in ordered if it[1][0] * it[1][1] >= top_count * top_total]
        else:
            keep = [it for it in ordered if it[1][0] >= top_count]
        self.cpa_annot[(head_col, tail_col)] = [
            (rid, total / n, prox, count / n) for rid, (count, total, prox) in keep
        ]

    # ------------------------------------------------------------------
    # the 4-loop driver (table_annotation.py:51-112)
    # ------------------------------------------------------------------
    def _all_cea(self, only_one: bool):
        for col in self.entity_cols:
            self._cea_task(col, only_one=only_one)

    def _all_cpa(self, only_one: bool):
        self.cpa_annot = {}
        for i in range(len(self.entity_cols) - 1):
            for j in range(i + 1, len(self.entity_cols)):
                self._cpa_task(self.entity_cols[i], self.entity_cols[j], only_one=only_one)
        for head in self.entity_cols:
            for tail in self.literal_cols:
                self._cpa_task(head, tail, only_one=only_one)

    def _all_cta(self, only_one: bool):
        self.cta_annot = {}
        for col in self.entity_cols:
            self._cta_task(col, only_one=only_one)

    def _run_loops(self):
        self._first_entity_scoring()
        # loop 1: initial CEA + CPA
        self._all_cea(only_one=False)
        self._all_cpa(only_one=False)
        # soft re-weighting
        self._update_context_weight()
        self._entity_scoring()
        # loop 2: CEA + CTA with updated scores
        self._all_cea(only_one=False)
        self._all_cta(only_one=False)
        # loop 3: disambiguated CEA/CTA, fresh CPA
        self._all_cea(only_one=True)
        self._all_cta(only_one=True)
        self._all_cpa(only_one=False)
        # loop 4: reinforced disambiguation
        self._update_context_weight(only_literal_context=True)
        self._entity_scoring(last_step=True)
        self._all_cea(only_one=True)
        self._all_cta(only_one=True)
        self._all_cpa(only_one=True)

