"""The per-table loop model as it ran before the candidate-table core:
dicts keyed on ``(row, col, entity)``, one ``_cea_task`` call per cell and
one ``_cpa_task`` per column pair.  Kept only as the parity oracle of
``stages/annotator.py`` (tests/test_annotator_core.py); nothing in the
package imports it."""

from __future__ import annotations

import math
from string import punctuation

from table_annotation_ray.config import AnnotationConfig
from table_annotation_ray.functions import fuzzy
from table_annotation_ray.functions.dates import dates_equal, get_year_from_date, split_period
from table_annotation_ray.functions.quantities import (
    dimensionless_quantity_similarity,
    standardize_to_base_unit,
)
from table_annotation_ray.functions.typing_rules import (
    date_related_typing,
    named_entity_related_typing,
    numerical_typing_with_unit,
    numerical_typing_without_unit,
)
from table_annotation_ray.stages.annotator import (
    ActorCaches,
    AnnotationResult,
    types_per_column,
)
from table_annotation_ray.state.kb import ENTITY_RANKS, KBReader

Candidate = tuple[int, int, str]  # (row, col, entity_id)


class LoopAnnotator:
    """Annotates one table (conversation grid).  Construct once per actor
    with the shared index/KB/caches; call :meth:`annotate` per table."""

    def __init__(
        self,
        index,
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
    ) -> AnnotationResult:
        cfg = self.cfg
        self.table = table
        self.first_data_row = first_data_row
        self.num_rows = len(table)
        self.num_columns = len(table[0]) if table else 0
        self.n_data_rows = max(1, self.num_rows - first_data_row)

        data_cols = [
            [table[r][c] for r in range(first_data_row, self.num_rows)]
            for c in range(self.num_columns)
        ]
        self.primitive_typing = types_per_column(data_cols, typings, 3, True)
        self.column_datatypes = types_per_column(data_cols, datatypes, 3, False)

        self.entity_cols = self._find_semantic_columns()
        self.literal_cols = sorted(set(range(self.num_columns)) - set(self.entity_cols))
        (
            self.date_cols,
            self.numeral_cols,
            self.textual_cols,
            self.index_col,
        ) = self._disambiguate_literal_columns()

        self.lookup: dict[tuple[int, int], list[str]] = {}
        self.lookup_scores: dict[Candidate, float] = {}
        self._lookup_task()

        self.entity_context_scores: dict[Candidate, dict[int, dict]] = {}
        self.entity_sim_scores: dict[Candidate, float] = {}
        self.entity_scores: dict[Candidate, float] = {}
        for (row, col), ids in self.lookup.items():
            for eid in ids:
                cand = (row, col, eid)
                self.entity_context_scores[cand] = {}
                self.entity_sim_scores[cand] = 0.0
                self.entity_scores[cand] = 0.0

        # per-table state (reference ST7)
        self.unrelated_col_pairs: set[tuple[int, int]] = set()
        self.contextless_cells: dict[tuple[int, int], float] = {}
        self.potential_candidates: dict[Candidate, list[dict]] = {}
        self.cea_annot: dict[tuple[int, int], list[dict]] = {}
        self.cta_annot: dict[int, list[dict]] = {}
        self.cpa_annot: dict[tuple[int, int], list[dict]] = {}
        self._conv_literal_rels: dict[tuple[str, str], list[tuple[str, float]]] = {}
        # pairs whose connection was deemed reliable during context scoring —
        # the reference's cached_cpa_candidates gate (annotation_models.py:560-566)
        self._conv_reliable_pairs: set[tuple[str, str]] = set()

        self._run_loops()

        cea_out = {
            cell: (ceas[0]["id"], ceas[0]["score"])
            for cell, ceas in self.cea_annot.items()
            if ceas
        }
        cta_out = {
            col: [(c["id"], c["score"], c["coverage"]) for c in ctas]
            for col, ctas in self.cta_annot.items()
            if ctas
        }
        cpa_out = {
            pair: [(c["id"], c["score"], c["coverage"]) for c in cpas]
            for pair, cpas in self.cpa_annot.items()
            if cpas
        }
        avg_candidates = (
            round(sum(len(v) for v in self.lookup.values()) / len(self.lookup), 2)
            if self.lookup
            else 0.0
        )
        return AnnotationResult(
            cea_out, cta_out, cpa_out, list(self.entity_cols),
            list(self.literal_cols), avg_candidates,
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
                distinct_puncts = sum(1 for p in set(punctuation) if p in cell)
                if distinct_puncts > 3:
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
    # lookup (annotation_models.py:234-295)
    # ------------------------------------------------------------------
    def _lookup_task(self) -> None:
        k = self.cfg.k
        mentions: list[str] = []
        seen: set[str] = set()
        for col in self.entity_cols:
            for row in range(self.first_data_row, self.num_rows):
                m = self.table[row][col].lower()
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
        for col in list(self.entity_cols):  # D3: snapshot
            coverage = 0.0
            for row in range(self.first_data_row, self.num_rows):
                m = self.table[row][col].lower()
                hits = results.get(m)
                if hits:
                    coverage += 1 / self.n_data_rows
                    self.lookup[(row, col)] = [e for e, _ in hits]
                    for e, s in hits:
                        self.lookup_scores[(row, col, e)] = s
            if coverage < 0.3:
                self.entity_cols.remove(col)
                self.textual_cols.append(col)
                self.literal_cols = sorted(self.literal_cols + [col])
                for row in range(self.first_data_row, self.num_rows):
                    ids = self.lookup.pop((row, col), [])
                    for e in ids:
                        self.lookup_scores.pop((row, col, e), None)

    # ------------------------------------------------------------------
    # context scoring (annotation_models.py:396-676)
    # ------------------------------------------------------------------
    def _context_scoring(self) -> None:
        sem_w = self.cfg.semantic_context_weight
        lit_w = self.cfg.literal_context_weight
        for row in range(self.first_data_row, self.num_rows):
            # --- semantic (entity×entity) contexts -----------------------
            for i in range(len(self.entity_cols) - 1):
                head_col = self.entity_cols[i]
                head_cell = (row, head_col)
                head_mention = self.table[row][head_col]
                if not self.lookup.get(head_cell):
                    for j in range(i + 1, len(self.entity_cols)):
                        tail_col = self.entity_cols[j]
                        for tail_id in self.lookup.get((row, tail_col), []):
                            tc = (row, tail_col, tail_id)
                            self.entity_context_scores[tc][head_col] = {
                                "weight": sem_w, "score": 0.1, "context": []
                            }
                    continue
                for head_id in self.lookup[head_cell]:
                    hc = (row, head_col, head_id)
                    for j in range(i + 1, len(self.entity_cols)):
                        tail_col = self.entity_cols[j]
                        tail_mention = self.table[row][tail_col]
                        self.entity_context_scores[hc].setdefault(
                            tail_col, {"weight": sem_w, "score": 0.1, "context": []}
                        )
                        for tail_id in self.lookup.get((row, tail_col), []):
                            tc = (row, tail_col, tail_id)
                            self.entity_context_scores[tc].setdefault(
                                head_col, {"weight": sem_w, "score": 0.1, "context": []}
                            )
                            if head_id == tail_id:
                                continue
                            rels = self._pair_relations(head_id, tail_id)
                            if not rels:
                                continue
                            best = max(p for _, p in rels)
                            if best <= 0.0:
                                continue
                            thr_t = 0.7 if len(tail_mention) > 5 else 0.9
                            head_score = (
                                max(0.1, best * self.entity_sim_scores[tc])
                                if self.entity_sim_scores[tc] >= thr_t
                                else 0.1
                            )
                            ctx_h = self.entity_context_scores[hc][tail_col]
                            ctx_h["score"] = max(ctx_h["score"], head_score)
                            thr_h = 0.7 if len(head_mention) > 5 else 0.9
                            tail_score = (
                                max(0.1, best * self.entity_sim_scores[hc])
                                if self.entity_sim_scores[hc] >= thr_h
                                else 0.1
                            )
                            ctx_t = self.entity_context_scores[tc][head_col]
                            ctx_t["score"] = max(ctx_t["score"], tail_score)
                            if head_score > 0.1 or tail_score > 0.1:
                                self._conv_reliable_pairs.add((head_id, tail_id))
                                for rid, _p in rels:
                                    ctx_h["context"].append(rid)
                                    ctx_t["context"].append(rid)
            # --- literal contexts ---------------------------------------
            for entity_col in self.entity_cols:
                for entity_id in self.lookup.get((row, entity_col), []):
                    g_literal = self._subgraph(entity_id)["literal"]
                    cand = (row, entity_col, entity_id)
                    for literal_col in self.literal_cols:
                        if literal_col < entity_col:
                            continue
                        ctx = {"weight": lit_w, "score": 0.1, "context": []}
                        self.entity_context_scores[cand][literal_col] = ctx
                        literal_mention = self.table[row][literal_col]
                        for obj, props in g_literal.items():
                            for pid, info in props:
                                score = self._literal_match(
                                    obj, info, literal_col, literal_mention
                                )
                                if score:
                                    ctx["score"] = max(ctx["score"], score)
                                    ctx["context"].append(pid)
                                    lk = (entity_id, literal_mention)
                                    rels = self._conv_literal_rels.setdefault(lk, [])
                                    if (pid, 1.0) not in rels:
                                        rels.append((pid, 1.0))

    def _literal_match(self, obj: str, info: str, literal_col: int, cell: str) -> float:
        """Literal-vs-cell matching (annotation_models.py:595-676)."""
        kind = info.split("-")[0]
        if kind == "DateTime" and literal_col in self.date_cols:
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
        if kind == "String" and literal_col in self.textual_cols:
            sim = fuzzy.textual_similarity(obj, cell)
            return sim if sim > 0.9 else 0.0
        if kind == "Quantity":
            unit_qid = info.split("-", 1)[1].replace(
                "http://www.wikidata.org/entity/", ""
            )
            # dimensionless comparison disabled in the reference
            # (annotation_models.py:637-645) — mirrored here
            if literal_col in self.numeral_cols["with_unit"] and unit_qid != "1":
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
    def _entity_scoring(self, first_step: bool = True, last_step: bool = False) -> None:
        cfg = self.cfg
        if first_step:
            for cand in self.entity_sim_scores:
                self.entity_sim_scores[cand] = self.lookup_scores.get(cand, 0.0)
            self._context_scoring()
        for cand in self.entity_scores:
            row, col, cid = cand
            cell = (row, col)
            if self.num_columns > 1 and (self.entity_cols or self.literal_cols):
                context_score = 0.0
                context_weight = 0.0
                max_context_weight = 0.0
                contexts = self.entity_context_scores[cand]
                if contexts:
                    for col_idx, a_context in contexts.items():
                        if col_idx < col and col_idx in self.entity_cols:
                            col_pair = (col_idx, col)
                        else:
                            col_pair = (col, col_idx)
                        if (
                            col_pair in self.unrelated_col_pairs
                            or col_pair not in self.cpa_annot
                        ):
                            continue
                        if first_step:
                            scale = 1.0
                        else:
                            scale = 0.0
                            for a_cpa in self.cpa_annot[col_pair]:
                                if a_cpa["id"] in a_context["context"]:
                                    scale = a_cpa["coverage"] * a_cpa["semantic_proximity"]
                                    break
                        scaled = max(0.1, scale * a_context["score"])
                        context_score += a_context["weight"] * scaled
                        if last_step:
                            self.contextless_cells[cell] = max(
                                self.contextless_cells.get(cell, 0.0), scaled
                            )
                            for a_cpa in self.cpa_annot[col_pair]:
                                pids = self._subgraph(cid)["pids"]
                                if col_idx < col and col_idx in self.entity_cols:
                                    rid = a_cpa["id"]
                                    contains = (
                                        rid[3:] in pids
                                        if rid.startswith("(-)")
                                        else "(-)" + rid in pids
                                    )
                                else:
                                    contains = a_cpa["id"] in pids
                                if contains:
                                    self.potential_candidates.setdefault(cand, []).append(
                                        {
                                            "cpa_coeff": a_cpa["coverage"],
                                            "cpa_score": a_cpa["score"],
                                            "cpa_id": a_cpa["id"],
                                        }
                                    )
                        max_context_weight = max(max_context_weight, a_context["weight"])
                        if col_idx in self.entity_cols:
                            context_weight += cfg.semantic_context_weight
                        elif col_idx in self.literal_cols:
                            context_weight += cfg.literal_context_weight
                    context_score = (
                        context_score / context_weight if context_weight else 0.01
                    )
                else:
                    context_score = 0.01
                    if last_step:
                        self.contextless_cells.setdefault(cell, 0.1)
                if max_context_weight > 0.1:
                    sim = self.entity_sim_scores[cand]
                    self.entity_scores[cand] = context_score / (
                        1 + math.exp(-(sim**2.5 / 0.5 - 1.0) / 0.2)
                    )
                else:
                    self.entity_scores[cand] = 0.1 * self.entity_sim_scores[cand]
            else:
                self.entity_scores[cand] = self.entity_sim_scores[cand]
                if last_step:
                    self.contextless_cells.setdefault(cell, 0.1)

    # ------------------------------------------------------------------
    # context-weight update (annotation_models.py:352-395)
    # ------------------------------------------------------------------
    def _update_context_weight(self, only_literal_context: bool = False) -> None:
        cfg = self.cfg
        if not only_literal_context:
            if not self.entity_cols:
                return
            min_ecol = min(self.entity_cols)
            for cand, contexts in self.entity_context_scores.items():
                _row, col, _cid = cand
                for col_idx, a_context in contexts.items():
                    if col_idx < col and col_idx in self.entity_cols:
                        col_pair = (col_idx, col)
                    else:
                        col_pair = (col, col_idx)
                    if col_pair in self.cpa_annot and self.cpa_annot[col_pair]:
                        top = self.cpa_annot[col_pair][0]
                        cnt = top["coverage"]
                        tau = top["semantic_proximity"]
                        df = (
                            1 + 4 * min(abs(col_idx - min_ecol), abs(col - min_ecol))
                        ) ** -1
                        if col_idx in self.entity_cols:
                            a_context["weight"] = max(
                                0.05, cfg.semantic_context_weight * cnt * tau * df
                            )
                        else:
                            a_context["weight"] = max(
                                0.01, cfg.literal_context_weight * cnt * tau * df
                            )
                    else:
                        a_context["weight"] = 0.05 if col_idx in self.entity_cols else 0.01
        else:
            for literal_col in self.literal_cols:
                match_score, match_col = 0.0, None
                for entity_col in self.entity_cols:
                    pair = (entity_col, literal_col)
                    self.unrelated_col_pairs.add(pair)
                    if pair in self.cpa_annot and self.cpa_annot[pair]:
                        cnt = self.cpa_annot[pair][0]["coverage"]
                        if cnt > match_score:
                            match_score, match_col = cnt, entity_col
                if match_col is not None:
                    self.unrelated_col_pairs.discard((match_col, literal_col))

    # ------------------------------------------------------------------
    # CEA (annotation_models.py:904-1031)
    # ------------------------------------------------------------------
    def _cea_task(self, col: int, row: int, only_one: bool = True):
        cell = (row, col)
        ids = self.lookup.get(cell)
        if not ids:
            return
        cea_candidates = [
            {"id": cid, "score": self.entity_scores[(row, col, cid)]}
            for cid in ids
            if (row, col, cid) in self.entity_scores
        ]
        if not cea_candidates:
            return
        cta_applied = False
        cta_scores: dict[str, float] = {}
        cta_weights: list[float] = []
        ctas = self.cta_annot.get(col)
        if ctas:
            cta_applied = True
            for a_cta in ctas:
                cta_type = a_cta["id"]
                tg = self._type_graph(cta_type)
                cta_weights.append(a_cta["coverage"])
                for cea in cea_candidates:
                    cta_scores.setdefault(cea["id"], 0.0)
                    l1, l2, l3 = self._level_sets(cea["id"])
                    w = None
                    if cta_type in l1:
                        w = self.cfg.cta_weight_level1
                    elif cta_type in l2 or not tg.isdisjoint(l1):
                        w = self.cfg.cta_weight_level2
                    elif cta_type in l3 or not tg.isdisjoint(l2):
                        w = self.cfg.cta_weight_level3
                    if w is not None:
                        cta_scores[cea["id"]] = max(
                            cta_scores[cea["id"]], w * a_cta["score"]
                        )
        if cta_applied:
            mean_w = sum(cta_weights) / len(cta_weights)
            if (
                self.contextless_cells
                and self.contextless_cells.get(cell, 0.1) == 0.1
            ):
                cta_coeff = mean_w
                for cea in cea_candidates:
                    pc_list = self.potential_candidates.get((row, col, cea["id"]))
                    if pc_list:
                        cpa_coeff = max(it["cpa_coeff"] for it in pc_list)
                        cea["score"] = min(1.0, cea["score"] * (1 + cpa_coeff))
            else:
                cta_coeff = mean_w / 2
            for cea in cea_candidates:
                cea["score"] = (cea["score"] + cta_coeff * cta_scores[cea["id"]]) / (
                    1 + cta_coeff
                )
        cea_candidates.sort(
            key=lambda t: (
                -t["score"],
                -len(self.potential_candidates.get((row, col, t["id"]), [])),
                t["id"],  # D1
            )
        )
        if only_one:
            best = cea_candidates[0]["score"]
            self.cea_annot[cell] = [c for c in cea_candidates if c["score"] == best]
        else:
            self.cea_annot[cell] = cea_candidates

    # ------------------------------------------------------------------
    # CTA (annotation_models.py:800-902)
    # ------------------------------------------------------------------
    def _cta_task(self, col: int, only_one: bool = True):
        candidate_types: dict[str, dict] = {}
        for row in range(self.first_data_row, self.num_rows):
            ceas = self.cea_annot.get((row, col))
            if not ceas:
                continue
            row_types: dict[str, tuple[float, int]] = {}
            for cea in ceas:
                cand_score = cea["score"]
                for t, weight, rank_v in self._flat_types(cea["id"]):  # D2
                    score = weight * cand_score
                    cur = row_types.get(t)
                    if cur is None:
                        row_types[t] = (score, rank_v)
                    else:
                        row_types[t] = (max(cur[0], score), max(cur[1], rank_v))
            for t, (score, rank_v) in row_types.items():
                agg = candidate_types.get(t)
                if agg is None:
                    candidate_types[t] = {"count": 1, "total_scores": score, "total_ranks": rank_v}
                else:
                    agg["count"] += 1
                    agg["total_scores"] += score
                    agg["total_ranks"] += rank_v
        if not candidate_types:
            return
        ordered = sorted(
            candidate_types.items(),
            key=lambda it: (
                -(it[1]["count"] * it[1]["total_scores"]),
                -it[1]["total_ranks"],
                it[0],  # D1
            ),
        )
        top = ordered[0][1]
        out: list[dict] = []
        n = self.n_data_rows
        if only_one:
            supertypes: set[str] = set()
            for t, agg in ordered:
                if agg["count"] * agg["total_scores"] == top["count"] * top["total_scores"]:
                    out.append(
                        {"id": t, "score": agg["total_scores"] / n, "coverage": agg["count"] / n}
                    )
                    supertypes.update(self.kbr.get_supertypes_of_type(t))
            chosen = {c["id"] for c in out}
            for t, agg in ordered:
                if t in supertypes and t not in chosen:
                    out.append(
                        {"id": t, "score": agg["total_scores"] / n, "coverage": agg["count"] / n}
                    )
        else:
            for t, agg in ordered:
                if agg["count"] >= top["count"]:
                    out.append(
                        {"id": t, "score": agg["total_scores"] / n, "coverage": agg["count"] / n}
                    )
        self.cta_annot[col] = out

    # ------------------------------------------------------------------
    # CPA (annotation_models.py:1033-1131)
    # ------------------------------------------------------------------
    def _cpa_task(self, head_col: int, tail_col: int, only_one: bool = True):
        if (head_col, tail_col) in self.unrelated_col_pairs or (
            tail_col in self.literal_cols and tail_col < head_col
        ):
            return
        tail_is_entity = tail_col in self.entity_cols
        cpa_candidates: dict[str, dict] = {}
        for row in range(self.first_data_row, self.num_rows):
            heads = self.cea_annot.get((row, head_col))
            if not heads:
                continue
            if tail_is_entity:
                tails = self.cea_annot.get((row, tail_col))
                if not tails:
                    continue
            else:
                tails = [{"id": self.table[row][tail_col], "score": 0.0}]
            row_rels: dict[str, dict] = {}
            for head in heads:
                for tail in tails:
                    if tail_is_entity:
                        pair = (head["id"], tail["id"])
                        rels = (
                            self.caches.pair_relations.get(pair, [])
                            if pair in self._conv_reliable_pairs
                            else []
                        )
                    else:
                        rels = self._conv_literal_rels.get((head["id"], tail["id"]), [])
                    conf = max(head["score"], tail["score"])
                    for rid, prox in rels:
                        score = prox * conf
                        cur = row_rels.get(rid)
                        if cur:
                            cur["score"] = max(cur["score"], score)
                            cur["semantic_proximity"] = min(cur["semantic_proximity"], prox)
                        else:
                            row_rels[rid] = {"semantic_proximity": prox, "score": score}
            for rid, info in row_rels.items():
                agg = cpa_candidates.setdefault(
                    rid,
                    {"count": 0, "total_scores": 0.0, "semantic_proximity": info["semantic_proximity"]},
                )
                agg["count"] += 1
                agg["total_scores"] += info["score"]
                agg["semantic_proximity"] = min(
                    agg["semantic_proximity"], info["semantic_proximity"]
                )
        if not cpa_candidates:
            return
        ordered = sorted(
            cpa_candidates.items(),
            key=lambda it: (
                -(it[1]["count"] * it[1]["total_scores"]),
                -it[1]["count"],
                -it[1]["semantic_proximity"],
                "::" in it[0],
                "(-)" in it[0],
                it[0],  # D1
            ),
        )
        top = ordered[0][1]
        n = self.n_data_rows
        out = []
        if only_one:
            for rid, agg in ordered:
                if agg["count"] * agg["total_scores"] >= top["count"] * top["total_scores"]:
                    out.append(
                        {
                            "id": rid,
                            "score": agg["total_scores"] / n,
                            "semantic_proximity": agg["semantic_proximity"],
                            "coverage": agg["count"] / n,
                        }
                    )
        else:
            for rid, agg in ordered:
                if agg["count"] >= top["count"]:
                    out.append(
                        {
                            "id": rid,
                            "score": agg["total_scores"] / n,
                            "semantic_proximity": agg["semantic_proximity"],
                            "coverage": agg["count"] / n,
                        }
                    )
        self.cpa_annot[(head_col, tail_col)] = out

    # ------------------------------------------------------------------
    # the 4-loop driver (table_annotation.py:51-112)
    # ------------------------------------------------------------------
    def _all_cea(self, only_one: bool):
        for col in self.entity_cols:
            for row in range(self.first_data_row, self.num_rows):
                self._cea_task(col, row, only_one=only_one)

    def _all_cpa(self, only_one: bool):
        for i in range(len(self.entity_cols) - 1):
            for j in range(i + 1, len(self.entity_cols)):
                self._cpa_task(self.entity_cols[i], self.entity_cols[j], only_one=only_one)
        for head in self.entity_cols:
            for tail in self.literal_cols:
                self._cpa_task(head, tail, only_one=only_one)

    def _all_cta(self, only_one: bool):
        for col in self.entity_cols:
            self._cta_task(col, only_one=only_one)

    def _run_loops(self):
        self._entity_scoring(first_step=True)
        # loop 1: initial CEA + CPA
        self._all_cea(only_one=False)
        self._all_cpa(only_one=False)
        # soft re-weighting
        self._update_context_weight()
        self._entity_scoring(first_step=False)
        # loop 2: CEA + CTA with updated scores
        self.cea_annot = {}
        self._all_cea(only_one=False)
        self._all_cta(only_one=False)
        # loop 3: disambiguated CEA/CTA, fresh CPA
        self.cea_annot = {}
        self._all_cea(only_one=True)
        self.cta_annot = {}
        self._all_cta(only_one=True)
        self.cpa_annot = {}
        self._all_cpa(only_one=False)
        # loop 4: reinforced disambiguation
        self._update_context_weight(only_literal_context=True)
        self._entity_scoring(first_step=False, last_step=True)
        self.cea_annot = {}
        self._all_cea(only_one=True)
        self.cta_annot = {}
        self._all_cta(only_one=True)
        self.cpa_annot = {}
        self._all_cpa(only_one=True)
