"""Seeded benchmark inputs and their goldens, cached inside the checkout.

Every input directory is keyed on (workload, size, seed,
``synth.GENERATOR_VERSION``, ``INPUT_VERSION``), is written to a temporary
name and renamed into place when complete, and holds the goldens next to
the inputs:

* ``kg_templates``: ``synth.generate`` transcripts (3 templates, typos,
  mojibake, 2% hot conversations) over the 295-label mini-KB.
* ``kg_diverse_kb``: a KB of ``n_people`` person entities with distinct
  high-entropy names, each born (P19) in a curated city, and transcripts
  whose rows are ``person | city`` drawn uniformly with 10% typos.
* ``serve_tables``: a pool of tables cut from the same template
  conversations as ``kg_templates`` (header row added, ~30% transposed),
  the entity of every cell, and a Zipf-distributed request sequence over
  the pool.

Goldens mark the items every correct run must find (``clean``): a triple
supported by at least one row whose cells are untouched by typos, a cell
whose text is a label of its entity.  The check requires all of them, so
one dropped item fails a run on its own, without an earlier output to
compare with.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from table_annotation_ray import synth
from table_annotation_ray.schemas import CELL_SEP

# bump when this module's output changes for the same arguments
INPUT_VERSION = 4

# share of 120-turn conversations, as in synth's default transcripts
HOT_FRACTION = 0.02
# share of rows with a typo in a cell, kg_diverse_kb
TYPO_RATE = 0.10
# share of serve tables sent transposed
TRANSPOSED_FRACTION = 0.3
# Zipf exponent of serve requests over the pool's popularity ranks.  An
# assumption, not a measured value: web request streams fit Zipf-like
# laws with exponents 0.64-0.83 (Breslau et al., INFOCOM 1999), and this
# takes the low end.
ZIPF_A = 0.64

HEADERS = {
    "cities": ["city", "country", "founded", "nickname", "area"],
    "films": ["film", "actor", "character", "published"],
    "mayors": ["mayor", "city", "country", "term start"],
}

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v",
           "z", "br", "dr", "gl", "kr", "pl", "st", "tr", "zh"]
_VOWELS = ["a", "e", "i", "o", "u", "ae", "io", "ou"]
_CODAS = ["", "", "", "n", "r", "s", "l", "k", "x", "m"]


def cache_dir(bench_root: str, workload: str, size: str, seed: int) -> str:
    return os.path.join(
        bench_root, ".cache",
        f"{workload}-{size}-seed{seed}-g{synth.GENERATOR_VERSION}-b{INPUT_VERSION}",
    )


def _build(path: str, writer) -> str:
    """Run ``writer(tmp_dir)`` unless ``path`` is already complete."""
    if os.path.isdir(path):
        return path
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    writer(tmp)
    try:
        os.rename(tmp, path)
    except OSError:  # a concurrent run finished first
        shutil.rmtree(tmp, ignore_errors=True)
    return path


def template_convs(n_convs: int, seed: int) -> list:
    """``synth.generate`` results holding ``n_convs`` template conversations,
    exactly ``HOT_FRACTION`` of them hot (120 turns): ``synth`` draws the
    hot count per seed, which would make the input size a function of the
    seed.  Distinct generator seeds give distinct conv_ids."""
    n_hot = round(n_convs * HOT_FRACTION)
    return [synth.generate(n_convs=n_convs - n_hot, seed=2 * seed, hot_fraction=0.0),
            synth.generate(n_convs=n_hot, seed=2 * seed + 1, hot_fraction=1.0)]


def _write_golden(path: str, triples: dict) -> None:
    """``triples``: (subj, pred, obj) -> clean."""
    rows = sorted(triples)
    pq.write_table(
        pa.table({**{k: [r[i] for r in rows] for i, k in enumerate(("subj", "pred", "obj"))},
                  "clean": pa.array([triples[r] for r in rows], pa.bool_())}),
        path)


def kg_templates(bench_root: str, seed: int, n_convs: int) -> str:
    """Template transcripts like the repo's headline input.  Every golden
    triple is marked clean: each is supported by many rows, and the
    engine finds all of them on every seed tried (1-9, 201-205)."""
    def write(tmp: str) -> None:
        parts = template_convs(n_convs, seed)
        pq.write_table(pa.concat_tables([r.transcripts for r in parts]),
                       os.path.join(tmp, "transcripts.parquet"), row_group_size=16384)
        golden = pa.concat_tables([r.golden_triples for r in parts])
        _write_golden(os.path.join(tmp, "golden_triples.parquet"),
                      dict.fromkeys(zip(*(golden[k].to_pylist()
                                          for k in ("subj", "pred", "obj"))), True))
        synth.kb_to_parquet(synth.build_mini_kb(n_extra=200, seed=seed),
                            os.path.join(tmp, "kb"))

    return _build(cache_dir(bench_root, "kg_templates", f"c{n_convs}", seed), write)


def _name(rng: np.random.RandomState) -> str:
    def word() -> str:
        s = "".join(
            _ONSETS[rng.randint(len(_ONSETS))] + _VOWELS[rng.randint(len(_VOWELS))]
            for _ in range(3)
        ) + _CODAS[rng.randint(len(_CODAS))]
        return s.capitalize()

    return f"{word()} {word()}"


def diverse_kb(seed: int, n_people: int):
    """Mini-KB without filler plus ``n_people`` uniquely named persons.
    Returns (kb, [(qid, name, city_qid)])."""
    rng = np.random.RandomState(seed)
    kb = synth.build_mini_kb(n_extra=0, seed=seed)
    taken = {label.lower() for _, label, _, _ in kb.labels}
    cities = sorted(synth.CITIES)
    people = []
    for i in range(n_people):
        name = _name(rng)
        while name.lower() in taken:
            name = _name(rng)
        taken.add(name.lower())
        qid = f"Q7{100000 + i}"
        city = cities[rng.randint(len(cities))]
        kb.add_entity(qid, name, [], pr=float(rng.uniform(0.1, 2.0)))
        kb.add_edge(qid, "P31", "Q5", "NORMAL")
        kb.add_edge(qid, "P19", city, "NORMAL")
        people.append((qid, name, city))
    return kb, people


def kg_diverse_kb(bench_root: str, seed: int, n_people: int, n_convs: int) -> str:
    """Miss-dominated input: nearly every person mention is new to the
    lookup cache, and every row yields distinct triples."""
    def write(tmp: str) -> None:
        kb, people = diverse_kb(seed, n_people)
        synth.kb_to_parquet(kb, os.path.join(tmp, "kb"))
        rng = np.random.RandomState(seed + 1)
        conv, turn, text = [], [], []
        golden: dict[tuple[str, str, str], bool] = {}
        e, p = synth.WD_ENTITY_PREFIX, synth.WD_PROP_PREFIX

        def add(triple: tuple, clean: bool) -> None:
            golden[triple] = golden.get(triple, False) or clean

        for ci in range(n_convs):
            cid = f"conv-{seed}-{ci:06d}"
            for t in range(3 + int(rng.randint(8))):
                qid, name, city = people[rng.randint(len(people))]
                cells = [name, synth.CITIES[city][0]]
                typo = [rng.uniform() < TYPO_RATE for _ in cells]
                cells = [synth._typo(rng, c) if bad else c for c, bad in zip(cells, typo)]
                conv.append(cid)
                turn.append(t)
                text.append(CELL_SEP.join(cells))
                add((e + qid, p + "P19", e + city), not any(typo))
                add((e + qid, p + "P31", e + "Q5"), not typo[0])
                add((e + city, p + "P31", e + "Q515"), not typo[1])
        pq.write_table(
            pa.table({"conv_id": pa.array(conv, pa.string()),
                      "turn_idx": pa.array(turn, pa.int32()),
                      "text": pa.array(text, pa.string())}),
            os.path.join(tmp, "transcripts.parquet"), row_group_size=16384,
        )
        _write_golden(os.path.join(tmp, "golden_triples.parquet"), golden)

    size = f"p{n_people}-c{n_convs}"
    return _build(cache_dir(bench_root, "kg_diverse_kb", size, seed), write)


def serve_tables(bench_root: str, seed: int, n_tables: int, n_requests: int) -> str:
    """Writes ``kb/`` and ``requests.json``: {"tables": [...], "rows": [data
    rows per table], "truth": [[[row, col, qid, clean], ...], ...],
    "sequence": [pool index, ...]}.
    Truth coordinates are in the header-on-top orientation, which is the
    one the service annotates after it detects and undoes a transpose."""
    def write(tmp: str) -> None:
        parts = template_convs(n_tables, seed)
        kb = synth.build_mini_kb(n_extra=200, seed=seed)
        synth.kb_to_parquet(kb, os.path.join(tmp, "kb"))
        labels: dict[str, set[str]] = {}
        for qid, label, _, _ in kb.labels:
            labels.setdefault(qid, set()).add(label)
        col0_type = {t["cta"][0]: t["name"] for t in synth.TEMPLATES}
        rows_by_conv: dict[str, list[list[str]]] = {}
        template_of: dict[str, str] = {}
        truth_by_conv: dict[str, list[list]] = {}
        for res in parts:
            for r in res.golden_cta.to_pylist():
                if r["col_slot"] == 0:
                    template_of[r["conv_id"]] = col0_type[r["type_id"]]
            for c, x in zip(res.transcripts["conv_id"].to_pylist(),
                            res.transcripts["text"].to_pylist()):
                rows_by_conv.setdefault(c, []).append(x.split(CELL_SEP))
            for r in res.golden_cea.to_pylist():
                cell = rows_by_conv[r["conv_id"]][r["turn_idx"]][r["col_slot"]]
                truth_by_conv.setdefault(r["conv_id"], []).append(
                    [r["turn_idx"] + 1, r["col_slot"], r["entity_id"],
                     cell in labels.get(r["entity_id"], ())])
        rng = np.random.RandomState(seed + 2)
        tables, truth, n_rows = [], [], []
        for cid, rows in rows_by_conv.items():
            table = [HEADERS[template_of[cid]]] + rows
            if rng.uniform() < TRANSPOSED_FRACTION:
                table = [list(col) for col in zip(*table)]
            tables.append(table)
            n_rows.append(len(rows))
            truth.append(sorted(truth_by_conv.get(cid, [])))
        # finite Zipf over a seeded popularity order of the pool
        ranks = rng.permutation(len(tables))
        weights = 1.0 / np.arange(1, len(ranks) + 1) ** ZIPF_A
        draws = rng.choice(len(ranks), size=n_requests, p=weights / weights.sum())
        with open(os.path.join(tmp, "requests.json"), "w") as f:
            json.dump({"tables": tables, "rows": n_rows, "truth": truth,
                       "sequence": [int(ranks[d]) for d in draws]}, f)

    size = f"t{n_tables}-r{n_requests}"
    return _build(cache_dir(bench_root, "serve_tables", size, seed), write)
