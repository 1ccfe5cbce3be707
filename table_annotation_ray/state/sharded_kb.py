"""Sharded KB tier — the 100 TB path for the edge store and the label index.

The broadcast :func:`state.kb.load_kb` image is the SMALL-KB fast path:
it builds every subgraph into in-memory dicts and broadcasts them, and
every worker builds its own label index over the whole label table;
both cap out far below the reference's real KB (a 248 GB LMDB,
`data/hashmap/wd_hashmap_indexing.py:45`, and an ES index of ~10^8
labels).  This tier is the scale path: K dedicated actors each own the
``crc32(entity) % K`` shard of the edge, meta and label tables, read
once by the same loader, ``load_kb(kb_dir, K, i)``, from either on-disk
layout on any filesystem (on the hash-bucketed layout
:func:`state.kb_build.build_edges_from_dump` writes, an actor reads only
the bucket files that can hold its entities).  Each actor holds a
:class:`~.kb.KBReader` and a :class:`~.lookup_index.LabelIndex` over its
shard, so one process per shard serves both.

Usage::

    tier = shard_kb(kb_dir, num_shards=4, lookup=cfg.lookup)  # the job's process
    AnnotateBucket(None, cfg, tier)
    # or run_kg_pipeline(..., sharded_kb=True), which calls shard_kb

:func:`shard_kb` builds one tier per (Ray session, KB content, K,
lookup config) and keeps it in the calling process's worker state, like
:func:`~.kb.broadcast_kb`'s ref: later jobs reuse its actors, and the
annotate state keyed on its actor ids survives across jobs.  The actors
reserve no CPU (an actor pool must never hold the CPUs the annotate
tasks need) and are spread over the nodes.

KB subgraphs.  Annotate workers read the edge store through
:class:`ShardedKBReader`, a drop-in :class:`~.kb.KBReader` whose three
primitive getters are backed by batched shard round trips + a
per-worker LRU (the reference's popularity-cutoff cache,
`annotation_models.py:119-147`, generalized to an LRU).  The shard
union is the full table and every derived getter
(`get_types_of_entity`, `get_supertypes_of_type`,
`get_symbol_of_unit_entity`) routes through the primitives, so
annotation output is IDENTICAL to the broadcast image
(tests/test_sharded_kb.py).  Round-trip budget per conversation (via
:meth:`ShardedKBReader.prefetch`, called once per conversation by the
annotator's lookup step): one batched fan-out for the candidate
entities, one for their 1-hop entity neighbors' metadata (popularity
weights in subgraph intersection), and one per P279 level for the
3-level type hierarchy — ~5 batched rounds instead of one RPC per
entity per loop iteration.

Label index.  The tier itself is the annotator's ``search_batch``
index: a batch's unique uncached mentions go to every shard in one
round trip (K parallel actor calls), each shard scores its rows
(``LabelIndex.scored_candidates_batch``: per-entity partials only),
and the tier merges the partials and applies the query-global scoring
tail (:func:`~.lookup_index.finalize_candidates`).  The shards' IDF
weights are corpus-global: at build, the shards' disjoint
(token_df, n_docs) partials are summed and pushed back, so no process
holds the whole label table.  The result is EXACTLY the single
index's while ``cfg.max_hits`` does not bind.  A mention with more
filtered candidate rows than max_hits is truncated layout-dependently
in ANY index build; the tier then evaluates the union of per-shard
top-max_hits rows — a superset of a single index's rows (recall never
lower; see ``LabelIndex.scored_candidates``).

This is a deliberate drop to raw ``@ray.remote`` actors: a large
read-only index serving point lookups is the one shape the Dataset API
cannot express.
"""

from __future__ import annotations

import ray

from ..config import LookupConfig
from .kb import (
    ENTITY_RANKS,
    SUBCLASS_OF,
    TRANSITIVE_PIDS,
    TYPE_PROPERTIES,
    KBReader,
    kb_digest,
    load_kb,
    owner,
    session_state,
)
from .lookup_index import LabelIndex, finalize_candidates, merge_candidates


@ray.remote
class KBShardActor:
    """Owns one entity-hash shard of the KB, loaded by the actor itself
    (no process holds the full KB): batched point lookups through
    a :class:`~.kb.KBReader` (a missing id gets the in-memory reader's
    defaults) and shard-local label scoring through a
    :class:`~.lookup_index.LabelIndex`, whose IDF weighting counts only
    the shard's rows until :meth:`set_df_stats` installs the
    corpus-global document frequencies."""

    def __init__(self, kb_dir: str, num_shards: int, shard_id: int, cfg: LookupConfig):
        kb = load_kb(kb_dir, num_shards, shard_id)
        self.reader = KBReader(kb)
        self.index = LabelIndex(kb, cfg)

    # -- KB subgraphs ------------------------------------------------------
    def fetch(self, entity_ids: list[str]) -> list[tuple[dict, str, int]]:
        """(subgraph, label, num_edges) per id."""
        r = self.reader
        return [
            (r.get_subgraph_of_entity(e), r.get_label_of_entity(e), r.get_num_edges(e))
            for e in entity_ids
        ]

    def meta_batch(self, entity_ids: list[str]) -> list[int]:
        """num_edges only — the popularity weight for subgraph
        intersection nodes; much cheaper to ship than full subgraphs."""
        return [self.reader.get_num_edges(e) for e in entity_ids]

    def gazetteer_partial(self) -> dict[str, str]:
        return self.reader.build_gazetteer()

    def num_entities(self) -> int:
        return len(self.reader.kb.subgraphs)

    # -- label index -------------------------------------------------------
    def scored_batch(self, mentions: list[str]) -> list[dict]:
        return self.index.scored_candidates_batch(mentions)

    def num_rows(self) -> int:
        return len(self.index.rows)

    def df_partial(self) -> tuple[dict, int]:
        """Locally-counted (token_df, n_docs) over this shard's rows —
        shards are disjoint, so summing partials gives the global."""
        return self.index.token_df, len(self.index.rows)

    def set_df_stats(self, stats: tuple) -> None:
        self.index.token_df, self.index.n_docs = stats


class ShardedKBReader(KBReader):
    """KBReader whose primitives are batched shard fetches + an LRU.
    Derived getters (types, supertypes, unit symbols) are inherited —
    they already route through the primitives."""

    def __init__(self, actors: list, num_shards: int, cache_size: int = 200_000):
        self.actors = actors
        self.num_shards = num_shards
        self.cache_size = cache_size
        self.kb = None  # no local image — everything goes through shards
        self.transitive_pids = TRANSITIVE_PIDS
        # True LRU: dict insertion order is recency order; hits move the
        # entry to the end (dict re-insert), _evict pops the front.
        self._cache: dict[str, tuple] = {}  # eid -> (subgraph, label, num_edges)
        self._meta: dict[str, int] = {}  # eid -> num_edges (light cache)
        self.hits = 0
        self.misses = 0

    # -- plumbing ----------------------------------------------------------
    def _evict(self) -> None:
        while len(self._cache) > self.cache_size:
            self._cache.pop(next(iter(self._cache)))
        while len(self._meta) > self.cache_size:
            self._meta.pop(next(iter(self._meta)))

    def _touch(self, eid: str, entry: tuple) -> None:
        """Move-to-end on hit (del+reinsert on a plain dict is the
        cheapest LRU bump available without OrderedDict's overhead)."""
        del self._cache[eid]
        self._cache[eid] = entry

    def cache_stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else None,
            "cached": len(self._cache),
            "meta_cached": len(self._meta),
        }

    def _fetch(self, ids: list[str]) -> None:
        """One batched fan-out: ids grouped by owning shard, all shard
        calls in flight together."""
        uniq = dict.fromkeys(ids)
        todo = [e for e in uniq if e not in self._cache]
        self.misses += len(todo)
        self.hits += len(uniq) - len(todo)
        if not todo:
            return
        by_shard: dict[int, list[str]] = {}
        for e in todo:
            by_shard.setdefault(owner(e, self.num_shards), []).append(e)
        futures = {
            sid: self.actors[sid].fetch.remote(batch) for sid, batch in by_shard.items()
        }
        for sid, fut in futures.items():
            for eid, entry in zip(by_shard[sid], ray.get(fut)):
                self._cache[eid] = entry
        self._evict()

    def _fetch_meta(self, ids: list[str]) -> None:
        todo = [
            e for e in dict.fromkeys(ids) if e not in self._cache and e not in self._meta
        ]
        if not todo:
            return
        by_shard: dict[int, list[str]] = {}
        for e in todo:
            by_shard.setdefault(owner(e, self.num_shards), []).append(e)
        futures = {
            sid: self.actors[sid].meta_batch.remote(batch)
            for sid, batch in by_shard.items()
        }
        for sid, fut in futures.items():
            for eid, n in zip(by_shard[sid], ray.get(fut)):
                self._meta[eid] = n
        self._evict()

    def _entry(self, eid: str) -> tuple:
        entry = self._cache.get(eid)
        if entry is None:
            self._fetch([eid])  # counts the miss
            entry = self._cache[eid]
        else:
            self.hits += 1
            self._touch(eid, entry)
        return entry

    # -- primitives --------------------------------------------------------
    def get_subgraph_of_entity(self, entity_id: str) -> dict:
        return self._entry(entity_id)[0]

    def get_label_of_entity(self, entity_id: str) -> str:
        return self._entry(entity_id)[1]

    def get_num_edges(self, entity_id: str) -> int:
        entry = self._cache.get(entity_id)
        if entry is not None:
            self.hits += 1
            self._touch(entity_id, entry)
            return entry[2]
        n = self._meta.get(entity_id)
        if n is not None:
            self.hits += 1
            return n
        return self._entry(entity_id)[2]

    # -- batched warm-up (called once per conversation) --------------------
    def prefetch(self, entity_ids) -> None:
        """Fetch the candidate entities, then walk the type hierarchy
        (TYPE_PROPERTIES level 1, P279 levels 2–3) in batched rounds, and
        bulk-load num_edges for the candidates' 1-hop entity neighbors
        (the subgraph-intersection popularity weights).  Everything the
        annotation loops touch afterwards is then a local cache hit."""
        frontier = [e for e in dict.fromkeys(entity_ids) if e]
        self._fetch(frontier)

        # neighbor metadata for pair-relation popularity weighting
        neighbors: set[str] = set()
        type_frontier: set[str] = set()
        for eid in frontier:
            sub = self._cache.get(eid, ({},))[0]
            for pid, objs in sub.items():
                bare = pid[3:] if pid.startswith("(-)") else pid
                is_type_prop = bare in TYPE_PROPERTIES or bare == SUBCLASS_OF
                if pid.startswith("(-)"):
                    neighbors.update(objs)
                else:
                    for obj, kind in objs.items():
                        if kind in ENTITY_RANKS:
                            neighbors.add(obj)
                            if is_type_prop:
                                type_frontier.add(obj)
        self._fetch_meta(list(neighbors))

        # P279 walk: level-1 types fetched fully (their P279 edges build
        # level 2; their subgraphs also serve CTA type-graphs), then two
        # more P279 rounds for levels 2 and 3
        for _ in range(3):
            if not type_frontier:
                break
            batch = sorted(type_frontier)
            self._fetch(batch)
            nxt: set[str] = set()
            for t in batch:
                sup = self._cache.get(t, ({},))[0].get(SUBCLASS_OF)
                if sup:
                    # entity-ranked edges only — a literal P279 object is
                    # not an entity id and must not enter the fetch
                    # frontier (mirrors KBReader.get_supertypes_of_type)
                    nxt.update(o for o, k in sup.items() if k in ENTITY_RANKS)
            type_frontier = {t for t in nxt if t not in self._cache}

    def build_gazetteer(self) -> dict[str, str]:
        """Merged shard partials — each shard owns both its label rows and
        its entities' P31 edges (same hash), so partials are complete."""
        gaz: dict[str, str] = {}
        for part in ray.get([a.gazetteer_partial.remote() for a in self.actors]):
            gaz.update(part)
        return gaz


class ShardedKB:
    """Caller-side handle of the K shard actors: hands out per-worker
    KB readers (:meth:`make_reader`) and is itself the label index
    (:meth:`search_batch`).  Pass it to the annotate stage instead of a
    KB image; it pickles as actor handles + shard count + config."""

    def __init__(self, actors: list, cfg: LookupConfig):
        self.actors = actors
        self.num_shards = len(actors)
        self.cfg = cfg
        self._cache: dict[str, tuple] = {}

    def key(self) -> tuple:
        """Stable identity across pickling (worker-state cache key)."""
        return tuple(a._actor_id.hex() for a in self.actors)

    @classmethod
    def create(cls, kb_dir: str, num_shards: int, cfg: LookupConfig) -> "ShardedKB":
        """Start the actors (each loads its own shard of ``kb_dir``),
        then sum their disjoint IDF partials and push the corpus-global
        stats back.  Use :func:`shard_kb`, which builds one tier per
        session and KB."""
        actors = [
            KBShardActor.options(num_cpus=0, scheduling_strategy="SPREAD").remote(
                kb_dir, num_shards, i, cfg
            )
            for i in range(num_shards)
        ]
        token_df: dict[str, int] = {}
        n_docs = 0
        for part_df, part_n in ray.get([a.df_partial.remote() for a in actors]):
            n_docs += part_n
            for tok, c in part_df.items():
                token_df[tok] = token_df.get(tok, 0) + c
        stats = (token_df, max(1, n_docs))
        ray.get([a.set_df_stats.remote(stats) for a in actors])
        return cls(actors, cfg)

    def make_reader(self, cache_size: int = 200_000) -> ShardedKBReader:
        return ShardedKBReader(self.actors, self.num_shards, cache_size)

    def search_batch(self, mentions: list[str], k: int | None = None) -> list[list[tuple[str, float]]]:
        """Fan out the unique uncached mentions to every shard, merge,
        finalize.  One round trip of K actor calls per batch."""
        # answer the batch from a LOCAL view first: FIFO eviction below
        # may evict a mention the CURRENT batch still needs (or, with
        # more uniques than cache_size, the new entries evict each
        # other) — reading back through self._cache raised KeyError
        local: dict = {m: self._cache[m] for m in mentions if m in self._cache}
        uniq = [m for m in dict.fromkeys(mentions) if m not in local]
        if uniq:
            futures = [a.scored_batch.remote(uniq) for a in self.actors]
            per_shard = ray.get(futures)  # K lists aligned with uniq
            for i, m in enumerate(uniq):
                merged = merge_candidates([shard[i] for shard in per_shard])
                local[m] = self._cache[m] = finalize_candidates(merged, self.cfg)
                if len(self._cache) > self.cfg.cache_size:
                    self._cache.pop(next(iter(self._cache)))
        return [list(local[m][:k]) if k else list(local[m]) for m in mentions]

    def search(self, mention: str, k: int | None = None) -> list[tuple[str, float]]:
        return self.search_batch([mention], k)[0]


def shard_kb(kb_dir: str, num_shards: int = 4, lookup: LookupConfig | None = None) -> ShardedKB:
    """The :class:`ShardedKB` of ``kb_dir``, one per (Ray session, KB
    content, ``num_shards``, lookup config), kept in the calling process's
    worker state like :func:`~.kb.broadcast_kb`'s ref: a later job over the
    same KB reuses its actors, and a tier of an ended session is parked,
    never released into the new one."""
    lookup = lookup or LookupConfig()
    return session_state(
        "sharded_kb", (kb_digest(kb_dir), num_shards, lookup),
        lambda: ShardedKB.create(kb_dir, num_shards, lookup),
    )
