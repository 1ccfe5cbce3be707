"""Sharded KB-subgraph tier — the 100 TB path for the edge store.

The broadcast :func:`state.kb.load_kb` image is the SMALL-KB fast path:
it builds every subgraph into driver dicts and broadcasts them, which
caps out far below the reference's real KB (a 248 GB LMDB,
`data/hashmap/wd_hashmap_indexing.py:45`).  This tier is the scale
path: K dedicated actors each own the ``crc32(entity) % K`` shard of the
edge, meta and label tables, read by the same loader,
``load_kb(kb_dir, K, i)``, from either on-disk layout on any filesystem.
On the hash-bucketed layout :func:`state.kb_build.build_edges_from_dump`
writes, each actor reads only the bucket files that can hold its
entities.  Annotate workers talk to the tier through
:class:`ShardedKBReader`, a drop-in :class:`~.kb.KBReader` whose three
primitive getters are backed by batched shard round trips + a
per-worker LRU (the reference's popularity-cutoff cache,
`annotation_models.py:119-147`, generalized to an LRU).

Usage::

    tier = ShardedKBTier.create_from_parquet(kb_dir, num_shards=4)  # driver side
    AnnotateBucket(None, cfg, kb_tier=tier, lookup_tier=...)
    # or run_kg_pipeline(..., sharded_kb=True), which builds both tiers

Equivalence: the shard union is the full table and every derived getter
(`get_types_of_entity`, `get_supertypes_of_type`,
`get_symbol_of_unit_entity`) routes through the primitives, so
annotation output is IDENTICAL to the broadcast image
(tests/test_sharded_kb.py asserts byte-equality of the triples).

Round-trip budget per conversation (via :meth:`ShardedKBReader.prefetch`,
called once per conversation by the annotator's lookup step):
one batched fan-out for the candidate entities, one for their 1-hop
entity neighbors' metadata (popularity weights in subgraph
intersection), and one per P279 level for the 3-level type hierarchy —
~5 batched rounds instead of one RPC per entity per loop iteration.

Like state/sharded_lookup.py, this is a deliberate drop to raw
``@ray.remote`` actors: a large read-only index serving point lookups
is the one shape the Dataset API cannot express.
"""

from __future__ import annotations

import ray

from .kb import (
    ENTITY_RANKS,
    SUBCLASS_OF,
    TRANSITIVE_PIDS,
    TYPE_PROPERTIES,
    KBReader,
    load_kb,
    owner,
)


@ray.remote
class KBShardActor:
    """Owns one entity-hash shard of the KB graph, loaded by the actor
    itself (the driver never holds the full KB); serves batched point
    lookups through :class:`~.kb.KBReader`, so a missing id gets the
    in-memory reader's defaults."""

    def __init__(self, kb_dir: str, num_shards: int, shard_id: int):
        self.reader = KBReader(load_kb(kb_dir, num_shards, shard_id))

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


class ShardedKBTier:
    """Driver-side handle: creates the shard actors and hands out
    per-worker readers.  Pass the tier (it pickles as actor handles +
    shard count) into the annotate stage instead of a KB image."""

    def __init__(self, actors: list, num_shards: int):
        self.actors = actors
        self.num_shards = num_shards

    def key(self) -> tuple:
        """Stable identity across pickling (worker-state cache key)."""
        return tuple(a._actor_id.hex() for a in self.actors)

    @classmethod
    def create_from_parquet(
        cls,
        kb_dir: str,
        num_shards: int = 4,
        num_cpus_per_shard: float = 0.5,
    ) -> "ShardedKBTier":
        """Each actor loads its own shard of ``kb_dir`` with
        :func:`~.kb.load_kb` — the driver never materializes the KB."""
        actors = [
            KBShardActor.options(num_cpus=num_cpus_per_shard).remote(
                kb_dir=kb_dir, num_shards=num_shards, shard_id=i
            )
            for i in range(num_shards)
        ]
        return cls(actors, num_shards)

    def make_reader(self, cache_size: int = 200_000) -> ShardedKBReader:
        return ShardedKBReader(self.actors, self.num_shards, cache_size)
