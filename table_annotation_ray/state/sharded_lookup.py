"""Sharded lookup-actor tier — the 100 TB path for the fuzzy label index.

A single per-worker :class:`LabelIndex` holds the WHOLE label table; at
real-Wikidata scale (~10^8 labels, ~10 GB index) that no longer fits
beside the annotate state (docs/SCALING.md "known limits").  This tier
shards the label table by ``crc32(entity) % K`` across K dedicated Ray
actors; a query fans out to all shards (each 1/K the size), and the
router merges shard partials and applies the query-global scoring tail
— EXACTLY the single-index result (tested), because
``LabelIndex.scored_candidates`` computes only per-entity partials and
``finalize_candidates`` owns every query-global step.  Boundary: the
exactness guarantee holds while ``cfg.max_hits`` does not bind; a
mention with more filtered candidate rows than max_hits is truncated
layout-dependently in ANY index build, and this tier then evaluates
the union of per-shard top-max_hits — a superset of a single index's
rows (recall never lower; see lookup_index.scored_candidates).

This is the one place the engine drops to raw ``@ray.remote`` actors:
the index is large, shared, read-only state serving point lookups —
the Dataset API has no primitive for a serving tier (ray_guide:
"drop to raw actors only where the Dataset API genuinely can't
express the semantics").

Each shard actor reads its own rows of the label table with
``load_kb(kb_dir, K, i, labels_only=True)`` (any layout, any
filesystem; the label table has no buckets, so every shard scans it and
keeps its own entities' rows); the corpus-global IDF stats are then
merged from the shards' disjoint partials and pushed back, so the
driver never holds the label table.

Usage::

    tier = ShardedLookupTier.create_from_parquet(kb_dir, num_shards=8)  # driver side
    candidates = lookup_candidates(mentions, kb_ref, lookup_tier=tier)
    # stages/lookup_stage.py; or AnnotateBucket(..., lookup_tier=tier)

Batching: :meth:`ShardedLookupTier.search_batch` sends a batch's UNIQUE
mentions to every shard in one round trip (K parallel actor calls per
batch), so per-mention overhead is amortized; shard-side LRU caches
repeat mentions across batches.
"""

from __future__ import annotations

import ray

from ..config import LookupConfig
from .kb import load_kb
from .lookup_index import LabelIndex, finalize_candidates, merge_candidates


@ray.remote
class LookupShardActor:
    """Holds a LabelIndex over one entity-hash shard of the label table.
    Its IDF weighting counts only the shard's rows until
    :meth:`set_df_stats` installs the corpus-global token document
    frequencies (the merge of the disjoint shard partials), after which
    it equals the single index's."""

    def __init__(self, kb_dir: str, num_shards: int, shard_id: int, cfg: LookupConfig):
        self.index = LabelIndex(load_kb(kb_dir, num_shards, shard_id, labels_only=True), cfg)

    def scored_batch(self, mentions: list[str]) -> list[dict]:
        return self.index.scored_candidates_batch(mentions)

    def num_rows(self) -> int:
        return len(self.index.rows)

    def df_partial(self) -> tuple[dict, int]:
        """Locally-counted (token_df, n_docs) over this shard's rows —
        shards are disjoint, so summing partials gives the global."""
        return self.index.token_df, len(self.index.rows)

    def set_df_stats(self, df_stats: tuple) -> None:
        self.index.token_df, self.index.n_docs = df_stats


class ShardedLookupTier:
    def __init__(self, actors: list, cfg: LookupConfig):
        self.actors = actors
        self.cfg = cfg
        self._cache: dict[str, tuple] = {}

    def key(self) -> tuple:
        """Stable identity across pickling (worker-state cache key)."""
        return tuple(a._actor_id.hex() for a in self.actors)

    @classmethod
    def create_from_parquet(
        cls,
        kb_dir: str,
        num_shards: int = 4,
        cfg: LookupConfig | None = None,
        num_cpus_per_shard: float = 0.5,
    ) -> "ShardedLookupTier":
        """Each shard actor loads its own rows of the label table, then
        corpus-global IDF stats are assembled by merging the shards'
        disjoint partials (one small dict per shard) and pushed back —
        the driver never materializes the label table.  Result is
        EXACTLY the single-index scoring (tested)."""
        cfg = cfg or LookupConfig()
        actors = [
            LookupShardActor.options(num_cpus=num_cpus_per_shard).remote(
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

    def search_batch(self, mentions: list[str], k: int | None = None) -> list[list[tuple[str, float]]]:
        """Fan out the unique uncached mentions to every shard, merge,
        finalize.  One round trip of K actor calls per batch."""
        # answer the batch from a LOCAL view first: FIFO eviction below
        # may evict a mention the CURRENT batch still needs (or, with
        # more uniques than cache_size, the new entries evict each
        # other) — reading back through self._cache raised KeyError
        # (code-review r4)
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
