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

Usage::

    tier = ShardedLookupTier.create(kb, num_shards=8)   # driver side
    candidates = lookup_candidates(mentions, kb_ref, lookup_tier=tier)
    # stages/lookup_stage.py; or AnnotateBucket(..., lookup_tier=tier)

Batching: :meth:`ShardedLookupTier.search_batch` sends a batch's UNIQUE
mentions to every shard in one round trip (K parallel actor calls per
batch), so per-mention overhead is amortized; shard-side LRU caches
repeat mentions across batches.
"""

from __future__ import annotations

import zlib

import pyarrow as pa

import ray

from ..config import LookupConfig
from .kb import KBData, kb_columns
from .lookup_index import LabelIndex, finalize_candidates, merge_candidates


@ray.remote
class LookupShardActor:
    """Holds a LabelIndex over one entity-hash shard of the label table.
    ``df_stats`` carries corpus-global token document frequencies so the
    shard's IDF weighting equals the single index's.

    Construction paths: pass ``kb_shard`` (pre-sharded image, small-KB /
    test path) or ``kb_dir`` + ``num_shards`` + ``shard_id`` (the actor
    loads its own slice of kb_labels.parquet — the driver never holds
    the label table).  In the parquet path ``df_stats`` is installed
    afterwards via :meth:`set_df_stats` (global = merge of the disjoint
    shard partials)."""

    def __init__(
        self,
        kb_shard: KBData | None,
        cfg: LookupConfig,
        df_stats: tuple | None,
        kb_dir: str | None = None,
        num_shards: int = 1,
        shard_id: int = 0,
    ):
        if kb_shard is None:
            kb_shard = load_label_shard(kb_dir, num_shards, shard_id)
        self.index = LabelIndex(kb_shard, cfg, df_override=df_stats)

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


def load_label_shard(kb_dir: str, num_shards: int, shard_id: int) -> KBData:
    """Read only this shard's rows of kb_labels.parquet (entity-hash
    partition; at dump scale the table is bucket-partitioned and the
    scan prunes to the shard's own files)."""
    import os

    import pyarrow.parquet as pq

    kb = KBData()
    labels = pq.read_table(os.path.join(kb_dir, "kb_labels.parquet"))
    # ownership mask from the entity column alone, Arrow-filter, THEN
    # convert only the kept 1/K of rows to Python objects
    (entities,) = kb_columns(labels, "kb_labels.parquet", ("entity",))
    mask = pa.array([zlib.crc32(e.encode()) % num_shards == shard_id for e in entities], pa.bool_())
    kb.label_rows.extend(zip(*kb_columns(labels.filter(mask), "kb_labels.parquet")))
    return kb


def shard_kb_labels(kb: KBData, num_shards: int) -> list[KBData]:
    """Split only the label rows by crc32(entity); shard KBData carries
    just its label slice (the lookup tier needs nothing else)."""
    shards = [KBData() for _ in range(num_shards)]
    for row in kb.label_rows:
        shards[zlib.crc32(row[0].encode()) % num_shards].label_rows.append(row)
    return shards


class ShardedLookupTier:
    def __init__(self, actors: list, cfg: LookupConfig):
        self.actors = actors
        self.cfg = cfg
        self._cache: dict[str, tuple] = {}

    def key(self) -> tuple:
        """Stable identity across pickling (worker-state cache key)."""
        return tuple(a._actor_id.hex() for a in self.actors)

    @classmethod
    def create(
        cls,
        kb: KBData,
        num_shards: int = 4,
        cfg: LookupConfig | None = None,
        num_cpus_per_shard: float = 0.5,
    ) -> "ShardedLookupTier":
        cfg = cfg or LookupConfig()
        from ..functions.text import normalize_label

        # corpus-global document frequencies (one cheap pass; at dump
        # scale this is a groupby-count over the label table)
        token_df: dict[str, int] = {}
        n_docs = 0
        for _entity, label, _origin, _pr in kb.label_rows:
            norm = normalize_label(label).lower()
            if not norm:
                continue
            n_docs += 1
            for tok in set(norm.split()):
                token_df[tok] = token_df.get(tok, 0) + 1
        df_stats = (token_df, max(1, n_docs))
        actors = [
            LookupShardActor.options(num_cpus=num_cpus_per_shard).remote(
                shard, cfg, df_stats
            )
            for shard in shard_kb_labels(kb, num_shards)
        ]
        return cls(actors, cfg)

    @classmethod
    def create_from_parquet(
        cls,
        kb_dir: str,
        num_shards: int = 4,
        cfg: LookupConfig | None = None,
        num_cpus_per_shard: float = 0.5,
    ) -> "ShardedLookupTier":
        """Fully driverless scale path: each shard actor loads its own
        slice of kb_labels.parquet, then corpus-global IDF stats are
        assembled by merging the shards' disjoint partials (one small
        dict per shard) and pushed back — the driver never materializes
        the label table.  Result is EXACTLY the single-index scoring
        (same guarantee as :meth:`create`, tested)."""
        cfg = cfg or LookupConfig()
        actors = [
            LookupShardActor.options(num_cpus=num_cpus_per_shard).remote(
                None, cfg, None, kb_dir=kb_dir, num_shards=num_shards, shard_id=i
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
