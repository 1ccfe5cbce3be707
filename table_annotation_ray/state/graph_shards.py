"""Shard-actor PageRank tier — the long-iteration fix for the
Dataset-loop trade-off documented in ``stages/graph.py``: the Dataset
formulation re-shuffles the STATIC edge set through the scatter
exchange every iteration; here each shard actor loads its edges ONCE
and iterations exchange only (dst, contribution) partials — a per-round
payload proportional to nodes, not edges.

Layout (mirrors the ``state/sharded_kb.py`` idiom):

* **ownership** — node n is owned by ``hash64(n) % num_shards``; shard
  k holds the rank/out-degree state of its owned nodes AND all
  out-edges of those nodes (src ownership = rank ownership, so scatter
  needs no remote rank reads).
* **setup** — ONE bucket exchange partitions the edge set by owner and
  each group is written as Parquet under a scratch dir; shard actors
  then read only their file (the kb_build bucketed-Parquet pattern —
  resumable, never routed through the driver).  A second tiny routing
  round registers dst-only nodes with their owners.
* **iterate** — per round each shard (a) reports its dangling-rank
  partial, (b) computes per-destination-shard contribution partials
  (vectorized per-dst pre-sum BEFORE the exchange — the same map-side
  combine as the Dataset scatter), and the driver passes the K×K small
  object refs to their destination shards, (c) applies incoming
  partials in canonical sender order with sorted per-dst sums, so the
  result is run-to-run deterministic (pytest: rtol 1e-9 equality with
  stages/graph.py::pagerank, which itself matches numpy power
  iteration).

Scale: per-round driver traffic is K dangling floats + K×K object
refs; contribution data moves shard-to-shard through the object store.
Edges are read from storage exactly once per job.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

_MULT = np.uint64(0x9E3779B97F4A7C15)


def _owner(ids: np.ndarray, num_shards: int) -> np.ndarray:
    u = ids.astype(np.uint64)
    return (((u * _MULT) >> np.uint64(32)) % np.uint64(num_shards)).astype(
        np.int64
    )


@ray.remote
class GraphShard:
    def __init__(self, path: str, shard_id: int, num_shards: int, damping: float):
        self.k = shard_id
        self.K = num_shards
        self.d = damping
        if os.path.exists(path):
            t = pq.read_table(path)
            src = t["src"].to_numpy().astype(np.int64)
            dst = t["dst"].to_numpy().astype(np.int64)
        else:  # a shard may own no edges
            src = dst = np.empty(0, dtype=np.int64)
        # owned nodes seen as srcs, with out-degree (sorted by id);
        # edges_to is built AFTER node registration (rebuild_src_index)
        self.nodes, self.out_deg = (
            np.unique(src, return_counts=True)
            if len(src)
            else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        )
        self._dst_by_owner = {}
        if len(dst):
            downer = _owner(dst, self.K)
            for j in range(self.K):
                m = downer == j
                if m.any():
                    self._dst_by_owner[j] = np.unique(dst[m])
        self.edges_to: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.rank: np.ndarray | None = None

    def dst_nodes_by_owner(self) -> dict[int, np.ndarray]:
        """Distinct destination ids per owner — setup routing so owners
        can register dst-only nodes."""
        return self._dst_by_owner

    def register_nodes(self, incoming: list[np.ndarray]) -> int:
        extra = np.unique(np.concatenate([a for a in incoming if len(a)]))\
            if any(len(a) for a in incoming) else np.empty(0, dtype=np.int64)
        new = np.setdiff1d(extra, self.nodes)
        if len(new):
            self.nodes = np.concatenate([self.nodes, new])
            self.out_deg = np.concatenate(
                [self.out_deg, np.zeros(len(new), dtype=np.int64)]
            )
            order = np.argsort(self.nodes, kind="mergesort")
            self.nodes, self.out_deg = self.nodes[order], self.out_deg[order]
        return len(self.nodes)

    def finalize_nodes(self, n_total: int) -> None:
        self.N = n_total
        self.rank = np.full(len(self.nodes), 1.0 / n_total)

    def rebuild_src_index(self, raw_path: str) -> None:
        """Re-map edge src → local node index after node registration
        (indices into the final sorted node table)."""
        if not os.path.exists(raw_path):
            return
        t = pq.read_table(raw_path)
        src = t["src"].to_numpy().astype(np.int64)
        dst = t["dst"].to_numpy().astype(np.int64)
        order = np.argsort(dst, kind="mergesort")
        src, dst = src[order], dst[order]
        downer = _owner(dst, self.K)
        self.edges_to = {}
        for j in range(self.K):
            m = downer == j
            if m.any():
                si = np.searchsorted(self.nodes, src[m])
                self.edges_to[j] = (si, dst[m])

    def dangling_partial(self) -> float:
        r = self.rank[self.out_deg == 0]
        return float(np.sum(np.sort(r)))

    def scatter(self):
        """Per destination shard j (list position j): (sorted dst ids,
        pre-summed contributions).  Called with ``num_returns=K`` so the
        driver holds only K object REFS per sender and the contribution
        arrays (node-cardinality data) move shard-to-shard through the
        object store — never materialized driver-side (review r4 #5).
        With K == 1 the single tuple is returned bare (num_returns=1
        wraps the whole return value in one ref)."""
        per_edge_rank = self.rank / np.maximum(self.out_deg, 1)
        out = []
        for j in range(self.K):
            if j not in self.edges_to:
                out.append((np.empty(0, dtype=np.int64), np.empty(0)))
                continue
            si, dv = self.edges_to[j]
            c = per_edge_rank[si]
            # dv sorted by construction: segment-sum per dst
            bounds = np.r_[0, np.flatnonzero(dv[1:] != dv[:-1]) + 1, len(dv)]
            dsum = np.add.reduceat(c, bounds[:-1])
            out.append((dv[bounds[:-1]], dsum))
        return out[0] if self.K == 1 else out

    def gather(self, teleport: float, *incoming) -> None:
        """Apply contributions in canonical (sender) order.  Each piece
        arrives as a TOP-LEVEL arg so Ray resolves the sender's object
        ref with a direct object-store transfer."""
        new = np.full(len(self.nodes), teleport)
        for dv, cv in incoming:
            pos = np.searchsorted(self.nodes, dv)
            new[pos] += self.d * cv
        self.rank = new

    def ranks(self) -> pd.DataFrame:
        return pd.DataFrame({"node": self.nodes, "rank": self.rank})

    def write_ranks(self, out_dir: str) -> dict:
        """Each shard writes its own Parquet part — node-cardinality
        state never routes through the driver."""
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"ranks_shard_{self.k}.parquet")
        pq.write_table(
            pa.table({"node": self.nodes, "rank": self.rank}), path
        )
        return {"shard": self.k, "rows": int(len(self.nodes)), "path": path}


def pagerank_sharded(
    edges: rd.Dataset,
    src: str = "src",
    dst: str = "dst",
    damping: float = 0.85,
    iters: int = 10,
    num_shards: int = 8,
    scratch_dir: str | None = None,
    out_dir: str | None = None,
):
    """Edges read once, iterations exchange only rank partials.
    With ``out_dir`` each shard writes its own rank Parquet part and a
    manifest list is returned — node-cardinality state never touches
    the driver (the at-scale path).  Without it, returns a pandas frame
    (node, rank) — convenient below single-process scale.  The shard actors
    reserve no CPU and are spread over the nodes: reserved actor CPUs
    left a 1-CPU session too few for its own tasks."""
    import glob
    import shutil

    root = scratch_dir or tempfile.mkdtemp(prefix="pr_shards_", dir="/tmp")
    os.makedirs(root, exist_ok=True)
    # a reused scratch_dir may hold shard files from a PRIOR run; a shard
    # that owns no edges THIS run would silently load the stale file
    # (review r4; same bug class as pagerank_auto's ranks-side wipe)
    for stale in glob.glob(os.path.join(root, "shard_*.parquet")):
        os.remove(stale)

    def tag(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "src": b[src].to_numpy(dtype=np.int64),
                "dst": b[dst].to_numpy(dtype=np.int64),
                "__owner": _owner(b[src].to_numpy(dtype=np.int64), num_shards),
            }
        )

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        k = int(g["__owner"].iloc[0])
        path = os.path.join(root, f"shard_{k}.parquet")
        pq.write_table(
            pa.Table.from_pandas(g[["src", "dst"]], preserve_index=False), path
        )
        return pd.DataFrame({"shard": [k], "rows": [len(g)]})

    (
        edges.map_batches(tag, batch_format="pandas")
        .groupby("__owner")
        .map_groups(write_shard, batch_format="pandas")
        .materialize()
    )

    actors = [
        GraphShard.options(num_cpus=0, scheduling_strategy="SPREAD").remote(
            os.path.join(root, f"shard_{k}.parquet"), k, num_shards, damping
        )
        for k in range(num_shards)
    ]
    # register dst-only nodes with their owners (one routing round)
    routed = ray.get([a.dst_nodes_by_owner.remote() for a in actors])
    counts = ray.get(
        [
            a.register_nodes.remote(
                [routed[s].get(k, np.empty(0, dtype=np.int64))
                 for s in range(num_shards)]
            )
            for k, a in enumerate(actors)
        ]
    )
    n_total = int(sum(counts))
    if n_total == 0:  # empty edge set: match pagerank()'s empty result
        for a in actors:
            ray.kill(a)
        if scratch_dir is None:
            shutil.rmtree(root, ignore_errors=True)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            return []
        return pd.DataFrame(
            {"node": pd.Series([], dtype=np.int64),
             "rank": pd.Series([], dtype=np.float64)}
        )
    ray.get(
        [a.rebuild_src_index.remote(os.path.join(root, f"shard_{k}.parquet"))
         for k, a in enumerate(actors)]
    )
    ray.get([a.finalize_nodes.remote(n_total) for a in actors])
    if scratch_dir is None:
        # edges are fully loaded into the actors; the /tmp copy of the
        # edge set is dead weight from here (review r4 leak fix) — a
        # caller-supplied scratch_dir is kept (resumable setup)
        shutil.rmtree(root, ignore_errors=True)

    for _ in range(iters):
        dangling = float(
            np.sum(np.sort(ray.get([a.dangling_partial.remote() for a in actors])))
        )
        teleport = (1.0 - damping) / n_total + damping * dangling / n_total
        # K refs per sender (scatter never ray.get-ed on the driver);
        # gather args are top-level refs → shard-to-shard transfers
        srefs = [
            a.scatter.options(num_returns=num_shards).remote() for a in actors
        ]
        if num_shards == 1:
            srefs = [[r] for r in srefs]
        ray.get(
            [
                a.gather.remote(
                    teleport,
                    *[srefs[s][k] for s in range(num_shards)],  # sender order
                )
                for k, a in enumerate(actors)
            ]
        )

    if out_dir is not None:
        manifest = ray.get([a.write_ranks.remote(out_dir) for a in actors])
        for a in actors:
            ray.kill(a)
        return manifest
    frames = ray.get([a.ranks.remote() for a in actors])
    for a in actors:
        ray.kill(a)
    return (
        pd.concat(frames, ignore_index=True)
        .sort_values("node")
        .reset_index(drop=True)
    )
