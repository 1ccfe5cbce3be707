"""Distributed PageRank over an edge Dataset — Pregel-style message
passing with TWO bucket exchanges per iteration, node-cardinality state
kept distributed end-to-end (never a driver rank vector).

Per iteration:

1. **scatter** — edges (pre-tagged once with ``bucket(src)`` and
   materialized, reused every round) union the current rank rows
   (tagged with the SAME bucket function on ``node``) → one
   ``groupby(bucket)`` over ≤ ``num_buckets`` values; inside each
   bucket one vectorized merge attaches rank/out_deg to its edges and
   a pandas groupby pre-sums contributions per dst — the exchange
   payload out of scatter is per-(bucket, dst) partials, never one row
   per edge.
2. **gather** — partials (tagged ``bucket(dst)``) union the static node
   base rows (tagged ``bucket(node)`` — same hash, so they co-locate)
   → one ``groupby(bucket)``; each bucket sums its partials per node
   (canonically sorted first, so float summation order — and hence the
   result — is run-to-run deterministic despite streaming block order)
   and emits the new rank row ``(1-d)/N + d·(in_sum + dangling/N)``.

Dangling mass (rank sitting on nodes with no out-edges) is computed at
the START of each round by a tiny aggregate scan over the rank rows
(sorted partials, deterministic) and folded into the gather formula —
the classic uniform-redistribution treatment (Page et al. 1999; the
iterate-until-converged structure mirrors this repo's
``dedup.min_label_components`` loop, including the per-round
``repartition`` that keeps block counts flat — CLAUDE.md r2).

Partitioning assumption: one bucket's edges fit a worker heap (salt
``num_buckets`` up for denser graphs); ranks/nodes are one row per
node, spread across the same buckets.

Known scale trade-off: the scatter exchange re-shuffles the STATIC
edge set every iteration (Ray Data's groupby cannot exploit that
``edges_tagged`` is already bucket-tagged).  The stateful shard-actor
tier (``state/graph_shards.py``) loads each shard's edges ONCE and
exchanges only pre-summed rank partials per round — measured 2×
faster already at 60k edges × 5 iters and the gap widens with
iterations.  :func:`pagerank_auto` picks the engine from the
``edges × iters`` product (both produce identical ranks,
pytest-pinned rtol 1e-9); the Dataset engine remains the zero-actor,
fully streaming choice below the threshold.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

_DANGLING = np.int64(-(2**62))  # sentinel outside any real node id


def _bkt(v: pd.Series, nb: int) -> np.ndarray:
    return (
        pd.util.hash_pandas_object(v, index=False).to_numpy() % np.uint64(nb)
    ).astype(np.int64)


def pagerank(
    edges: rd.Dataset,
    src: str = "src",
    dst: str = "dst",
    damping: float = 0.85,
    iters: int = 10,
    num_buckets: int = 64,
    repartition_to: int = 16,
) -> rd.Dataset:
    """PageRank over directed ``(src, dst)`` int64 edges.  Parallel
    edges count once per copy (pre-dedup upstream if unwanted).
    Returns a Dataset ``(node, rank)`` summing to 1 (±float error)."""
    from .agg import grouped_reduce

    nb = num_buckets

    # --- static: node base with out-degree, tagged with its bucket ----
    def edge_endpoints(b: pd.DataFrame) -> pa.Table:
        out = pd.DataFrame(
            {
                "node": pd.concat([b[src], b[dst]], ignore_index=True).to_numpy(),
                "deg": np.r_[
                    np.ones(len(b), dtype=np.int64),
                    np.zeros(len(b), dtype=np.int64),
                ],
            }
        )
        g = out.groupby("node", as_index=False)["deg"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    base = grouped_reduce(
        edges.map_batches(edge_endpoints, batch_format="pandas"),
        ["node"],
        {"out_deg": ("deg", "sum")},
        num_buckets=nb,
    ).materialize()
    n_nodes = base.count()
    if n_nodes == 0:
        return rd.from_pandas(pd.DataFrame({"node": [], "rank": []}))

    # --- static: edges tagged with bucket(src), reused every round ----
    def tag_edges(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "key": b[src].to_numpy(dtype=np.int64),
                "dst": b[dst].to_numpy(dtype=np.int64),
                "rank": np.full(len(b), np.nan),
                "out_deg": np.full(len(b), -1, dtype=np.int64),
                "__pr_bkt": _bkt(b[src], nb),
            }
        )

    edges_tagged = edges.map_batches(tag_edges, batch_format="pandas").materialize()

    def tag_ranks(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "key": b["node"].to_numpy(dtype=np.int64),
                "dst": np.full(len(b), _DANGLING, dtype=np.int64),
                "rank": b["rank"].to_numpy(dtype=np.float64),
                "out_deg": b["out_deg"].to_numpy(dtype=np.int64),
                "__pr_bkt": _bkt(b["node"], nb),
            }
        )

    def init_ranks(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "node": b["node"].to_numpy(dtype=np.int64),
                "rank": np.full(len(b), 1.0 / n_nodes),
                "out_deg": b["out_deg"].to_numpy(dtype=np.int64),
            }
        )

    # no materialize: `base` already is, and this map is consumed at most
    # twice (round-1 dangling scan + scatter) before being replaced
    ranks = base.map_batches(init_ranks, batch_format="pandas")

    # gather-side static base rows: zero-contribution partial per node,
    # carrying out_deg so the new rank row is complete without a join
    def tag_base(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "gdst": b["node"].to_numpy(dtype=np.int64),
                "contrib": np.zeros(len(b)),
                "out_deg": b["out_deg"].to_numpy(dtype=np.int64),
                "__pg_bkt": _bkt(b["node"], nb),
            }
        )

    base_tagged = base.map_batches(tag_base, batch_format="pandas").materialize()

    def scatter(group: pd.DataFrame) -> pa.Table:
        is_rank = group["dst"].to_numpy() == _DANGLING
        rk = group.loc[is_rank, ["key", "rank", "out_deg"]]
        eg = group.loc[~is_rank, ["key", "dst"]]
        if len(eg) == 0:
            e = np.empty(0)
            return pa.table(
                {"gdst": e.astype(np.int64), "contrib": e,
                 "out_deg": np.full(0, -1, dtype=np.int64),
                 "__pg_bkt": e.astype(np.int64)}
            )
        # out_deg > 0 for every src that has edges, by construction
        m = eg.merge(rk, on="key", how="left", sort=True)
        contrib = m["rank"].to_numpy() / m["out_deg"].to_numpy()
        part = (
            pd.DataFrame({"gdst": m["dst"].to_numpy(dtype=np.int64), "c": contrib})
            .sort_values(["gdst", "c"], kind="mergesort")
            .groupby("gdst", as_index=False, sort=True)["c"]
            .sum()
        )
        return pa.table(
            {
                "gdst": part["gdst"].to_numpy(dtype=np.int64),
                "contrib": part["c"].to_numpy(),
                "out_deg": np.full(len(part), -1, dtype=np.int64),
                "__pg_bkt": _bkt(part["gdst"], nb),
            }
        )

    def dangling_partial(b: pd.DataFrame) -> pd.DataFrame:
        d = b.loc[b["out_deg"].to_numpy() == 0, "rank"].to_numpy()
        return pd.DataFrame({"s": [float(np.sum(np.sort(d)))]})

    for _ in range(iters):
        dparts = ranks.map_batches(
            dangling_partial, batch_format="pandas"
        ).to_pandas()["s"]
        dangling = float(np.sum(np.sort(dparts.to_numpy())))
        teleport = (1.0 - damping) / n_nodes + damping * dangling / n_nodes

        scattered = (
            edges_tagged.union(
                ranks.map_batches(tag_ranks, batch_format="pandas")
            )
            .groupby("__pr_bkt")
            .map_groups(scatter, batch_format="pandas")
        )

        def gather(group: pd.DataFrame, _tp=teleport) -> pa.Table:
            g = group.sort_values(["gdst", "contrib"], kind="mergesort")
            agg = g.groupby("gdst", as_index=False, sort=True).agg(
                in_sum=("contrib", "sum"), out_deg=("out_deg", "max")
            )
            return pa.table(
                {
                    "node": agg["gdst"].to_numpy(dtype=np.int64),
                    "rank": _tp + damping * agg["in_sum"].to_numpy(),
                    "out_deg": agg["out_deg"].to_numpy(dtype=np.int64),
                }
            )

        new_ranks = (
            scattered.union(base_tagged)
            .groupby("__pg_bkt")
            .map_groups(gather, batch_format="pandas")
        )
        # block-rebound only when counts actually grew (the iterative-loop
        # growth pathology, CLAUDE.md r2) — a repartition every round is
        # an extra exchange the short-loop case doesn't need
        mat = new_ranks.materialize()
        if mat.num_blocks() > 4 * repartition_to:
            mat = mat.repartition(repartition_to).materialize()
        ranks = mat

    return ranks.select_columns(["node", "rank"])


def _pagerank_driver(
    df: pd.DataFrame, src: str, dst: str, damping: float, iters: int
) -> rd.Dataset:
    """Plain numpy power iteration — the driver tier of pagerank_auto
    (gate-bounded input).  Same update rule as the Dataset engine:
    rank = (1-d)/N + d·(dangling/N) + d·Σ rank[src]/out_deg[src]."""
    s = df[src].to_numpy(dtype=np.int64)
    t = df[dst].to_numpy(dtype=np.int64)
    nodes = np.unique(np.concatenate([s, t]))
    n = len(nodes)
    if n == 0:
        return rd.from_pandas(pd.DataFrame({"node": [], "rank": []}))
    pos = {int(v): i for i, v in enumerate(nodes)}
    si = np.fromiter((pos[int(x)] for x in s), np.int64, len(s))
    ti = np.fromiter((pos[int(x)] for x in t), np.int64, len(t))
    out_deg = np.bincount(si, minlength=n).astype(np.float64)
    rank = np.full(n, 1.0 / n)
    dang = out_deg == 0
    for _ in range(iters):
        teleport = (1.0 - damping) / n + damping * float(rank[dang].sum()) / n
        contrib = rank[si] / out_deg[si]
        in_sum = np.zeros(n)
        np.add.at(in_sum, ti, contrib)
        rank = teleport + damping * in_sum
    return rd.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "rank": pa.array(rank, pa.float64()),
            }
        )
    )


# measured crossover (this sandbox, 32 CPUs): the shard tier wins from
# ~200k edge-iterations up — 60k edges × 5 iters: 4.1 s vs 6.9 s;
# 600k × 5: 6.8 s vs 13.4 s — because it never re-ships the static
# edge set.  Below it, 8 actor startups cost more than they save.
AUTO_EDGE_ITERS = 200_000


def pagerank_auto(
    edges: rd.Dataset,
    src: str = "src",
    dst: str = "dst",
    damping: float = 0.85,
    iters: int = 10,
    num_buckets: int = 64,
    repartition_to: int = 16,
    num_shards: int = 8,
    threshold: int = AUTO_EDGE_ITERS,
    out_dir: str | None = None,
    driver_below: int = 0,
) -> tuple[rd.Dataset, str]:
    """Engine-dispatching PageRank: the shard-actor tier
    (state/graph_shards.py::pagerank_sharded — edges loaded once per
    shard, rounds exchange only rank partials) when ``edges × iters``
    crosses ``threshold``, else the Dataset engine.  Returns
    ``(ranks_dataset, engine_name)``; rank rows never route through
    the driver on either path (the sharded tier writes per-shard
    Parquet parts that are read back as a Dataset).

    ``driver_below`` (opt-in, 0 = off) adds a third tier below both:
    when ``edges × iters`` is under it, the edge list is collected and
    power iteration runs as plain numpy on the driver — a toy KG/
    co-mention graph pays ~10 fixed exchanges for ranks a single matmul
    loop computes in milliseconds (kg_entity_pagerank: 14.3 → 9.6 s,
    all remaining wall in the upstream KG pipeline).  Same fixed point
    as the Dataset engine (pytest-pinned to rtol 1e-9); summation order
    differs, so last-ulp bits may."""
    edges = edges.materialize()  # both engines take multiple passes
    n_edges = edges.count()
    if driver_below and n_edges * iters <= driver_below:
        df = edges.to_pandas()
        return _pagerank_driver(df, src, dst, damping, iters), "driver"
    if n_edges * iters >= threshold:
        import glob
        import os
        import shutil
        import tempfile

        from ..state.graph_shards import pagerank_sharded

        target = out_dir or tempfile.mkdtemp(prefix="pr_auto_", dir="/tmp")
        # a reused out_dir may hold rank parts from a PRIOR run with a
        # different shard count — stale ranks_shard_N would union into
        # the read-back; wipe them first
        for stale in glob.glob(os.path.join(target, "ranks_shard_*.parquet")):
            os.remove(stale)
        pagerank_sharded(
            edges, src=src, dst=dst, damping=damping, iters=iters,
            num_shards=num_shards,
            out_dir=target,
        )
        ranks = rd.read_parquet(target)
        if out_dir is None:
            # caller asked for a Dataset, not files: pin the blocks in
            # the object store and remove the scratch dir (no /tmp leak
            # per call); rank rows stay block-distributed, never driver-side
            ranks = ranks.materialize()
            shutil.rmtree(target, ignore_errors=True)
        return ranks, "sharded"
    return (
        pagerank(
            edges, src=src, dst=dst, damping=damping, iters=iters,
            num_buckets=num_buckets, repartition_to=repartition_to,
        ),
        "dataset",
    )


def pagerank_labels(
    edges: rd.Dataset,
    src: str = "src",
    dst: str = "dst",
    damping: float = 0.85,
    iters: int = 10,
    num_buckets: int = 64,
) -> rd.Dataset:
    """PageRank over STRING-labelled edges (entity URIs, domains,
    usernames): endpoints are mapped to int64 via a 64-bit stable hash,
    ranked with :func:`pagerank_auto`, and labels re-attached with one
    size-gated equi_join against the distinct (hash, label) pairs —
    fully distributed, no driver-side id map.

    The hash map is collision-checked nowhere by construction (64-bit
    birthday bound: P(any collision) ≈ n²/2⁶⁵ — ~3e-5 at 10⁶ nodes,
    still <1e-2 at 10⁸); a colliding pair would merge two nodes' ranks.
    Returns ``(node, rank)`` with the original string labels."""
    from .agg import bucketed_distinct
    from .relational import equi_join

    def hashed(b: pd.DataFrame) -> pa.Table:
        hs = pd.util.hash_pandas_object(b[src], index=False).to_numpy()
        hd = pd.util.hash_pandas_object(b[dst], index=False).to_numpy()
        return pa.table(
            {
                "hsrc": pa.array(hs.astype(np.int64), pa.int64()),
                "hdst": pa.array(hd.astype(np.int64), pa.int64()),
            }
        )

    def node_map(b: pd.DataFrame) -> pa.Table:
        lab = np.concatenate([b[src].to_numpy(), b[dst].to_numpy()])
        h = pd.util.hash_pandas_object(
            pd.Series(lab), index=False
        ).to_numpy().astype(np.int64)
        return pa.table(
            {
                "hnode": pa.array(h, pa.int64()),
                "node": pa.array(lab.astype(str), pa.string()),
            }
        )

    edges = edges.materialize()  # hashed-edge AND label-map passes
    labels = bucketed_distinct(
        edges.map_batches(node_map, batch_format="pandas"),
        ["hnode", "node"], num_buckets=num_buckets,
    )
    ranks, _engine = pagerank_auto(
        edges.map_batches(hashed, batch_format="pandas"),
        src="hsrc", dst="hdst", damping=damping, iters=iters,
        num_buckets=num_buckets, driver_below=50_000,
    )
    joined = equi_join(
        ranks.map_batches(
            lambda t: t.rename_columns(["hnode", "rank"]),
            batch_format="pyarrow",
        ),
        labels, "hnode",
    )
    return joined.select_columns(["node", "rank"])


def triangle_count(
    edges: rd.Dataset,
    src: str = "src",
    dst: str = "dst",
    num_buckets: int = 64,
    assume_simple: bool = False,
) -> dict:
    """Exact global triangle count via degree-ordered wedge checking
    (the MapReduce classic — Suri & Vassilvitskii, WWW'11 "Counting
    Triangles and the Curse of the Last Reducer"): orienting every
    undirected edge from its lower-(degree, id) endpoint bounds each
    node's out-degree by O(√m), so total wedge volume is O(m^1.5)
    instead of Σdeg² — hub nodes never explode.  Beyond-reference
    operator (no counterpart in Orange-OpenSource/Table-Annotation).

    Stages (all hash-bucket exchanges, never per-key Ray groups):
      1. canonicalize to distinct a<b pairs (skipped when
         ``assume_simple`` — the input already is);
      2. degrees via ``agg.grouped_reduce`` over the stacked endpoints;
      3. two degree joins through ``relational.equi_join`` (size-gated
         broadcast vs co-location — at web scale the node table takes
         the bucketed path);
      4. wedge generation per oriented source (one exchange on
         hash(u), vectorized repeat/offset pair expansion per bucket);
      5. wedge↔edge match on hash(pair) — per-bucket COUNT partials
         only cross back to the driver (≤ num_buckets rows).

    Returns ``{"n_edges": E, "n_triangles": T}``.  Node ids must be
    integer-like (the join/bucket hash contract)."""
    from .agg import bucketed_distinct, grouped_reduce
    from .relational import equi_join

    def canon(b: pd.DataFrame) -> pa.Table:
        u = b[src].to_numpy(dtype=np.int64)
        v = b[dst].to_numpy(dtype=np.int64)
        keep = u != v  # self-loops close no triangle
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        out = pd.DataFrame({"a": lo, "b": hi}).drop_duplicates()
        return pa.table(
            {"a": pa.array(out["a"].to_numpy(), pa.int64()),
             "b": pa.array(out["b"].to_numpy(), pa.int64())}
        )

    e = edges.map_batches(canon, batch_format="pandas")
    if not assume_simple:
        e = bucketed_distinct(e, ["a", "b"], num_buckets=num_buckets)
    e = e.materialize()  # reused by the degree pass AND the final match
    n_edges = e.count()
    if n_edges == 0:  # empty graph: downstream joins need a schema
        return {"n_edges": 0, "n_triangles": 0}

    def stack(b: pd.DataFrame) -> pa.Table:
        nodes = np.concatenate(
            [b["a"].to_numpy(dtype=np.int64), b["b"].to_numpy(dtype=np.int64)]
        )
        return pa.table({"node": pa.array(nodes, pa.int64())})

    # materialized: both degree joins consume it (equi_join also
    # materializes its right side now, but doing it here keeps ONE copy)
    degs = grouped_reduce(
        e.map_batches(stack, batch_format="pandas"),
        ["node"], {"deg": (None, "count")}, num_buckets=num_buckets,
    ).materialize()

    def _rename(cols: dict):
        return lambda b: b.rename(columns=cols)

    j = equi_join(
        e, degs.map_batches(_rename({"node": "a", "deg": "deg_a"}),
                            batch_format="pandas"), "a")
    j = equi_join(
        j, degs.map_batches(_rename({"node": "b", "deg": "deg_b"}),
                            batch_format="pandas"), "b")

    nb = np.uint64(num_buckets)
    MULT = np.uint64(0x9E3779B97F4A7C15)

    def orient(b: pd.DataFrame) -> pa.Table:
        a = b["a"].to_numpy(dtype=np.int64)
        bb = b["b"].to_numpy(dtype=np.int64)
        da = b["deg_a"].to_numpy(dtype=np.int64)
        db = b["deg_b"].to_numpy(dtype=np.int64)
        swap = (db < da) | ((db == da) & (bb < a))  # (deg, id) order
        u = np.where(swap, bb, a)
        v = np.where(swap, a, bb)
        bkt = ((u.astype(np.uint64) * MULT) >> np.uint64(32)) % nb
        return pa.table(
            {"u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64()),
             "__tc_bkt": pa.array(bkt.astype(np.int64), pa.int64())}
        )

    oriented = j.map_batches(orient, batch_format="pandas")

    def wedges(g: pd.DataFrame) -> pa.Table:
        u = g["u"].to_numpy(dtype=np.int64)
        v = g["v"].to_numpy(dtype=np.int64)
        order = np.argsort(u, kind="mergesort")
        u_s, v_s = u[order], v[order]
        _, starts, counts = np.unique(u_s, return_index=True, return_counts=True)
        pos = np.arange(len(u_s), dtype=np.int64)
        rank = pos - np.repeat(starts, counts)
        rem = np.repeat(counts, counts) - rank - 1  # pairs each row opens
        ii = np.repeat(pos, rem)
        off = (np.arange(int(rem.sum()), dtype=np.int64)
               - np.repeat(np.cumsum(rem) - rem, rem) + 1)
        jj = ii + off
        w1, w2 = v_s[ii], v_s[jj]
        # map-side combine for the pair exchange: a wedge pair closed by
        # several common neighbors ships once with a count, and the pair
        # bucket is computed here (no second pass over the wedge rows)
        wa, wb = np.minimum(w1, w2), np.maximum(w1, w2)
        wdf = (
            pd.DataFrame({"a": wa, "b": wb})
            .groupby(["a", "b"], sort=False).size().reset_index(name="n")
        )
        a = wdf["a"].to_numpy(dtype=np.int64)
        b = wdf["b"].to_numpy(dtype=np.int64)
        h = (a.astype(np.uint64) * MULT) ^ b.astype(np.uint64)
        bkt = ((h * MULT) >> np.uint64(32)) % nb
        return pa.table(
            {"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64()),
             "n": pa.array(wdf["n"].to_numpy(dtype=np.int64), pa.int64()),
             "__tc_side": pa.array(np.ones(len(a), dtype=np.int64), pa.int64()),
             "__tc_pbkt": pa.array(bkt.astype(np.int64), pa.int64())}
        )

    wedge_ds = oriented.groupby("__tc_bkt").map_groups(
        wedges, batch_format="pandas"
    )

    def tag_edges(b: pd.DataFrame) -> pa.Table:
        a = b["a"].to_numpy(dtype=np.int64)
        bb = b["b"].to_numpy(dtype=np.int64)
        # bucket from (a, b) ONLY — edge and wedge rows for the same
        # pair must land in the same group
        h = (a.astype(np.uint64) * MULT) ^ bb.astype(np.uint64)
        bkt = ((h * MULT) >> np.uint64(32)) % nb
        return pa.table(
            {"a": pa.array(a, pa.int64()), "b": pa.array(bb, pa.int64()),
             "n": pa.array(np.zeros(len(a), dtype=np.int64), pa.int64()),
             "__tc_side": pa.array(np.zeros(len(a), dtype=np.int64), pa.int64()),
             "__tc_pbkt": pa.array(bkt.astype(np.int64), pa.int64())}
        )

    both = e.map_batches(tag_edges, batch_format="pandas").union(wedge_ds)

    def match(g: pd.DataFrame) -> pa.Table:
        is_edge = g["__tc_side"].to_numpy() == 0
        ek = g[is_edge][["a", "b"]].drop_duplicates()
        wk = g[~is_edge].groupby(["a", "b"], sort=False)["n"].sum().reset_index()
        hit = ek.merge(wk, on=["a", "b"], how="inner")["n"].sum()
        return pa.table({"n": pa.array([int(hit)], pa.int64())})

    partials = both.groupby("__tc_pbkt").map_groups(match, batch_format="pandas")
    n_tri = int(partials.to_pandas()["n"].sum())
    return {"n_edges": int(n_edges), "n_triangles": n_tri}


def common_neighbors(
    edges: rd.Dataset,
    src: str = "src",
    dst: str = "dst",
    max_center_degree: int = 64,
    min_common: int = 2,
    num_buckets: int = 64,
    partitions: int = 16,
) -> rd.Dataset:
    """Common-neighbors link prediction scores: for every NON-adjacent
    node pair ``(u, v)`` sharing ≥ ``min_common`` neighbors, the exact
    number of shared neighbors — counted through wedge centers of
    degree ≤ ``max_center_degree`` only.

    The degree cap is part of the SEMANTICS, not a silent truncation:
    full common-neighbor counting is inherently Σdeg² in the wedge
    volume (unlike triangles, the center cannot be degree-oriented
    away), and hub-mediated co-neighborship carries no predictive
    signal anyway (everyone shares the hub).  Capping the center degree
    bounds per-node wedge fan-out at D², keeps the operator exact and
    SQL-expressible, and is the standard practice in production link
    prediction.

    Shape: canonical edges + degrees (one grouped_reduce), size-gated
    semi-filter of the adjacency rows by eligible centers, one
    hash(center) exchange with vectorized per-center pair expansion and
    map-side pair combine, then one hash(pair) exchange that both sums
    pair counts and anti-matches existing edges.  Returns
    ``(u, v, common)`` with ``u < v``."""
    simple = _simple_edges(edges, src, dst, num_buckets, partitions)
    return _cn_from_simple(simple, max_center_degree, min_common, num_buckets)


def _cn_from_simple(
    simple: rd.Dataset,
    max_center_degree: int,
    min_common: int,
    num_buckets: int,
) -> rd.Dataset:
    """common_neighbors body over pre-materialized ``(a, b)`` simple
    edges — shared with :func:`jaccard_links` so the simple-edge
    exchange runs once per caller."""
    from .agg import grouped_reduce
    from .relational import filter_rows_by_keys

    def stack(b: pd.DataFrame) -> pa.Table:
        nodes = np.concatenate(
            [b["a"].to_numpy(dtype=np.int64), b["b"].to_numpy(dtype=np.int64)]
        )
        return pa.table({"node": pa.array(nodes, pa.int64())})

    degs = grouped_reduce(
        simple.map_batches(stack, batch_format="pandas"),
        ["node"], {"deg": (None, "count")}, num_buckets=num_buckets,
    )
    eligible = degs.filter(expr=f"deg <= {int(max_center_degree)}")

    def both_dirs(b: pd.DataFrame) -> pa.Table:
        a = b["a"].to_numpy(dtype=np.int64)
        bb = b["b"].to_numpy(dtype=np.int64)
        return pa.table(
            {
                "center": pa.array(np.concatenate([a, bb]), pa.int64()),
                "nbr": pa.array(np.concatenate([bb, a]), pa.int64()),
            }
        )

    adj = filter_rows_by_keys(
        simple.map_batches(both_dirs, batch_format="pandas"),
        eligible, "center", "node",
    )

    nb = np.uint64(num_buckets)
    MULT = np.uint64(0x9E3779B97F4A7C15)

    def cbkt(t: pa.Table) -> pa.Table:
        c = t["center"].to_numpy().astype(np.uint64)
        return t.append_column(
            "__cn_bkt",
            pa.array((((c * MULT) >> np.uint64(32)) % nb).astype(np.int64),
                     pa.int64()),
        )

    def pairs(g: pd.DataFrame) -> pa.Table:
        c = g["center"].to_numpy(dtype=np.int64)
        n = g["nbr"].to_numpy(dtype=np.int64)
        order = np.argsort(c, kind="mergesort")
        c_s, n_s = c[order], n[order]
        _, starts, counts = np.unique(c_s, return_index=True, return_counts=True)
        pos = np.arange(len(c_s), dtype=np.int64)
        rank = pos - np.repeat(starts, counts)
        rem = np.repeat(counts, counts) - rank - 1
        ii = np.repeat(pos, rem)
        off = (np.arange(int(rem.sum()), dtype=np.int64)
               - np.repeat(np.cumsum(rem) - rem, rem) + 1)
        w1, w2 = n_s[ii], n_s[ii + off]
        ua, ub = np.minimum(w1, w2), np.maximum(w1, w2)
        wdf = (
            pd.DataFrame({"u": ua, "v": ub})
            .groupby(["u", "v"], sort=False).size().reset_index(name="n")
        )
        u = wdf["u"].to_numpy(dtype=np.int64)
        v = wdf["v"].to_numpy(dtype=np.int64)
        h = (u.astype(np.uint64) * MULT) ^ v.astype(np.uint64)
        return pa.table(
            {"u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64()),
             "n": pa.array(wdf["n"].to_numpy(dtype=np.int64), pa.int64()),
             "__cn_side": pa.array(np.ones(len(u), np.int64), pa.int64()),
             "__cn_pbkt": pa.array(
                 (((h * MULT) >> np.uint64(32)) % nb).astype(np.int64),
                 pa.int64())}
        )

    wedge_ds = (
        adj.map_batches(cbkt, batch_format="pyarrow")
        .groupby("__cn_bkt")
        .map_groups(pairs, batch_format="pandas")
    )

    def tag_edges(b: pd.DataFrame) -> pa.Table:
        u = b["a"].to_numpy(dtype=np.int64)
        v = b["b"].to_numpy(dtype=np.int64)
        h = (u.astype(np.uint64) * MULT) ^ v.astype(np.uint64)
        return pa.table(
            {"u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64()),
             "n": pa.array(np.zeros(len(u), np.int64), pa.int64()),
             "__cn_side": pa.array(np.zeros(len(u), np.int64), pa.int64()),
             "__cn_pbkt": pa.array(
                 (((h * MULT) >> np.uint64(32)) % nb).astype(np.int64),
                 pa.int64())}
        )

    both = simple.map_batches(tag_edges, batch_format="pandas").union(wedge_ds)

    def score(g: pd.DataFrame) -> pa.Table:
        is_edge = g["__cn_side"].to_numpy() == 0
        wk = g[~is_edge].groupby(["u", "v"], sort=False)["n"].sum().reset_index()
        ek = g[is_edge][["u", "v"]].drop_duplicates()
        out = wk.merge(ek, on=["u", "v"], how="left", indicator=True)
        out = out[(out["_merge"] == "left_only")
                  & (out["n"] >= int(min_common))]
        return pa.table(
            {"u": pa.array(out["u"].to_numpy(dtype=np.int64), pa.int64()),
             "v": pa.array(out["v"].to_numpy(dtype=np.int64), pa.int64()),
             "common": pa.array(out["n"].to_numpy(dtype=np.int64), pa.int64())}
        )

    return both.groupby("__cn_pbkt").map_groups(score, batch_format="pandas")


def jaccard_links(
    edges: rd.Dataset,
    src: str = "src",
    dst: str = "dst",
    max_center_degree: int = 64,
    min_common: int = 2,
    broadcast_below: int = 2_000_000,
    num_buckets: int = 64,
    partitions: int = 16,
) -> rd.Dataset:
    """Neighborhood-Jaccard link prediction: for every non-adjacent
    pair scored by :func:`common_neighbors` (shared neighbors counted
    through degree-capped wedge centers, the documented hub-filter
    semantics), attach both endpoints' FULL degrees and the Jaccard
    coefficient over the neighborhoods::

        union_size = deg_u + deg_v - common
        jaccard    = common / union_size

    ``common`` and ``union_size`` are exact int64; ``jaccard`` is the
    single double division of those ints, so a SQL mirror computing
    the same division is bit-identical (no rounding step needed).

    Shape: ONE simple-edge materialization shared by the wedge count
    and the degree table (single-execution rule); degrees ride one
    grouped_reduce; the two degree attachments are size-gated
    broadcast equi_joins (degree table is node-count-sized).  Output
    ``(u, v, common, deg_u, deg_v, union_size, jaccard)``.
    """
    from .agg import grouped_reduce
    from .relational import equi_join

    simple = _simple_edges(edges, src, dst, num_buckets, partitions)
    cn = _cn_from_simple(simple, max_center_degree, min_common, num_buckets)

    def stack(b: pd.DataFrame) -> pa.Table:
        nodes = np.concatenate(
            [b["a"].to_numpy(dtype=np.int64), b["b"].to_numpy(dtype=np.int64)]
        )
        return pa.table({"node": pa.array(nodes, pa.int64())})

    degs = grouped_reduce(
        simple.map_batches(stack, batch_format="pandas"),
        ["node"], {"deg": (None, "count")}, num_buckets=num_buckets,
    )

    def as_u(t: pa.Table) -> pa.Table:
        return t.rename_columns(["u", "deg_u"])

    def as_v(t: pa.Table) -> pa.Table:
        return t.rename_columns(["v", "deg_v"])

    joined = equi_join(
        equi_join(cn, degs.map_batches(as_u, batch_format="pyarrow"), "u",
                  broadcast_below=broadcast_below, num_buckets=num_buckets),
        degs.map_batches(as_v, batch_format="pyarrow"), "v",
        broadcast_below=broadcast_below, num_buckets=num_buckets,
    )

    def score(t: pa.Table) -> pa.Table:
        c = t["common"].to_numpy().astype(np.int64)
        du = t["deg_u"].to_numpy().astype(np.int64)
        dv = t["deg_v"].to_numpy().astype(np.int64)
        un = du + dv - c
        return pa.table(
            {
                "u": pa.array(t["u"].to_numpy().astype(np.int64), pa.int64()),
                "v": pa.array(t["v"].to_numpy().astype(np.int64), pa.int64()),
                "common": pa.array(c, pa.int64()),
                "deg_u": pa.array(du, pa.int64()),
                "deg_v": pa.array(dv, pa.int64()),
                "union_size": pa.array(un, pa.int64()),
                "jaccard": pa.array(c / un, pa.float64()),
            }
        )

    return joined.map_batches(score, batch_format="pyarrow")


def k_core(
    edges: rd.Dataset,
    k: int,
    src: str = "src",
    dst: str = "dst",
    max_iters: int = 100,
    broadcast_below: int = 2_000_000,
    num_buckets: int = 64,
    partitions: int = 16,
) -> rd.Dataset:
    """k-core decomposition — the maximal subgraph in which every node
    has degree ≥ k (simple undirected graph: self-loops dropped,
    parallel/reverse edges collapsed), the standard graph-curation
    primitive (spam/low-signal node pruning).  Returns one row per
    surviving node: ``(node, degree)`` with its IN-CORE degree.

    Iterative peeling, shaped around the observation that after the
    first round the per-round DROP set is small (nodes that just fell
    under k), while survivors stay corpus-sized:

    * degrees via one ``grouped_reduce`` over the stacked endpoints
      (batch-local partials, one bucket exchange);
    * the round's dropped nodes — not the survivors — are collected
      and ``ray.put``-broadcast for a map-only edge anti-filter when
      ≤ ``broadcast_below``, else a two-exchange co-location
      (union + groupby(hash(endpoint))) handles the rare huge-drop
      round;
    * per-round ``repartition`` keeps block counts flat across
      iterations (the min_label_components rule).

    Converges when a round drops nothing (≤ max_iters rounds; peeling
    terminates — each round strictly shrinks the node set)."""
    import ray

    from ..state.worker_state import get_worker_state, ref_key
    from .agg import grouped_reduce

    def stack(b: pa.Table) -> pa.Table:
        node = np.concatenate([b["a"].to_numpy(), b["b"].to_numpy()])
        return pa.table({"node": pa.array(node, pa.int64())})

    nb = np.uint64(num_buckets)
    cur = _simple_edges(edges, src, dst, num_buckets, partitions)

    deg = None
    for _ in range(max_iters):
        deg = grouped_reduce(
            cur.map_batches(stack, batch_format="pyarrow"),
            ["node"],
            {"degree": (None, "count")},
            num_buckets=num_buckets,
        ).materialize()
        dropped = deg.filter(expr=f"degree < {int(k)}")
        n_drop = dropped.count()
        if n_drop == 0:
            break
        if n_drop <= broadcast_below:
            dset = set(int(x) for x in dropped.to_pandas()["node"])
            dref = ray.put(dset)

            def anti(b: pd.DataFrame, _dref=dref) -> pa.Table:
                ds_ = get_worker_state(
                    ("kcore-drop", ref_key(_dref)), lambda: ray.get(_dref)
                )
                kept = b[~b["a"].isin(ds_) & ~b["b"].isin(ds_)]
                return pa.table(
                    {
                        "a": pa.array(kept["a"].to_numpy(dtype=np.int64), pa.int64()),
                        "b": pa.array(kept["b"].to_numpy(dtype=np.int64), pa.int64()),
                    }
                )

            cur = (
                cur.map_batches(anti, batch_format="pandas")
                .repartition(partitions)
                .materialize()
            )
        else:
            # co-location fallback: filter on a, then on b — each one
            # union + groupby(hash(endpoint)) exchange
            for col in ("a", "b"):

                def tag_e(b: pd.DataFrame, _c=col) -> pa.Table:
                    bk = (b[_c].to_numpy().astype(np.uint64) % nb).astype(np.int64)
                    return pa.table(
                        {
                            "a": pa.array(b["a"].to_numpy(dtype=np.int64), pa.int64()),
                            "b": pa.array(b["b"].to_numpy(dtype=np.int64), pa.int64()),
                            "__mark": pa.array(np.zeros(len(b), np.int64), pa.int64()),
                            "__kb": pa.array(bk, pa.int64()),
                        }
                    )

                def tag_d(b: pd.DataFrame) -> pa.Table:
                    n_ = b["node"].to_numpy(dtype=np.int64)
                    bk = (n_.astype(np.uint64) % nb).astype(np.int64)
                    return pa.table(
                        {
                            "a": pa.array(n_, pa.int64()),
                            "b": pa.array(np.full(len(b), -1, np.int64), pa.int64()),
                            "__mark": pa.array(np.ones(len(b), np.int64), pa.int64()),
                            "__kb": pa.array(bk, pa.int64()),
                        }
                    )

                def drop_grp(g: pd.DataFrame, _c=col) -> pa.Table:
                    bad = set(g.loc[g["__mark"] == 1, "a"])
                    kept = g[(g["__mark"] == 0) & ~g[_c].isin(bad)]
                    return pa.table(
                        {
                            "a": pa.array(kept["a"].to_numpy(dtype=np.int64), pa.int64()),
                            "b": pa.array(kept["b"].to_numpy(dtype=np.int64), pa.int64()),
                        }
                    )

                cur = (
                    cur.map_batches(tag_e, batch_format="pandas")
                    .union(dropped.map_batches(tag_d, batch_format="pandas"))
                    .groupby("__kb")
                    .map_groups(drop_grp, batch_format="pandas")
                )
            cur = cur.repartition(partitions).materialize()
    return deg.filter(expr=f"degree >= {int(k)}")


def bfs_distances(
    edges: rd.Dataset,
    source: int,
    src: str = "src",
    dst: str = "dst",
    max_depth: int = 16,
    num_buckets: int = 64,
    partitions: int = 16,
    broadcast_below: int = 2_000_000,
) -> rd.Dataset:
    """Single-source BFS hop distances over the simple undirected graph
    (self-loops dropped, parallel/reverse edges collapsed) — one row
    ``(node, dist)`` per node reachable from ``source`` within
    ``max_depth`` hops (the source itself at dist 0).

    Two engines behind one size gate (the repo's broadcast-vs-
    co-location rule, applied to the VISITED set):

    * **driver-frontier** (visited ≤ ``broadcast_below``): the frontier
      and visited sets are ``ray.put``-broadcast, each round is ONE
      map-only pass over the once-materialized canonical edges emitting
      per-block deduped unseen neighbors — zero exchanges per round
      (the k_core dropped-set idiom; at BFS's typical few-round depth
      this is ~6× faster than the exchange path at toy scale).
    * **dataset** (visited outgrows the gate mid-run: the driver dict
      spills into a Dataset and iteration continues): neighbors via the
      size-gated :func:`filter_rows_by_keys` per endpoint, one
      ``bucketed_distinct`` exchange, visited removal via the
      size-gated :func:`anti_join_keys`, per-round ``repartition``
      (the min_label_components rule).

    Terminates when a round discovers nothing new. SQL-equivalent to a
    DuckDB ``WITH RECURSIVE`` walk with a depth cap, which is how the
    oracle pins it (pytest pins both engines equal)."""
    import ray

    from ..state.worker_state import get_worker_state, ref_key
    from .agg import bucketed_distinct
    from .relational import anti_join_keys, filter_rows_by_keys

    simple = _simple_edges(edges, src, dst, num_buckets, partitions)

    # ---- driver-frontier engine -------------------------------------
    dist_d: dict[int, int] = {int(source): 0}
    frontier_set = {int(source)}
    depth = 1
    spilled = False
    while depth <= max_depth and frontier_set:
        if len(dist_d) > broadcast_below:
            spilled = True
            break
        fref = ray.put(frontier_set)
        vref = ray.put(set(dist_d))

        def nbrs_map(b: pd.DataFrame, _f=fref, _v=vref) -> pa.Table:
            f = get_worker_state(("bfs-f", ref_key(_f)), lambda: ray.get(_f))
            vis = get_worker_state(("bfs-v", ref_key(_v)), lambda: ray.get(_v))
            a = b["a"].to_numpy(dtype=np.int64)
            bb = b["b"].to_numpy(dtype=np.int64)
            ain = b["a"].isin(f).to_numpy()
            bin_ = b["b"].isin(f).to_numpy()
            cand = pd.unique(np.concatenate([bb[ain], a[bin_]]))
            cand = cand[~pd.Series(cand).isin(vis).to_numpy()]
            return pa.table({"node": pa.array(cand, pa.int64())})

        part = simple.map_batches(nbrs_map, batch_format="pandas").to_pandas()
        # ray 2.49 to_pandas() loses the schema when EVERY block is
        # empty (columns: []) — an all-blocks-empty round means done
        if "node" not in part.columns:
            return rd.from_arrow(_dist_table(dist_d))
        new = set(int(x) for x in part["node"]) - set(dist_d)
        if not new:
            return rd.from_arrow(_dist_table(dist_d))
        for n_ in new:
            dist_d[n_] = depth
        frontier_set = new
        depth += 1
    if not spilled:
        return rd.from_arrow(_dist_table(dist_d))

    # ---- dataset engine (visited outgrew the driver gate) -----------
    dist = rd.from_arrow(_dist_table(dist_d)).repartition(partitions).materialize()
    frontier = rd.from_arrow(
        pa.table({"node": pa.array(sorted(frontier_set), pa.int64())})
    ).materialize()

    for d in range(depth, max_depth + 1):
        na = filter_rows_by_keys(simple, frontier, "a", "node").map_batches(
            lambda t: t.select(["b"]).rename_columns(["node"]),
            batch_format="pyarrow",
        )
        nb_ = filter_rows_by_keys(simple, frontier, "b", "node").map_batches(
            lambda t: t.select(["a"]).rename_columns(["node"]),
            batch_format="pyarrow",
        )
        nbrs = bucketed_distinct(na.union(nb_), ["node"], num_buckets=num_buckets)
        new = anti_join_keys(nbrs, dist, "node").materialize()
        if new.count() == 0:
            break

        def tag(t: pa.Table, _d=d) -> pa.Table:
            return pa.table(
                {
                    "node": t["node"].cast(pa.int64()),
                    "dist": pa.array(
                        np.full(t.num_rows, _d, np.int64), pa.int64()
                    ),
                }
            )

        dist = (
            dist.union(new.map_batches(tag, batch_format="pyarrow"))
            .repartition(partitions)
            .materialize()
        )
        frontier = new
    return dist


def _dist_table(dist_d: dict[int, int]) -> pa.Table:
    nodes = np.fromiter(dist_d.keys(), np.int64, len(dist_d))
    dists = np.fromiter(dist_d.values(), np.int64, len(dist_d))
    order = np.argsort(nodes)
    return pa.table(
        {
            "node": pa.array(nodes[order], pa.int64()),
            "dist": pa.array(dists[order], pa.int64()),
        }
    )


def _simple_edges(
    edges: rd.Dataset,
    src: str,
    dst: str,
    num_buckets: int = 64,
    partitions: int = 16,
) -> rd.Dataset:
    """Materialized distinct ``a < b`` pairs of a simple undirected
    graph: self-loops dropped, parallel/reverse duplicates collapsed.
    Batch-local canon shrink, then one pair-hash bucket exchange dedups
    across batches (the k_core shape, shared with label_propagation)."""
    nb = np.uint64(num_buckets)

    def canon(b: pd.DataFrame) -> pa.Table:
        u = b[src].to_numpy(dtype=np.int64)
        v = b[dst].to_numpy(dtype=np.int64)
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        out = pd.DataFrame({"a": lo, "b": hi}).drop_duplicates()
        return pa.table(
            {
                "a": pa.array(out["a"].to_numpy(), pa.int64()),
                "b": pa.array(out["b"].to_numpy(), pa.int64()),
            }
        )

    def pair_bkt(b: pa.Table) -> pa.Table:
        h = (
            b["a"].to_numpy().astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            + b["b"].to_numpy().astype(np.uint64)
        )
        return b.append_column(
            "__pb", pa.array((h % nb).astype(np.int64), pa.int64())
        )

    def pair_dedup(g: pd.DataFrame) -> pa.Table:
        out = g[["a", "b"]].drop_duplicates()
        return pa.table(
            {
                "a": pa.array(out["a"].to_numpy(dtype=np.int64), pa.int64()),
                "b": pa.array(out["b"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    return (
        edges.map_batches(canon, batch_format="pandas")
        .map_batches(pair_bkt, batch_format="pyarrow")
        .groupby("__pb")
        .map_groups(pair_dedup, batch_format="pandas")
        .repartition(partitions)
        .materialize()
    )


def label_propagation(
    edges: rd.Dataset,
    src: str = "src",
    dst: str = "dst",
    max_iters: int = 10,
    num_buckets: int = 64,
    partitions: int = 16,
) -> pd.DataFrame:
    """Community detection by synchronous label propagation (Raghavan
    et al. 2007) over a simple undirected graph: every node starts
    labelled with its own id; each round every node adopts the most
    frequent label among its NEIGHBOURS (ties → smallest label, the
    deterministic variant); stop when a round changes nothing or at
    ``max_iters``.  Returns ``(node, label)`` — nodes sharing a label
    are one community.

    Round shape: the static canonical edge set (built once via
    :func:`_simple_edges`, materialized, never re-canonicalized) is
    mapped against the ray.put-broadcast label array (sorted-node
    ``searchsorted`` lookup, loaded once per worker process) to emit
    both directions' (node, neighbour_label) votes; ``mode_by_key``
    tallies them in two bucketed exchanges with (node, label, n)
    partials — never per-key Python.  Labels are node-cardinality
    driver state (int64 pair per node — the pagerank broadcast-tier
    assumption; the sharded-actor tier is the 100-TB path and is not
    implemented for LPA).

    Deterministic min-tie-break synchronous LPA can oscillate between
    two label states (classic bipartite 2-cycle), which is why
    ``max_iters`` is a hard cap, not just a safety net; the fixture
    reference in tests applies the IDENTICAL update rule, so
    equivalence holds even on oscillating inputs.  No reference
    counterpart (SURVEY §2 graph-curation breadth next to
    pagerank/k_core)."""
    import ray

    from ..state.worker_state import get_worker_state, ref_key
    from .agg import mode_by_key

    cur = _simple_edges(edges, src, dst, num_buckets, partitions)

    def stack_nodes(b: pa.Table) -> pa.Table:
        node = np.concatenate([b["a"].to_numpy(), b["b"].to_numpy()])
        return pa.table({"node": pa.array(np.unique(node), pa.int64())})

    node_arr = np.sort(
        cur.map_batches(stack_nodes, batch_format="pyarrow")
        .unique("node")
    ).astype(np.int64)
    labels = node_arr.copy()

    for it in range(max_iters):
        lref = ray.put((node_arr, labels))

        def send(b: pd.DataFrame, _lref=lref) -> pa.Table:
            na, la = get_worker_state(
                ("lpa-labels", ref_key(_lref)), lambda: ray.get(_lref)
            )
            a = b["a"].to_numpy(dtype=np.int64)
            bb = b["b"].to_numpy(dtype=np.int64)
            node = np.concatenate([a, bb])
            lab = np.concatenate(
                [la[np.searchsorted(na, bb)], la[np.searchsorted(na, a)]]
            )
            return pa.table(
                {
                    "node": pa.array(node, pa.int64()),
                    "lab": pa.array(lab, pa.int64()),
                }
            )

        votes = cur.map_batches(send, batch_format="pandas")
        new = mode_by_key(votes, "node", "lab").to_pandas()
        new_labels = labels.copy()
        idx = np.searchsorted(node_arr, new["node"].to_numpy(dtype=np.int64))
        new_labels[idx] = new["lab"].to_numpy(dtype=np.int64)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    return pd.DataFrame({"node": node_arr, "label": labels})


def _hits_driver(
    df: pd.DataFrame, src: str, dst: str, iters: int
) -> rd.Dataset:
    """Plain numpy HITS power iteration — the driver tier of
    :func:`hits` (gate-bounded input).  Same update rule as the Dataset
    engine: auth = A^T·hub, hub = A·auth, each L2-normalized."""
    s = df[src].to_numpy(dtype=np.int64)
    t = df[dst].to_numpy(dtype=np.int64)
    nodes = np.unique(np.concatenate([s, t]))
    n = len(nodes)
    if n == 0:
        return rd.from_pandas(
            pd.DataFrame({"node": [], "hub": [], "authority": []})
        )
    pos = {int(v): i for i, v in enumerate(nodes)}
    si = np.fromiter((pos[int(x)] for x in s), np.int64, len(s))
    ti = np.fromiter((pos[int(x)] for x in t), np.int64, len(t))
    hub = np.ones(n)
    auth = np.ones(n)
    for _ in range(iters):
        auth = np.zeros(n)
        np.add.at(auth, ti, hub[si])
        auth /= np.sqrt(float((auth * auth).sum())) or 1.0
        hub = np.zeros(n)
        np.add.at(hub, si, auth[ti])
        hub /= np.sqrt(float((hub * hub).sum())) or 1.0
    return rd.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "hub": pa.array(hub, pa.float64()),
                "authority": pa.array(auth, pa.float64()),
            }
        )
    )


def hits(
    edges: rd.Dataset,
    src: str = "src",
    dst: str = "dst",
    iters: int = 10,
    num_buckets: int = 64,
    repartition_to: int = 16,
    driver_below: int = 0,
) -> tuple[rd.Dataset, str]:
    """Kleinberg HITS over directed ``(src, dst)`` int64 edges: hub and
    authority scores by alternating power iteration (``auth = A^T·hub``
    then ``hub = A·auth``, each L2-normalized).  Returns
    ``((node, hub, authority) Dataset, engine_name)``.

    Dataset engine, per iteration: two scatter/gather half-steps, each
    the pagerank shape — scores co-locate with the STATIC tagged edge
    set on ``hash(endpoint) % num_buckets`` (edges tagged once per
    direction, materialized, never re-shipped through the driver),
    in-bucket vectorized merge + partial sums, a
    :func:`~.agg.grouped_reduce` over the receiving endpoint, and an
    L2-norm scan folded into a map-only divide.  Score tables
    ``repartition(repartition_to)`` each half-step so iterative block
    counts stay flat (CLAUDE.md r2 rule).

    ``driver_below`` (opt-in, 0 = off): when ``edges × iters`` is under
    the gate, collect the edge list and run the numpy loop —
    same fixed point (pytest-pinned rtol 1e-9), the pagerank_auto
    driver-tier story."""
    from .agg import grouped_reduce

    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return (
            rd.from_pandas(
                pd.DataFrame({"node": [], "hub": [], "authority": []})
            ),
            "driver",
        )
    if driver_below and n_edges * iters <= driver_below:
        return _hits_driver(edges.to_pandas(), src, dst, iters), "driver"

    nb = num_buckets

    def tag_edges_by(key: str, other: str):
        def f(b: pd.DataFrame) -> pa.Table:
            return pa.table(
                {
                    "key": b[key].to_numpy(dtype=np.int64),
                    "other": b[other].to_numpy(dtype=np.int64),
                    "score": np.full(len(b), np.nan),
                    "__h_bkt": _bkt(b[key], nb),
                }
            )

        return f

    # static tagged edge sets, one per direction, shipped once
    by_src = edges.map_batches(
        tag_edges_by(src, dst), batch_format="pandas"
    ).materialize()
    by_dst = edges.map_batches(
        tag_edges_by(dst, src), batch_format="pandas"
    ).materialize()

    def nodes_partial(b: pd.DataFrame) -> pa.Table:
        u = pd.unique(
            pd.concat([b[src], b[dst]], ignore_index=True).to_numpy()
        )
        return pa.table({"node": pa.array(u, pa.int64())})

    nodes = grouped_reduce(
        edges.map_batches(nodes_partial, batch_format="pandas"),
        ["node"],
        {"__one": (None, "count")},
        num_buckets=nb,
    ).select_columns(["node"]).materialize()

    def init_scores(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "node": b["node"].to_numpy(dtype=np.int64),
                "score": np.ones(len(b)),
            }
        )

    def tag_scores(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "key": b["node"].to_numpy(dtype=np.int64),
                "other": np.full(len(b), -1, dtype=np.int64),
                "score": b["score"].to_numpy(dtype=np.float64),
                "__h_bkt": _bkt(b["node"], nb),
            }
        )

    def scatter(group: pd.DataFrame) -> pa.Table:
        is_score = group["other"].to_numpy() == -1
        sc = group[is_score][["key", "score"]]
        e = group[~is_score][["key", "other"]]
        m = e.merge(sc, on="key", how="inner")
        part = m.groupby("other", as_index=False)["score"].sum()
        return pa.table(
            {
                "node": part["other"].to_numpy(dtype=np.int64),
                "partial": part["score"].to_numpy(dtype=np.float64),
            }
        )

    def half_step(static_edges: rd.Dataset, scores: rd.Dataset) -> rd.Dataset:
        tagged = static_edges.union(
            scores.map_batches(tag_scores, batch_format="pandas")
        )
        raw = grouped_reduce(
            tagged.groupby("__h_bkt").map_groups(
                scatter, batch_format="pandas"
            ),
            ["node"],
            {"score": ("partial", "sum")},
            num_buckets=nb,
        )
        raw = raw.repartition(repartition_to).materialize()
        ss = raw.map_batches(
            lambda b: pd.DataFrame(
                {"ss": [float(np.square(b["score"].to_numpy()).sum())]}
            ),
            batch_format="pandas",
        ).sum("ss")
        norm = float(np.sqrt(ss)) or 1.0
        return raw.map_batches(
            lambda b, _n=norm: pd.DataFrame(
                {"node": b["node"], "score": b["score"].to_numpy() / _n}
            ),
            batch_format="pandas",
        ).materialize()

    hub = nodes.map_batches(init_scores, batch_format="pandas").materialize()
    auth = hub
    for _ in range(iters):
        auth = half_step(by_src, hub)   # auth[d] = Σ hub[s] over (s,d)
        hub = half_step(by_dst, auth)   # hub[s]  = Σ auth[d] over (s,d)

    # receivers only get scored by the half-steps; nodes with no
    # in-edges (resp. out-edges) carry 0 — re-attach over the node set
    def finalize(g: pd.DataFrame) -> pa.Table:
        base = g[g["__which"] == 0][["node"]]
        h = g[g["__which"] == 1].set_index("node")["score"]
        a = g[g["__which"] == 2].set_index("node")["score"]
        out = base.copy()
        nodes_np = base["node"].to_numpy()
        out["hub"] = (
            h.reindex(nodes_np).fillna(0.0).to_numpy()
        )
        out["authority"] = (
            a.reindex(nodes_np).fillna(0.0).to_numpy()
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    def which(w: int):
        def f(b: pd.DataFrame) -> pa.Table:
            return pa.table(
                {
                    "node": b["node"].to_numpy(dtype=np.int64),
                    "score": (
                        b["score"].to_numpy(dtype=np.float64)
                        if "score" in b.columns
                        else np.zeros(len(b))
                    ),
                    "__which": np.full(len(b), w, dtype=np.int64),
                    "__h_bkt": _bkt(b["node"], nb),
                }
            )

        return f

    stacked = (
        nodes.map_batches(which(0), batch_format="pandas")
        .union(hub.map_batches(which(1), batch_format="pandas"))
        .union(auth.map_batches(which(2), batch_format="pandas"))
    )
    out = stacked.groupby("__h_bkt").map_groups(
        lambda g: finalize(g), batch_format="pandas"
    )
    return out, "dataset"


def local_clustering(
    edges: rd.Dataset,
    src: str = "src",
    dst: str = "dst",
    num_buckets: int = 64,
    assume_simple: bool = False,
) -> rd.Dataset:
    """Per-node triangle counts and LOCAL clustering coefficient —
    ``cc(v) = 2·T(v) / (deg(v)·(deg(v)−1))`` — the ego-density profile
    (community-ness of each node's neighborhood; the global transitivity
    summary hides exactly the hubs this exposes).  Beyond-reference
    operator; same degree-ordered wedge machinery as
    :func:`triangle_count` (Suri & Vassilvitskii WWW'11), with two
    deltas:

    * wedges carry their CENTER, so a matched pair yields the full
      triangle (u, a, b) and each corner's count increments — the pair
      combine is therefore per-(pair, center), i.e. the exchange ships
      the O(m^1.5) wedge volume (inherent to node-attributed triangle
      counting; the degree orientation still caps per-source fan-out at
      O(√m));
    * matched triangles explode to 3 (node, 1) partials combined
      in-group, then ONE grouped_reduce sums per-node triangles.

    ``cc`` is ONE division of exact int64s on both engines (bit-
    identical; the 6-dp round never splits), NULL for deg < 2.  Output:
    ``(node, deg, triangles, cc)``.
    """
    from .agg import bucketed_distinct, grouped_reduce
    from .relational import equi_join

    def canon(b: pd.DataFrame) -> pa.Table:
        u = b[src].to_numpy(dtype=np.int64)
        v = b[dst].to_numpy(dtype=np.int64)
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        out = pd.DataFrame({"a": lo, "b": hi}).drop_duplicates()
        return pa.table(
            {"a": pa.array(out["a"].to_numpy(), pa.int64()),
             "b": pa.array(out["b"].to_numpy(), pa.int64())}
        )

    e = edges.map_batches(canon, batch_format="pandas")
    if not assume_simple:
        e = bucketed_distinct(e, ["a", "b"], num_buckets=num_buckets)
    e = e.materialize()

    def stack(b: pd.DataFrame) -> pa.Table:
        nodes = np.concatenate(
            [b["a"].to_numpy(dtype=np.int64), b["b"].to_numpy(dtype=np.int64)]
        )
        return pa.table({"node": pa.array(nodes, pa.int64())})

    degs = grouped_reduce(
        e.map_batches(stack, batch_format="pandas"),
        ["node"], {"deg": (None, "count")}, num_buckets=num_buckets,
    ).materialize()

    def _rename(cols: dict):
        return lambda b: b.rename(columns=cols)

    j = equi_join(
        e, degs.map_batches(_rename({"node": "a", "deg": "deg_a"}),
                            batch_format="pandas"), "a")
    j = equi_join(
        j, degs.map_batches(_rename({"node": "b", "deg": "deg_b"}),
                            batch_format="pandas"), "b")

    nb = np.uint64(num_buckets)
    MULT = np.uint64(0x9E3779B97F4A7C15)

    def orient(b: pd.DataFrame) -> pa.Table:
        a = b["a"].to_numpy(dtype=np.int64)
        bb = b["b"].to_numpy(dtype=np.int64)
        da = b["deg_a"].to_numpy(dtype=np.int64)
        db = b["deg_b"].to_numpy(dtype=np.int64)
        swap = (db < da) | ((db == da) & (bb < a))
        u = np.where(swap, bb, a)
        v = np.where(swap, a, bb)
        bkt = ((u.astype(np.uint64) * MULT) >> np.uint64(32)) % nb
        return pa.table(
            {"u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64()),
             "__lc_bkt": pa.array(bkt.astype(np.int64), pa.int64())}
        )

    oriented = j.map_batches(orient, batch_format="pandas")

    def wedges(g: pd.DataFrame) -> pa.Table:
        u = g["u"].to_numpy(dtype=np.int64)
        v = g["v"].to_numpy(dtype=np.int64)
        order = np.argsort(u, kind="mergesort")
        u_s, v_s = u[order], v[order]
        _, starts, counts = np.unique(u_s, return_index=True,
                                      return_counts=True)
        pos = np.arange(len(u_s), dtype=np.int64)
        rank = pos - np.repeat(starts, counts)
        rem = np.repeat(counts, counts) - rank - 1
        ii = np.repeat(pos, rem)
        off = (np.arange(int(rem.sum()), dtype=np.int64)
               - np.repeat(np.cumsum(rem) - rem, rem) + 1)
        jj = ii + off
        w1, w2 = v_s[ii], v_s[jj]
        ctr = u_s[ii]
        wa, wb = np.minimum(w1, w2), np.maximum(w1, w2)
        h = (wa.astype(np.uint64) * MULT) ^ wb.astype(np.uint64)
        bkt = ((h * MULT) >> np.uint64(32)) % nb
        return pa.table(
            {"a": pa.array(wa, pa.int64()), "b": pa.array(wb, pa.int64()),
             "c": pa.array(ctr, pa.int64()),
             "__lc_side": pa.array(np.ones(len(wa), np.int64), pa.int64()),
             "__lc_pbkt": pa.array(bkt.astype(np.int64), pa.int64())}
        )

    wedge_ds = oriented.groupby("__lc_bkt").map_groups(
        wedges, batch_format="pandas"
    )

    def tag_edges(b: pd.DataFrame) -> pa.Table:
        a = b["a"].to_numpy(dtype=np.int64)
        bb = b["b"].to_numpy(dtype=np.int64)
        h = (a.astype(np.uint64) * MULT) ^ bb.astype(np.uint64)
        bkt = ((h * MULT) >> np.uint64(32)) % nb
        return pa.table(
            {"a": pa.array(a, pa.int64()), "b": pa.array(bb, pa.int64()),
             "c": pa.array(np.zeros(len(a), np.int64), pa.int64()),
             "__lc_side": pa.array(np.zeros(len(a), np.int64), pa.int64()),
             "__lc_pbkt": pa.array(bkt.astype(np.int64), pa.int64())}
        )

    both = e.map_batches(tag_edges, batch_format="pandas").union(wedge_ds)

    def match(g: pd.DataFrame) -> pa.Table:
        is_edge = g["__lc_side"].to_numpy() == 0
        ek = g[is_edge][["a", "b"]].drop_duplicates()
        wk = g[~is_edge][["a", "b", "c"]]
        tri = wk.merge(ek, on=["a", "b"], how="inner")
        if tri.empty:
            return pa.table({"node": pa.array([], pa.int64()),
                             "t": pa.array([], pa.int64())})
        nodes = np.concatenate(
            [tri["a"].to_numpy(np.int64), tri["b"].to_numpy(np.int64),
             tri["c"].to_numpy(np.int64)]
        )
        cnt = pd.Series(nodes).value_counts()
        return pa.table(
            {"node": pa.array(cnt.index.to_numpy(np.int64), pa.int64()),
             "t": pa.array(cnt.to_numpy(np.int64), pa.int64())}
        )

    tri_counts = grouped_reduce(
        both.groupby("__lc_pbkt").map_groups(match, batch_format="pandas"),
        ["node"], {"triangles": ("t", "sum")}, num_buckets=num_buckets,
    )

    out = equi_join(
        degs, tri_counts, "node", how="left"
    )

    def finish(b: pd.DataFrame) -> pa.Table:
        d = b["deg"].to_numpy(np.int64)
        t = b["triangles"].fillna(0).to_numpy(np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            cc = np.where(d >= 2, 2.0 * t / (d * (d - 1.0)), np.nan)
        cc = np.where(np.isnan(cc), np.nan,
                      np.sign(cc) * np.floor(np.abs(cc) * 1e6 + 0.5) / 1e6)
        return pa.table(
            {"node": pa.array(b["node"].to_numpy(np.int64), pa.int64()),
             "deg": pa.array(d, pa.int64()),
             "triangles": pa.array(t, pa.int64()),
             "cc": pa.array(cc, pa.float64())}
        )

    return out.map_batches(finish, batch_format="pandas")


def _weighted_simple_edges(
    edges: rd.Dataset,
    src: str,
    dst: str,
    weight: str,
    num_buckets: int = 64,
    partitions: int = 16,
) -> rd.Dataset:
    """Materialized distinct ``a < b`` pairs with the MIN weight per
    pair (parallel/reverse edges collapse to the cheapest; self-loops
    never shorten a path, dropped).  Same two-stage shape as
    :func:`_simple_edges` with a min-weight combine at both stages.
    Weights travel as int64 — integer costs keep every path sum exact
    (the round-5 float-boundary rule)."""
    nb = np.uint64(num_buckets)

    def canon(b: pd.DataFrame) -> pa.Table:
        u = b[src].to_numpy(dtype=np.int64)
        v = b[dst].to_numpy(dtype=np.int64)
        w = b[weight].to_numpy(dtype=np.int64)
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        out = (
            pd.DataFrame({"a": lo, "b": hi, "w": w[keep]})
            .groupby(["a", "b"], sort=False)["w"]
            .min()
            .reset_index()
        )
        h = (
            out["a"].to_numpy().astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            + out["b"].to_numpy().astype(np.uint64)
        )
        return pa.table(
            {
                "a": pa.array(out["a"].to_numpy(), pa.int64()),
                "b": pa.array(out["b"].to_numpy(), pa.int64()),
                "w": pa.array(out["w"].to_numpy(), pa.int64()),
                "__pb": pa.array((h % nb).astype(np.int64), pa.int64()),
            }
        )

    def pair_min(g: pd.DataFrame) -> pa.Table:
        out = (
            g.groupby(["a", "b"], sort=False)["w"].min().reset_index()
        )
        return pa.table(
            {
                "a": pa.array(out["a"].to_numpy(dtype=np.int64), pa.int64()),
                "b": pa.array(out["b"].to_numpy(dtype=np.int64), pa.int64()),
                "w": pa.array(out["w"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    return (
        edges.map_batches(canon, batch_format="pandas")
        .groupby("__pb")
        .map_groups(pair_min, batch_format="pandas")
        .repartition(partitions)
        .materialize()
    )


def sssp_distances(
    edges: rd.Dataset,
    source: int,
    src: str = "src",
    dst: str = "dst",
    weight: str = "w",
    max_iters: int = 64,
    num_buckets: int = 64,
    partitions: int = 16,
    broadcast_below: int = 2_000_000,
) -> rd.Dataset:
    """Single-source shortest paths over the simple undirected graph
    with non-negative INTEGER edge weights (exact int64 path sums — no
    float-boundary ambiguity anywhere).  Returns ``(node, dist)`` for
    every node reachable within ``max_iters`` relaxation rounds
    (Bellman-Ford converges in ≤ |V|-1 rounds; each round only relaxes
    from nodes whose distance IMPROVED last round, so the work per
    round tracks the true frontier like delta-stepping's light bucket).

    Engine gate mirrors :func:`bfs_distances` on the distance-table
    size:

    * **driver-frontier** (``len(dist) ≤ broadcast_below``): the
      changed-node distance dict is ``ray.put``-broadcast; each round
      is one map-only pass over the once-materialized weighted edges
      emitting per-block min-combined candidate (node, dist) pairs —
      zero exchanges per round.
    * **dataset** (spills mid-run, continuing from the driver state):
      scatter via the size-gated :func:`~.relational.equi_join` of the
      changed table onto the both-direction edge view, per-node min via
      grouped_reduce, then a tag-union hash(node) co-location merges
      candidates into the distance table and flags improvements — the
      per-round payload is edges + frontier rows, never all-pairs.

    No SQL oracle (DuckDB 1.0 recursive CTEs enumerate paths —
    exponential on cyclic graphs; ``USING KEY`` arrives in 1.3) — both
    engines are pinned equal and against a single-process Bellman-Ford
    in pytest.
    """
    import ray

    from ..state.worker_state import get_worker_state, ref_key
    from .agg import grouped_reduce
    from .relational import equi_join

    wedges = _weighted_simple_edges(
        edges, src, dst, weight, num_buckets, partitions
    )

    dist_d: dict[int, int] = {int(source): 0}
    changed_d: dict[int, int] = dict(dist_d)
    it = 0
    spilled = False
    while it < max_iters and changed_d:
        if len(dist_d) > broadcast_below:
            spilled = True
            break
        cref = ray.put(changed_d)

        def relax_map(b: pd.DataFrame, _c=cref) -> pa.Table:
            ch = get_worker_state(("sssp-c", ref_key(_c)), lambda: ray.get(_c))
            a = b["a"].to_numpy(dtype=np.int64)
            bb = b["b"].to_numpy(dtype=np.int64)
            w = b["w"].to_numpy(dtype=np.int64)
            sa = pd.Series(a)
            sb = pd.Series(bb)
            da = sa.map(ch)
            db = sb.map(ch)
            m_a = da.notna().to_numpy()
            m_b = db.notna().to_numpy()
            cand = pd.DataFrame(
                {
                    "node": np.concatenate([bb[m_a], a[m_b]]),
                    "nd": np.concatenate(
                        [
                            da.to_numpy(dtype=np.float64)[m_a].astype(np.int64) + w[m_a],
                            db.to_numpy(dtype=np.float64)[m_b].astype(np.int64) + w[m_b],
                        ]
                    ),
                }
            )
            out = cand.groupby("node", sort=False)["nd"].min().reset_index()
            return pa.table(
                {
                    "node": pa.array(out["node"].to_numpy(dtype=np.int64), pa.int64()),
                    "nd": pa.array(out["nd"].to_numpy(dtype=np.int64), pa.int64()),
                }
            )

        part = wedges.map_batches(relax_map, batch_format="pandas").to_pandas()
        changed_d = {}
        if "node" in part.columns and len(part):
            best = part.groupby("node")["nd"].min()
            for n_, d_ in best.items():
                n_, d_ = int(n_), int(d_)
                if n_ not in dist_d or d_ < dist_d[n_]:
                    dist_d[n_] = d_
                    changed_d[n_] = d_
        it += 1
    if not spilled:
        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array(sorted(dist_d), pa.int64()),
                    "dist": pa.array(
                        [dist_d[k] for k in sorted(dist_d)], pa.int64()
                    ),
                }
            )
        )

    # ---- dataset engine (distance table outgrew the driver gate) ----
    nb = np.uint64(num_buckets)
    both = wedges.map_batches(
        lambda t: pa.table(
            {
                "k": pa.concat_arrays([t["a"].combine_chunks(), t["b"].combine_chunks()]),
                "other": pa.concat_arrays([t["b"].combine_chunks(), t["a"].combine_chunks()]),
                "ew": pa.concat_arrays([t["w"].combine_chunks(), t["w"].combine_chunks()]),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def _tbl(d: dict[int, int], cols=("node", "dist")) -> pa.Table:
        ks = sorted(d)
        return pa.table(
            {
                cols[0]: pa.array(ks, pa.int64()),
                cols[1]: pa.array([d[k] for k in ks], pa.int64()),
            }
        )

    dist = rd.from_arrow(_tbl(dist_d)).repartition(partitions).materialize()
    changed = rd.from_arrow(_tbl(changed_d)).materialize()
    n_changed = changed.count()

    while it < max_iters and n_changed:
        cand = equi_join(
            both,
            changed.map_batches(
                lambda t: t.rename_columns(["k", "d0"]), batch_format="pyarrow"
            ),
            "k",
            broadcast_below=broadcast_below,
            num_buckets=num_buckets,
        ).map_batches(
            lambda t: pa.table(
                {
                    "node": t["other"].combine_chunks(),
                    "nd": pc.add(t["ew"], t["d0"]),
                }
            ),
            batch_format="pyarrow",
        )
        cand_min = grouped_reduce(
            cand, ["node"], {"nd": ("nd", "min")}, num_buckets=num_buckets
        )

        def tag_dist(t: pa.Table) -> pa.Table:
            h = t["node"].to_numpy().astype(np.uint64) % nb
            return pa.table(
                {
                    "node": t["node"].combine_chunks(),
                    "d": t["dist"].combine_chunks(),
                    "is_new": pa.array(np.zeros(len(t), np.int8), pa.int8()),
                    "__sb": pa.array(h.astype(np.int64), pa.int64()),
                }
            )

        def tag_cand(t: pa.Table) -> pa.Table:
            h = t["node"].to_numpy().astype(np.uint64) % nb
            return pa.table(
                {
                    "node": t["node"].combine_chunks(),
                    "d": t["nd"].combine_chunks(),
                    "is_new": pa.array(np.ones(len(t), np.int8), pa.int8()),
                    "__sb": pa.array(h.astype(np.int64), pa.int64()),
                }
            )

        def merge(g: pd.DataFrame) -> pa.Table:
            old = g[g["is_new"] == 0]
            new = g[g["is_new"] == 1]
            cur = dict(zip(old["node"].to_numpy(), old["d"].to_numpy()))
            nbest = new.groupby("node", sort=False)["d"].min()
            rows_n, rows_d, rows_i = [], [], []
            improved = {}
            for n_, d_ in nbest.items():
                if n_ not in cur or d_ < cur[n_]:
                    improved[int(n_)] = int(d_)
            merged = dict(cur)
            merged.update(improved)
            for n_ in sorted(merged):
                rows_n.append(int(n_))
                rows_d.append(int(merged[n_]))
                rows_i.append(1 if n_ in improved else 0)
            return pa.table(
                {
                    "node": pa.array(rows_n, pa.int64()),
                    "dist": pa.array(rows_d, pa.int64()),
                    "improved": pa.array(rows_i, pa.int8()),
                }
            )

        merged = (
            dist.map_batches(tag_dist, batch_format="pyarrow")
            .union(cand_min.map_batches(tag_cand, batch_format="pyarrow"))
            .groupby("__sb")
            .map_groups(merge, batch_format="pandas")
            .repartition(partitions)
            .materialize()
        )
        dist = merged.map_batches(
            lambda t: t.select(["node", "dist"]), batch_format="pyarrow"
        ).materialize()
        changed = merged.map_batches(
            lambda t: t.filter(pc.equal(t["improved"], 1)).select(
                ["node", "dist"]
            ),
            batch_format="pyarrow",
        ).materialize()
        n_changed = changed.count()
        it += 1
    return dist


def neighbor_agg(
    edges: rd.Dataset,
    feats: rd.Dataset,
    src_col: str = "src",
    dst_col: str = "dst",
    node_col: str = "node",
    feat_col: str = "feat",
    directed: bool = False,
    broadcast_below: int = 2_000_000,
    num_buckets: int = 64,
) -> rd.Dataset:
    """GNN-style one-hop neighbor feature aggregation (GraphSAGE
    mean/sum message passing, Hamilton et al. 2017): for every node,
    the count and sum of its neighbors' features.  ``directed=False``
    treats each edge both ways (canonical a<b pair lists work as-is);
    ``directed=True`` aggregates over OUT-neighbors only.

    ``feat_col`` must be int64 (convert money to cents upstream — the
    round-5 exactness rule), so (n_neighbors, feat_sum) is bit-exact
    vs the SQL join+group mirror; derive float means downstream from
    the exact pair.

    Shape: explode edges to (node, nbr) message rows — 2|E| rows max,
    never features×edges — attach the neighbor's feature through
    :func:`~.relational.equi_join` (size-gated broadcast vs bucketed
    co-location), then one ``grouped_reduce`` by node.  At 100 TB this
    is two bounded exchanges over skinny int64 rows; node features are
    broadcast once per worker when they fit."""
    from .agg import grouped_reduce
    from .relational import equi_join

    def explode(b: pd.DataFrame) -> pa.Table:
        s = b[src_col].to_numpy(dtype=np.int64)
        d = b[dst_col].to_numpy(dtype=np.int64)
        if directed:
            node, nbr = s, d
        else:
            node = np.concatenate([s, d])
            nbr = np.concatenate([d, s])
        return pa.table(
            {
                "__na_node": pa.array(node, pa.int64()),
                "__na_nbr": pa.array(nbr, pa.int64()),
            }
        )

    def feat_rows(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "__na_nbr": pa.array(b[node_col].to_numpy(dtype=np.int64), pa.int64()),
                "__na_feat": pa.array(
                    b[feat_col].to_numpy(dtype=np.int64), pa.int64()
                ),
            }
        )

    msgs = equi_join(
        edges.map_batches(explode, batch_format="pandas"),
        feats.map_batches(feat_rows, batch_format="pandas"),
        "__na_nbr",
        broadcast_below=broadcast_below,
        num_buckets=num_buckets,
    )
    agg = grouped_reduce(
        msgs,
        ["__na_node"],
        {"n_neighbors": (None, "count"), "feat_sum": ("__na_feat", "sum")},
        num_buckets=num_buckets,
    )

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            [node_col if c == "__na_node" else c for c in t.column_names]
        )

    return agg.map_batches(rename, batch_format="pyarrow")
