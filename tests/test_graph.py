"""PageRank (stages/graph.py) vs an in-memory numpy power iteration
with identical dangling/teleport semantics."""

import numpy as np
import pandas as pd

import ray.data as rd

from table_annotation_ray.stages.graph import pagerank


def _reference_pagerank(edges: pd.DataFrame, damping: float, iters: int):
    nodes = np.unique(np.r_[edges["src"].to_numpy(), edges["dst"].to_numpy()])
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    out_deg = np.zeros(n)
    for s in edges["src"]:
        out_deg[idx[s]] += 1
    r = np.full(n, 1.0 / n)
    si = edges["src"].map(idx).to_numpy()
    di = edges["dst"].map(idx).to_numpy()
    for _ in range(iters):
        dangling = r[out_deg == 0].sum()
        contrib = np.zeros(n)
        np.add.at(contrib, di, r[si] / out_deg[si])
        r = (1 - damping) / n + damping * dangling / n + damping * contrib
    return pd.DataFrame({"node": nodes, "rank": r})


def _random_graph(n_nodes=60, n_edges=220, seed=13):
    rng = np.random.default_rng(seed)
    # non-contiguous ids; the last 10 nodes never appear as src => dangling
    ids = rng.permutation(10_000)[:n_nodes].astype(np.int64)
    src = ids[rng.integers(0, n_nodes - 10, n_edges)]
    dst = ids[rng.integers(0, n_nodes, n_edges)]
    keep = src != dst
    return pd.DataFrame({"src": src[keep], "dst": dst[keep]})


def test_pagerank_matches_power_iteration(ray_session):
    edges = _random_graph()
    got = (
        pagerank(rd.from_pandas(edges).repartition(5), iters=12, num_buckets=8, repartition_to=4)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    want = _reference_pagerank(edges, 0.85, 12).sort_values("node").reset_index(drop=True)
    assert got["node"].tolist() == want["node"].tolist()
    np.testing.assert_allclose(got["rank"], want["rank"], rtol=1e-9, atol=1e-12)
    # total mass conserved
    assert abs(got["rank"].sum() - 1.0) < 1e-9


def test_pagerank_deterministic_across_runs(ray_session):
    edges = _random_graph(seed=29)
    a = pagerank(rd.from_pandas(edges).repartition(7), iters=6, num_buckets=8, repartition_to=4).to_pandas()
    b = pagerank(rd.from_pandas(edges).repartition(3), iters=6, num_buckets=5, repartition_to=2).to_pandas()
    a = a.sort_values("node").reset_index(drop=True)
    b = b.sort_values("node").reset_index(drop=True)
    np.testing.assert_allclose(a["rank"], b["rank"], rtol=1e-12, atol=0)


def test_pagerank_auto_dispatch_and_equivalence(ray_session):
    from table_annotation_ray.stages.graph import pagerank_auto

    edges = _random_graph(seed=37)
    # tiny graph, default threshold -> Dataset engine
    ds_ranks, engine = pagerank_auto(rd.from_pandas(edges), iters=6)
    assert engine == "dataset"
    # threshold=1 forces the shard tier; ranks must agree to rtol 1e-9
    sh_ranks, engine2 = pagerank_auto(
        rd.from_pandas(edges), iters=6, threshold=1, num_shards=3,
    )
    assert engine2 == "sharded"
    a = ds_ranks.to_pandas().sort_values("node").reset_index(drop=True)
    b = sh_ranks.to_pandas().sort_values("node").reset_index(drop=True)
    assert a["node"].tolist() == b["node"].tolist()
    np.testing.assert_allclose(a["rank"], b["rank"], rtol=1e-9, atol=1e-12)
    # opt-in driver tier: same fixed point as the Dataset engine
    dr_ranks, engine3 = pagerank_auto(
        rd.from_pandas(edges), iters=6, driver_below=10**9
    )
    assert engine3 == "driver"
    c = dr_ranks.to_pandas().sort_values("node").reset_index(drop=True)
    assert a["node"].tolist() == c["node"].tolist()
    np.testing.assert_allclose(a["rank"], c["rank"], rtol=1e-9, atol=1e-12)


def test_pagerank_star_graph_closed_form(ray_session):
    # hub <- n spokes: after 1 iter from uniform, closed forms hold
    n = 9
    edges = pd.DataFrame({"src": np.arange(1, n + 1, dtype=np.int64),
                          "dst": np.zeros(n, dtype=np.int64)})
    got = pagerank(rd.from_pandas(edges), iters=40, num_buckets=4, repartition_to=2).to_pandas()
    ranks = dict(zip(got["node"], got["rank"]))
    N = n + 1
    d = 0.85
    # spokes receive only teleport + hub's dangling share; fixed point:
    # r_spoke = (1-d)/N + d*r_hub/N ; r_hub = (1-d)/N + d*r_hub/N + d*n*r_spoke
    # solve the 2x2 system
    A = np.array([[1, -d / N], [-d * n, 1 - d / N]])
    b = np.array([(1 - d) / N, (1 - d) / N])
    r_spoke, r_hub = np.linalg.solve(A, b)
    # power iteration converges like damping**iters (~1.5e-3 at 40)
    assert abs(ranks[0] - r_hub) < 2e-3
    assert abs(ranks[5] - r_spoke) < 2e-3


def test_pagerank_sharded_matches_dataset(ray_session):
    from table_annotation_ray.state.graph_shards import pagerank_sharded

    edges = _random_graph(seed=41, n_nodes=80, n_edges=400)
    want = (
        pagerank(rd.from_pandas(edges).repartition(4), iters=8,
                 num_buckets=8, repartition_to=4)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    got = pagerank_sharded(
        rd.from_pandas(edges).repartition(4), iters=8,
        num_shards=3,
    )
    assert got["node"].tolist() == want["node"].tolist()
    np.testing.assert_allclose(got["rank"], want["rank"], rtol=1e-9)
    assert abs(got["rank"].sum() - 1.0) < 1e-9


# --- fifth code-review batch regressions -----------------------------------


def test_pagerank_sharded_reused_scratch_and_empty(ray_session, tmp_path):
    """A reused scratch_dir must not leak a PRIOR run's shard files into
    a shard that owns no edges this run; an empty edge set returns an
    empty frame instead of ZeroDivisionError."""
    import ray.data as rd

    from table_annotation_ray.state.graph_shards import pagerank_sharded

    d = str(tmp_path / "scratch")
    # v1: a dense ring over nodes 0..29 (every shard owns edges)
    e1 = pd.DataFrame(
        {"src": np.arange(30, dtype=np.int64),
         "dst": (np.arange(30, dtype=np.int64) + 1) % 30}
    )
    r1 = pagerank_sharded(
        rd.from_pandas(e1), iters=3, num_shards=4, scratch_dir=d,
    )
    assert set(r1["node"]) == set(range(30))
    # v2 in the SAME scratch dir: two edges only — stale shard files
    # must not resurrect v1 nodes
    e2 = pd.DataFrame({"src": np.array([100, 101], dtype=np.int64),
                       "dst": np.array([101, 100], dtype=np.int64)})
    r2 = pagerank_sharded(
        rd.from_pandas(e2), iters=3, num_shards=4, scratch_dir=d,
    )
    assert set(r2["node"]) == {100, 101}
    # empty edges: empty result, no crash
    r3 = pagerank_sharded(
        rd.from_pandas(pd.DataFrame({"src": pd.Series([], dtype=np.int64),
                                     "dst": pd.Series([], dtype=np.int64)})),
        iters=2, num_shards=2,
    )
    assert len(r3) == 0


def test_pagerank_sharded_cleans_tmp_scratch(ray_session):
    """Without a caller scratch_dir the /tmp copy of the edge set is
    removed once the actors have loaded it (leak fix)."""
    import glob

    import ray.data as rd

    from table_annotation_ray.state.graph_shards import pagerank_sharded

    before = set(glob.glob("/tmp/pr_shards_*"))
    e = pd.DataFrame({"src": np.arange(10, dtype=np.int64),
                      "dst": (np.arange(10, dtype=np.int64) + 1) % 10})
    pagerank_sharded(rd.from_pandas(e), iters=2, num_shards=2)
    after = set(glob.glob("/tmp/pr_shards_*"))
    assert after <= before


def test_triangle_count_matches_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from table_annotation_ray.stages.graph import triangle_count

    rng = np.random.default_rng(11)
    n, m = 200, 1500
    df = pd.DataFrame(
        {"src": rng.integers(0, n, m), "dst": rng.integers(0, n, m)}
    )
    # duplicates + self-loops in the input: canonicalization must absorb both
    res = triangle_count(rd.from_pandas(df).repartition(5), "src", "dst")

    e = df[df.src != df.dst]
    lo, hi = np.minimum(e.src, e.dst), np.maximum(e.src, e.dst)
    E = set(zip(lo.tolist(), hi.tolist()))
    adj: dict[int, set] = {}
    for a, b in E:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = sum(1 for (a, b) in E for c in adj[a] & adj[b] if c > b)
    assert res == {"n_edges": len(E), "n_triangles": tri}

    # degenerate graphs
    empty = pd.DataFrame({"src": pd.Series([], dtype=np.int64),
                          "dst": pd.Series([], dtype=np.int64)})
    assert triangle_count(rd.from_pandas(empty))["n_triangles"] == 0
    path = pd.DataFrame({"src": [1, 2], "dst": [2, 3]})  # no triangle
    assert triangle_count(rd.from_pandas(path)) == {"n_edges": 2, "n_triangles": 0}


def _ref_kcore(pairs, k):
    """Single-process reference peeling over (a, b) simple-graph pairs."""
    import collections

    adj = collections.defaultdict(set)
    for a, b in pairs:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    changed = True
    while changed:
        changed = False
        for n in list(adj):
            if len(adj[n]) < k:
                for m in adj.pop(n):
                    adj[m].discard(n)
                changed = True
    return {n: len(v) for n, v in adj.items()}


def test_k_core_matches_reference_peeling(ray_session):
    import itertools

    import ray.data as rd

    from table_annotation_ray.stages.graph import k_core

    rng = np.random.default_rng(31)
    # random sparse graph + a planted 7-clique that must survive k=5
    rand = [(int(a), int(b)) for a, b in rng.integers(0, 120, (400, 2))]
    clique = list(itertools.combinations(range(200, 207), 2))
    pairs = rand + clique
    df = pd.DataFrame(pairs, columns=["src", "dst"])
    # duplicate + reversed rows: canon must collapse them
    df = pd.concat([df, df.rename(columns={"src": "dst", "dst": "src"})])

    for kk in (3, 5):
        ref = _ref_kcore(pairs, kk)
        out = (
            k_core(rd.from_pandas(df).repartition(5), k=kk)
            .to_pandas()
            .sort_values("node")
        )
        assert dict(zip(out.node, out.degree)) == ref, kk
        # co-location fallback path: identical
        out2 = (
            k_core(rd.from_pandas(df).repartition(5), k=kk, broadcast_below=0)
            .to_pandas()
            .sort_values("node")
        )
        assert dict(zip(out2.node, out2.degree)) == ref, kk
    assert all(n in _ref_kcore(pairs, 5) for n in range(200, 207))


def _ref_bfs(pairs, source, max_depth):
    from collections import deque

    adj = {}
    for a, b in pairs:
        if a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        if dist[u] >= max_depth:
            continue
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def test_bfs_distances_matches_reference(ray_session):
    import ray.data as rd

    from table_annotation_ray.stages.graph import bfs_distances

    rng = np.random.default_rng(77)
    # two components: BFS from comp-A source must never reach comp B
    comp_a = [(int(a), int(b)) for a, b in rng.integers(0, 80, (200, 2))]
    comp_b = [(int(a) + 1000, int(b) + 1000) for a, b in rng.integers(0, 40, (60, 2))]
    # a long chain to exercise the depth cap
    chain = [(0, 500), (500, 501), (501, 502), (502, 503), (503, 504)]
    pairs = comp_a + comp_b + chain
    df = pd.DataFrame(pairs, columns=["src", "dst"])
    df = pd.concat([df, df.rename(columns={"src": "dst", "dst": "src"})])

    for cap in (3, 16):
        ref = _ref_bfs(pairs, 0, cap)
        out = (
            bfs_distances(rd.from_pandas(df).repartition(5), 0, max_depth=cap)
            .to_pandas()
            .sort_values("node")
        )
        assert dict(zip(out.node, out.dist)) == ref, cap
        # dataset engine (forced spill after the source round): identical
        out2 = (
            bfs_distances(
                rd.from_pandas(df).repartition(5), 0, max_depth=cap,
                broadcast_below=0,
            )
            .to_pandas()
            .sort_values("node")
        )
        assert dict(zip(out2.node, out2.dist)) == ref, ("spill", cap)
    assert not any(n >= 1000 for n in _ref_bfs(pairs, 0, 16))


def test_common_neighbors_matches_reference(ray_session):
    import itertools

    import ray.data as rd

    from table_annotation_ray.stages.graph import common_neighbors

    rng = np.random.default_rng(5)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 60, (300, 2)) if a != b]
    # a hub: degree above the cap, must contribute NO wedges
    hub = [(99, n) for n in range(30)]
    pairs += hub
    df = pd.DataFrame(pairs, columns=["src", "dst"])
    df = pd.concat([df, df.rename(columns={"src": "dst", "dst": "src"})])

    D, M = 10, 2
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    ref = {}
    for c, ns in adj.items():
        if len(ns) > D:
            continue
        for u, v in itertools.combinations(sorted(ns), 2):
            ref[(u, v)] = ref.get((u, v), 0) + 1
    ref = {
        k: n for k, n in ref.items()
        if n >= M and k[1] not in adj.get(k[0], ())
    }

    out = common_neighbors(
        rd.from_pandas(df).repartition(5), max_center_degree=D, min_common=M
    ).to_pandas()
    assert {(int(r.u), int(r.v)): int(r.common) for r in out.itertuples()} == ref
    # hub check: 99 has degree 30 > D, so no pair is scored through it
    assert all(len(adj[c]) <= D for c in adj if c == 99) is False


def test_pagerank_labels_matches_int_pagerank(ray_session):
    import ray.data as rd

    from table_annotation_ray.stages.graph import pagerank, pagerank_labels

    rng = np.random.default_rng(3)
    e = pd.DataFrame(
        {"src": rng.integers(0, 50, 400), "dst": rng.integers(0, 50, 400)}
    )
    ranks_int = (
        pagerank(rd.from_pandas(e), iters=6).to_pandas().set_index("node")["rank"]
    )
    es = e.copy()
    es["src"] = "node-" + es["src"].astype(str)
    es["dst"] = "node-" + es["dst"].astype(str)
    out = pagerank_labels(
        rd.from_pandas(es).repartition(4), iters=6
    ).to_pandas()
    assert len(out) == len(ranks_int)
    for r in out.itertuples():
        n = int(r.node.removeprefix("node-"))
        assert abs(r.rank - ranks_int.loc[n]) < 1e-9, n
