"""Exact distributed order statistics (quantiles) without a global
sort: histogram selection.

``exact_quantiles(ds, col, qs)`` returns, for each q, the k-th
smallest value with ``k = ceil(q * n)`` — the discrete quantile — via:

1. one ``aggregate(Min, Max, Count)`` scan for the value range,
2. one ``map_batches`` pass building per-batch equi-width histograms
   (``np.histogram`` over shared edges — mergeable int64 partials,
   combined through the sketch family's distributed ``tree_reduce``),
3. for every target rank the owning bin is found from the cumulative
   histogram; if a bin holds more rows than ``collect_below`` the
   histogram is recursively refined WITHIN that bin (another filtered
   scan, geometric shrink — at 10^12 rows and 4096 bins two refinement
   levels reach ~60k candidates), else
4. one filtered collection of just that bin's values (tiny) and an
   exact in-memory selection.

Total cost: 2 + O(log_bins(n / collect_below)) streaming scans, no
shuffle at all — compare a global ``ds.sort`` (full all-to-all
exchange) to select a handful of ranks.  Ties need no tie-break: the
VALUE at rank k is unique regardless of the ordering of equal values.

No reference counterpart (SURVEY §2 extension: sketch/statistics
family alongside HLL / Misra-Gries); the SQL oracle is the
row_number-over-order window at the same ranks.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from .sketches import tree_reduce

DEFAULT_BINS = 4096
DEFAULT_COLLECT_BELOW = 200_000


def grouped_quantiles(
    ds: rd.Dataset,
    group_col: str,
    col: str,
    qs: list[float],
    bins: int = 1024,
    collect_below: int = DEFAULT_COLLECT_BELOW,
) -> pd.DataFrame:
    """Exact per-group quantiles (k = ceil(q·n_g) per group g) in THREE
    streaming scans regardless of group count — the huge-group-safe
    alternative to ``groupby(g).map_groups(sort)``, which dies when one
    group exceeds a worker heap:

    1. ``groupby(group).aggregate(Min, Max, Count)`` — per-group ranges
       (output is group-cardinality-sized, assumed driver-small; use
       :func:`exact_quantiles` per group when it is not),
    2. one ``map_batches`` pass emitting per-(batch, group) histograms
       over the group's broadcast range, summed by a ``groupby(group)``
       of sketch-sized rows,
    3. one filtered collection of each group's owning bins (bounded by
       ``collect_below`` per group) and exact in-memory selection.

    Groups whose owning bin still exceeds ``collect_below`` fall back to
    :func:`exact_quantiles` on the group's filtered rows (rare: needs
    > collect_below·bins rows in one group).  Returns a DataFrame
    ``(group, q, value)``."""
    import ray

    from ..state.worker_state import get_worker_state, ref_key
    from .agg import grouped_reduce

    ds = ds.select_columns([group_col, col])
    stats = grouped_reduce(
        ds, [group_col],
        {"lo": (col, "min"), "hi": (col, "max"), "n": (None, "count")},
    ).to_pandas()
    ranges = {
        g: (float(lo), float(hi))
        for g, lo, hi in zip(stats[group_col], stats["lo"], stats["hi"])
    }
    rref = ray.put(ranges)

    def part(b: pd.DataFrame) -> pa.Table:
        rg = get_worker_state(("gq_ranges", ref_key(rref)), lambda: ray.get(rref))
        rows_g, rows_h = [], []
        for g, sub in b.groupby(group_col, sort=False):
            lo, hi = rg[g]
            h, _ = np.histogram(
                sub[col].to_numpy(dtype=np.float64),
                bins=bins, range=(lo, hi if hi > lo else lo + 1.0),
            )
            rows_g.append(g)
            rows_h.append(h.astype(np.int64).tobytes())
        # Arrow out: the group exchange below is a sort-shuffle and
        # pandas blocks poison it (CLAUDE.md r3; review r4)
        return pa.Table.from_pandas(
            pd.DataFrame({group_col: rows_g, "h": rows_h}),
            preserve_index=False,
        )

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        s = np.stack([np.frombuffer(x, dtype=np.int64) for x in g["h"]]).sum(axis=0)
        return pd.DataFrame({group_col: g[group_col].iloc[:1], "h": [s.tobytes()]})

    hists = (
        ds.map_batches(part, batch_format="pandas", batch_size=262_144)
        .groupby(group_col)
        .map_groups(merge_group, batch_format="pandas")
        .to_pandas()
    )

    # per (group, q): owning bin + in-bin rank; one shared collection pass
    plan: dict = {}  # group -> list of (q, k_in_bin, blo, bhi)
    spans: dict = {}  # group -> (min_blo, max_bhi) of all needed bins
    fallback: list = []
    for _, row in hists.iterrows():
        g = row[group_col]
        h = np.frombuffer(row["h"], dtype=np.int64)
        lo, hi = ranges[g]
        n = int(h.sum())
        edges = np.linspace(lo, hi if hi > lo else lo + 1.0, bins + 1)
        cum = np.cumsum(h)
        for q in qs:
            k = min(max(int(math.ceil(q * n)), 1), n)
            b = int(np.searchsorted(cum, k, side="left"))
            below = int(cum[b - 1]) if b > 0 else 0
            if int(h[b]) > collect_below:
                fallback.append((g, q))
                continue
            blo, bhi = float(edges[b]), float(edges[b + 1])
            plan.setdefault(g, []).append((q, k - below, blo, bhi))
            # union of owning BINS, not their hull — the hull between a
            # p25 bin and a p99 bin would collect most of the group
            spans.setdefault(g, set()).add((blo, bhi))

    # merged, sorted, non-overlapping interval ARRAYS per group: the
    # collect pass then costs one group-run sort + one searchsorted per
    # group PRESENT IN THE BATCH, not O(all groups × intervals) Python
    # per batch (VERDICT r3 watch-item)
    def _merge_ivs(ivs):
        out: list[list[float]] = []
        for lo, hi in sorted(ivs):
            if out and lo <= out[-1][1]:
                out[-1][1] = max(out[-1][1], hi)
            else:
                out.append([lo, hi])
        a = np.asarray(out, dtype=np.float64)
        return a[:, 0].copy(), a[:, 1].copy()

    sref = ray.put({g: _merge_ivs(iv) for g, iv in spans.items()})

    def collect(b: pd.DataFrame) -> pd.DataFrame:
        sp = get_worker_state(("gq_spans", ref_key(sref)), lambda: ray.get(sref))
        v = b[col].to_numpy(dtype=np.float64)
        gs = b[group_col].to_numpy()
        keep = np.zeros(len(b), dtype=bool)
        order = np.argsort(gs, kind="mergesort")
        sg = gs[order]
        run_bounds = np.r_[0, np.flatnonzero(sg[1:] != sg[:-1]) + 1, len(sg)]
        for s, t in zip(run_bounds[:-1], run_bounds[1:]):
            ivs = sp.get(sg[s])
            if ivs is None:
                continue
            starts, ends = ivs
            rows = order[s:t]
            vv = v[rows]
            idx = np.searchsorted(starts, vv, side="right") - 1
            ok = idx >= 0
            ok[ok] = vv[ok] <= ends[idx[ok]]
            keep[rows] = ok
        return b[keep]

    cand = ds.map_batches(collect, batch_format="pandas").to_pandas()
    out_rows = []
    for g, wants in plan.items():
        cv = np.sort(cand.loc[cand[group_col] == g, col].to_numpy(dtype=np.float64))
        for q, k_in, blo, bhi in wants:
            inbin = cv[(cv >= blo) & (cv <= bhi)]
            # values == bhi may belong to the bin above; rank ≤ in-bin
            # count so selection is unaffected (see exact_quantiles)
            out_rows.append((g, q, float(inbin[k_in - 1])))
    for g, q in fallback:
        sub = ds.map_batches(
            lambda b, g=g: b[b[group_col] == g], batch_format="pandas"
        )
        v = exact_quantiles(sub, col, [q], collect_below=collect_below)
        out_rows.append((g, q, float(v["value"].iloc[0])))
    out = pd.DataFrame(out_rows, columns=[group_col, "q", "value"])
    return out.sort_values([group_col, "q"]).reset_index(drop=True)


def _histograms_multi(
    ds: rd.Dataset, col: str, ranges: list[tuple[float, float]], bins: int
) -> dict[tuple[float, float], np.ndarray]:
    """Distributed fixed-range histograms for SEVERAL [lo, hi] ranges in
    ONE streaming pass — per-batch ``np.histogram`` partials
    (concatenated across ranges) tree-reduced to one count row."""
    edge_list = [np.linspace(lo, hi, bins + 1) for lo, hi in ranges]

    def part(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64)
        hs = []
        for (lo, hi), edges in zip(ranges, edge_list):
            vv = v[(v >= lo) & (v <= hi)]
            h, _ = np.histogram(vv, bins=edges)
            hs.append(h.astype(np.int64))
        return pd.DataFrame({"h": [np.concatenate(hs).tobytes()]})

    def merge(b: pd.DataFrame) -> pd.DataFrame:
        s = np.stack([np.frombuffer(x, dtype=np.int64) for x in b["h"]]).sum(axis=0)
        return pd.DataFrame({"h": [s.tobytes()]})

    parts = tree_reduce(
        ds.map_batches(part, batch_format="pandas", batch_size=262_144), merge
    )
    flat = np.stack(
        [np.frombuffer(x, dtype=np.int64) for x in parts["h"]]
    ).sum(axis=0)
    return {
        r: flat[i * bins : (i + 1) * bins] for i, r in enumerate(ranges)
    }


def exact_quantiles(
    ds: rd.Dataset,
    col: str,
    qs: list[float],
    bins: int = DEFAULT_BINS,
    collect_below: int = DEFAULT_COLLECT_BELOW,
    max_refine: int = 8,
) -> pd.DataFrame:
    """Exact k-th-order-statistic quantiles of ``ds[col]`` (k =
    ceil(q·n), 1-indexed).  Nulls/NaN are excluded (SQL quantile
    semantics).  Returns a small DataFrame ``(q, value)`` —
    driver-sized output, streaming input."""
    ds = ds.select_columns([col])

    # n must count NON-NULL values only: the histogram and collection
    # passes below drop NaN via comparisons, so a null-inflated Count()
    # would shift every rank (or IndexError past cum[-1]) on nullable
    # columns (review r4)
    def stats_part(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return pd.DataFrame({"n": [0], "mn": [np.nan], "mx": [np.nan]})
        return pd.DataFrame({"n": [len(v)], "mn": [v.min()], "mx": [v.max()]})

    sp = ds.map_batches(
        stats_part, batch_format="pandas", batch_size=262_144
    ).to_pandas()
    n = int(sp["n"].sum())
    if n == 0:
        return pd.DataFrame({"q": pd.Series(qs, dtype=float), "value": np.nan})
    gmin, gmax = float(np.nanmin(sp["mn"])), float(np.nanmax(sp["mx"]))

    # LEVEL-SYNCHRONOUS refinement: every q refines against the same
    # scan — one histogram pass per level (ranges batched into a single
    # map), one shared collection pass at the end.  Total scans:
    # 1 (min/max/count) + 1 + refinement-levels + 1, independent of
    # len(qs).
    state = []
    for q in qs:
        k = min(max(int(math.ceil(q * n)), 1), n)  # 1-indexed rank
        # invariant: rank-k value lies in [lo, hi], `below` rows < lo
        state.append({"k": k, "lo": gmin, "hi": gmax, "below": 0, "span": n})

    for _ in range(max_refine):
        open_idx = [
            i for i, st in enumerate(state)
            if st["span"] > collect_below and st["lo"] < st["hi"]
        ]
        if not open_idx:
            break
        ranges = sorted({(state[i]["lo"], state[i]["hi"]) for i in open_idx})
        hists = _histograms_multi(ds, col, ranges, bins)
        for i in open_idx:
            st = state[i]
            h = hists[(st["lo"], st["hi"])]
            edges = np.linspace(st["lo"], st["hi"], bins + 1)
            cum = np.cumsum(h)
            b = int(np.searchsorted(cum, st["k"] - st["below"], side="left"))
            st["below"] += int(cum[b - 1]) if b > 0 else 0
            st["span"] = int(h[b])
            # np.histogram bins are [edge, edge) except the last (right-
            # closed), matching the <= hi collection filter; edges[bins]
            # == hi so the top bin never widens the range
            st["lo"], st["hi"] = float(edges[b]), float(edges[b + 1])

    # ONE shared collection pass over the union of candidate ranges;
    # values == hi belonging to the bin above may leak in — they sort
    # after all in-range rows and each rank k-below is ≤ span, so
    # selection is unaffected
    spans = sorted({(st["lo"], st["hi"]) for st in state})

    def collect(bdf: pd.DataFrame) -> pd.DataFrame:
        v = bdf[col].to_numpy(dtype=np.float64)
        keep = np.zeros(len(v), dtype=bool)
        for lo, hi in spans:
            keep |= (v >= lo) & (v <= hi)
        return pd.DataFrame({col: v[keep]})

    cand = np.sort(
        ds.map_batches(collect, batch_format="pandas")
        .to_pandas()[col]
        .to_numpy(dtype=np.float64)
    )
    values = []
    for st in state:
        inseg = cand[(cand >= st["lo"]) & (cand <= st["hi"])]
        values.append(float(inseg[(st["k"] - st["below"]) - 1]))
    return pd.DataFrame({"q": pd.Series(qs, dtype=float), "value": values})


# ---------------------------------------------------------------------------
# One-scan approximate quantiles: KLL sketch (Karnin–Lang–Liberty 2016,
# arXiv:1603.05346) — mergeable compactor hierarchy, rank error
# ~O(1/k) with high probability.  Complements exact_quantiles (2+log
# scans, exact): at 100 TB the sketch answers any quantile from ONE
# streaming pass with a few KB of state per partial, tree-reduced like
# the HLL/Misra-Gries family in stages/sketches.py.
# ---------------------------------------------------------------------------


class KLLSketch:
    """Levels of buffers; level i items each represent 2^i inputs.
    When a level overflows its capacity, it is sorted and every other
    element (random start parity) is promoted to the next level.  The
    coin uses a per-sketch seeded RNG, so a given (input order, seed)
    reproduces; across block layouts answers differ only inside the
    rank-error bound, which the tests assert."""

    def __init__(self, k: int = 256, seed: int = 1, levels=None, rng=None):
        self.k = k
        self.levels: list[np.ndarray] = (
            [np.empty(0)] if levels is None else levels
        )
        self.rng = np.random.default_rng(seed) if rng is None else rng

    def _capacity(self, level: int) -> int:
        # geometric decay toward older levels, floor of 8
        c = int(self.k * (2.0 / 3.0) ** (len(self.levels) - 1 - level))
        return max(c, 8)

    def add(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()

    def _compress(self) -> None:
        i = 0
        while i < len(self.levels):
            if len(self.levels[i]) <= self._capacity(i):
                i += 1
                continue
            buf = np.sort(self.levels[i])
            # odd buffer: hold one end back at this level so total item
            # weight is EXACTLY conserved (n_items stays exact)
            if len(buf) % 2:
                if self.rng.integers(0, 2):
                    keep, buf = buf[:1], buf[1:]
                else:
                    keep, buf = buf[-1:], buf[:-1]
            else:
                keep = np.empty(0)
            start = int(self.rng.integers(0, 2))
            promoted = buf[start::2]
            self.levels[i] = keep
            if i + 1 == len(self.levels):
                self.levels.append(np.empty(0))
            self.levels[i + 1] = np.concatenate([self.levels[i + 1], promoted])
            i += 1

    def merge(self, other: "KLLSketch") -> "KLLSketch":
        n = max(len(self.levels), len(other.levels))
        levels = []
        for i in range(n):
            a = self.levels[i] if i < len(self.levels) else np.empty(0)
            b = other.levels[i] if i < len(other.levels) else np.empty(0)
            levels.append(np.concatenate([a, b]))
        out = KLLSketch(k=self.k, levels=levels, rng=self.rng)
        out._compress()
        return out

    def n_items(self) -> int:
        return int(sum(len(b) * (1 << i) for i, b in enumerate(self.levels)))

    def quantiles(self, qs) -> np.ndarray:
        items = np.concatenate(self.levels) if self.levels else np.empty(0)
        if len(items) == 0:
            return np.full(len(qs), np.nan)
        weights = np.concatenate(
            [
                np.full(len(b), 1 << i, dtype=np.float64)
                for i, b in enumerate(self.levels)
            ]
        )
        order = np.argsort(items, kind="mergesort")
        items, weights = items[order], weights[order]
        cum = np.cumsum(weights)
        total = cum[-1]
        out = np.empty(len(qs))
        for j, q in enumerate(qs):
            target = q * total
            idx = int(np.searchsorted(cum, target, side="left"))
            out[j] = items[min(idx, len(items) - 1)]
        return out

    def to_bytes(self) -> bytes:
        import pickle

        return pickle.dumps([b.astype(np.float64) for b in self.levels])

    @classmethod
    def from_bytes(cls, data: bytes, k: int = 256, seed: int = 1) -> "KLLSketch":
        import pickle

        return cls(k=k, seed=seed, levels=pickle.loads(data))


def fixed_width_histogram(
    ds: rd.Dataset,
    col: str,
    bins: int = 20,
    batch_size: int = 262_144,
) -> pd.DataFrame:
    """Equi-width value histogram — the distribution-profiling scan
    (data-drift dashboards, outlier eyeballing): ``bins`` equal-width
    buckets spanning [min, max].  Returns a driver-small DataFrame
    ``(bin, lo, hi, n)`` with only NON-EMPTY bins (SQL GROUP BY shape).

    Two streaming passes, zero shuffle: (1) per-batch min/max partials;
    (2) per-batch ``np.bincount`` partials over bin ids, summed
    driver-side (one ``bins``-long int row per batch — the sketch
    partial shape).  Nulls/NaN/±inf are excluded (SQL aggregate
    semantics).

    Bin ids come from the EXPRESSION ``least(floor((v - mn)/w),
    bins-1)`` evaluated in float64 — the identical expression a SQL
    oracle runs, so assignment is bit-identical (np.histogram's edge
    array would drift by a ulp at boundaries).  All values land in
    [0, bins-1]; a degenerate column (min == max) puts every row in
    bin 0."""
    ds = ds.select_columns([col])

    def mm(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64)
        v = v[np.isfinite(v)]
        if len(v) == 0:
            return pd.DataFrame({"mn": [np.nan], "mx": [np.nan]})
        return pd.DataFrame({"mn": [v.min()], "mx": [v.max()]})

    sp = ds.map_batches(mm, batch_format="pandas", batch_size=batch_size).to_pandas()
    mn, mx = float(np.nanmin(sp["mn"])), float(np.nanmax(sp["mx"]))
    if not np.isfinite(mn):
        return pd.DataFrame(
            {"bin": pd.Series([], dtype="int64"), "lo": pd.Series([], dtype=float),
             "hi": pd.Series([], dtype=float), "n": pd.Series([], dtype="int64")}
        )
    w = (mx - mn) / bins

    def cnt(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].to_numpy(dtype=np.float64)
        v = v[np.isfinite(v)]
        if w > 0:
            idx = np.minimum(np.floor((v - mn) / w), bins - 1).astype(np.int64)
            idx = np.maximum(idx, 0)  # float dust below mn cannot go negative
        else:
            idx = np.zeros(len(v), dtype=np.int64)
        return pd.DataFrame(
            {"h": [np.bincount(idx, minlength=bins).astype(np.int64).tobytes()]}
        )

    parts = ds.map_batches(cnt, batch_format="pandas", batch_size=batch_size).to_pandas()
    totals = np.stack([np.frombuffer(x, dtype=np.int64) for x in parts["h"]]).sum(axis=0)
    nz = np.flatnonzero(totals)
    return pd.DataFrame(
        {
            "bin": nz.astype("int64"),
            "lo": mn + nz * w,
            "hi": mn + (nz + 1) * w,  # uniform expression == the SQL mirror
            "n": totals[nz].astype("int64"),
        }
    )


def kll_quantiles(
    ds: rd.Dataset,
    val_col: str,
    qs: list[float],
    k: int = 256,
    batch_size: int = 65536,
) -> pd.DataFrame:
    """Approximate quantiles in ONE streaming scan: per-batch KLL
    partials → :func:`~.sketches.tree_reduce` merge tiers → one driver
    merge + query.  Returns (q, value).  Each partial seeds its RNG
    from batch length + a crc32 of the batch's FINITE values (NaN-safe
    — a NaN/inf element must not crash the scan — yet content-unique,
    so equal-size batches do NOT share an RNG stream and compaction
    coin-flips stay independent across partials; deterministic for
    reruns on the same blocks)."""
    import zlib

    from .sketches import tree_reduce

    def sketch_batch(b: pd.DataFrame) -> pd.DataFrame:
        v = b[val_col].to_numpy(dtype=np.float64)
        fin = v[np.isfinite(v)]
        seed = (len(v) * 2654435761 + zlib.crc32(fin.tobytes()) + 17) % (2**31)
        sk = KLLSketch(k=k, seed=int(seed))
        sk.add(v)
        return pd.DataFrame({"sk": [sk.to_bytes()], "n": [len(v)]})

    def merge_batch(b: pd.DataFrame) -> pd.DataFrame:
        sks = [KLLSketch.from_bytes(x, k=k) for x in b["sk"]]
        acc = sks[0]
        for s in sks[1:]:
            acc = acc.merge(s)
        return pd.DataFrame({"sk": [acc.to_bytes()], "n": [int(b["n"].sum())]})

    parts = ds.map_batches(sketch_batch, batch_format="pandas", batch_size=batch_size)
    final = merge_batch(tree_reduce(parts, merge_batch))
    sk = KLLSketch.from_bytes(final["sk"].iloc[0], k=k)
    vals = sk.quantiles(qs)
    return pd.DataFrame({"q": pd.Series(qs, dtype=float), "value": vals})


def grouped_kll_quantiles(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    qs: list[float],
    k: int = 256,
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> rd.Dataset:
    """Per-group approximate quantiles in ONE streaming scan — the
    sketch counterpart of :func:`grouped_quantiles` (exact, 3 scans).
    Map side: one KLL partial per (group, batch) via a vectorized
    group-sort + per-slice add; exchange: ``hash(group) % num_buckets``
    (the grouped_reduce shape — never per-group Ray groups); in-bucket:
    merge each group's partials, answer ``qs``.  Returns (group, q,
    value) rows.  Rank error matches the global sketch (~O(1/k) whp),
    asserted in pytest."""

    nb = np.uint64(num_buckets)

    def sketch_partial(b: pd.DataFrame) -> pa.Table:
        b = b.sort_values(group_col, kind="mergesort")
        g = b[group_col].to_numpy()
        v = b[val_col].to_numpy(dtype=np.float64)
        bounds = np.r_[0, np.flatnonzero(g[1:] != g[:-1]) + 1, len(g)]
        keys, sks = [], []
        import zlib

        for s, t in zip(bounds[:-1], bounds[1:]):
            vv = v[s:t]
            fin = vv[np.isfinite(vv)]
            # content-mixed seed (same rationale as kll_quantiles):
            # equal-size per-group slices must not share an RNG stream
            seed = (
                int(t - s) * 2654435761 + zlib.crc32(fin.tobytes()) + 17
            ) % (2**31)
            sk = KLLSketch(k=k, seed=seed)
            sk.add(v[s:t])
            keys.append(g[s])
            sks.append(sk.to_bytes())
        out = pd.DataFrame({group_col: keys, "sk": sks})
        out["__gk_bkt"] = (
            pd.util.hash_pandas_object(out[group_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        # Arrow block ahead of the sort-shuffle (pandas blocks are ~20x
        # slower through the exchange — CLAUDE.md r3 invariant).
        return pa.Table.from_pandas(out, preserve_index=False)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(group_col, kind="mergesort")
        keys_out, q_out, v_out = [], [], []
        for key, sub in g.groupby(group_col, sort=False):
            acc = None
            for blob in sub["sk"]:
                sk = KLLSketch.from_bytes(blob, k=k)
                acc = sk if acc is None else acc.merge(sk)
            vals = acc.quantiles(qs)
            keys_out.extend([key] * len(qs))
            q_out.extend(qs)
            v_out.extend(vals)
        return pd.DataFrame(
            {group_col: keys_out, "q": pd.Series(q_out, dtype=float),
             "value": pd.Series(v_out, dtype=float)}
        )

    return (
        ds.map_batches(sketch_partial, batch_format="pandas", batch_size=batch_size)
        .groupby("__gk_bkt")
        .map_groups(merge_bucket, batch_format="pandas")
    )


def group_quantile_threshold(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    q: float,
    num_buckets: int = 64,
    max_distinct: int = 5_000_000,
) -> pd.DataFrame:
    """Exact per-group q-th ORDER STATISTIC (value at rank
    ``ceil(q·n_g)``, SQL rank semantics — no interpolation) from the
    per-group VALUE HISTOGRAM: one skinny ``grouped_reduce`` exchange
    over distinct (group, value) pairs, then a driver cumsum per group.
    The counts-engine companion to :func:`grouped_quantiles` — exact
    with no binning whenever the value domain is bounded (scores,
    quantized ratios, prices); ``max_distinct`` hard-fails unbounded
    domains (use grouped_quantiles there).

    Returns a DataFrame ``(group, n, threshold)`` — the per-group gate
    value for quantile-filter compositions."""
    from .agg import grouped_reduce

    hist = grouped_reduce(
        ds.select_columns([group_col, val_col]),
        [group_col, val_col],
        {"__m": (None, "count")},
        num_buckets=num_buckets,
    ).materialize()
    n_distinct = hist.count()
    if n_distinct > max_distinct:
        raise ValueError(
            f"{n_distinct} distinct (group, value) pairs exceed "
            f"max_distinct={max_distinct}; use grouped_quantiles"
        )
    hp = hist.to_pandas().sort_values([group_col, val_col])
    out_g, out_n, out_t = [], [], []
    for g, sub in hp.groupby(group_col, sort=True):
        m = sub["__m"].to_numpy(dtype=np.int64)
        cum = np.cumsum(m)
        n = int(cum[-1])
        k = min(max(int(math.ceil(q * n)), 1), n)
        idx = int(np.searchsorted(cum, k, side="left"))
        out_g.append(g)
        out_n.append(n)
        out_t.append(sub[val_col].to_numpy()[idx])
    return pd.DataFrame({group_col: out_g, "n": out_n, "threshold": out_t})


def weighted_median_by_key(
    ds: rd.Dataset,
    key_col: str,
    val_col: str,
    weight_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Exact LOWER weighted median per key: the smallest value ``v``
    whose cumulative weight (values ascending) reaches half the key's
    total weight — ``min(v) WHERE 2*cum_w >= total_w`` in SQL window
    terms.  The workhorse for weight-aware robust centers (price
    weighted by quantity, latency weighted by traffic).

    Shape: the value space is first collapsed to a distinct-value
    histogram with ONE grouped_reduce exchange (``(key, v) →
    sum(w)``) — the counts-engine idiom (spearman/KM/Mann-Whitney):
    the second, in-bucket pass runs over distinct (key, value) rows
    only, never raw data.  The output value is an ELEMENT of the input
    lattice (no interpolation), so float compares are exact.  Output
    ``(key, total_weight, wmedian)``.

    Weights must be non-negative; integral weights (counts, integral
    doubles) keep ``total_weight`` exact under reordered summation.
    """
    from .agg import grouped_reduce

    hist = grouped_reduce(
        ds.select_columns([key_col, val_col, weight_col]),
        [key_col, val_col],
        {"w": (weight_col, "sum")},
        num_buckets=num_buckets,
    )
    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b.copy()
        b["__wm_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def pick(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__wm_bkt")
            .sort_values([key_col, val_col], kind="mergesort")
            .reset_index(drop=True)
        )
        gb = g.groupby(key_col, sort=False)
        cum = gb["w"].cumsum().to_numpy(dtype=np.float64)
        tot = gb["w"].transform("sum").to_numpy(dtype=np.float64)
        hit = 2.0 * cum >= tot
        first = g[hit].groupby(key_col, sort=False, as_index=False).head(1)
        pos = first.index.to_numpy()  # positional: g was reset_index above
        try:
            kt = pa.from_numpy_dtype(first[key_col].dtype)
        except (pa.ArrowNotImplementedError, TypeError):
            kt = pa.string()
        return pa.table(
            {
                key_col: pa.array(first[key_col].to_numpy(), kt),
                "total_weight": pa.array(tot[pos], pa.float64()),
                "wmedian": pa.array(
                    first[val_col].to_numpy(dtype=np.float64), pa.float64()
                ),
            }
        )

    return (
        hist.map_batches(tag, batch_format="pandas")
        .groupby("__wm_bkt")
        .map_groups(pick, batch_format="pandas")
    )


def trimmed_mean_by_key(
    ds: rd.Dataset,
    key_col: str,
    val_col: str,
    trim: float = 0.1,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Exact count-trimmed mean per key: drop the ``floor(trim*n)``
    lowest- and highest-ranked values (rank over value; ties are
    interchangeable for a sum) and average the interior — the robust
    center between median and mean (winsorize clamps, trim drops).

    Counts-engine shape: ONE grouped_reduce collapses to the distinct
    (key, value, count) histogram; the in-bucket pass computes each
    distinct value's interior multiplicity from cumulative counts
    (``clip(min(cum, hi) - max(cum_prev, lo), 0)``) — never touching
    raw rows.  Values must sit on a 2-decimal lattice: the interior
    sum is EXACT int64 cents, the mean is one double division —
    bit-identical to a SQL row_number mirror.  Output ``(key, n,
    n_used, sum_cents, trimmed_mean)``; keys whose interior is empty
    are dropped.
    """
    from .agg import grouped_reduce

    hist = grouped_reduce(
        ds.select_columns([key_col, val_col]),
        [key_col, val_col],
        {"cnt": (None, "count")},
        num_buckets=num_buckets,
    )
    nb = np.uint64(num_buckets)
    t = float(trim)

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b.copy()
        b["__tm_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def reduce_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__tm_bkt")
            .sort_values([key_col, val_col], kind="mergesort")
            .reset_index(drop=True)
        )
        gb = g.groupby(key_col, sort=False)
        cnt = g["cnt"].to_numpy(dtype=np.int64)
        cum = gb["cnt"].cumsum().to_numpy(dtype=np.int64)
        n = gb["cnt"].transform("sum").to_numpy(dtype=np.int64)
        lo = np.floor(t * n).astype(np.int64)  # same double expr as SQL
        hi = n - lo
        prev = cum - cnt
        qty = np.clip(np.minimum(cum, hi) - np.maximum(prev, lo), 0, None)
        cents = np.round(g[val_col].to_numpy(dtype=np.float64) * 100.0).astype(
            np.int64
        )
        part = pd.DataFrame(
            {
                key_col: g[key_col],
                "n": n,
                "n_used": hi - lo,
                "c": cents * qty,
            }
        )
        agg = part.groupby(key_col, sort=True).agg(
            n=("n", "first"), n_used=("n_used", "first"), sum_cents=("c", "sum")
        ).reset_index()
        agg = agg[agg["n_used"] > 0]
        try:
            kt = pa.from_numpy_dtype(agg[key_col].dtype)
        except (pa.ArrowNotImplementedError, TypeError):
            kt = pa.string()
        sc = agg["sum_cents"].to_numpy(dtype=np.int64)
        nu = agg["n_used"].to_numpy(dtype=np.int64)
        return pa.table(
            {
                key_col: pa.array(agg[key_col].to_numpy(), kt),
                "n": pa.array(agg["n"].to_numpy(dtype=np.int64), pa.int64()),
                "n_used": pa.array(nu, pa.int64()),
                "sum_cents": pa.array(sc, pa.int64()),
                "trimmed_mean": pa.array(
                    sc.astype(np.float64) / (100.0 * nu.astype(np.float64)),
                    pa.float64(),
                ),
            }
        )

    return (
        hist.map_batches(tag, batch_format="pandas")
        .groupby("__tm_bkt")
        .map_groups(reduce_bucket, batch_format="pandas")
    )
