"""Sliding-window aggregation — hop-aligned window explode with a
map-side combiner, size-gated final merge.

Each event covering timestamp t belongs to ``window/hop`` hop-aligned
windows; exploding map-side and combining within the batch BEFORE any
exchange turns the shuffle payload from O(events × windows-per-event)
into O(windows × keys) partial rows per batch (measured 15.3 s → 0.43 s
on the sf0.1 events table when this replaced the per-window scan).

The final merge of partials is size-gated, same philosophy as
stages/relational.py: the partial key space (windows × key values) is
bounded per batch but grows with the covered time span, so

* ≤ ``driver_merge_below`` partial rows → a driver pandas groupby
  (cheap, no exchange);
* above → ``groupby(...).aggregate(Sum)`` — one distributed sort
  shuffle over partial rows, never the raw events.

Both paths return a Dataset with identical rows (asserted in pytest).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

DRIVER_MERGE_BELOW = 200_000  # partial rows; ~5 MB of (int64, str, int64)


def sliding_window_counts(
    ds: rd.Dataset,
    ts_col: str = "ts",
    key_col: str = "event_type",
    window_s: int = 3600,
    hop_s: int = 900,
    batch_size: int = 65536,
    driver_merge_below: int = DRIVER_MERGE_BELOW,
) -> rd.Dataset:
    """Count events per (hop-aligned window start, key).  Output columns:
    ``wstart`` (int64 epoch seconds), ``key_col``, ``n`` (int64)."""
    assert window_s % hop_s == 0, "window must be a multiple of the hop"
    k = window_s // hop_s

    def explode_and_combine(b: pd.DataFrame) -> pd.DataFrame:
        # resolution-independent epoch seconds (the arrow→pandas ts may
        # be datetime64[us], where astype(int64)//1e9 silently breaks)
        secs = (b[ts_col] - pd.Timestamp(0)).dt.total_seconds().astype("int64")
        base = (secs // hop_s) * hop_s
        frames = [
            pd.DataFrame({key_col: b[key_col], "wstart": base - i * hop_s})
            for i in range(k)
        ]
        exploded = pd.concat(frames, ignore_index=True)
        out = (
            exploded.groupby(["wstart", key_col], as_index=False)
            .size()
            .rename(columns={"size": "partial"})
        )
        out["partial"] = out["partial"].astype("int64")
        return out

    partials = ds.map_batches(
        explode_and_combine, batch_format="pandas", batch_size=batch_size
    ).materialize()

    if driver_merge_below and partials.count() <= driver_merge_below:
        merged = (
            partials.to_pandas()
            .groupby(["wstart", key_col], as_index=False)["partial"]
            .sum()
            .rename(columns={"partial": "n"})
        )
        merged["n"] = merged["n"].astype("int64")
        return rd.from_pandas(merged)

    from .agg import grouped_reduce

    # grouped_reduce, not the builtin aggregate: (window, key)
    # cardinality grows with the covered time span (CLAUDE.md r3)
    return grouped_reduce(
        partials, ["wstart", key_col], {"n": ("partial", "sum")}
    )


def funnel_by_key(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    type_col: str,
    steps: list[str],
    within: pd.Timedelta,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Sequence-pattern (funnel) analysis: per key, greedy
    first-occurrence matching of ``steps`` — step 1 is the key's
    EARLIEST event of that type; each later step the earliest event of
    its type STRICTLY after the previous match and within ``within`` of
    it.  Greedy-earliest makes the result order-canonical and exactly
    mirrors the SQL chain ``sN AS (SELECT key, min(ts) FROM events JOIN
    s{N-1} ... WHERE type = step_N AND ts > t_{N-1} AND ts <= t_{N-1} +
    within GROUP BY key)``.

    Output: one row per key that completed ≥1 step — ``key_col``,
    ``n_steps`` (int64), ``last_ts`` (timestamp of the furthest step).

    Exchange on ``hash(key) % num_buckets`` (never per-key Ray groups);
    in-bucket: one (key, ts) sort, then per key-slice a searchsorted
    walk over its per-type event lists — loop over keys × steps, numpy
    inside.  Irrelevant event types are dropped MAP-SIDE before the
    exchange, so the shuffle carries only funnel-step rows."""
    import numpy as np
    import pyarrow as pa

    if len(set(steps)) != len(steps):
        # A repeated type would silently map only to its LAST index in
        # step_idx, leaving earlier occurrences with empty event lists.
        raise ValueError(
            f"funnel steps must be distinct event types, got {steps!r}; "
            "model view->click->view as two funnels or rename the types"
        )
    nb = np.uint64(num_buckets)
    step_idx = {s: i for i, s in enumerate(steps)}
    w = np.int64(within // pd.Timedelta(microseconds=1))

    def tag(b: pd.DataFrame) -> pa.Table:
        keep = b[type_col].isin(step_idx).to_numpy()
        b = b.loc[keep, [key_col, ts_col, type_col]].copy()
        b["__step"] = b[type_col].map(step_idx).astype(np.int64)
        b = b.drop(columns=type_col)
        b["__fn_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def scan_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([key_col, ts_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        st = g["__step"].to_numpy()
        bounds = np.r_[0, np.flatnonzero(keys[1:] != keys[:-1]) + 1, len(keys)]
        out_key, out_n, out_ts = [], [], []
        n_steps_total = len(steps)
        for s, t in zip(bounds[:-1], bounds[1:]):
            kts, kst = ts[s:t], st[s:t]
            per_step = [kts[kst == i] for i in range(n_steps_total)]
            if len(per_step[0]) == 0:
                continue
            cur = per_step[0][0]
            done = 1
            for i in range(1, n_steps_total):
                nxt = per_step[i]
                j = int(np.searchsorted(nxt, cur, side="right"))
                if j == len(nxt) or nxt[j] > cur + w:
                    break
                cur = nxt[j]
                done += 1
            out_key.append(keys[s])
            out_n.append(done)
            out_ts.append(cur)
        # explicit key type: a bucket where NO key completes step 0
        # emits 0 rows, and an empty object-dtype array infers Arrow
        # type NULL — downstream schema unification then dies against
        # the string-typed buckets (CLAUDE.md r2 rule; review r4)
        ktype = pa.string() if keys.dtype == object else pa.from_numpy_dtype(keys.dtype)
        return pa.table(
            {
                key_col: pa.array(out_key, type=ktype),
                "n_steps": pa.array(out_n, type=pa.int64()),
                "last_ts": pa.array(
                    np.asarray(out_ts, dtype=np.int64).astype("datetime64[us]")
                ),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__fn_bkt")
        .map_groups(scan_bucket, batch_format="pandas")
    )


def rolling_sum_by_key(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    val_col: str,
    window: pd.Timedelta,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-row trailing-window aggregate: for every row, the sum of
    ``val_col`` over SAME-KEY rows with ``ts >= row.ts - window`` and
    ``ts <= row.ts`` — SQL ``SUM(v) OVER (PARTITION BY key ORDER BY ts
    RANGE BETWEEN <window> PRECEDING AND CURRENT ROW)``.

    The exchange groups on ``hash(key) % num_buckets``, not the raw key
    (per-key Ray groups are pathological at corpus key cardinality —
    measured 11.8 s → ~3 s on 100k events / 10k users; CLAUDE.md r3).
    Each bucket sorts once by (key, ts); per key-slice the frame is
    computed from one cumulative sum and two ``searchsorted`` probes:
    ``lo[i]`` = first index with ``ts >= ts[i] - window``
    (``side='left'``), ``hi[i]`` = last ts-PEER index — rows tying on
    ts are all included, matching SQL RANGE-frame peer semantics.  The
    per-slice loop is over KEYS in the bucket (numpy ops inside), not
    rows.

    Partitioning assumption: one bucket of key histories fits a worker
    heap (raise ``num_buckets`` for huge corpora; time-chunk with a
    window-sized halo upstream for single pathological keys)."""
    import numpy as np
    import pyarrow as pa

    # materialize-before-schema rule (CLAUDE.md r5): fetching an
    # unknown schema executes the upstream and discards it
    if ds.schema(fetch_if_missing=False) is None:
        ds = ds.materialize()
    out_cols = list(ds.schema().names) + ["roll_sum"]
    nb = np.uint64(num_buckets)
    w = np.int64(window // pd.Timedelta(microseconds=1))

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b.copy()
        b["__rw_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def roll_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__rw_bkt")
            .sort_values([key_col, ts_col], kind="mergesort")
            .reset_index(drop=True)
        )
        ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        v = g[val_col].to_numpy(dtype=np.float64)
        keys = g[key_col].to_numpy()
        bounds = np.r_[0, np.flatnonzero(keys[1:] != keys[:-1]) + 1, len(keys)]
        out = np.empty(len(keys))
        for s, t in zip(bounds[:-1], bounds[1:]):
            kts = ts[s:t]
            cs = np.cumsum(v[s:t])
            lo = np.searchsorted(kts, kts - w, side="left")
            hi = np.searchsorted(kts, kts, side="right") - 1
            out[s:t] = cs[hi] - np.where(lo > 0, cs[np.maximum(lo - 1, 0)], 0.0)
        g["roll_sum"] = out
        return pa.Table.from_pandas(g[out_cols], preserve_index=False)

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__rw_bkt")
        .map_groups(roll_bucket, batch_format="pandas")
    )


def session_counts(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    gap: pd.Timedelta,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Sessionization: per key, the number of sessions delimited by
    inter-event gaps > ``gap``, plus the key's event count.  Output: one
    row per key — ``key_col``, ``n_sessions`` (int64), ``n_events``
    (int64).

    The exchange groups on ``hash(key) % num_buckets`` — NOT the raw
    key: one Ray group per user is the per-key pathology CLAUDE.md r3
    measures (map_groups degrades past ~20k groups; user cardinality at
    corpus scale is 10^8+).  Inside each bucket: ONE stable (key, ts)
    sort, then the session count for every key falls out of two
    vectorized diffs — no per-key Python, no per-key frames.

    Partitioning assumption: one bucket of key histories fits a worker
    heap (raise ``num_buckets`` for huge corpora)."""
    import numpy as np
    import pyarrow as pa

    nb = np.uint64(num_buckets)
    w = np.int64(gap // pd.Timedelta(microseconds=1))

    def tag(b: pd.DataFrame) -> pa.Table:
        out = b[[key_col, ts_col]].copy()
        out["__ss_bkt"] = (
            pd.util.hash_pandas_object(out[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def count_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([key_col, ts_col], kind="mergesort")
        keys = g[key_col].to_numpy()
        ts = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        bounds = np.r_[0, np.flatnonzero(keys[1:] != keys[:-1]) + 1, len(keys)]
        # a gap between consecutive SAME-KEY rows opens a new session
        new_key = keys[1:] != keys[:-1]
        is_gap = (~new_key) & ((ts[1:] - ts[:-1]) > w)
        cg = np.r_[0, np.cumsum(is_gap.astype(np.int64))]
        starts, ends = bounds[:-1], bounds[1:]
        n_sessions = (cg[ends - 1] - cg[starts]) + 1
        ktype = pa.string() if keys.dtype == object else pa.from_numpy_dtype(keys.dtype)
        return pa.table(
            {
                key_col: pa.array(keys[starts], type=ktype),
                "n_sessions": pa.array(n_sessions, type=pa.int64()),
                "n_events": pa.array(ends - starts, type=pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__ss_bkt")
        .map_groups(count_bucket, batch_format="pandas")
    )


def lag_by_key(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    lag_cols: list[str],
    suffix: str = "_prev",
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-row previous-row values within each key partition — SQL
    ``LAG(col) OVER (PARTITION BY key ORDER BY order_cols)``.

    ``order_cols`` must be a TOTAL order within each key (pass a
    tiebreaker column, e.g. ``["ts", "event_id"]``) or LAG itself is
    underdetermined.

    The exchange groups on ``hash(key) % num_buckets`` — NOT the raw
    key: per-key Ray groups are pathological at corpus key cardinality
    (measured 21.7 s → ~3 s on 100k events / 10k users when this moved
    off ``groupby(key)``; CLAUDE.md r3).  Inside each bucket one stable
    sort + one vectorized pandas ``groupby(key).shift`` per lagged
    column — no per-row and no per-key Python.  First row per key gets
    nulls, exactly as SQL.

    Output: every input column plus ``<col><suffix>`` per lagged
    column, emitted as Arrow (pandas blocks would poison any downstream
    sort-shuffle).

    Partitioning assumption: one BUCKET of key histories fits a worker
    heap (raise ``num_buckets`` for huge corpora; time-chunk with a
    1-row halo upstream for single pathological keys)."""
    import numpy as np
    import pyarrow as pa

    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b.copy()
        b["__lag_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def shift_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__lag_bkt")
            .sort_values([key_col] + order_cols, kind="mergesort")
            .reset_index(drop=True)
        )
        gb = g.groupby(key_col, sort=False)
        for c in lag_cols:
            g[c + suffix] = gb[c].shift(1)
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__lag_bkt")
        .map_groups(shift_bucket, batch_format="pandas")
    )


def ewma_by_key(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    val_col: str,
    alpha: float,
    out_col: str = "ewma",
    tiebreak: str | None = None,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-key exponentially weighted moving average over event time —
    the time-series smoothing primitive.  For each row n of a key's
    ts-ordered history, ``ewma_n = Σ_{i≤n} (1-α)^(n-i)·v_i / Σ_{i≤n}
    (1-α)^(n-i)`` (pandas ``ewm(adjust=True)`` semantics — the
    normalized finite-window form, expressible in SQL as two windowed
    sums of explicit ``pow(1-α, rn_n - rn_i)`` weights, so the operator
    is oracle-able despite the recurrence).  Pass a unique ``tiebreak``
    column for a deterministic total order under ts ties (without it,
    ties fall back to input position — fine for exploration, not for an
    oracle compare).

    Shape: ONE hash(key) % num_buckets exchange, one in-bucket stable
    (key, ts) sort, then a single cython ``groupby(...).ewm`` pass over
    the whole bucket — no per-key Python, no per-key frames (CLAUDE.md
    r3 rule).  All input columns survive; output adds ``out_col``.
    Beyond-reference operator."""
    import numpy as np
    import pyarrow as pa

    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        out = b.copy()
        out["__ew_bkt"] = (
            pd.util.hash_pandas_object(out[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    sort_cols = [key_col, ts_col] + ([tiebreak] if tiebreak else [])

    def smooth(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(sort_cols, kind="mergesort")
        ew = (
            g.groupby(key_col, sort=False)[val_col]
            .ewm(alpha=alpha, adjust=True)
            .mean()
            .reset_index(level=0, drop=True)
        )
        g = g.drop(columns="__ew_bkt")
        g[out_col] = ew
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(tag, batch_format="pandas", batch_size=65536)
        .groupby("__ew_bkt")
        .map_groups(smooth, batch_format="pandas")
    )


def transition_counts(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    type_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Markov transition counts over a typed event stream:
    ``(from_type, to_type, n)`` for consecutive rows within each key
    partition ordered by ``order_cols`` — SQL ``LEAD(type) OVER
    (PARTITION BY key ORDER BY ...)`` + GROUP BY, the clickstream
    transition-matrix primitive.

    Rides :func:`lag_by_key`'s single hash(key)-bucket exchange, then
    counts are pre-aggregated per block (pair cardinality = |types|²,
    tiny), so the final groupby exchanges ≤ blocks × |types|² partial
    rows — never the raw events."""
    import numpy as np
    import pyarrow as pa

    from ray.data.aggregate import Sum

    lagged = lag_by_key(ds, key_col, order_cols, [type_col], num_buckets=num_buckets)
    prev = f"{type_col}_prev"

    def partial(b: pa.Table) -> pa.Table:
        df = b.select([prev, type_col]).to_pandas()
        df = df[df[prev].notna()]
        cnt = df.groupby([prev, type_col], sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "from_type": pa.array(cnt[prev].astype(str), pa.string()),
                "to_type": pa.array(cnt[type_col].astype(str), pa.string()),
                "n": pa.array(cnt["n"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    merged = (
        lagged.map_batches(partial, batch_format="pyarrow")
        .groupby(["from_type", "to_type"])
        .aggregate(Sum("n", alias_name="n_total"))
    )

    def rename(b: pa.Table) -> pa.Table:
        return b.rename_columns(["from_type", "to_type", "n"])

    return merged.map_batches(rename, batch_format="pyarrow")


def ohlc_by_key(
    ds: rd.Dataset,
    key_cols: list[str],
    ts_col: str,
    value_col: str,
    tiebreak: str,
    num_buckets: int = 64,
    batch_size: int | None = 65536,
) -> rd.Dataset:
    """Open/high/low/close aggregate per key (the time-series candle /
    first-last-by-time reduce): per key combination, ``open`` = value of
    the earliest row, ``close`` = value of the latest, plus min/max and
    the row count.  Ties at equal ``ts_col`` resolve by ``tiebreak``
    (ascending for open, descending for close — mirroring
    ``row_number() OVER (ORDER BY ts, tb)`` windows).

    first/last-by-order is associative, so each batch ships ONE partial
    row per (key, batch) carrying the batch's boundary (ts, tiebreak,
    value) triples; the single hash(key) exchange re-applies the same
    boundary selection per bucket.  The event stream itself never
    shuffles."""
    import numpy as np
    import pyarrow as pa

    nb = np.uint64(num_buckets)

    def partial(b: pd.DataFrame) -> pa.Table:
        s = b.sort_values(
            key_cols + [ts_col, tiebreak], kind="mergesort"
        )
        g = s.groupby(key_cols, sort=False)
        first = g.head(1).set_index(key_cols)
        last = g.tail(1).set_index(key_cols)
        agg = g.agg(
            low=(value_col, "min"), high=(value_col, "max"),
            n_events=(value_col, "size"),
        )
        out = agg.reset_index()
        out["open_ts"] = first[ts_col].to_numpy()
        out["open_tb"] = first[tiebreak].to_numpy()
        out["open"] = first[value_col].to_numpy()
        out["close_ts"] = last[ts_col].to_numpy()
        out["close_tb"] = last[tiebreak].to_numpy()
        out["close"] = last[value_col].to_numpy()
        keyframe = out[key_cols[0]] if len(key_cols) == 1 else out[key_cols]
        out["__oh_bkt"] = (
            pd.util.hash_pandas_object(keyframe, index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def finalize(g: pd.DataFrame) -> pa.Table:
        opens = (
            g.sort_values(key_cols + ["open_ts", "open_tb"], kind="mergesort")
            .groupby(key_cols, sort=False).head(1).set_index(key_cols)
        )
        closes = (
            g.sort_values(key_cols + ["close_ts", "close_tb"], kind="mergesort")
            .groupby(key_cols, sort=False).tail(1).set_index(key_cols)
        )
        agg = g.groupby(key_cols, sort=False).agg(
            low=("low", "min"), high=("high", "max"), n_events=("n_events", "sum")
        )
        out = agg.reset_index()
        # align by key index — agg's group order (first occurrence in g)
        # differs from the sorted frames' order
        out["open"] = opens["open"].reindex(agg.index).to_numpy()
        out["close"] = closes["close"].reindex(agg.index).to_numpy()
        out = out[key_cols + ["open", "high", "low", "close", "n_events"]]
        return pa.Table.from_pandas(out, preserve_index=False)

    kw = {} if batch_size is None else {"batch_size": batch_size}
    return (
        ds.map_batches(partial, batch_format="pandas", **kw)
        .groupby("__oh_bkt")
        .map_groups(finalize, batch_format="pandas")
    )


def conversion_lag(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    type_col: str,
    from_type: str,
    to_type: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Time-to-convert per key (the funnel-timing / survival-lite
    primitive): for each key, the FIRST ``from_type`` event and the
    first ``to_type`` event at-or-after it — unconverted keys come back
    with a null ``to_ts`` (right-censored, the survival-analysis
    contract).  ``funnel_by_key`` counts ordered steps; this measures
    the latency between two of them.

    One hash(key) exchange; inside each bucket both boundary lookups
    are vectorized pandas groupby-mins.  Returns ``(key, from_ts,
    to_ts)``."""
    import numpy as np
    import pyarrow as pa

    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        out = b.loc[
            b[type_col].isin([from_type, to_type]),
            [key_col, ts_col, type_col],
        ].copy()
        h = pd.util.hash_pandas_object(out[key_col], index=False).to_numpy()
        out["__cl_bkt"] = (h.astype(np.uint64) % nb).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def lag(g: pd.DataFrame) -> pa.Table:
        f = (
            g[g[type_col] == from_type]
            .groupby(key_col, sort=False)[ts_col].min()
        )
        t = g[g[type_col] == to_type][[key_col, ts_col]].copy()
        t = t.merge(f.rename("from_ts"), left_on=key_col, right_index=True)
        t = t[t[ts_col] >= t["from_ts"]]
        to = t.groupby(key_col, sort=False)[ts_col].min()
        out = f.rename("from_ts").reset_index()
        # dtype-preserving even when EVERY key is unconverted (a plain
        # .map would yield float NaN / object, breaking block
        # unification — the r2 empty-frame rule)
        out["to_ts"] = pd.to_datetime(out[key_col].map(to))
        out["from_ts"] = pd.to_datetime(out["from_ts"])
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__cl_bkt")
        .map_groups(lag, batch_format="pandas")
    )


def scd2_intervals(
    ds: rd.Dataset,
    key_col: str,
    attr_col: str,
    ts_col: str,
    tiebreak_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Slowly-changing-dimension type-2 build (the lakehouse dimension
    primitive): collapse each key's time-ordered attribute sequence
    into validity intervals — one row per RUN of consecutive equal
    attribute values, with ``valid_from`` (run's first timestamp),
    ``valid_to`` (next run's ``valid_from``; null on the key's current
    run — right-open intervals), and ``n_rows``.

    Ordering is ``(ts, tiebreak)`` so timestamp ties are deterministic;
    attribute equality follows SQL ``IS NOT DISTINCT FROM`` (null runs
    merge).  ONE hash(key) exchange; the run detection / collapse is a
    vectorized shift-compare + cumsum + pandas groupby per bucket."""
    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        out = b[[key_col, attr_col, ts_col, tiebreak_col]].copy()
        h = pd.util.hash_pandas_object(out[key_col], index=False).to_numpy()
        out["__s2_bkt"] = (h.astype(np.uint64) % nb).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def collapse(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([key_col, ts_col, tiebreak_col], kind="mergesort")
        key_np = g[key_col].to_numpy()
        new_key = np.r_[True, key_np[1:] != key_np[:-1]]
        a = g[attr_col]
        ap = a.shift()
        distinct = (a.ne(ap) & ~(a.isna() & ap.isna())).to_numpy()
        run = np.cumsum(new_key | distinct)
        agg = g.assign(__run=run).groupby("__run", sort=True).agg(
            **{
                key_col: (key_col, "first"),
                attr_col: (attr_col, "first"),
                "valid_from": (ts_col, "first"),
                "n_rows": (ts_col, "size"),
            }
        )
        same_key = agg[key_col].eq(agg[key_col].shift(-1))
        agg["valid_to"] = pd.to_datetime(
            agg["valid_from"].shift(-1).where(same_key)
        )
        agg["valid_from"] = pd.to_datetime(agg["valid_from"])
        agg["n_rows"] = agg["n_rows"].astype("int64")
        return pa.Table.from_pandas(
            agg[
                [key_col, attr_col, "valid_from", "valid_to", "n_rows"]
            ].reset_index(drop=True),
            preserve_index=False,
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__s2_bkt")
        .map_groups(collapse, batch_format="pandas")
    )


def rolling_active(
    ds: rd.Dataset,
    ts_col: str,
    key_col: str,
    window_hours: int = 3,
    num_buckets: int = 64,
    freq: str = "h",
) -> rd.Dataset:
    """Rolling distinct-key count per ``freq`` window (hourly by
    default; pass ``freq="D"`` with ``window_hours`` meaning DAYS for
    the DAU/MAU family) — for every period ``p`` touched by a window,
    the number of DISTINCT keys with an event in the trailing
    ``window_hours`` periods ending at ``p`` inclusive.  SQL
    ``COUNT(DISTINCT ...) OVER`` is unsupported by engines; the scale
    shape is the event→window EXPLODE (bounded ×window) followed by
    one exact ``distinct_count_by_key`` — distinct pairs shrink
    map-side, the exchange carries (window, key) pairs only."""
    from .agg import distinct_count_by_key

    k = int(window_hours)
    unit = {"h": "h", "D": "D"}[freq]

    def explode(b: pd.DataFrame) -> pa.Table:
        hrs = b[ts_col].dt.floor(freq).to_numpy()
        win = np.repeat(hrs, k) + np.tile(
            np.arange(k, dtype=np.int64), len(b)
        ) * np.timedelta64(1, unit)
        keys = np.repeat(b[key_col].to_numpy(), k)
        return pa.table({"win_end": pa.array(win), key_col: pa.array(keys)})

    ex = ds.map_batches(explode, batch_format="pandas")
    return distinct_count_by_key(
        ex, ["win_end"], key_col, out_col="n_active", num_buckets=num_buckets
    )


def acf_by_key(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    val_col: str,
    lags: tuple[int, ...] = (1, 2, 3),
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-key autocorrelation function at the given ``lags`` — the
    time-series seasonality/momentum signal: Pearson correlation between
    each key's ordered value series and its lag-L shift, exactly
    ``corr(value, LAG(value, L) OVER (PARTITION BY key ORDER BY ...))``
    per key in SQL.

    Output one row per (key, lag) with at least one pair: ``(key, lag,
    n_pairs, acf)``; ``acf`` is NULL when either side of the pair series
    is constant (SQL corr semantics — 0/0), rounded half-away to 6 dp so
    the DuckDB oracle hash-compares.

    Same exchange shape as :func:`lag_by_key`: ONE ``hash(key) %
    num_buckets`` co-location, then an in-bucket stable sort and a
    vectorized pandas groupby-shift per lag — no per-row Python, no
    per-key Ray groups.  ``order_cols`` must totally order each key.
    """
    import numpy as np
    import pyarrow as pa

    nb = np.uint64(num_buckets)
    lags = tuple(int(x) for x in lags)
    if not lags or min(lags) < 1:
        raise ValueError("lags must be positive integers")

    def tag(b: pd.DataFrame) -> pa.Table:
        keep = [key_col, *order_cols, val_col]
        b = b[keep].copy()
        b["__acf_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def corr_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__acf_bkt")
            .sort_values([key_col] + order_cols, kind="mergesort")
            .reset_index(drop=True)
        )
        gb = g.groupby(key_col, sort=False)
        keys_out, lag_out, n_out, acf_out = [], [], [], []
        v = g[val_col].to_numpy(dtype=np.float64)
        for lag in lags:
            pv = gb[val_col].shift(lag).to_numpy(dtype=np.float64)
            ok = ~np.isnan(pv)
            x, y = v[ok], pv[ok]
            kf = pd.DataFrame(
                {"k": g[key_col].to_numpy()[ok], "n": 1, "sx": x, "sy": y,
                 "sxx": x * x, "syy": y * y, "sxy": x * y}
            )
            agg = kf.groupby("k", sort=True).sum()  # one vectorized C pass
            n = agg["n"].to_numpy(dtype=np.float64)
            cov = agg["sxy"].to_numpy() - agg["sx"].to_numpy() * agg["sy"].to_numpy() / n
            vx = agg["sxx"].to_numpy() - agg["sx"].to_numpy() ** 2 / n
            vy = agg["syy"].to_numpy() - agg["sy"].to_numpy() ** 2 / n
            denom = np.sqrt(vx * vy)
            with np.errstate(invalid="ignore", divide="ignore"):
                r = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), np.nan)
            # round half-away (oracle convention — never pandas half-even)
            r = np.where(
                np.isnan(r), np.nan, np.sign(r) * np.floor(np.abs(r) * 1e6 + 0.5) / 1e6
            )
            keys_out.append(agg.index.to_numpy())
            lag_out.append(np.full(len(agg), lag, np.int64))
            n_out.append(agg["n"].to_numpy(dtype=np.int64))
            acf_out.append(r)
        keys_np = np.concatenate(keys_out) if keys_out else np.empty(0, object)
        try:
            kt = pa.from_numpy_dtype(g[key_col].dtype)
        except (pa.ArrowNotImplementedError, TypeError):
            kt = pa.string()
        return pa.table(
            {
                key_col: pa.array(keys_np, kt),
                "lag": pa.array(np.concatenate(lag_out) if lag_out else
                                np.empty(0, np.int64), pa.int64()),
                "n_pairs": pa.array(np.concatenate(n_out) if n_out else
                                    np.empty(0, np.int64), pa.int64()),
                "acf": pa.array(np.concatenate(acf_out) if acf_out else
                                np.empty(0, np.float64), pa.float64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__acf_bkt")
        .map_groups(corr_bucket, batch_format="pandas")
    )


def resample_counts(
    ds: rd.Dataset,
    ts_col: str,
    key_col: str,
    freq: str = "h",
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Gap-FILLED time resample: event counts per (key, period) over the
    corpus-global ``[min period, max period]`` range, with explicit
    zero rows for empty periods — the time-series shape downstream
    models need (a missing hour is a 0, not an absent row; plain
    groupby can't say so).

    One skinny grouped_reduce exchange does the counting; the fill
    happens on the DRIVER over the collected aggregate, which is
    inherently bounded by n_keys x n_periods (a dimension grid, not
    data — the heavy_hitters/quantiles driver-bounded contract), so no
    second exchange is spent on zero rows.  Returns a pandas frame
    ``(period, key, n)`` sorted by (period, key); ``freq`` is "h" or
    "D" (period label format follows the events_hourly convention).
    """
    from .agg import grouped_reduce

    fmt = {"h": "%Y-%m-%d %H:00:00", "D": "%Y-%m-%d"}[freq]

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "__per": b[ts_col].dt.floor(freq),
                key_col: b[key_col],
            }
        )

    counts = (
        grouped_reduce(
            ds.map_batches(tag, batch_format="pandas"),
            ["__per", key_col],
            {"n": (None, "count")},
            num_buckets=num_buckets,
        )
        .to_pandas()
    )
    if counts.empty:
        return pd.DataFrame(columns=["period", key_col, "n"])
    pers = pd.date_range(
        counts["__per"].min(), counts["__per"].max(), freq=freq
    )
    keys = np.sort(counts[key_col].unique())
    grid = pd.MultiIndex.from_product([pers, keys], names=["__per", key_col])
    full = (
        counts.set_index(["__per", key_col])
        .reindex(grid, fill_value=0)
        .reset_index()
    )
    out = pd.DataFrame(
        {
            "period": full["__per"].dt.strftime(fmt),
            key_col: full[key_col],
            "n": full["n"].astype("int64"),
        }
    )
    return out.sort_values(["period", key_col]).reset_index(drop=True)


def merge_intervals(
    ds: rd.Dataset,
    key_col: str,
    start_col: str,
    end_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Union of overlapping-or-touching intervals per key — the
    gaps-and-islands merge (SQL: running ``max(end)`` window + island
    cumsum): consecutive intervals merge whenever the next start is <=
    the running max end.  Output one row per merged island: ``(key,
    start, end, n_merged)``, the canonical "active periods" /
    "coverage" shape.

    One ``hash(key) % num_buckets`` exchange (the lag_by_key shape);
    in-bucket: a stable (key, start, end) sort, a grouped cummax-shift
    to find island breaks, and a vectorized groupby min/max/count — no
    per-row or per-key Python.  Intervals must satisfy start <= end
    per row (raises otherwise)."""
    import numpy as np
    import pyarrow as pa

    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        if (b[start_col] > b[end_col]).any():
            raise ValueError("merge_intervals: found start > end row")
        b = b[[key_col, start_col, end_col]].copy()
        b["__mi_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def merge_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__mi_bkt")
            .sort_values([key_col, start_col, end_col], kind="mergesort")
            .reset_index(drop=True)
        )
        gb = g.groupby(key_col, sort=False)
        prev_max = gb[end_col].cummax().groupby(g[key_col], sort=False).shift(1)
        new_island = prev_max.isna() | (g[start_col] > prev_max)
        g["__isl"] = np.cumsum(new_island.to_numpy())
        out = g.groupby([key_col, "__isl"], sort=True, as_index=False).agg(
            start=(start_col, "min"),
            end=(end_col, "max"),
            n_merged=(start_col, "size"),
        )
        out["n_merged"] = out["n_merged"].astype("int64")
        return pa.Table.from_pandas(
            out.drop(columns="__isl"), preserve_index=False
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__mi_bkt")
        .map_groups(merge_bucket, batch_format="pandas")
    )


def ffill_by_key(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    cols: list[str],
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-key forward fill (LOCF imputation): each NULL in ``cols``
    takes the key's most recent non-null value in ``order_cols`` order —
    SQL ``last_value(col IGNORE NULLS) OVER (PARTITION BY key ORDER BY
    ... ROWS UNBOUNDED PRECEDING)``.  Leading nulls (no prior value)
    stay null.

    The lag_by_key exchange shape: one ``hash(key) % num_buckets``
    co-location, in-bucket stable sort + vectorized pandas
    ``groupby(key).ffill()`` — no per-row or per-key Python.
    ``order_cols`` must totally order each key."""
    import numpy as np
    import pyarrow as pa

    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b.copy()
        b["__ff_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def fill_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__ff_bkt")
            .sort_values([key_col] + order_cols, kind="mergesort")
            .reset_index(drop=True)
        )
        g[cols] = g.groupby(key_col, sort=False)[cols].ffill()
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__ff_bkt")
        .map_groups(fill_bucket, batch_format="pandas")
    )


def time_weighted_avg(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    val_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-key time-weighted average — the telemetry/IoT aggregate where
    a reading holds until the next one (step function): ``twa = Σ v_i ·
    (t_{i+1} − t_i) / (t_n − t_0)`` over ts-ordered readings.  A plain
    mean overweights bursty periods; TWA integrates over TIME.

    Output: one row per key with >= 2 readings — ``(key, twa,
    n_segments, span_seconds)``; single-reading keys have no duration
    and are omitted (SQL: the lead() row drops out).

    The lag_by_key exchange shape: one ``hash(key) % num_buckets``
    co-location, in-bucket stable sort, vectorized grouped shift(-1) +
    groupby sum.  TWA rounded half-away at 6 dp (oracle convention)."""
    import numpy as np
    import pyarrow as pa

    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b[[key_col, ts_col, val_col]].copy()
        b["__twa_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def avg_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__twa_bkt")
            .sort_values([key_col, ts_col], kind="mergesort")
            .reset_index(drop=True)
        )
        nts = g.groupby(key_col, sort=False)[ts_col].shift(-1)
        dur = (nts - g[ts_col]).dt.total_seconds()
        ok = dur.notna()
        kf = pd.DataFrame(
            {
                "k": g.loc[ok, key_col].to_numpy(),
                "wv": g.loc[ok, val_col].to_numpy() * dur[ok].to_numpy(),
                "d": dur[ok].to_numpy(),
                "n": 1,
            }
        )
        agg = kf.groupby("k", sort=True).sum()
        twa = agg["wv"].to_numpy() / agg["d"].to_numpy()
        twa = np.sign(twa) * np.floor(np.abs(twa) * 1e6 + 0.5) / 1e6
        kt = (
            pa.string()
            if agg.index.dtype == object
            else pa.from_numpy_dtype(agg.index.dtype)
        )
        return pa.table(
            {
                key_col: pa.array(agg.index.to_numpy(), kt),
                "twa": pa.array(twa, pa.float64()),
                "n_segments": pa.array(
                    agg["n"].to_numpy(dtype=np.int64), pa.int64()
                ),
                "span_seconds": pa.array(
                    agg["d"].to_numpy(dtype=np.float64), pa.float64()
                ),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__twa_bkt")
        .map_groups(avg_bucket, batch_format="pandas")
    )


def last_touch_attribution(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    type_col: str,
    val_col: str,
    convert_type: str,
    tiebreak_col: str,
    none_label: str = "(none)",
    num_buckets: int = 64,
) -> rd.Dataset:
    """Last-touch marketing attribution: every ``convert_type`` event is
    credited to the key's most recent PRECEDING event of any other type
    — SQL ``last_value(CASE WHEN type <> convert THEN type END IGNORE
    NULLS) OVER (PARTITION BY key ORDER BY ts, tiebreak ROWS UNBOUNDED
    PRECEDING AND 1 PRECEDING)``.  Conversions with no prior touch
    credit ``none_label``.

    Output: one row per touch channel — ``(touch, n_conversions,
    attributed_value)`` with the value sum over credited conversions.

    Shape: one hash(key) co-location; in-bucket stable sort + masked
    grouped shift/ffill (all vectorized); per-bucket partials over the
    CHANNEL-cardinality touch key reduce through
    :func:`~.agg.grouped_reduce` — the exchange after the co-location
    carries #channels rows per bucket, never events."""
    from .agg import grouped_reduce

    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        out = b[[key_col, ts_col, type_col, val_col, tiebreak_col]].copy()
        h = pd.util.hash_pandas_object(out[key_col], index=False).to_numpy()
        out["__lt_bkt"] = (h.astype(np.uint64) % nb).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def attribute(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(
            [key_col, ts_col, tiebreak_col], kind="mergesort"
        ).reset_index(drop=True)
        touch = g[type_col].where(g[type_col] != convert_type)
        # previous row's touch candidate, carried forward within the key
        prev = touch.groupby(g[key_col], sort=False).shift(1)
        prev = prev.groupby(g[key_col], sort=False).ffill()
        conv = g[type_col] == convert_type
        part = pd.DataFrame(
            {
                "touch": prev[conv].fillna(none_label).to_numpy(),
                "v": g.loc[conv, val_col].to_numpy(),
            }
        )
        agg = part.groupby("touch", sort=False).agg(
            n=("v", "size"), s=("v", "sum")
        )
        return pa.table(
            {
                "touch": pa.array(agg.index.to_numpy().astype(str), pa.string()),
                "n": pa.array(agg["n"].to_numpy(dtype=np.int64), pa.int64()),
                "s": pa.array(agg["s"].to_numpy(dtype=np.float64), pa.float64()),
            }
        )

    parts = (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__lt_bkt")
        .map_groups(attribute, batch_format="pandas")
    )
    return grouped_reduce(
        parts,
        ["touch"],
        {"n_conversions": ("n", "sum"), "attributed_value": ("s", "sum")},
        num_buckets=num_buckets,
    )


def session_paths(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    type_col: str,
    tiebreak_col: str,
    gap_seconds: float = 1800.0,
    k: int = 20,
    sep: str = ">",
    num_buckets: int = 64,
) -> rd.Dataset:
    """Top-``k`` most common user journeys: events sessionize per key on
    a ``gap_seconds`` inactivity gap, each session becomes the ordered
    ``sep``-joined string of its event types, and paths are counted
    corpus-wide (ties broken by path text — deterministic at any
    parallelism).

    Shape: one hash(key) co-location (sessions never span keys);
    in-bucket stable sort, vectorized gap-break cumsum, one pandas
    groupby-join per session; per-bucket path counts reduce through
    :func:`~.agg.grouped_reduce` (distinct-PATH cardinality — already
    aggregated, far below event cardinality) and the final sort+limit
    runs over that aggregated set, the ``vocab_topk`` story."""
    from .agg import grouped_reduce

    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        out = b[[key_col, ts_col, type_col, tiebreak_col]].copy()
        h = pd.util.hash_pandas_object(out[key_col], index=False).to_numpy()
        out["__sp_bkt"] = (h.astype(np.uint64) % nb).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def paths(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(
            [key_col, ts_col, tiebreak_col], kind="mergesort"
        ).reset_index(drop=True)
        prev_ts = g.groupby(key_col, sort=False)[ts_col].shift(1)
        gap = (g[ts_col] - prev_ts).dt.total_seconds()
        brk = gap.isna() | (gap > gap_seconds)
        # keys are contiguous post-sort, so a bucket-global cumsum gives
        # session ids unique within (key, sess)
        sess = brk.cumsum()
        joined = g.groupby([g[key_col], sess], sort=False)[type_col].agg(
            sep.join
        )
        vc = joined.value_counts(sort=False)
        return pa.table(
            {
                "path": pa.array(vc.index.to_numpy().astype(str), pa.string()),
                "n": pa.array(vc.to_numpy().astype(np.int64), pa.int64()),
            }
        )

    counts = grouped_reduce(
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__sp_bkt")
        .map_groups(paths, batch_format="pandas"),
        ["path"],
        {"n_sessions": ("n", "sum")},
        num_buckets=num_buckets,
    )
    return counts.sort(
        key=["n_sessions", "path"], descending=[True, False]
    ).limit(k)


def cusum_by_key(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    val_col: str,
    target: float | None = None,
    drift: float = 0.0,
    num_buckets: int = 64,
) -> rd.Dataset:
    """One-sided CUSUM changepoint statistic per key — the telemetry
    drift/shift detector: ``S_i = max(0, S_{i-1} + (x_i − μ0 − drift))``
    over each key's ``order_cols``-ordered values, where ``μ0`` is the
    monitored process ``target`` (the standard known-target CUSUM) or,
    when ``target=None``, the key's own mean (self-calibrating).

    Oracle-precision note: with a fixed target, cusum values of
    k-decimal inputs stay on the k-decimal lattice (rounding them one
    digit finer is boundary-safe); the per-key-MEAN variant produces
    rationals with denominator n_key that can sit EXACTLY on rounding /
    threshold boundaries, where float noise splits engines — measured
    at sf0.1 (7/1500 users flipped a 4-dp rounding of max cusum).
    Compare mean-variant outputs with tolerance, not hashes.

    The recursion vectorizes exactly via the reset identity
    ``S_i = C_i − min(0, min_{j<=i} C_j)`` with ``C`` the running sum
    of deviations — per-key cumsum + cummin, no sequential loop and a
    direct SQL window mirror (``sum OVER`` − ``least(0, min OVER)``).

    One hash(key) co-location; returns every input row plus ``cusum``
    (unrounded — aggregate or threshold downstream)."""
    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        out = b[[key_col, *order_cols, val_col]].copy()
        h = pd.util.hash_pandas_object(out[key_col], index=False).to_numpy()
        out["__cs_bkt"] = (h.astype(np.uint64) % nb).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def cusum_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__cs_bkt")
            .sort_values([key_col, *order_cols], kind="mergesort")
            .reset_index(drop=True)
        )
        keys = g[key_col]
        if target is None:
            grp = g.groupby(key_col, sort=False)[val_col]
            y = g[val_col] - grp.transform("mean") - drift
        else:
            y = g[val_col] - target - drift
        c = y.groupby(keys, sort=False).cumsum()
        m = c.groupby(keys, sort=False).cummin()
        g["cusum"] = (c - np.minimum(0.0, m)).to_numpy()
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__cs_bkt")
        .map_groups(cusum_bucket, batch_format="pandas")
    )


def session_stats(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    tiebreak_col: str,
    gap_seconds: float = 1800.0,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Corpus session summary over the same gap sessionization as
    :func:`session_paths`: total sessions, bounces (single-event
    sessions), bounce rate and mean session length — the engagement
    scorecard.  One hash(key) co-location; per-bucket partials are
    three integers, so nothing after the exchange scales with
    anything.  Returns a one-row DataFrame ``(n_sessions, n_bounces,
    bounce_rate, avg_len)`` with rates rounded half-away 6 dp (exact
    integer inputs — both engines divide identical ints)."""
    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        out = b[[key_col, ts_col, tiebreak_col]].copy()
        h = pd.util.hash_pandas_object(out[key_col], index=False).to_numpy()
        out["__ss_bkt"] = (h.astype(np.uint64) % nb).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def stats(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(
            [key_col, ts_col, tiebreak_col], kind="mergesort"
        ).reset_index(drop=True)
        prev_ts = g.groupby(key_col, sort=False)[ts_col].shift(1)
        gap = (g[ts_col] - prev_ts).dt.total_seconds()
        brk = gap.isna() | (gap > gap_seconds)
        sizes = brk.cumsum().value_counts(sort=False).to_numpy()
        return pa.table(
            {
                "ns": pa.array([len(sizes)], pa.int64()),
                "nb": pa.array([int((sizes == 1).sum())], pa.int64()),
                "ne": pa.array([int(sizes.sum())], pa.int64()),
            }
        )

    p = (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__ss_bkt")
        .map_groups(stats, batch_format="pandas")
        .to_pandas()
    )
    ns, nbn, ne = int(p["ns"].sum()), int(p["nb"].sum()), int(p["ne"].sum())

    def _r6(x: float) -> float:
        return float(np.sign(x) * np.floor(abs(x) * 1e6 + 0.5) / 1e6)

    return pd.DataFrame(
        {
            "n_sessions": pd.Series([ns], dtype="int64"),
            "n_bounces": pd.Series([nbn], dtype="int64"),
            "bounce_rate": [_r6(nbn / ns) if ns else 0.0],
            "avg_len": [_r6(ne / ns) if ns else 0.0],
        }
    )


def trend_by_key(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    val_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-key OLS trend: the least-squares slope of ``val_col`` against
    time, in value-units per DAY — the per-entity drift/trend signal
    (is this user's value going up or down over their history?).

    Time is centered per key (``x = ts - min(ts) OVER (PARTITION BY
    key)`` in microseconds, divided to days): translation leaves the
    slope unchanged but keeps the sufficient statistics small and
    cancellation-free, and makes the all-timestamps-equal case an EXACT
    float zero denominator on both engines (raw epoch sums would leave
    order-of-summation noise deciding NULL-vs-huge-slope).

    ``slope = (n*Sxy - Sx*Sy) / (n*Sxx - Sx*Sx)``, NULL when the
    denominator is not > 0 (single distinct timestamp).  Rounded
    half-away to 6 dp for the DuckDB oracle hash-compare.

    Same single ``hash(key) % num_buckets`` co-location as
    :func:`acf_by_key`; in-bucket the per-key sums are one vectorized
    pandas groupby pass (no per-key Python).
    """
    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b[[key_col, ts_col, val_col]].copy()
        b["__tr_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def slope_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.drop(columns="__tr_bkt")
        t = g[ts_col].astype("datetime64[ns]").astype("int64") // 1000
        tmin = t.groupby(g[key_col]).transform("min")
        x = (t - tmin).to_numpy(dtype=np.float64) / 86400e6
        y = g[val_col].to_numpy(dtype=np.float64)
        kf = pd.DataFrame(
            {"k": g[key_col].to_numpy(), "n": 1, "sx": x, "sy": y,
             "sxy": x * y, "sxx": x * x}
        )
        agg = kf.groupby("k", sort=True).sum()
        n = agg["n"].to_numpy(dtype=np.float64)
        num = n * agg["sxy"].to_numpy() - agg["sx"].to_numpy() * agg["sy"].to_numpy()
        den = n * agg["sxx"].to_numpy() - agg["sx"].to_numpy() ** 2
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.nan)
        s = np.where(np.isnan(s), np.nan,
                     np.sign(s) * np.floor(np.abs(s) * 1e6 + 0.5) / 1e6)
        try:
            kt = pa.from_numpy_dtype(g[key_col].dtype)
        except (pa.ArrowNotImplementedError, TypeError):
            kt = pa.string()
        return pa.table(
            {
                key_col: pa.array(agg.index.to_numpy(), kt),
                "n": pa.array(agg["n"].to_numpy(dtype=np.int64), pa.int64()),
                "slope_per_day": pa.array(s, pa.float64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__tr_bkt")
        .map_groups(slope_bucket, batch_format="pandas")
    )


def rolling_median_by_key(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    val_col: str,
    window: int = 5,
    out_col: str = "rolling_median",
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-key rolling median over the trailing ``window`` rows — the
    robust-smoothing counterpart of rolling mean (spikes don't drag it):
    SQL ``median(val) OVER (PARTITION BY key ORDER BY order_cols ROWS
    BETWEEN window-1 PRECEDING AND CURRENT ROW)``.

    Partial leading windows use however many rows exist (min_periods=1,
    the SQL ROWS-frame semantics).  Even-sized frames average the two
    middle values — both engines compute ``lo + (hi-lo)/2``-style
    interpolation on identical doubles, and 2-dp inputs put the true
    median on the 0.005 lattice (inside the 6-dp rounding lattice,
    never on a boundary), so the 6-dp round is oracle-safe.

    One ``hash(key) % num_buckets`` co-location, then pandas
    ``groupby(...).rolling(window).median()`` per bucket (C kernel,
    no per-row Python).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    nb = np.uint64(num_buckets)
    keep = [key_col, *order_cols, val_col]

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b[keep].copy()
        b["__rm_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def med_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__rm_bkt")
            .sort_values([key_col] + order_cols, kind="mergesort")
            .reset_index(drop=True)
        )
        med = (
            g.groupby(key_col, sort=False)[val_col]
            .rolling(window, min_periods=1)
            .median()
            .reset_index(drop=True)
            .to_numpy(dtype=np.float64)
        )
        med = np.sign(med) * np.floor(np.abs(med) * 1e6 + 0.5) / 1e6
        g[out_col] = med
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__rm_bkt")
        .map_groups(med_bucket, batch_format="pandas")
    )


def gap_stats_by_key(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    tiebreak: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-key inter-event-gap statistics — purchase cadence / visit
    rhythm per entity: for each key with ≥ 2 events, the count, min,
    max and MEDIAN of consecutive timestamp gaps (ordered by ``ts_col,
    tiebreak``), all in exact integer microseconds.

    min/max are int64; the median of integer µs gaps is an exact
    half-integer double (ints < 2^52, so ``(a+b)/2`` is exact under ANY
    evaluation order) — the oracle hash-compares with NO rounding slack
    anywhere.

    One ``hash(key) % num_buckets`` co-location (the lag_by_key shape);
    in-bucket: stable sort, grouped shift-diff, vectorized groupby
    min/max/count + one grouped median (C kernels).
    """
    nb = np.uint64(num_buckets)
    keep = [key_col, ts_col, tiebreak]

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b[keep].copy()
        b["__gs_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def stats(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__gs_bkt")
            .sort_values([key_col, ts_col, tiebreak], kind="mergesort")
            .reset_index(drop=True)
        )
        t = g[ts_col].astype("datetime64[ns]").astype("int64") // 1000
        gap = (t - t.groupby(g[key_col]).shift(1)).astype("float64")
        ok = gap.notna()
        f = pd.DataFrame(
            {"k": g[key_col].to_numpy()[ok], "gap": gap.to_numpy()[ok]}
        )
        if f.empty:
            return pa.table(
                {
                    key_col: pa.array([], pa.from_numpy_dtype(g[key_col].dtype)
                                      if g[key_col].dtype.kind in "iuf"
                                      else pa.string()),
                    "n_gaps": pa.array([], pa.int64()),
                    "min_gap_us": pa.array([], pa.int64()),
                    "max_gap_us": pa.array([], pa.int64()),
                    "median_gap_us": pa.array([], pa.float64()),
                }
            )
        gb = f.groupby("k", sort=True)["gap"]
        agg = gb.agg(["count", "min", "max", "median"])
        try:
            kt = pa.from_numpy_dtype(g[key_col].dtype)
        except (pa.ArrowNotImplementedError, TypeError):
            kt = pa.string()
        return pa.table(
            {
                key_col: pa.array(agg.index.to_numpy(), kt),
                "n_gaps": pa.array(agg["count"].to_numpy(np.int64), pa.int64()),
                "min_gap_us": pa.array(agg["min"].to_numpy(np.int64), pa.int64()),
                "max_gap_us": pa.array(agg["max"].to_numpy(np.int64), pa.int64()),
                "median_gap_us": pa.array(agg["median"].to_numpy(np.float64),
                                          pa.float64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__gs_bkt")
        .map_groups(stats, batch_format="pandas")
    )


def linear_attribution(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    type_col: str,
    conversion_type: str,
    lookback_s: float,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Multi-touch LINEAR attribution: every conversion splits one unit
    of credit EQUALLY across all non-conversion touches of the same key
    in the ``lookback_s`` window strictly before it (the marketing
    counterpart of :func:`last_touch_attribution`, which gives the
    whole unit to the most recent touch).  Touchless conversions credit
    the ``(none)`` bucket.

    Per-key vectorization (no per-conversion loop): within each
    co-located, time-sorted key partition, each conversion's touch
    window is a [searchsorted(t−W), searchsorted(t)) index range over
    the key's touch array; per-touch credits accumulate via the
    range-add trick (±1/k at the range ends, prefix-sum once).  One
    hash(key) exchange total; per-type partial sums cross back
    (|types| rows per bucket).

    Credits are sums of 1/k rationals; at any k below ~5^6 the true
    value cannot sit on a 6-dp half-boundary (the denominator lacks the
    5-powers), so the 6-dp round is oracle-safe — documented bound.
    Returns ``(touch_type, credit)`` sorted by type.  The in-bucket
    per-key loop only issues vectorized kernels (two searchsorteds +
    one range-add prefix sum per key), so per-key cost is
    O(k·log touches), not per-event Python.
    """
    nb = np.uint64(num_buckets)
    gap_us = int(lookback_s * 1e6)
    keep = [key_col, ts_col, type_col]

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b[keep].copy()
        b["__la_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def credit_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__la_bkt")
            .sort_values([key_col, ts_col], kind="mergesort")
            .reset_index(drop=True)
        )
        t_us = g[ts_col].astype("datetime64[ns]").astype("int64") // 1000
        types = g[type_col].to_numpy()
        is_conv = types == conversion_type
        out_type: list[np.ndarray] = []
        out_credit: list[np.ndarray] = []
        none_conv = 0
        none_credit = 0.0
        for _, idx in g.groupby(key_col, sort=False).indices.items():
            t = t_us.to_numpy()[idx]
            ty = types[idx]
            conv = is_conv[idx]
            touch_t = t[~conv]
            touch_ty = ty[~conv]
            conv_t = t[conv]
            if len(conv_t) == 0:
                continue
            if len(touch_t) == 0:
                none_conv += len(conv_t)
                none_credit += float(len(conv_t))
                continue
            lo = np.searchsorted(touch_t, conv_t - gap_us, side="left")
            hi = np.searchsorted(touch_t, conv_t, side="left")
            k = (hi - lo).astype(np.int64)
            empty = k == 0
            none_conv += int(empty.sum())
            none_credit += float(empty.sum())
            w = np.zeros(len(conv_t), dtype=np.float64)
            w[~empty] = 1.0 / k[~empty]
            # range-add: +w at lo, -w past hi-1; prefix-sum -> per-touch
            diff = np.zeros(len(touch_t) + 1, dtype=np.float64)
            np.add.at(diff, lo[~empty], w[~empty])
            np.add.at(diff, hi[~empty], -w[~empty])
            per_touch = np.cumsum(diff[:-1])
            out_type.append(touch_ty)
            out_credit.append(per_touch)
        if out_type:
            f = pd.DataFrame(
                {"t": np.concatenate(out_type),
                 "c": np.concatenate(out_credit)}
            )
            agg = f.groupby("t", sort=False)["c"].sum().reset_index()
        else:
            agg = pd.DataFrame({"t": pd.Series([], dtype=object),
                                "c": pd.Series([], dtype="float64")})
        if none_conv:
            agg = pd.concat(
                [agg, pd.DataFrame({"t": ["(none)"], "c": [none_credit]})],
                ignore_index=True,
            )
        return pa.table(
            {"touch_type": pa.array(agg["t"].astype(str), pa.string()),
             "credit_p": pa.array(agg["c"].to_numpy(np.float64),
                                  pa.float64())}
        )

    p = (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__la_bkt")
        .map_groups(credit_bucket, batch_format="pandas")
        .to_pandas()
    )
    if p.empty:
        return pd.DataFrame(
            {"touch_type": pd.Series([], dtype=object),
             "credit": pd.Series([], dtype="float64")}
        )
    agg = p.groupby("touch_type", sort=True)["credit_p"].sum().reset_index()
    c = agg["credit_p"].to_numpy(np.float64)
    agg["credit"] = np.sign(c) * np.floor(np.abs(c) * 1e6 + 0.5) / 1e6
    return agg[["touch_type", "credit"]]


def holt_by_key(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    val_col: str,
    alpha: float = 0.5,
    beta: float = 0.3,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-key Holt double exponential smoothing (level + trend), the
    classic short-horizon forecaster for per-entity time series:

    ``l_t = α·y_t + (1-α)(l_{t-1} + b_{t-1})``,
    ``b_t = β(l_t - l_{t-1}) + (1-β)·b_{t-1}``, initialized ``l_0 =
    y_0, b_0 = 0``.  Returns the final state and one-step forecast per
    key: ``(key, n, level, trend, forecast)`` with ``forecast = level +
    trend`` (6-dp half-away rounding; the recurrence has no SQL
    equivalent — pin with the single-process reference pytest).

    The recurrence is sequential in TIME but embarrassingly parallel in
    KEYS, so after the one ``hash(key)`` co-location the bucket loops
    over time STEPS (bounded by the longest series), updating ALL keys'
    (level, trend) state vectors with one fused numpy op per step —
    never a per-row or per-key Python loop.
    """
    if not (0 < alpha <= 1) or not (0 <= beta <= 1):
        raise ValueError("need 0 < alpha <= 1 and 0 <= beta <= 1")
    nb = np.uint64(num_buckets)
    keep = [key_col, *order_cols, val_col]

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b[keep].copy()
        b["__h_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def smooth(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__h_bkt")
            .sort_values([key_col] + order_cols, kind="mergesort")
            .reset_index(drop=True)
        )
        keys, key_ord = np.unique(g[key_col].to_numpy(), return_inverse=True)
        y = g[val_col].to_numpy(dtype=np.float64)
        pos = g.groupby(key_col, sort=False).cumcount().to_numpy()
        nk = len(keys)
        level = np.zeros(nk, np.float64)
        trend = np.zeros(nk, np.float64)
        count = np.bincount(key_ord, minlength=nk).astype(np.int64)
        order = np.argsort(pos, kind="mergesort")
        bounds = np.searchsorted(pos[order], np.arange(int(pos.max()) + 2))
        for p in range(int(pos.max()) + 1):
            rows = order[bounds[p]:bounds[p + 1]]
            k = key_ord[rows]
            yv = y[rows]
            if p == 0:
                level[k] = yv
                trend[k] = 0.0
                continue
            prev_l = level[k]
            l_new = alpha * yv + (1.0 - alpha) * (prev_l + trend[k])
            trend[k] = beta * (l_new - prev_l) + (1.0 - beta) * trend[k]
            level[k] = l_new
        fc = level + trend

        def _r6(a: np.ndarray) -> np.ndarray:
            return np.sign(a) * np.floor(np.abs(a) * 1e6 + 0.5) / 1e6

        try:
            kt = pa.from_numpy_dtype(keys.dtype)
        except (pa.ArrowNotImplementedError, TypeError):
            kt = pa.string()
        return pa.table(
            {
                key_col: pa.array(keys, kt),
                "n": pa.array(count, pa.int64()),
                "level": pa.array(_r6(level), pa.float64()),
                "trend": pa.array(_r6(trend), pa.float64()),
                "forecast": pa.array(_r6(fc), pa.float64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__h_bkt")
        .map_groups(smooth, batch_format="pandas")
    )


def cohort_retention(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    period_days: int = 7,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Cohort retention matrix: users grouped by their FIRST activity
    period (the cohort), counted in every later period they return —
    ``(cohort_period, period_offset, n_users)``.  Periods are exact
    integer math on epoch microseconds (``ts_µs // (days·86400e6)``),
    so the SQL mirror (`epoch_us(ts) // ...`) is bit-identical.

    Two skinny exchanges at any scale: (1) per-batch-distinct
    (key, period) pairs co-locate by ``hash(key)`` — each key's whole
    history lands in one bucket, where first-period and offsets are one
    vectorized groupby-transform; (2) per-bucket partial counts sum via
    :func:`~table_annotation_ray.stages.agg.grouped_reduce` over the
    (cohort, offset) key — bounded by #periods², never #users.  Raw
    events never cross either exchange.
    """
    from table_annotation_ray.stages.agg import grouped_reduce

    if period_days <= 0:
        raise ValueError("period_days must be positive")
    div = np.int64(period_days) * np.int64(86_400_000_000)
    nb = np.uint64(num_buckets)

    def pairs(b: pd.DataFrame) -> pa.Table:
        period = (
            b[ts_col].astype("datetime64[us]").astype("int64").to_numpy() // div
        )
        out = pd.DataFrame({key_col: b[key_col].to_numpy(), "period": period})
        out = out.drop_duplicates()
        out["__c_bkt"] = (
            pd.util.hash_pandas_object(out[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.drop(columns="__c_bkt").drop_duplicates([key_col, "period"])
        fw = g.groupby(key_col, sort=False)["period"].transform("min")
        counts = (
            pd.DataFrame(
                {"cohort_period": fw.to_numpy(), "period_offset": (g["period"] - fw).to_numpy()}
            )
            .groupby(["cohort_period", "period_offset"], sort=False)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "cohort_period": pa.array(counts["cohort_period"].to_numpy(), pa.int64()),
                "period_offset": pa.array(counts["period_offset"].to_numpy(), pa.int64()),
                "c": pa.array(counts["c"].to_numpy(), pa.int64()),
            }
        )

    partials = (
        ds.map_batches(pairs, batch_format="pandas")
        .groupby("__c_bkt")
        .map_groups(per_bucket, batch_format="pandas")
    )
    return grouped_reduce(
        partials,
        ["cohort_period", "period_offset"],
        {"n_users": ("c", "sum")},
        num_buckets=num_buckets,
    )


def out_of_order_stats(
    ds: rd.Dataset,
    key_col: str,
    seq_col: str,
    ts_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Streaming watermark audit: per key, how disordered is the stream
    when consumed in ARRIVAL order (``seq_col``)?  An event is *late*
    when its event-time ``ts_col`` is strictly below the running max of
    every prior arrival's event time — exactly the rows a watermarking
    consumer would drop or send to a late-data path.  Returns
    ``(key, n_events, n_late, max_delay_us)`` with the delay measured
    against the prior watermark, all exact int64 (epoch-µs fits float64
    mantissa, so the grouped cummax stays exact).

    One hash(key) co-location; in-bucket one stable sort + grouped
    cummax/shift — no per-row Python.  SQL mirror: ``max(ts) OVER
    (PARTITION BY key ORDER BY seq ROWS UNBOUNDED PRECEDING TO 1
    PRECEDING)``.
    """
    nb = np.uint64(num_buckets)
    keep = [key_col, seq_col, ts_col]

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b[keep].copy()
        b["__o_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def audit(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__o_bkt")
            .sort_values([key_col, seq_col], kind="mergesort")
            .reset_index(drop=True)
        )
        ts = g[ts_col].astype("datetime64[us]").astype("int64")
        gb = g.groupby(key_col, sort=False)
        prior = ts.groupby(g[key_col], sort=False).shift(1)
        prior_max = prior.groupby(g[key_col], sort=False).cummax()
        late = ts < prior_max  # NaN compares False for first rows
        delay = (prior_max - ts).where(late, 0.0).fillna(0.0)
        out = pd.DataFrame(
            {
                key_col: g[key_col],
                "__late": late.astype(np.int64),
                "__delay": delay.astype(np.int64),
            }
        )
        agg = out.groupby(key_col, sort=False).agg(
            n_events=("__late", "size"),
            n_late=("__late", "sum"),
            max_delay_us=("__delay", "max"),
        ).reset_index()
        try:
            kt = pa.from_numpy_dtype(agg[key_col].dtype)
        except (pa.ArrowNotImplementedError, TypeError):
            kt = pa.string()
        return pa.table(
            {
                key_col: pa.array(agg[key_col].to_numpy(), kt),
                "n_events": pa.array(agg["n_events"].to_numpy(), pa.int64()),
                "n_late": pa.array(agg["n_late"].to_numpy(), pa.int64()),
                "max_delay_us": pa.array(
                    agg["max_delay_us"].to_numpy(), pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__o_bkt")
        .map_groups(audit, batch_format="pandas")
    )


def activity_streaks(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-key longest consecutive-day activity streak (the engagement
    "streak" metric): collapse events to distinct active epoch-days,
    find maximal runs of consecutive days via gaps-and-islands
    (``day - dense_rank`` is constant within a run), and report
    ``(key, n_active_days, n_streaks, max_streak, last_streak)`` —
    ``last_streak`` is the length of the streak containing the key's
    most recent active day.  All exact int64 (epoch-day integer math).

    One hash(key) co-location; in-bucket everything is one sort + two
    vectorized groupbys over (key, island) — no per-key Python.  SQL
    mirror: the classic ``date_diff - row_number`` islands query.
    """
    nb = np.uint64(num_buckets)
    day_us = np.int64(86_400_000_000)

    def tag(b: pd.DataFrame) -> pa.Table:
        day = (
            b[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
            // day_us
        )
        out = pd.DataFrame({key_col: b[key_col].to_numpy(), "day": day})
        out = out.drop_duplicates()
        out["__s_bkt"] = (
            pd.util.hash_pandas_object(out[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def streaks(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__s_bkt")
            .drop_duplicates([key_col, "day"])
            .sort_values([key_col, "day"], kind="mergesort")
            .reset_index(drop=True)
        )
        pos = g.groupby(key_col, sort=False).cumcount().to_numpy()
        island = g["day"].to_numpy() - pos  # constant within a run
        runs = (
            pd.DataFrame(
                {key_col: g[key_col], "island": island, "day": g["day"]}
            )
            .groupby([key_col, "island"], sort=False)
            .agg(length=("day", "size"), last_day=("day", "max"))
            .reset_index()
        )
        per_key = runs.groupby(key_col, sort=False)
        agg = per_key.agg(
            n_active_days=("length", "sum"),
            n_streaks=("length", "size"),
            max_streak=("length", "max"),
            last_day=("last_day", "max"),
        ).reset_index()
        last_len = runs.loc[
            per_key["last_day"].idxmax().to_numpy(), [key_col, "length"]
        ].rename(columns={"length": "last_streak"})
        agg = agg.merge(last_len, on=key_col).drop(columns="last_day")
        try:
            kt = pa.from_numpy_dtype(agg[key_col].dtype)
        except (pa.ArrowNotImplementedError, TypeError):
            kt = pa.string()
        return pa.table(
            {
                key_col: pa.array(agg[key_col].to_numpy(), kt),
                "n_active_days": pa.array(agg["n_active_days"].to_numpy(), pa.int64()),
                "n_streaks": pa.array(agg["n_streaks"].to_numpy(), pa.int64()),
                "max_streak": pa.array(agg["max_streak"].to_numpy(), pa.int64()),
                "last_streak": pa.array(agg["last_streak"].to_numpy(), pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__s_bkt")
        .map_groups(streaks, batch_format="pandas")
    )


def changepoint_by_key(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    val_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Single most-likely changepoint per key — the offline companion
    to :func:`cusum_by_key`'s online detector: over each key's
    ``order_cols``-ordered values the split position maximizing the
    scaled mean-shift statistic ``stat_k = |n·S_k − k·S_n|``
    (k = 1..n−1, S = prefix sum) — the CUSUM/Pettitt-style objective,
    equivalent to ranking splits by ``k(n−k)·|mean_left − mean_right|``.
    Earliest k wins ties (deterministic).

    ``key_col`` and ``val_col`` must be int64 (money as cents
    upstream), so the statistic is exact integer arithmetic with a
    bit-identical SQL window mirror (int64-safe while n²·Σ|x| < 2^63).

    One hash(key) co-location; in-bucket work is pure vectorized
    cumsum/transform (no per-key Python).  Keys with a single row have
    no split and emit nothing.  Returns ``(key, n, cp_pos, stat)``
    with cp_pos the 1-based last index of the left segment."""
    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        out = b[[key_col, *order_cols, val_col]].copy()
        h = pd.util.hash_pandas_object(out[key_col], index=False).to_numpy()
        out["__cp_bkt"] = (h.astype(np.uint64) % nb).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def cp_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__cp_bkt")
            .sort_values([key_col, *order_cols], kind="mergesort")
            .reset_index(drop=True)
        )
        keys = g[key_col]
        x = g[val_col].to_numpy(dtype=np.int64)
        grp = pd.Series(x).groupby(keys.to_numpy(), sort=False)
        s = grp.cumsum().to_numpy()
        gb = g.groupby(key_col, sort=False)[val_col]
        n = gb.transform("size").to_numpy(dtype=np.int64)
        sn = gb.transform("sum").to_numpy(dtype=np.int64)
        k = gb.cumcount().to_numpy(dtype=np.int64) + 1
        stat = np.abs(n * s - k * sn)
        cand = pd.DataFrame(
            {key_col: keys, "n": n, "cp_pos": k, "stat": stat}
        )[k < n]
        if len(cand) == 0:
            return pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "cp_pos": pa.array([], pa.int64()),
                    "stat": pa.array([], pa.int64()),
                }
            )
        # idxmax returns the FIRST max per key; rows are (key, k)-sorted
        best = cand.loc[cand.groupby(key_col, sort=False)["stat"].idxmax()]
        return pa.table(
            {
                key_col: pa.array(best[key_col].to_numpy(), pa.int64()),
                "n": pa.array(best["n"].to_numpy(), pa.int64()),
                "cp_pos": pa.array(best["cp_pos"].to_numpy(), pa.int64()),
                "stat": pa.array(best["stat"].to_numpy(), pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__cp_bkt")
        .map_groups(cp_bucket, batch_format="pandas")
    )


def theilsen_by_key(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    val_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-key Theil–Sen robust trend: the LOWER median of all pairwise
    slopes ``(v_j - v_i) / (j - i)`` over each key's ordered value
    series (index = 0-based position in ``order_cols`` order).  The
    classic outlier-robust alternative to OLS (breakdown point ~29%),
    per entity.

    The median is an ELEMENT of the slope multiset (sorted rank
    ``(n_pairs - 1) // 2``), never an average of two — so the output
    double is bit-identical to a SQL mirror that selects the same
    ranked row (no interpolation arithmetic to diverge on).

    Shape: one ``hash(key) % num_buckets`` co-location; in-bucket the
    pairwise expansion is the vectorized repeat/offset trick (no Python
    pair loops) and the per-key median is one ``lexsort``.  Pair volume
    is Σ n_k² — per-entity histories only (same contract as
    :func:`acf_by_key`); cap or sample pathological keys upstream.
    Keys with fewer than 2 rows are dropped.  Output
    ``(key, n_pairs, ts_slope)``.
    """
    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b[[key_col, *order_cols, val_col]].copy()
        b["__ts_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def slope_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__ts_bkt")
            .sort_values([key_col] + order_cols, kind="mergesort")
            .reset_index(drop=True)
        )
        codes, _ = pd.factorize(g[key_col], sort=False)  # contiguous by sort
        v = g[val_col].to_numpy(dtype=np.float64)
        _, starts, counts = np.unique(codes, return_index=True, return_counts=True)
        pos = np.arange(len(codes), dtype=np.int64)
        rank = pos - np.repeat(starts, counts)
        rem = np.repeat(counts, counts) - rank - 1  # pairs each row opens
        ii = np.repeat(pos, rem)
        off = (
            np.arange(int(rem.sum()), dtype=np.int64)
            - np.repeat(np.cumsum(rem) - rem, rem)
            + 1
        )
        jj = ii + off
        if len(ii) == 0:
            return pa.table(
                {
                    key_col: pa.array([], pa.from_numpy_dtype(g[key_col].dtype)
                                      if g[key_col].dtype != object else pa.string()),
                    "n_pairs": pa.array([], pa.int64()),
                    "ts_slope": pa.array([], pa.float64()),
                }
            )
        slopes = (v[jj] - v[ii]) / (rank[jj] - rank[ii]).astype(np.float64)
        pk = codes[ii]  # pair's key code, nondecreasing
        order = np.lexsort((slopes, pk))
        pk_s, sl_s = pk[order], slopes[order]
        ks, pstarts, pcounts = np.unique(pk_s, return_index=True, return_counts=True)
        med = sl_s[pstarts + (pcounts - 1) // 2]  # lower median element
        keys_np = g[key_col].to_numpy()[starts[ks]]
        try:
            kt = pa.from_numpy_dtype(g[key_col].dtype)
        except (pa.ArrowNotImplementedError, TypeError):
            kt = pa.string()
        return pa.table(
            {
                key_col: pa.array(keys_np, kt),
                "n_pairs": pa.array(pcounts.astype(np.int64), pa.int64()),
                "ts_slope": pa.array(med, pa.float64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__ts_bkt")
        .map_groups(slope_bucket, batch_format="pandas")
    )


def seasonal_mase(
    ds: rd.Dataset,
    ts_col: str,
    key_col: str,
    period: int = 24,
    freq: str = "h",
) -> pd.DataFrame:
    """Seasonal-naive forecast quality per key (MASE, Hyndman &
    Koehler): over the gap-filled per-(key, period) count series from
    :func:`resample_counts`, score the seasonal-naive forecast
    ``f_t = y_{t-period}`` against the one-step naive ``y_{t-1}``
    scale:

        mase = (sae_seasonal * n_naive) / (sae_naive * n_seasonal)

    Both absolute-error sums are INTEGER (counts), so the single
    double division is bit-identical to the SQL mirror; ``mase`` is
    NULL when the naive scale is zero (constant series).  Driver math
    is bounded by the n_keys × n_periods grid (resample_counts
    contract); the one exchange is the grouped_reduce count inside
    resample_counts.  Output ``(key, n_periods, sae_seasonal,
    sae_naive, mase)`` sorted by key.
    """
    grid = resample_counts(ds, ts_col, key_col, freq=freq)
    rows = []
    for key, sub in grid.groupby(key_col, sort=True):
        y = sub.sort_values("period")["n"].to_numpy(dtype=np.int64)
        if len(y) <= period:
            continue
        sae_s = int(np.abs(y[period:] - y[:-period]).sum())
        sae_n = int(np.abs(y[1:] - y[:-1]).sum())
        n_s, n_n = len(y) - period, len(y) - 1
        mase = float(sae_s * n_n) / float(sae_n * n_s) if sae_n > 0 else None
        rows.append(
            {
                key_col: key,
                "n_periods": len(y),
                "sae_seasonal": sae_s,
                "sae_naive": sae_n,
                "mase": mase,
            }
        )
    out = pd.DataFrame(
        rows, columns=[key_col, "n_periods", "sae_seasonal", "sae_naive", "mase"]
    )
    for c in ("n_periods", "sae_seasonal", "sae_naive"):
        out[c] = out[c].astype("int64")
    out["mase"] = out["mase"].astype("float64")
    return out.reset_index(drop=True)


def rolling_slope_by_key(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    val_col: str,
    window: int = 8,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Windowed OLS trend per key: for every row with a FULL trailing
    window of ``window`` values, the least-squares slope of value (in
    cents) against the row's absolute 0-based position ``rn`` within
    its key::

        slope_cents = (w*Σxy - Σx*Σy) / (w*Σxx - (Σx)²)   over the frame

    Values must sit on a 2-decimal lattice: y is exact int64 cents and
    x is the integer rank, so BOTH the numerator and denominator are
    exact int64 window sums (shift-invariance of OLS lets the SQL
    mirror use the same absolute-rank x with plain window SUMs) — the
    slope is one double division, bit-identical to SQL.  One
    ``hash(key)`` co-location; in-bucket the frame sums are cumsum
    differences (vectorized, no per-window loops).  Output ``(key,
    *order_cols, rn, slope_cents)`` for rows with ``rn >= window-1``.
    """
    nb = np.uint64(num_buckets)
    w = int(window)
    if w < 2:
        raise ValueError("window must be >= 2")

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b[[key_col, *order_cols, val_col]].copy()
        b["__rs_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def slope_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__rs_bkt")
            .sort_values([key_col] + order_cols, kind="mergesort")
            .reset_index(drop=True)
        )
        codes, _ = pd.factorize(g[key_col], sort=False)
        _, starts, counts = np.unique(codes, return_index=True,
                                      return_counts=True)
        pos = np.arange(len(codes), dtype=np.int64)
        rn = pos - np.repeat(starts, counts)
        y = np.round(g[val_col].to_numpy(dtype=np.float64) * 100.0).astype(
            np.int64
        )
        x = rn
        # per-key cumsums with a zero prepended -> frame sums by diff
        def _csum(a: np.ndarray) -> np.ndarray:
            c = np.cumsum(a)
            # subtract each key's prefix so cumsums restart per key
            base = np.repeat(c[starts] - a[starts], counts)
            return c - base

        cy, cx = _csum(y), _csum(x)
        cxy, cxx = _csum(x * y), _csum(x * x)

        def frame(c: np.ndarray) -> np.ndarray:
            prev = np.zeros_like(c)
            prev[w:] = c[:-w]
            # a frame starting exactly at the key's first row must not
            # subtract the PREVIOUS key's cumsum tail
            prev[rn == w - 1] = 0
            return c - prev

        fy, fx, fxy, fxx = frame(cy), frame(cx), frame(cxy), frame(cxx)
        ok = rn >= w - 1
        num = w * fxy - fx * fy
        den = w * fxx - fx * fx
        slope = num[ok].astype(np.float64) / den[ok].astype(np.float64)
        out = {key_col: pa.array(g[key_col].to_numpy()[ok])}
        for c in order_cols:
            out[c] = pa.array(g[c].to_numpy()[ok])
        out["rn"] = pa.array(rn[ok], pa.int64())
        out["slope_cents"] = pa.array(slope, pa.float64())
        return pa.table(out)

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__rs_bkt")
        .map_groups(slope_bucket, batch_format="pandas")
    )


def session_pattern_counts(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    type_col: str,
    pattern: str,
    gap: pd.Timedelta,
    tiebreak_col: str | None = None,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Strict-ordered funnel matching WITHIN sessions: split each key's
    events into ``gap``-separated sessions, render every session as its
    ordered event-type sequence, and count the sessions whose sequence
    matches ``pattern`` (a regex over the comma-joined types, e.g.
    ``view.*click.*purchase`` for an ordered-subsequence funnel) — the
    per-visit conversion question plain funnels (whole-history scans)
    cannot answer.

    One ``hash(key)`` co-location; sessions and sequences are built in
    one in-bucket vectorized scan (per-SESSION string join + regex —
    bounded by sessions, not events).  Output ``(key, n_sessions,
    n_matching)``; SQL mirror is ``string_agg(... ORDER BY ts)`` +
    ``regexp_matches`` per session.
    """
    import re as _re

    nb = np.uint64(num_buckets)
    rx = _re.compile(pattern)
    order = [ts_col] + ([tiebreak_col] if tiebreak_col else [])

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b[[key_col, *order, type_col]].copy()
        b["__sp_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def scan(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__sp_bkt")
            .sort_values([key_col] + order, kind="mergesort")
            .reset_index(drop=True)
        )
        same_key = g[key_col].eq(g[key_col].shift())
        gap_break = g[ts_col].diff() > gap
        new_sess = (~same_key) | gap_break
        sess = new_sess.cumsum()
        seqs = (
            g.assign(__sess=sess)
            .groupby([key_col, "__sess"], sort=False)[type_col]
            .agg(",".join)
            .reset_index(name="seq")
        )
        seqs["m"] = [1 if rx.search(s) else 0 for s in seqs["seq"]]
        out = seqs.groupby(key_col, sort=True).agg(
            n_sessions=("seq", "size"), n_matching=("m", "sum")
        ).reset_index()
        try:
            kt = pa.from_numpy_dtype(out[key_col].dtype)
        except (pa.ArrowNotImplementedError, TypeError):
            kt = pa.string()
        return pa.table(
            {
                key_col: pa.array(out[key_col].to_numpy(), kt),
                "n_sessions": pa.array(
                    out["n_sessions"].to_numpy(dtype=np.int64), pa.int64()),
                "n_matching": pa.array(
                    out["n_matching"].to_numpy(dtype=np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__sp_bkt")
        .map_groups(scan, batch_format="pandas")
    )


def activity_labels(
    ds: rd.Dataset,
    key_col: str,
    ts_col: str,
    period_sec: int = 604800,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Churn/retention label factory: one row per (key, active period)
    with the event count and the supervised label ``returned`` —
    whether the key is active again in the NEXT period (epoch-aligned
    ``period_sec`` buckets; integer epoch division, so the SQL mirror
    is exact).  The standard training-label builder for churn models;
    the last observed period's label is honest (0 unless the next
    period truly has events — callers must drop the censored final
    period of the observation window themselves).

    One grouped_reduce to the (key, period) grid, one hash(key)
    co-location where next-period membership is a vectorized
    searchsorted per key.  Output ``(key, period, n_events,
    returned)``.
    """
    from .agg import grouped_reduce

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        # exact integer microseconds (DuckDB epoch_us mirror) — epoch()
        # is a DOUBLE whose CAST rounds, a period-boundary hazard
        us = b[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pd.DataFrame(
            {key_col: b[key_col],
             "period": us // (np.int64(period_sec) * 1_000_000)}
        )

    grid = grouped_reduce(
        ds.map_batches(tag, batch_format="pandas"),
        [key_col, "period"],
        {"n_events": (None, "count")},
        num_buckets=num_buckets,
    )
    nb = np.uint64(num_buckets)

    def tag2(b: pd.DataFrame) -> pa.Table:
        b = b.copy()
        b["__al_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def label(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__al_bkt")
            .sort_values([key_col, "period"], kind="mergesort")
            .reset_index(drop=True)
        )
        nxt_key = g[key_col].shift(-1)
        nxt_per = g["period"].shift(-1)
        returned = (
            nxt_key.eq(g[key_col]) & (nxt_per == g["period"] + 1)
        ).to_numpy()
        try:
            kt = pa.from_numpy_dtype(g[key_col].dtype)
        except (pa.ArrowNotImplementedError, TypeError):
            kt = pa.string()
        return pa.table(
            {
                key_col: pa.array(g[key_col].to_numpy(), kt),
                "period": pa.array(g["period"].to_numpy(dtype=np.int64),
                                   pa.int64()),
                "n_events": pa.array(
                    g["n_events"].to_numpy(dtype=np.int64), pa.int64()),
                "returned": pa.array(returned.astype(np.int64), pa.int64()),
            }
        )

    return (
        grid.map_batches(tag2, batch_format="pandas")
        .groupby("__al_bkt")
        .map_groups(label, batch_format="pandas")
    )


def event_kgrams(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    type_col: str,
    k: int = 3,
    min_count: int = 1,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Sequential pattern mining at fixed length: counts of every
    length-``k`` CONSECUTIVE event-type sequence across all keys'
    ordered histories (the "view->click->purchase happens 412 times"
    table behind next-step prediction and funnel discovery; the k=2
    case is :func:`transition_counts`).

    One ``hash(key)`` co-location; in-bucket the k-gram build is a
    vectorized shift-stack (no per-row Python), map-side combined,
    then one skinny grouped_reduce sums across buckets.  Output
    ``(t_0 .. t_{k-1}, n)`` with ``n >= min_count`` — SQL mirror is a
    (k-1)-fold LEAD window."""
    from .agg import grouped_reduce

    nb = np.uint64(num_buckets)
    if k < 2:
        raise ValueError("k must be >= 2")

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b[[key_col, *order_cols, type_col]].copy()
        b["__kg_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def grams(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__kg_bkt")
            .sort_values([key_col] + order_cols, kind="mergesort")
            .reset_index(drop=True)
        )
        gb = g.groupby(key_col, sort=False)
        cols = {"t_0": g[type_col]}
        ok = np.ones(len(g), dtype=bool)
        for i in range(1, k):
            sh = gb[type_col].shift(-i)
            ok &= sh.notna().to_numpy()
            cols[f"t_{i}"] = sh
        frame = pd.DataFrame(cols)[ok]
        c = frame.groupby(list(cols), sort=False).size().reset_index(name="n")
        out = {
            f"t_{i}": pa.array(c[f"t_{i}"].tolist(), pa.string())
            for i in range(k)
        }
        out["n"] = pa.array(c["n"].to_numpy(dtype=np.int64), pa.int64())
        return pa.table(out)

    counts = grouped_reduce(
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__kg_bkt")
        .map_groups(grams, batch_format="pandas"),
        [f"t_{i}" for i in range(k)],
        {"n": ("n", "sum")},
        num_buckets=num_buckets,
    )
    if min_count > 1:
        counts = counts.filter(expr=f"n >= {int(min_count)}")
    return counts


def kendall_by_key(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    val_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-key Kendall tau-a of the value series against time order —
    the third leg of the correlation family (Pearson = linear,
    Spearman = rank-linear, Kendall = pairwise concordance)::

        tau_a = (C - D) / (n*(n-1)/2)

    over all i<j pairs of the ordered series (C concordant: later
    value strictly greater; D discordant; ties count neither).  C and
    D are EXACT integers from the same vectorized repeat/offset pair
    expansion as :func:`theilsen_by_key`, so the single division
    mirrors SQL bit-exactly.  One hash(key) co-location; pair volume
    is Σ n_k² (per-entity histories).  Output ``(key, n, concordant,
    discordant, tau)``."""
    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b[[key_col, *order_cols, val_col]].copy()
        b["__kd_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def tau_bucket(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__kd_bkt")
            .sort_values([key_col] + order_cols, kind="mergesort")
            .reset_index(drop=True)
        )
        codes, _ = pd.factorize(g[key_col], sort=False)
        v = g[val_col].to_numpy(dtype=np.float64)
        _, starts, counts = np.unique(codes, return_index=True,
                                      return_counts=True)
        pos = np.arange(len(codes), dtype=np.int64)
        rank = pos - np.repeat(starts, counts)
        rem = np.repeat(counts, counts) - rank - 1
        ii = np.repeat(pos, rem)
        try:
            kt = pa.from_numpy_dtype(g[key_col].dtype)
        except (pa.ArrowNotImplementedError, TypeError):
            kt = pa.string()
        if len(ii) == 0:
            return pa.table(
                {key_col: pa.array([], kt),
                 "n": pa.array([], pa.int64()),
                 "concordant": pa.array([], pa.int64()),
                 "discordant": pa.array([], pa.int64()),
                 "tau": pa.array([], pa.float64())}
            )
        off = (
            np.arange(int(rem.sum()), dtype=np.int64)
            - np.repeat(np.cumsum(rem) - rem, rem) + 1
        )
        jj = ii + off
        d = v[jj] - v[ii]
        pk = codes[ii]
        frame = pd.DataFrame(
            {"k": pk, "c": (d > 0).astype(np.int64),
             "dd": (d < 0).astype(np.int64)}
        )
        agg = frame.groupby("k", sort=True).agg(
            c=("c", "sum"), dd=("dd", "sum"), np=("c", "size")
        )
        ks = agg.index.to_numpy()
        keys_np = g[key_col].to_numpy()[starts[ks]]
        n = counts[ks].astype(np.int64)
        tot = (n * (n - 1) // 2).astype(np.float64)
        c = agg["c"].to_numpy(dtype=np.int64)
        dd = agg["dd"].to_numpy(dtype=np.int64)
        return pa.table(
            {
                key_col: pa.array(keys_np, kt),
                "n": pa.array(n, pa.int64()),
                "concordant": pa.array(c, pa.int64()),
                "discordant": pa.array(dd, pa.int64()),
                "tau": pa.array((c - dd).astype(np.float64) / tot,
                                pa.float64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__kd_bkt")
        .map_groups(tau_bucket, batch_format="pandas")
    )
