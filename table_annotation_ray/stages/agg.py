"""High-cardinality-safe distributed group-by reduction.

Ray 2.49's ``groupby(key).aggregate(...)`` runs per-KEY Python in both
the AggregateMap and AggregateReduce suboperators, so its cost scales
with key cardinality, not row count — measured 36 s vs 1-4 s against
this module's pattern on a 450k-row / 20k-key exchange (and
``map_groups`` pays a per-group UDF call, which is fine at thousands of
groups but not at millions).  The safe shape for million-key
aggregations:

1. **map-side partial combine** — each batch reduces to one row per
   (key, batch) with a vectorized pandas groupby, tagged with ``bucket
   = row_hash(keys) % num_buckets``;
2. **bucket exchange** — ONE ``groupby(bucket)`` sort shuffle over ≤64
   distinct values (per-bucket Python only);
3. **vectorized finalize** — each bucket group reduces with one pandas
   groupby over all its keys at once.

Supported composable reducers: sum / min / max / count (count partials
sum in the finalize).  Mean = sum ÷ count by the caller.  Output is an
Arrow table (pandas blocks would poison any downstream sort-shuffle —
measured 62 s vs 3 s).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

_PARTIAL_OPS = {"sum": "sum", "min": "min", "max": "max", "count": "size"}
_FINAL_OPS = {"sum": "sum", "min": "min", "max": "max", "count": "sum"}


def grouped_reduce(
    ds: rd.Dataset,
    key_cols: list[str],
    reducers: dict[str, tuple[str | None, str]],
    num_buckets: int = 64,
    batch_size: int | None = 65536,
) -> rd.Dataset:
    """``reducers``: out_col -> (in_col, op) with op in sum|min|max|
    count (in_col ignored for count).  Returns one row per distinct key
    combination with the key columns and every out_col."""
    for out_col, (_, op) in reducers.items():
        if op not in _PARTIAL_OPS:
            raise ValueError(f"unsupported op {op!r} for {out_col!r}")

    in_cols = list(
        dict.fromkeys(c for c, _ in reducers.values() if c is not None)
    )
    nb = np.uint64(num_buckets)

    def partial(b: pd.DataFrame) -> pa.Table:
        g = b[key_cols + in_cols].groupby(key_cols, sort=False)
        pieces = {}
        for out_col, (in_col, op) in reducers.items():
            kind = _PARTIAL_OPS[op]
            pieces[out_col] = g.size() if kind == "size" else g[in_col].agg(kind)
        out = pd.DataFrame(pieces).reset_index()
        keyframe = out[key_cols[0]] if len(key_cols) == 1 else out[key_cols]
        bkt = (
            pd.util.hash_pandas_object(keyframe, index=False).to_numpy() % nb
        ).astype(np.int64)
        out["__gr_bkt"] = bkt
        return pa.Table.from_pandas(out, preserve_index=False)

    def finalize(g: pd.DataFrame) -> pa.Table:
        # partial columns already carry the OUT names; count partials sum
        gb = g.groupby(key_cols, sort=False)
        pieces = {
            out_col: gb[out_col].agg(_FINAL_OPS[op])
            for out_col, (_, op) in reducers.items()
        }
        out = pd.DataFrame(pieces).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    kw = {} if batch_size is None else {"batch_size": batch_size}
    return (
        ds.map_batches(partial, batch_format="pandas", **kw)
        .groupby("__gr_bkt")
        .map_groups(finalize, batch_format="pandas")
    )


def rollup_reduce(
    ds: rd.Dataset,
    key_cols: list[str],
    reducers: dict[str, tuple[str | None, str]],
    total_label: str = "(all)",
    num_buckets: int = 64,
    batch_size: int | None = 65536,
    grouping_sets: list[list[str]] | None = None,
) -> rd.Dataset:
    """``GROUP BY ROLLUP(key_cols)`` — one row per key combination for
    every PREFIX of ``key_cols`` (including the grand total), with
    rolled-up key columns set to ``total_label``.  Pass
    ``grouping_sets`` (each a subset of ``key_cols``) for arbitrary
    GROUPING SETS — e.g. all subsets for ``CUBE``.  Exactly the listed
    sets are emitted (the finest partial is always COMPUTED as the
    common input but appears in the output only when listed — SQL
    GROUPING SETS semantics); duplicates are an error.

    Single scan: the map side computes ONE vectorized pandas-groupby
    partial per grouping set per batch (the finest partial is reused by
    relabeling, never the raw rows), so the exchange carries
    |grouping sets| × |keys-in-batch| partial rows and the finalize is
    the same 64-value bucket exchange as :func:`grouped_reduce`.

    ``total_label`` stands in for SQL's rollup NULL (a sentinel keeps
    result comparison well-defined across Arrow/pandas/SQL null
    encodings); mirror it with ``COALESCE(key, '(all)')`` +
    ``GROUP BY ROLLUP`` in an oracle.  Key columns must be strings (or
    castable) for the sentinel to type-unify."""
    for out_col, (_, op) in reducers.items():
        if op not in _PARTIAL_OPS:
            raise ValueError(f"unsupported op {out_col!r}: {op!r}")
    in_cols = list(
        dict.fromkeys(c for c, _ in reducers.values() if c is not None)
    )
    nb = np.uint64(num_buckets)
    # COUNT partials must SUM across grouping-set relabels, so compute
    # the finest-level partial once and re-aggregate it per set with
    # count already converted to a summable column.
    if grouping_sets is None:
        emit_sets = [key_cols[:i] for i in range(len(key_cols), -1, -1)]
    else:
        emit_sets = [list(s) for s in grouping_sets]
        for s in emit_sets:
            if not set(s) <= set(key_cols):
                raise ValueError(f"grouping set {s!r} not a subset of {key_cols!r}")
        if len({tuple(s) for s in emit_sets}) != len(emit_sets):
            raise ValueError("duplicate grouping sets")
        if not emit_sets:
            raise ValueError("grouping_sets must be non-empty")
    # the finest partial is always computed (all sets derive from it)
    # but emitted only if requested
    emit_finest = key_cols in emit_sets
    coarse_sets = [s for s in emit_sets if s != key_cols]

    def partial(b: pd.DataFrame) -> pa.Table:
        g = b[key_cols + in_cols].groupby(key_cols, sort=False)
        pieces = {}
        for out_col, (in_col, op) in reducers.items():
            kind = _PARTIAL_OPS[op]
            pieces[out_col] = g.size() if kind == "size" else g[in_col].agg(kind)
        finest = pd.DataFrame(pieces).reset_index()
        finest[key_cols] = finest[key_cols].astype(str)
        frames = [finest] if emit_finest else []
        for prefix in coarse_sets:
            gb = (
                finest.groupby(prefix, sort=False)
                if prefix
                else finest.assign(__one=0).groupby("__one", sort=False)
            )
            agg = pd.DataFrame(
                {
                    out_col: gb[out_col].agg(_FINAL_OPS[op])
                    for out_col, (_, op) in reducers.items()
                }
            ).reset_index()
            if not prefix:
                agg = agg.drop(columns="__one")
            for c in key_cols:
                if c not in prefix:
                    agg[c] = total_label
            frames.append(agg[finest.columns])
        out = pd.concat(frames, ignore_index=True)
        keyframe = out[key_cols[0]] if len(key_cols) == 1 else out[key_cols]
        out["__gr_bkt"] = (
            pd.util.hash_pandas_object(keyframe, index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def finalize(g: pd.DataFrame) -> pa.Table:
        gb = g.groupby(key_cols, sort=False)
        pieces = {
            out_col: gb[out_col].agg(_FINAL_OPS[op])
            for out_col, (_, op) in reducers.items()
        }
        return pa.Table.from_pandas(
            pd.DataFrame(pieces).reset_index(), preserve_index=False
        )

    kw = {} if batch_size is None else {"batch_size": batch_size}
    return (
        ds.map_batches(partial, batch_format="pandas", **kw)
        .groupby("__gr_bkt")
        .map_groups(finalize, batch_format="pandas")
    )


def distinct_count_by_key(
    ds: rd.Dataset,
    key_cols: list[str],
    value_col: str,
    out_col: str = "n_distinct",
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> rd.Dataset:
    """Exact ``COUNT(DISTINCT value) GROUP BY keys`` at corpus key
    cardinality: map-side per-batch ``drop_duplicates`` shrink on
    (keys, value), ONE hash-bucket exchange on the (keys, value)
    composite (co-locating every copy of a pair), a vectorized
    in-bucket pair-dedup, then a map-side count partial + the standard
    64-value :func:`grouped_reduce` finalize for the per-key counts.

    Two bounded exchanges, no per-key Python anywhere; the shuffle
    payload is distinct pairs, never raw rows.  For approximate answers
    at much lower cost see stages/sketches.py::approx_distinct."""
    pair_cols = key_cols + [value_col]
    distinct_pairs = bucketed_distinct(
        ds.map_batches(
            lambda b: pa.Table.from_pandas(
                b[pair_cols].drop_duplicates(), preserve_index=False
            ),
            batch_format="pandas",
            batch_size=batch_size,
        ),
        pair_cols,
        num_buckets=num_buckets,
    )
    return grouped_reduce(
        distinct_pairs,
        key_cols,
        {out_col: (None, "count")},
        num_buckets=num_buckets,
    )


def bucketed_distinct(
    ds: rd.Dataset,
    key_cols: list[str],
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> rd.Dataset:
    """First row per distinct key combination — ``groupby(keys).head(1)``
    without per-key Python: hash-bucket exchange + one vectorized
    ``drop_duplicates`` per bucket.  Row CONTENT for duplicate keys is
    whichever copy sorts first within the bucket group (callers here
    dedup identical rows, so the choice is immaterial)."""
    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        out = b.drop_duplicates(key_cols)  # map-side shrink
        keyframe = out[key_cols[0]] if len(key_cols) == 1 else out[key_cols]
        out = out.copy()
        out["__bd_bkt"] = (
            pd.util.hash_pandas_object(keyframe, index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    def uniq(g: pd.DataFrame) -> pa.Table:
        out = g.drop_duplicates(key_cols).drop(columns="__bd_bkt")
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        ds.map_batches(tag, batch_format="pandas", batch_size=batch_size)
        .groupby("__bd_bkt")
        .map_groups(uniq, batch_format="pandas")
    )


def mode_by_key(
    ds: rd.Dataset,
    key_col: str,
    value_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-key MODE — the most frequent ``value_col`` per ``key_col``
    (ties → smallest value), SQL ``row_number() OVER (PARTITION BY key
    ORDER BY n DESC, value) = 1`` over the (key, value) counts.

    Two bucketed exchanges, both carrying (key, value, n) partials and
    never raw rows: :func:`grouped_reduce` sums batch-local pair counts
    (bucketed by hash(key, value)), then a ``hash(key)`` bucket
    co-locates each key's candidate values for one vectorized in-bucket
    sort + head.  Safe at corpus key cardinality (no per-key Python)."""
    counts = grouped_reduce(
        ds.map_batches(
            lambda b: b.select([key_col, value_col]), batch_format="pyarrow"
        ),
        [key_col, value_col],
        {"n": (None, "count")},
        num_buckets=num_buckets,
    )
    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b.copy()
        b["__mk"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def pick(g: pd.DataFrame) -> pa.Table:
        best = (
            g.sort_values(["n", value_col], ascending=[False, True], kind="mergesort")
            .groupby(key_col, sort=True)
            .head(1)
        )
        return pa.Table.from_pandas(
            best[[key_col, value_col, "n"]], preserve_index=False
        )

    return (
        counts.map_batches(tag, batch_format="pandas")
        .groupby("__mk")
        .map_groups(pick, batch_format="pandas")
    )


def linreg_by_key(
    ds: rd.Dataset,
    key_cols: list[str],
    x_col: str,
    y_col: str,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Per-key simple linear regression (y = slope·x + intercept) plus
    Pearson correlation, from ONE pass of sufficient statistics: a map
    stage adds the xy/x²/y² product columns, ``grouped_reduce`` sums
    them per key (map-side partials, one 64-value bucket exchange), and
    the closed forms are evaluated driver-side on the per-key frame —
    no per-key Python anywhere, no second scan.

    Matches SQL ``regr_slope / regr_intercept / regr_count / corr``
    modulo float associativity (callers round before hashing).  Inputs
    must be non-null (SQL's regr_* skip null pairs; here they'd
    propagate NaN).  Keys with zero x-variance get NaN slope/corr
    (SQL returns NULL there too).  Returns the small per-key frame:
    one row per key — bounded by key cardinality, not input rows.

    No reference counterpart (SURVEY §2 analytics breadth — the
    profiling family next to qty_price_moments).
    """

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        out = b[key_cols].copy()
        x = b[x_col].to_numpy(dtype=np.float64)
        y = b[y_col].to_numpy(dtype=np.float64)
        out["__x"] = x
        out["__y"] = y
        out["__xy"] = x * y
        out["__xx"] = x * x
        out["__yy"] = y * y
        return out

    sums = grouped_reduce(
        ds.map_batches(prep, batch_format="pandas"),
        key_cols,
        {
            "n": ("__x", "count"),
            "sx": ("__x", "sum"),
            "sy": ("__y", "sum"),
            "sxy": ("__xy", "sum"),
            "sxx": ("__xx", "sum"),
            "syy": ("__yy", "sum"),
        },
        num_buckets=num_buckets,
    ).to_pandas()

    n = sums["n"].to_numpy(dtype=np.float64)
    sx, sy = sums["sx"].to_numpy(), sums["sy"].to_numpy()
    sxy, sxx, syy = (
        sums["sxy"].to_numpy(),
        sums["sxx"].to_numpy(),
        sums["syy"].to_numpy(),
    )
    cov_n = n * sxy - sx * sy          # n² · cov
    var_x = n * sxx - sx * sx          # n² · var(x)
    var_y = n * syy - sy * sy
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = cov_n / var_x
        intercept = (sy - slope * sx) / n
        corr = cov_n / np.sqrt(var_x * var_y)
    out = sums[key_cols].copy()
    out["n"] = sums["n"].astype("int64")
    out["slope"] = slope
    out["intercept"] = intercept
    out["corr"] = corr
    return out.sort_values(key_cols).reset_index(drop=True)


def frequency_histogram(
    ds: rd.Dataset,
    key_cols: list[str],
    num_buckets: int = 64,
) -> rd.Dataset:
    """Frequency-of-frequencies profile: how many keys occur exactly n
    times — the skew diagnosis a 100-TB shuffle plan starts from (a fat
    head row here is the hot key that will gate any per-key exchange;
    the tail length is the distinct-key cardinality).  Beyond-reference
    operator.

    Two chained :func:`grouped_reduce` exchanges, both skinny: per-key
    counts (one row per distinct key), then counts-of-counts (one row
    per distinct frequency — dimension-sized).  Output
    ``(n_per_key, n_keys)``, all int64 — hash-exact by construction.
    """
    per_key = grouped_reduce(
        ds, key_cols, {"n_per_key": (None, "count")},
        num_buckets=num_buckets,
    )
    return grouped_reduce(
        per_key.map_batches(
            lambda b: b[["n_per_key"]], batch_format="pandas"
        ),
        ["n_per_key"], {"n_keys": (None, "count")},
        num_buckets=num_buckets,
    )


def merge_aggregates(
    base: rd.Dataset,
    delta: rd.Dataset,
    key_cols: list[str],
    reducers: dict[str, tuple[str | None, str]],
    num_buckets: int = 64,
    batch_size: int | None = 65536,
) -> rd.Dataset:
    """Incremental aggregate maintenance — the streaming-materialized-
    view primitive: fold a RAW ``delta`` batch into an EXISTING
    aggregate table (``base``, in :func:`grouped_reduce` output shape:
    key columns + the out columns) without re-scanning the base facts.
    ``merge_aggregates(agg(old), new) == agg(old ∪ new)`` for every
    composable reducer (sum/min/max/count partials are associative;
    count partials SUM in the finalize, so a base count is just a
    bigger partial — pytest pins the identity).

    Scale shape: only the DELTA maps (per-batch vectorized partials) and
    only partial rows + the base's one-row-per-key table cross the ONE
    bucket exchange — at 100 TB the historical facts never move again.
    Deletions/updates need retractable reducers (sum/count only) —
    fold negated delta rows for those; min/max are insert-only.
    """
    for out_col, (_, op) in reducers.items():
        if op not in _PARTIAL_OPS:
            raise ValueError(f"unsupported op {op!r} for {out_col!r}")

    in_cols = list(
        dict.fromkeys(c for c, _ in reducers.values() if c is not None)
    )
    nb = np.uint64(num_buckets)
    out_cols = list(reducers)

    def _bkt(frame: pd.DataFrame) -> np.ndarray:
        keyframe = frame[key_cols[0]] if len(key_cols) == 1 else frame[key_cols]
        return (
            pd.util.hash_pandas_object(keyframe, index=False).to_numpy() % nb
        ).astype(np.int64)

    def partial(b: pd.DataFrame) -> pa.Table:
        g = b[key_cols + in_cols].groupby(key_cols, sort=False)
        pieces = {}
        for out_col, (in_col, op) in reducers.items():
            kind = _PARTIAL_OPS[op]
            pieces[out_col] = g.size() if kind == "size" else g[in_col].agg(kind)
        out = pd.DataFrame(pieces).reset_index()
        out["__gr_bkt"] = _bkt(out)
        return pa.Table.from_pandas(out, preserve_index=False)

    def tag_base(b: pd.DataFrame) -> pa.Table:
        b = b[key_cols + out_cols].copy()
        b["__gr_bkt"] = _bkt(b)
        return pa.Table.from_pandas(b, preserve_index=False)

    def finalize(g: pd.DataFrame) -> pa.Table:
        gb = g.groupby(key_cols, sort=False)
        pieces = {
            out_col: gb[out_col].agg(_FINAL_OPS[op])
            for out_col, (_, op) in reducers.items()
        }
        out = pd.DataFrame(pieces).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    kw = {} if batch_size is None else {"batch_size": batch_size}
    both = base.map_batches(tag_base, batch_format="pandas").union(
        delta.map_batches(partial, batch_format="pandas", **kw)
    )
    return both.groupby("__gr_bkt").map_groups(finalize, batch_format="pandas")


_PAD = "__range_pad"  # map_bucket_ranges' pad-row marker


def map_bucket_ranges(
    ds: rd.Dataset, bucket_col: str, num_buckets: int, fn, tag=None
) -> rd.Dataset:
    """``fn`` over whole buckets of ``ds``, whose int ``bucket_col`` lies
    in ``[0, num_buckets)`` (or is added by ``tag``, a batch -> batch
    function run first in the same map): one sort on the bucket into
    ``R = min(num_buckets, max(2, cluster CPUs))`` contiguous bucket
    ranges (R >= 2: ``sort`` samples its own boundaries when the list is
    empty), then one ``fn`` call per range block (several buckets per
    call, rows sorted by bucket).

    Every map block also sends one pad row into each range: the bucket
    is the range's first, every other column null, and a marker column
    set.  Ray's sort gives a reducer without rows a schema-less empty
    block, which it logs as a schema change ("Operator produced a
    RefBundle with a different schema") and passes through ``fn``
    uncalled; with the pad row every reducer block keeps the schema and
    every range gets its ``fn`` call.  The pad rows and the marker are
    dropped before ``fn`` sees the block, so a null in a real row still
    reaches ``fn``.  Ray does not call a map on an empty block either,
    so ``tag`` and the padding share one map: a ``tag`` that empties a
    block still sends its pad rows.  Reads ``ray.cluster_resources()``:
    the caller owns the session."""
    import ray

    ranges = min(num_buckets, max(2, int(ray.cluster_resources().get("CPU", 1))))
    starts = [num_buckets * i // ranges for i in range(ranges)]

    def pad(batch: pa.Table) -> pa.Table:
        if tag is not None:
            batch = tag(batch)
        pads = [pa.array(starts, f.type) if f.name == bucket_col else pa.nulls(ranges, f.type)
                for f in batch.schema]
        pads = pa.Table.from_arrays(pads + [pa.array([True] * ranges)],
                                    schema=batch.schema.append(pa.field(_PAD, pa.bool_())))
        batch = batch.append_column(pa.field(_PAD, pa.bool_()), pa.nulls(batch.num_rows, pa.bool_()))
        return pa.concat_tables([batch, pads])

    def unpadded(block: pa.Table) -> pa.Table:
        return fn(block.filter(pc.is_null(block[_PAD])).drop_columns([_PAD]))

    return (
        ds.map_batches(pad, batch_format="pyarrow", batch_size=None)
        .sort(bucket_col, boundaries=starts[1:])
        .map_batches(unpadded, batch_format="pyarrow", batch_size=None)
    )
