"""Categorical dependence statistics — mutual information and the
chi-squared independence test over a two-column contingency table.

The data-profiling primitive for "are these columns related" sweeps
(column-pair dependence ranking before feature selection or KB schema
inference).  Beyond-reference operators (no counterpart in
Orange-OpenSource/Table-Annotation).

Scale contract: the CELL COUNT pass is fully distributed (one
hash-bucket exchange via ``agg.grouped_reduce``, vectorized map-side
partials); the closing MI/chi² arithmetic runs driver-side on the
contingency TABLE, whose size is |X|·|Y| — bounded by contract exactly
like ``relational.pivot_table``'s output schema (``max_cells``
hard-fails a corpus-cardinality pair; dependence stats over unbounded
domains need binning upstream, e.g. ``quantiles.fixed_width_histogram``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd


def categorical_dependence(
    ds: rd.Dataset,
    col_x: str,
    col_y: str,
    max_cells: int = 1_000_000,
    num_buckets: int = 64,
) -> dict:
    """Returns ``{"n": rows, "mi": mutual information (nats), "chi2":
    chi-squared statistic, "dof": (|X|-1)(|Y|-1)}`` for the joint
    distribution of two categorical columns (null rows dropped — SQL
    ``WHERE x IS NOT NULL AND y IS NOT NULL`` semantics).

    Expression shapes are chosen for engine-portable oracles:
    ``mi = Σ (c/n)·ln((c·n)/(rx·cy))`` and ``chi2 = Σ (c·c·n)/(rx·cy)
    − n`` — the Σo²/e − n identity, which needs OBSERVED cells only
    (zero cells contribute 0 to Σo²/e), yet equals the full
    Σ(o−e)²/e over all |X|·|Y| combinations.  Mirror the IDENTICAL
    arithmetic in SQL and round at compare time."""
    from .agg import grouped_reduce

    def drop_nulls(b: pd.DataFrame) -> pd.DataFrame:
        return b[[col_x, col_y]].dropna()

    cells = grouped_reduce(
        ds.map_batches(drop_nulls, batch_format="pandas"),
        [col_x, col_y], {"c": (None, "count")}, num_buckets=num_buckets,
    ).to_pandas()
    if len(cells) > max_cells:
        raise ValueError(
            f"contingency table {len(cells)} cells exceeds max_cells="
            f"{max_cells}; bin the domains upstream"
        )
    if len(cells) == 0:
        return {"n": 0, "mi": 0.0, "chi2": 0.0, "dof": 0}

    c = cells["c"].to_numpy(dtype=np.float64)
    n = c.sum()
    rx = cells.groupby(col_x)["c"].transform("sum").to_numpy(dtype=np.float64)
    cy = cells.groupby(col_y)["c"].transform("sum").to_numpy(dtype=np.float64)
    mi = float(np.sum((c / n) * np.log((c * n) / (rx * cy))))
    chi2 = float(np.sum((c * c * n) / (rx * cy)) - n)
    dof = (cells[col_x].nunique() - 1) * (cells[col_y].nunique() - 1)
    return {"n": int(n), "mi": mi, "chi2": chi2, "dof": int(dof)}


def numeric_moments(
    ds: rd.Dataset,
    col_x: str,
    col_y: str,
) -> dict:
    """Distributed bivariate moments in ONE streaming pass: per-batch
    sufficient-statistic partials (n, Σx, Σy, Σxy, Σx², Σy² — one tiny
    row per batch crosses back, never the data) close driver-side into
    ``{"n", "mean_x", "mean_y", "covar_pop", "corr", "slope"}`` —
    covariance, Pearson correlation and the OLS slope dy/dx.  Rows with
    a null in either column are dropped (SQL corr/covar_pop/regr_slope
    semantics).  Definitional formulas (Σxy/n − x̄ȳ etc.) match SQL's
    to ~1e-12; round at compare time."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = b[[col_x, col_y]].dropna()
        x = m[col_x].to_numpy(dtype=np.float64)
        y = m[col_y].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "n": [len(x)],
                "sx": [float(x.sum())], "sy": [float(y.sum())],
                "sxy": [float((x * y).sum())],
                "sxx": [float((x * x).sum())], "syy": [float((y * y).sum())],
            }
        )

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(p["n"].sum())
    if n == 0:
        return {"n": 0, "mean_x": 0.0, "mean_y": 0.0,
                "covar_pop": 0.0, "corr": 0.0, "slope": 0.0}
    sx, sy = p["sx"].sum(), p["sy"].sum()
    sxy, sxx, syy = p["sxy"].sum(), p["sxx"].sum(), p["syy"].sum()
    mx, my = sx / n, sy / n
    cov = sxy / n - mx * my
    vx = sxx / n - mx * mx
    vy = syy / n - my * my
    corr = cov / np.sqrt(vx * vy) if vx > 0 and vy > 0 else 0.0
    slope = cov / vx if vx > 0 else 0.0
    return {"n": n, "mean_x": float(mx), "mean_y": float(my),
            "covar_pop": float(cov), "corr": float(corr),
            "slope": float(slope)}


def distribution_drift(
    ds: rd.Dataset,
    cat_col: str,
    side_col: str,
    max_cells: int = 1_000_000,
    num_buckets: int = 64,
) -> dict:
    """Categorical distribution drift between two corpus sides (the
    training-data monitoring primitive: did the event/type/language mix
    shift between snapshots?).  ``side_col`` must be 0/1; returns
    ``{"n_a", "n_b", "kl_ab", "kl_ba", "js"}`` — both KL directions
    (absent categories smoothed out by restriction to the shared
    support, the standard plug-in estimator caveat) and the
    Jensen-Shannon divergence (always finite, symmetric, ≤ ln 2).

    Distributed cell counts via ``agg.grouped_reduce`` (bounded
    category domain by contract, like ``categorical_dependence``);
    driver closes the bounded table.  Expression shapes are
    SQL-portable: p = c/n per side, m = (p+q)/2, js = 0.5·Σ p·ln(p/m)
    + 0.5·Σ q·ln(q/m)."""
    from .agg import grouped_reduce

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return b[[cat_col, side_col]].dropna()

    cells = grouped_reduce(
        ds.map_batches(prep, batch_format="pandas"),
        [cat_col, side_col], {"c": (None, "count")}, num_buckets=num_buckets,
    ).to_pandas()
    if len(cells) > max_cells:
        raise ValueError(
            f"category table {len(cells)} cells exceeds max_cells="
            f"{max_cells}; bin upstream"
        )
    w = cells.pivot_table(index=cat_col, columns=side_col, values="c",
                          aggfunc="sum", fill_value=0)
    for s in (0, 1):
        if s not in w.columns:
            w[s] = 0
    ca = w[0].to_numpy(dtype=np.float64)
    cb = w[1].to_numpy(dtype=np.float64)
    n_a, n_b = ca.sum(), cb.sum()
    if n_a == 0 or n_b == 0:
        return {"n_a": int(n_a), "n_b": int(n_b),
                "kl_ab": 0.0, "kl_ba": 0.0, "js": 0.0}
    p, q = ca / n_a, cb / n_b
    both = (p > 0) & (q > 0)
    kl_ab = float(np.sum(p[both] * np.log(p[both] / q[both])))
    kl_ba = float(np.sum(q[both] * np.log(q[both] / p[both])))
    m = (p + q) / 2.0
    ap, aq = p > 0, q > 0
    js = float(0.5 * np.sum(p[ap] * np.log(p[ap] / m[ap]))
               + 0.5 * np.sum(q[aq] * np.log(q[aq] / m[aq])))
    return {"n_a": int(n_a), "n_b": int(n_b),
            "kl_ab": kl_ab, "kl_ba": kl_ba, "js": js}


def welch_ttest(
    ds: rd.Dataset,
    group_col: str,
    value_col: str,
    group_a,
    group_b,
) -> dict:
    """Welch's unequal-variance two-sample t statistic between two
    groups, in ONE streaming pass: per-batch (n, Σv, Σv²) partials per
    side — two tiny rows per batch, never the data — closed driver-side
    into means, SAMPLE variances (ddof=1, SQL ``var_samp``), the t
    statistic and the Welch–Satterthwaite degrees of freedom.  The A/B
    significance primitive next to :func:`categorical_dependence`'s
    chi²; no p-value (no scipy in env — compare |t| against a normal
    quantile at these n).  Returns ``{"n_a","n_b","mean_a","mean_b",
    "var_a","var_b","t","df"}``; groups with <2 rows yield NaN t/df.
    """

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for side, gval in (("a", group_a), ("b", group_b)):
            v = b.loc[b[group_col] == gval, value_col].dropna().to_numpy(
                dtype=np.float64
            )
            rows.append(
                {"side": side, "n": len(v), "s": float(v.sum()),
                 "ss": float((v * v).sum())}
            )
        return pd.DataFrame(rows)

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = {}
    stats = {}
    for side in ("a", "b"):
        q = p[p["side"] == side]
        n = int(q["n"].sum())
        s, ss = float(q["s"].sum()), float(q["ss"].sum())
        mean = s / n if n else float("nan")
        # var_samp: (Σv² − n·mean²) / (n−1)
        var = (ss - n * mean * mean) / (n - 1) if n > 1 else float("nan")
        stats[side] = (n, mean, var)
        out[f"n_{side}"], out[f"mean_{side}"], out[f"var_{side}"] = n, mean, var
    (na, ma, va), (nb, mb, vb) = stats["a"], stats["b"]
    if na > 1 and nb > 1 and (va / na + vb / nb) > 0:
        se2 = va / na + vb / nb
        out["t"] = (ma - mb) / np.sqrt(se2)
        out["df"] = se2 * se2 / (
            (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1)
        )
    else:
        out["t"] = float("nan")
        out["df"] = float("nan")
    return out


def zscore_by_key(
    ds: rd.Dataset,
    key_cols: list[str],
    value_col: str,
    out_col: str = "zscore",
    ddof: int = 1,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Group-wise z-score normalization: ``(v − mean_g) / std_g`` with
    the group's own moments — the per-feature normalization step of a
    training-data pipeline, and the canonical "attach group statistics
    back to the rows" shape: per-key (n, Σv, Σv²) via ONE
    ``grouped_reduce`` exchange, the tiny per-key moment table
    broadcast back over the streaming row scan by the size-gated
    ``equi_join`` (zero payload shuffle when the key table fits the
    broadcast gate).  ``ddof=1`` matches SQL ``stddev_samp`` (window
    ``STDDEV(v) OVER (PARTITION BY key)``); zero-variance or n≤ddof
    groups emit null (SQL: division by a null stddev)."""
    from .agg import grouped_reduce
    from .relational import equi_join

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        out = b[key_cols + [value_col]].copy()
        v = b[value_col].to_numpy(dtype=np.float64)
        out["__v2"] = v * v
        return out

    moments = grouped_reduce(
        ds.map_batches(prep, batch_format="pandas"),
        key_cols,
        {"__n": (value_col, "count"), "__s": (value_col, "sum"),
         "__ss": ("__v2", "sum")},
        num_buckets=num_buckets,
    )

    def close(b: pd.DataFrame) -> pd.DataFrame:
        n = b["__n"].to_numpy(dtype=np.float64)
        s, ss = b["__s"].to_numpy(), b["__ss"].to_numpy()
        mean = s / n
        with np.errstate(divide="ignore", invalid="ignore"):
            var = (ss - n * mean * mean) / (n - ddof)
            std = np.sqrt(var)
        out = b[key_cols].copy()
        out["__mean"] = mean
        out["__std"] = np.where(std > 0, std, np.nan)
        return out

    key_stats = moments.map_batches(close, batch_format="pandas")
    if len(key_cols) != 1:
        raise NotImplementedError("zscore_by_key: single key column only")
    joined = equi_join(ds, key_stats, key_cols[0])

    def apply_z(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b[out_col] = (b[value_col] - b["__mean"]) / b["__std"]
        return b.drop(columns=["__mean", "__std"])

    return joined.map_batches(apply_z, batch_format="pandas")


def spearman_corr(
    ds: rd.Dataset,
    x_col: str,
    y_col: str,
    id_col: str,
    method: str = "auto",
    max_distinct: int = 2_000_000,
    num_buckets: int = 64,
) -> dict:
    """Spearman rank correlation with tie-average ranks, fully
    distributed and JOIN-FREE.  Returns ``{"n", "rho"}``.  Values must
    be non-null (no-NaN contract, like the rank machinery below).

    Two engines behind a distinct-cardinality gate:

    - ``counts`` (fast path): the tie-average rank of value ``v`` is a
      pure function of the column's VALUE HISTOGRAM —
      ``rank(v) = (#values < v) + (count(v) - 1)/2`` — so one skinny
      ``grouped_reduce`` exchange over the stacked ``(column, value)``
      pairs (distinct-value rows, never data rows), a driver-side
      cumsum over each column's sorted distinct values (gate-bounded
      by ``max_distinct`` per column), one broadcast of the two
      value→rank arrays, and ONE map-only moments scan replace four
      range-partitioned sort exchanges.  The right shape whenever the
      value domain is bounded (prices, quantities, scores) — at corpus
      scale the exchange carries |distinct|, not |rows|.
    - ``ranks`` (general path): with any unique tiebreak, the 0-based
      positions of a tie group are consecutive, so the group's AVERAGE
      rank equals the mean of each row's position under an
      id-ASCENDING and an id-DESCENDING tiebreak — two chained
      :func:`~.datapipe.global_rank` passes per column + one moments
      scan.  No driver-side state, works at unbounded cardinality;
      ``id_col`` must be unique integers.

    ``method="auto"`` (default) takes the counts path and falls back to
    ranks when the combined distinct count exceeds ``2 * max_distinct``.
    Pearson over per-row average ranks is exactly Spearman's
    tie-corrected ρ; Pearson's affine invariance makes the 0- vs
    1-based rank offset irrelevant, so the two engines agree to fp
    precision."""
    import ray

    from ..state.worker_state import get_worker_state, ref_key
    from .agg import grouped_reduce
    from .datapipe import global_rank

    if method not in ("auto", "counts", "ranks"):
        raise ValueError(f"spearman_corr: unknown method {method!r}")

    if method != "ranks":
        base = ds.materialize()

        def stack(b: pd.DataFrame) -> pa.Table:
            x = b[x_col].to_numpy(dtype=np.float64)
            y = b[y_col].to_numpy(dtype=np.float64)
            return pa.table(
                {
                    "__c": pa.array(
                        np.concatenate(
                            [np.zeros(len(x), np.int8), np.ones(len(y), np.int8)]
                        ),
                        pa.int8(),
                    ),
                    "__v": pa.array(np.concatenate([x, y]), pa.float64()),
                }
            )

        counts = grouped_reduce(
            base.map_batches(stack, batch_format="pandas"),
            ["__c", "__v"],
            {"__n": (None, "count")},
            num_buckets=num_buckets,
        ).materialize()
        if method == "counts" or counts.count() <= 2 * max_distinct:
            cp = counts.to_pandas()
            maps = {}
            for c in (0, 1):
                sub = cp[cp["__c"] == c].sort_values("__v")
                n = sub["__n"].to_numpy(dtype=np.float64)
                below = np.concatenate([[0.0], np.cumsum(n)[:-1]])
                maps[c] = (
                    sub["__v"].to_numpy(dtype=np.float64),
                    below + (n - 1.0) / 2.0,
                )
            mref = ray.put(maps)

            def to_ranks(b: pd.DataFrame) -> pd.DataFrame:
                m = get_worker_state(
                    ("spearman-maps", ref_key(mref)), lambda: ray.get(mref)
                )
                vx, rx = m[0]
                vy, ry = m[1]
                return pd.DataFrame(
                    {
                        "rx": rx[
                            np.searchsorted(vx, b[x_col].to_numpy(np.float64))
                        ],
                        "ry": ry[
                            np.searchsorted(vy, b[y_col].to_numpy(np.float64))
                        ],
                    }
                )

            m = numeric_moments(
                base.map_batches(to_ranks, batch_format="pandas"), "rx", "ry"
            )
            return {"n": m["n"], "rho": m["corr"]}
        ds = base  # fall through to the ranks engine on the materialized input

    def add_nid(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__nid"] = -b[id_col].to_numpy(dtype=np.int64)
        return b

    t = ds.map_batches(add_nid, batch_format="pandas")
    t = global_rank(t, [x_col], id_col, out_col="__px1")
    t = global_rank(t, [x_col], "__nid", out_col="__px2")
    t = global_rank(t, [y_col], id_col, out_col="__py1")
    t = global_rank(t, [y_col], "__nid", out_col="__py2")

    def ranks(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "rx": (b["__px1"].to_numpy() + b["__px2"].to_numpy()) / 2.0,
                "ry": (b["__py1"].to_numpy() + b["__py2"].to_numpy()) / 2.0,
            }
        )

    m = numeric_moments(t.map_batches(ranks, batch_format="pandas"), "rx", "ry")
    return {"n": m["n"], "rho": m["corr"]}


def psi_drift(
    baseline: rd.Dataset,
    current: rd.Dataset,
    col: str,
    n_bins: int = 10,
    eps: float = 0.0,
) -> pd.DataFrame:
    """Population Stability Index over a NUMERIC column — the standard
    model-monitoring drift score for continuous features (categorical
    drift is :func:`distribution_drift`): bin edges are the BASELINE's
    exact ``n_bins``-quantiles (order statistics, SQL-mirrorable), both
    sides are counted into those bins, and each bin contributes
    ``(p - q)·ln(p/q)``.  PSI < 0.1 is conventionally "no shift",
    > 0.25 "major shift".

    Distributed shape: one exact-quantile pass over the baseline
    (quantiles.exact_quantiles — histogram refinement, never a global
    sort), then ONE map-only counting pass per side against the
    broadcast cut array (``np.searchsorted`` with ``side='left'`` —
    a value equal to a cut falls in the LOWER bin, mirroring SQL
    ``count(*) WHERE c < value``); per-batch partial counts sum on the
    driver (n_bins rows).  ``eps`` guards empty current-side bins
    (ln(0)) when the corpus is small; 0 keeps the SQL mirror exact.

    Returns one row per bin: ``(bin, n_base, n_cur, psi_term)`` —
    total PSI is the column sum."""
    import ray

    from ..state.worker_state import get_worker_state, ref_key
    from .quantiles import exact_quantiles

    qs = [i / n_bins for i in range(1, n_bins)]
    cuts = exact_quantiles(baseline, col, qs)["value"].to_numpy(np.float64)
    cref = ray.put(cuts)

    def counts(ds: rd.Dataset) -> np.ndarray:
        def part(b: pd.DataFrame) -> pd.DataFrame:
            cs = get_worker_state(
                ("psi-cuts", ref_key(cref)), lambda: ray.get(cref)
            )
            v = b[col].to_numpy(dtype=np.float64)
            v = v[~np.isnan(v)]
            binned = np.searchsorted(cs, v, side="left")
            h = np.bincount(binned, minlength=n_bins)
            return pd.DataFrame(
                {"bin": np.arange(n_bins, dtype=np.int64), "n": h.astype(np.int64)}
            )

        p = ds.map_batches(part, batch_format="pandas").to_pandas()
        return p.groupby("bin")["n"].sum().reindex(
            range(n_bins), fill_value=0
        ).to_numpy(np.float64)

    nb_ = counts(baseline)
    nc = counts(current)
    p = (nb_ + eps) / (nb_ + eps).sum()
    q = (nc + eps) / (nc + eps).sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where((p > 0) & (q > 0), (p - q) * np.log(p / q), np.nan)
    return pd.DataFrame(
        {
            "bin": np.arange(n_bins, dtype=np.int64),
            "n_base": nb_.astype(np.int64),
            "n_cur": nc.astype(np.int64),
            "psi_term": np.round(term, 6),
        }
    )


def mad_outliers(
    ds: rd.Dataset,
    group_col: str,
    col: str,
    k: float = 3.5,
) -> pd.DataFrame:
    """Robust per-group outlier detection via the median absolute
    deviation: flag rows with ``|v − median_g| > k · 1.4826 · MAD_g``
    (1.4826 scales MAD to σ under normality — the standard robust
    z-score; unlike :func:`zscore_by_key`, a single wild value cannot
    inflate the threshold that should catch it).

    Distributed shape: two :func:`~.quantiles.grouped_quantiles` passes
    (exact per-group medians — histogram refinement, no per-group
    sort), each followed by a broadcast of the group→statistic dict
    (group-cardinality-sized, same contract as grouped_quantiles), and
    one final map-only flag pass.  Returns the OUTLIER rows with their
    group's median and MAD attached."""
    import ray

    from ..state.worker_state import get_worker_state, ref_key
    from .quantiles import grouped_quantiles

    med_df = grouped_quantiles(ds, group_col, col, [0.5])
    med = dict(zip(med_df[group_col], med_df["value"]))
    mref = ray.put(med)

    def devs(b: pd.DataFrame) -> pd.DataFrame:
        m = get_worker_state(("mad-med", ref_key(mref)), lambda: ray.get(mref))
        return pd.DataFrame(
            {
                group_col: b[group_col],
                "dev": (b[col] - b[group_col].map(m)).abs(),
            }
        )

    dev_ds = ds.map_batches(devs, batch_format="pandas")
    mad_df = grouped_quantiles(dev_ds, group_col, "dev", [0.5])
    mad = dict(zip(mad_df[group_col], mad_df["value"]))
    bref = ray.put((med, mad))

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        m, s = get_worker_state(("mad-both", ref_key(bref)), lambda: ray.get(bref))
        gm = b[group_col].map(m)
        gs = b[group_col].map(s)
        keep = (b[col] - gm).abs() > k * 1.4826 * gs
        out = b[keep].copy()
        out["med"] = gm[keep]
        out["mad"] = gs[keep]
        return out

    return ds.map_batches(flag, batch_format="pandas").to_pandas()


def ks_test(
    ds: rd.Dataset,
    group_col: str,
    value_col: str,
    group_a: str,
    group_b: str,
    n_chunks: int = 64,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Exact two-sample Kolmogorov–Smirnov statistic between the
    ``value_col`` distributions of two groups — the distribution-drift
    test that needs NO binning choice (complements ``psi_drift`` /
    ``distribution_drift``, which compare binned histograms).

    D = max over distinct values v of |F_a(v) − F_b(v)| with the
    right-continuous empirical CDFs.  Scale shape (no global sort, no
    driver-sized collections):

    1. per-distinct-value group counts — ONE :func:`~.agg.grouped_reduce`
       exchange (the shuffle carries distinct values, not rows);
    2. order-respecting ``chunk_id`` from exact value quantiles
       (broadcast cuts, map-only tag) — the
       :func:`~.datapipe._offsets_from_lengths` chunked-prefix-sum
       shape transposed onto VALUE order;
    3. per-chunk count sums → driver prefix offsets (n_chunks rows);
    4. one bucketed in-chunk pass: vectorized cumsum + chunk prefix
       gives every distinct value its global CDF pair; per-chunk max
       |F_a − F_b| rows come back (n_chunks of them) and the driver
       takes the max.

    Returns a one-row DataFrame ``(ks_d, n1, n2)`` with raw float64
    ``ks_d`` — round at compare time."""
    import ray

    from ..state.worker_state import get_worker_state, ref_key
    from .agg import grouped_reduce
    from .quantiles import exact_quantiles

    def part(b: pd.DataFrame) -> pd.DataFrame:
        m = b[b[group_col].isin([group_a, group_b])]
        v = m[value_col].to_numpy(np.float64)
        ok = ~np.isnan(v)
        d = pd.DataFrame(
            {
                "value": v[ok],
                "ca": (m[group_col].to_numpy()[ok] == group_a).astype(
                    "int64"
                ),
            }
        )
        d["cb"] = np.int64(1) - d["ca"]
        return d.groupby("value", as_index=False)[["ca", "cb"]].sum()

    counts = grouped_reduce(
        ds.map_batches(part, batch_format="pandas"),
        ["value"],
        {"c1": ("ca", "sum"), "c2": ("cb", "sum")},
        num_buckets=num_buckets,
    ).materialize()

    qs = [i / n_chunks for i in range(1, n_chunks)]
    cuts = np.unique(
        exact_quantiles(counts, "value", qs)["value"].to_numpy(np.float64)
    )
    cref = ray.put(cuts)

    def tag(b: pd.DataFrame) -> pa.Table:
        cs = get_worker_state(
            ("ks-cuts", ref_key(cref)), lambda: ray.get(cref)
        )
        out = b.copy()
        out["chunk_id"] = np.searchsorted(
            cs, b["value"].to_numpy(np.float64), side="left"
        ).astype("int64")
        return pa.Table.from_pandas(out, preserve_index=False)

    tagged = counts.map_batches(tag, batch_format="pandas").materialize()

    chunk_sums = (
        grouped_reduce(
            tagged,
            ["chunk_id"],
            {"s1": ("c1", "sum"), "s2": ("c2", "sum")},
            num_buckets=num_buckets,
        )
        .to_pandas()
        .sort_values("chunk_id")
    )
    n1 = int(chunk_sums["s1"].sum())
    n2 = int(chunk_sums["s2"].sum())
    if n1 == 0 or n2 == 0:
        raise ValueError(
            f"ks_test needs both groups non-empty (n1={n1}, n2={n2})"
        )
    pre1: dict[int, int] = {}
    pre2: dict[int, int] = {}
    r1 = r2 = 0
    for cid, a, b_ in zip(
        chunk_sums["chunk_id"], chunk_sums["s1"], chunk_sums["s2"]
    ):
        pre1[int(cid)] = r1
        pre2[int(cid)] = r2
        r1 += int(a)
        r2 += int(b_)
    pref = ray.put((pre1, pre2))
    nb = np.uint64(num_buckets)

    def bucketed(b: pd.DataFrame) -> pa.Table:
        out = b.copy()
        out["__ks_bkt"] = (
            pd.util.hash_pandas_object(b["chunk_id"], index=False).to_numpy()
            % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    n1f, n2f = float(n1), float(n2)

    def chunk_max(g: pd.DataFrame) -> pa.Table:
        p1, p2 = get_worker_state(
            ("ks-prefix", ref_key(pref)), lambda: ray.get(pref)
        )
        g = g.sort_values(["chunk_id", "value"], kind="mergesort")
        base1 = g["chunk_id"].map(p1).to_numpy(np.int64)
        base2 = g["chunk_id"].map(p2).to_numpy(np.int64)
        cum1 = g.groupby("chunk_id", sort=False)["c1"].cumsum().to_numpy() + base1
        cum2 = g.groupby("chunk_id", sort=False)["c2"].cumsum().to_numpy() + base2
        d = np.abs(cum1 / n1f - cum2 / n2f)
        per = (
            pd.DataFrame({"chunk_id": g["chunk_id"].to_numpy(), "d": d})
            .groupby("chunk_id", as_index=False)["d"]
            .max()
        )
        return pa.table({"d": per["d"].to_numpy().astype(np.float64)})

    per_chunk = (
        tagged.map_batches(bucketed, batch_format="pandas")
        .groupby("__ks_bkt")
        .map_groups(chunk_max, batch_format="pandas")
        .to_pandas()
    )
    ks_d = float(per_chunk["d"].max())
    return pd.DataFrame({"ks_d": [ks_d], "n1": [n1], "n2": [n2]})


def gini_by_key(
    ds: rd.Dataset,
    key_cols: list[str],
    val_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-group Gini coefficient of ``val_col`` — the inequality /
    concentration audit (revenue concentration per segment, token-mass
    concentration per domain).  Values must be non-negative.

    Definition (sorted values x_(1..n) within a group):
    ``G = 2*Σ i·x_i / (n·Σx) − (n+1)/n`` — invariant to how ties are
    ordered (equal values make equal contributions over any permutation
    of a tie run), so the histogram computes it exactly: a run of m
    copies of v after c smaller values contributes
    ``v·(m·c + m(m+1)/2)`` to ``Σ i·x_i``.

    Shape: the spearman counts-engine story grouped — one skinny
    ``grouped_reduce`` exchange over DISTINCT (key, value) rows, then a
    hash(key) co-location of the histograms with an in-bucket
    vectorized grouped cumsum; no exchange ever carries data rows.
    Output: ``(key..., n, gini)`` with gini rounded half-away 6 dp."""
    from .agg import grouped_reduce

    hist = grouped_reduce(
        ds.select_columns(key_cols + [val_col]),
        key_cols + [val_col],
        {"__m": (None, "count")},
        num_buckets=num_buckets,
    )

    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b.copy()
        h = pd.util.hash_pandas_object(b[key_cols], index=False).to_numpy()
        b["__gini_bkt"] = (h.astype(np.uint64) % nb).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def gini_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.drop(columns="__gini_bkt").sort_values(
            key_cols + [val_col], kind="mergesort"
        ).reset_index(drop=True)
        m = g["__m"].to_numpy(dtype=np.float64)
        v = g[val_col].to_numpy(dtype=np.float64)
        grp = g.groupby(key_cols, sort=False)
        c = grp["__m"].cumsum().to_numpy(dtype=np.float64) - m
        term = v * (m * c + m * (m + 1.0) / 2.0)
        kf = g[key_cols].copy()
        kf["__six"] = term
        kf["__n"] = m
        kf["__s"] = v * m
        agg = kf.groupby(key_cols, sort=True).sum()
        n = agg["__n"].to_numpy()
        s = agg["__s"].to_numpy()
        gini = 2.0 * agg["__six"].to_numpy() / (n * s) - (n + 1.0) / n
        gini = np.sign(gini) * np.floor(np.abs(gini) * 1e6 + 0.5) / 1e6
        out = agg.reset_index()[key_cols]
        out["n"] = n.astype(np.int64)
        out["gini"] = gini
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        hist.map_batches(tag, batch_format="pandas")
        .groupby("__gini_bkt")
        .map_groups(gini_bucket, batch_format="pandas")
    )


def km_survival(
    lags: rd.Dataset,
    censor_ts,
    from_col: str = "from_ts",
    to_col: str = "to_ts",
    unit_us: int = 86_400_000_000,
) -> pd.DataFrame:
    """Kaplan–Meier survival estimator over right-censored durations —
    the time-to-convert / retention curve.  Input is
    :func:`~.windows.conversion_lag` output: one row per subject with
    ``from_col`` (cohort entry) and nullable ``to_col`` (event;  null =
    censored at ``censor_ts``, the observation cutoff).

    Durations bucket to integer units via EXACT int64 microsecond
    arithmetic (``us // unit_us`` — no float boundary on whole-unit
    gaps).  At each distinct event time t:
    ``S(t) = Π_{u<=t} (1 − d_u / n_u)`` with ``d_u`` events at u and
    ``n_u`` subjects still at risk.  Returns event-time rows
    ``(t, n_risk, n_events, survival)`` — survival rounded half-away
    6 dp (matches the SQL ``exp(sum(ln ...))`` window formulation to
    well under the rounding precision).

    Shape: one map-only pass to (duration, event) pairs, one skinny
    reduce over DISTINCT durations × 2, driver cumsum over that
    gate-bounded histogram."""
    from .agg import grouped_reduce

    cns = pd.Timestamp(censor_ts).value  # ns since epoch, closed by value

    def durations(b: pd.DataFrame) -> pa.Table:
        f = b[from_col].astype("datetime64[ns]").astype(np.int64)
        t = b[to_col].astype("datetime64[ns]")
        ev = t.notna().to_numpy()
        end = np.where(ev, t.astype(np.int64).to_numpy(), cns)
        us = (end - f.to_numpy()) // 1000
        dur = us // unit_us
        return pa.table(
            {
                "t": pa.array(dur, pa.int64()),
                "ev": pa.array(ev.astype(np.int64), pa.int64()),
            }
        )

    hist = (
        grouped_reduce(
            lags.map_batches(durations, batch_format="pandas"),
            ["t"],
            {"d": ("ev", "sum"), "c": (None, "count")},
        )
        .to_pandas()
        .sort_values("t")
        .reset_index(drop=True)
    )
    total = int(hist["c"].sum())
    before = hist["c"].cumsum().to_numpy() - hist["c"].to_numpy()
    n_risk = total - before
    d = hist["d"].to_numpy(dtype=np.float64)
    with np.errstate(divide="ignore"):
        surv = np.exp(np.cumsum(np.log(1.0 - d / n_risk)))
    out = pd.DataFrame(
        {
            "t": hist["t"].astype("int64"),
            "n_risk": n_risk.astype("int64"),
            "n_events": hist["d"].astype("int64"),
            "survival": np.sign(surv) * np.floor(np.abs(surv) * 1e6 + 0.5) / 1e6,
        }
    )
    return out[out["n_events"] > 0].reset_index(drop=True)


def mann_whitney_u(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    group_a: str,
    group_b: str,
    num_buckets: int = 64,
) -> dict:
    """Mann–Whitney U rank-sum test (two-sided z with tie correction) —
    the nonparametric A/B companion to the t-test / KS entries.  Like
    :func:`spearman_corr`'s counts engine, tie-average ranks are a pure
    function of the pooled VALUE HISTOGRAM, so one skinny
    ``grouped_reduce`` exchange over distinct (group, value) pairs
    replaces any row-level ranking: per distinct value v,
    ``avg_rank(v) = (#pooled < v) + (t_v + 1)/2`` (1-based), R_a =
    Σ avg_rank·n_a(v), ``U = R_a − n_a(n_a+1)/2``, and
    ``z = (U − n_a n_b/2) / sqrt(n_a n_b/12 · ((N+1) − Σ(t³−t)/(N(N−1))))``.

    Rank sums are exact multiples of ½ (exact in float64 to 2^52), so U
    matches SQL's window formulation bit-for-bit; z follows from the
    same exact inputs.  Returns ``{"n_a","n_b","u","z"}``."""
    from .agg import grouped_reduce

    def stack(b: pd.DataFrame) -> pa.Table:
        m = b[group_col].isin([group_a, group_b])
        sub = b.loc[m, [group_col, val_col]]
        return pa.table(
            {
                "__g": pa.array(
                    (sub[group_col] == group_a).to_numpy().astype(np.int8),
                    pa.int8(),
                ),
                "__v": pa.array(
                    sub[val_col].to_numpy(dtype=np.float64), pa.float64()
                ),
            }
        )

    hist = (
        grouped_reduce(
            ds.map_batches(stack, batch_format="pandas"),
            ["__g", "__v"],
            {"__n": (None, "count")},
            num_buckets=num_buckets,
        )
        .to_pandas()
        .pivot_table(index="__v", columns="__g", values="__n", fill_value=0)
        .reindex(columns=[0, 1], fill_value=0)
        .sort_index()
    )
    na_v = hist[1].to_numpy(dtype=np.float64)
    nb_v = hist[0].to_numpy(dtype=np.float64)
    t = na_v + nb_v
    below = np.concatenate([[0.0], np.cumsum(t)[:-1]])
    avg_rank = below + (t + 1.0) / 2.0
    n1 = float(na_v.sum())
    n2 = float(nb_v.sum())
    big_n = n1 + n2
    r1 = float((avg_rank * na_v).sum())
    u = r1 - n1 * (n1 + 1.0) / 2.0
    tie_corr = float((t * t * t - t).sum())
    var = n1 * n2 / 12.0 * ((big_n + 1.0) - tie_corr / (big_n * (big_n - 1.0)))
    z = (u - n1 * n2 / 2.0) / np.sqrt(var)
    return {"n_a": int(n1), "n_b": int(n2), "u": u, "z": float(z)}


def diversity_by_key(
    ds: rd.Dataset,
    key_col: str,
    cat_col: str,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Per-key Shannon diversity of a categorical column — entropy (in
    nats) and the effective category count ``exp(H)`` (Hill number of
    order 1): the behavioral-diversity / corpus-mix audit (does a user
    do one thing or many; does a domain emit one doc type or a
    spread).

    Shape: one ``grouped_reduce`` over (key, category) pairs (the
    exchange carries distinct pairs, never events), then a hash(key)
    co-location of the count rows with vectorized grouped entropy —
    per-key work is |categories|, bounded.  Returns ``(key, n_events,
    entropy, eff_cats)``, entropy/eff rounded half-away 6 dp (the
    SQL-portable -Σ(k/n)ln(k/n) shape)."""
    from .agg import grouped_reduce

    pairs = grouped_reduce(
        ds.select_columns([key_col, cat_col]),
        [key_col, cat_col],
        {"k": (None, "count")},
        num_buckets=num_buckets,
    )

    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        b = b.copy()
        h = pd.util.hash_pandas_object(b[key_col], index=False).to_numpy()
        b["__dv_bkt"] = (h.astype(np.uint64) % nb).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def ent_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.drop(columns="__dv_bkt")
        k = g["k"].to_numpy(dtype=np.float64)
        n = g.groupby(key_col, sort=False)["k"].transform("sum").to_numpy(
            dtype=np.float64
        )
        p = k / n
        term = -p * np.log(p)
        kf = g[[key_col]].copy()
        kf["__h"] = term
        kf["__n"] = k
        agg = kf.groupby(key_col, sort=True).sum()
        ent = agg["__h"].to_numpy()
        r6 = lambda a: np.sign(a) * np.floor(np.abs(a) * 1e6 + 0.5) / 1e6
        out = agg.reset_index()[[key_col]]
        out["n_events"] = agg["__n"].to_numpy().astype(np.int64)
        out["entropy"] = r6(ent)
        out["eff_cats"] = r6(np.exp(ent))
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        pairs.map_batches(tag, batch_format="pandas")
        .groupby("__dv_bkt")
        .map_groups(ent_bucket, batch_format="pandas")
    )


def anova_oneway(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    num_buckets: int = 64,
) -> dict:
    """One-way ANOVA F statistic across the groups of ``group_col`` —
    the k-sample companion to :func:`welch_ttest` (k=2) /
    :func:`mann_whitney_u` (rank-based).  From per-group sufficient
    statistics only (one ``grouped_reduce`` exchange of (n, Σv, Σv²)
    per group — group-cardinality rows, never data):
    ``SSB = Σ_g n_g(x̄_g − x̄)², SSW = Σ_g (Σv² − n_g x̄_g²)``,
    ``F = (SSB/(k−1)) / (SSW/(N−k))``.  Returns
    ``{"n", "k", "ssb", "ssw", "f"}`` (unrounded — round at compare
    time; the Σv²−n x̄² shape mirrors SQL exactly)."""
    from .agg import grouped_reduce

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b[val_col].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                group_col: b[group_col],
                "v": v,
                "vv": v * v,
            }
        )

    g = grouped_reduce(
        ds.map_batches(partial, batch_format="pandas"),
        [group_col],
        {"n": (None, "count"), "s": ("v", "sum"), "ss": ("vv", "sum")},
        num_buckets=num_buckets,
    ).to_pandas()
    n_g = g["n"].to_numpy(dtype=np.float64)
    s_g = g["s"].to_numpy(dtype=np.float64)
    ss_g = g["ss"].to_numpy(dtype=np.float64)
    big_n = float(n_g.sum())
    k = len(g)
    mean_g = s_g / n_g
    grand = float(s_g.sum()) / big_n
    ssb = float((n_g * (mean_g - grand) ** 2).sum())
    ssw = float((ss_g - n_g * mean_g * mean_g).sum())
    f = (ssb / (k - 1)) / (ssw / (big_n - k)) if k > 1 and big_n > k else 0.0
    return {"n": int(big_n), "k": int(k), "ssb": ssb, "ssw": ssw, "f": f}


def markov_stationary(
    transitions: rd.Dataset,
    iters: int = 200,
    max_states: int = 10_000,
) -> pd.DataFrame:
    """Stationary distribution of the Markov chain MLE'd from a
    transition-count table (``windows.transition_counts`` output:
    ``from_type, to_type, n``) — where a user journey settles in the
    long run.  The heavy work (the per-key LEAD exchange + pair
    reduction) happens upstream; this closes the |states|² table
    (gate: ``max_states``) driver-side: row-normalize to P, then power
    iteration ``π ← πP`` from uniform, renormalized each step.
    Absorbing/dangling states (no out-transitions) get a uniform
    outgoing row (the PageRank dangling convention), so π always
    exists and sums to 1.  Returns ``(state, stationary)`` sorted by
    state, stationary rounded half-away 6 dp."""
    t = transitions.to_pandas()
    states = sorted(set(t["from_type"]) | set(t["to_type"]))
    k = len(states)
    if k == 0:
        return pd.DataFrame({"state": [], "stationary": []})
    if k > max_states:
        raise ValueError(f"{k} states exceed max_states={max_states}")
    pos = {s: i for i, s in enumerate(states)}
    p = np.zeros((k, k))
    for f, to, n in zip(t["from_type"], t["to_type"], t["n"]):
        p[pos[f], pos[to]] += float(n)
    rs = p.sum(axis=1)
    dangling = rs == 0
    p[dangling] = 1.0 / k
    rs = p.sum(axis=1)
    p /= rs[:, None]
    pi = np.full(k, 1.0 / k)
    for _ in range(iters):
        pi = pi @ p
        pi /= pi.sum()
    r6 = np.sign(pi) * np.floor(np.abs(pi) * 1e6 + 0.5) / 1e6
    return pd.DataFrame({"state": states, "stationary": r6})


def cohen_kappa(
    ds: rd.Dataset,
    col_a: str,
    col_b: str,
    num_buckets: int = 64,
) -> dict:
    """Cohen's kappa agreement between two categorical columns — the
    labeler/classifier agreement metric (accuracy corrected for the
    agreement expected from the marginals alone):
    ``κ = (p_o − p_e)/(1 − p_e)`` with ``p_o`` the diagonal mass and
    ``p_e = Σ_k (row_k · col_k)/n²``.

    One distributed cell-count exchange (``grouped_reduce`` over the
    bounded category pairs — the :func:`categorical_dependence` shape);
    every downstream number derives from exact integer counts, so both
    engines compute IDENTICAL doubles.  Returns
    ``{"n", "accuracy", "kappa"}`` (unrounded)."""
    from .agg import grouped_reduce

    cells = grouped_reduce(
        ds.select_columns([col_a, col_b]),
        [col_a, col_b],
        {"c": (None, "count")},
        num_buckets=num_buckets,
    ).to_pandas()
    c = cells["c"].to_numpy(dtype=np.float64)
    n = float(c.sum())
    if n == 0:
        return {"n": 0, "accuracy": 0.0, "kappa": 0.0}
    po = float(c[(cells[col_a] == cells[col_b]).to_numpy()].sum()) / n
    rows = cells.groupby(col_a)["c"].sum()
    cols = cells.groupby(col_b)["c"].sum()
    cats = rows.index.union(cols.index)
    pe = float(
        (rows.reindex(cats, fill_value=0).to_numpy()
         * cols.reindex(cats, fill_value=0).to_numpy()).sum()
    ) / (n * n)
    kappa = (po - pe) / (1.0 - pe) if pe < 1.0 else 1.0
    return {"n": int(n), "accuracy": po, "kappa": kappa}


def wasserstein_1d(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    group_a: str,
    group_b: str,
    num_buckets: int = 64,
) -> dict:
    """1-D Wasserstein (earth-mover) distance between two groups'
    value distributions — the optimal-transport member of the drift
    family (PSI/KL bin-dependently saturate; W1 is the area between
    ECDFs, in VALUE units):
    ``W1 = Σ_i |F_a(v_i) − F_b(v_i)| · (v_{i+1} − v_i)`` over the
    pooled sorted distinct values.

    The counts-engine shape again: one skinny ``grouped_reduce``
    exchange over distinct (group, value) pairs, driver cumsum over the
    pooled histogram.  ECDF steps derive from exact integer counts, so
    both engines compute identical doubles (round only the final sum).
    Returns ``{"n_a", "n_b", "w1"}``."""
    from .agg import grouped_reduce

    def stack(b: pd.DataFrame) -> pa.Table:
        m = b[group_col].isin([group_a, group_b])
        sub = b.loc[m, [group_col, val_col]]
        return pa.table(
            {
                "__g": pa.array(
                    (sub[group_col] == group_a).to_numpy().astype(np.int8),
                    pa.int8(),
                ),
                "__v": pa.array(
                    sub[val_col].to_numpy(dtype=np.float64), pa.float64()
                ),
            }
        )

    hist = (
        grouped_reduce(
            ds.map_batches(stack, batch_format="pandas"),
            ["__g", "__v"],
            {"__n": (None, "count")},
            num_buckets=num_buckets,
        )
        .to_pandas()
        .pivot_table(index="__v", columns="__g", values="__n", fill_value=0)
        .reindex(columns=[0, 1], fill_value=0)
        .sort_index()
    )
    v = hist.index.to_numpy(dtype=np.float64)
    ca = hist[1].to_numpy(dtype=np.float64)
    cb = hist[0].to_numpy(dtype=np.float64)
    na, nb = float(ca.sum()), float(cb.sum())
    fa = np.cumsum(ca) / na
    fb = np.cumsum(cb) / nb
    w1 = float((np.abs(fa[:-1] - fb[:-1]) * np.diff(v)).sum())
    return {"n_a": int(na), "n_b": int(nb), "w1": w1}


def moments_by_key(
    ds: rd.Dataset,
    key_col: str,
    val_col: str,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Per-group skewness and excess kurtosis from raw power sums — the
    distribution-shape profile (is this segment's value distribution
    long-tailed / peaked?).  Beyond-reference operator.

    One ``agg.grouped_reduce`` exchange carries five partial sums per
    (key, batch): ``n, Σy, Σy², Σy³, Σy⁴``; the closing central-moment
    algebra runs driver-side on one row per key (the
    categorical_dependence driver-bounded contract — key cardinality
    must be dimension-like).  The SQL oracle mirrors the SAME raw-sum
    algebra (``m3 = s3/n - 3μ(s2/n) + 2μ³`` etc.), so both engines agree
    to ~1e-12 relative and the 6-dp round is boundary-safe (skew/kurt
    are irrational-dense ratios, never on the rounding lattice).

    Returns ``(key, n, skewness, ex_kurtosis)`` sorted by key;
    skew/kurt are NULL when the group variance is 0.
    """
    from .agg import grouped_reduce

    def powers(b: pd.DataFrame) -> pa.Table:
        y = b[val_col].to_numpy(dtype=np.float64)
        return pa.table(
            {
                key_col: pa.array(b[key_col]),
                "y1": pa.array(y, pa.float64()),
                "y2": pa.array(y * y, pa.float64()),
                "y3": pa.array(y * y * y, pa.float64()),
                "y4": pa.array(y * y * y * y, pa.float64()),
            }
        )

    agg = grouped_reduce(
        ds.map_batches(powers, batch_format="pandas"),
        [key_col],
        {
            "n": (None, "count"),
            "s1": ("y1", "sum"),
            "s2": ("y2", "sum"),
            "s3": ("y3", "sum"),
            "s4": ("y4", "sum"),
        },
        num_buckets=num_buckets,
    ).to_pandas()

    n = agg["n"].to_numpy(dtype=np.float64)
    mu = agg["s1"].to_numpy() / n
    m2 = agg["s2"].to_numpy() / n - mu**2
    m3 = agg["s3"].to_numpy() / n - 3 * mu * (agg["s2"].to_numpy() / n) + 2 * mu**3
    m4 = (
        agg["s4"].to_numpy() / n
        - 4 * mu * (agg["s3"].to_numpy() / n)
        + 6 * mu**2 * (agg["s2"].to_numpy() / n)
        - 3 * mu**4
    )
    ok = m2 > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        skew = np.where(ok, m3 / np.power(np.where(ok, m2, 1.0), 1.5), np.nan)
        kurt = np.where(ok, m4 / np.where(ok, m2, 1.0) ** 2 - 3.0, np.nan)

    def _r6(a: np.ndarray) -> np.ndarray:
        return np.where(np.isnan(a), np.nan,
                        np.sign(a) * np.floor(np.abs(a) * 1e6 + 0.5) / 1e6)

    out = pd.DataFrame(
        {
            key_col: agg[key_col],
            "n": agg["n"].astype("int64"),
            "skewness": _r6(skew),
            "ex_kurtosis": _r6(kurt),
        }
    )
    return out.sort_values(key_col).reset_index(drop=True)


def entropy_rate(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    type_col: str,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Conditional next-event entropy per current event type — how
    predictable each state's successor is in the per-key Markov chain
    (``H(next | cur=t)`` in bits): the sequence-predictability /
    behavioral-entropy profile.  Beyond-reference operator.

    Rides :func:`windows.transition_counts`'s single co-location
    exchange; the closing entropy sum runs driver-side on the |types|²
    transition table (dimension-bounded, the markov_stationary
    contract).  Probabilities are exact-integer-count ratios, so both
    engines feed identical doubles into log2 and the 6-dp round is safe.

    Returns ``(from_type, n_transitions, h_bits)`` sorted by from_type.
    """
    from .windows import transition_counts

    tc = transition_counts(
        ds, key_col, order_cols, type_col, num_buckets=num_buckets
    ).to_pandas()
    if tc.empty:
        return pd.DataFrame(
            {
                "from_type": pd.Series([], dtype="object"),
                "n_transitions": pd.Series([], dtype="int64"),
                "h_bits": pd.Series([], dtype="float64"),
            }
        )
    tot = tc.groupby("from_type")["n"].transform("sum")
    p = tc["n"].to_numpy(dtype=np.float64) / tot.to_numpy(dtype=np.float64)
    term = pd.Series(-p * np.log2(p), index=tc.index)
    h = term.groupby(tc["from_type"]).sum()
    nt = tc.groupby("from_type")["n"].sum()
    hv = h.to_numpy()
    hv = np.sign(hv) * np.floor(np.abs(hv) * 1e6 + 0.5) / 1e6
    out = pd.DataFrame(
        {
            "from_type": h.index.to_numpy(),
            "n_transitions": nt.to_numpy(dtype=np.int64),
            "h_bits": hv,
        }
    )
    return out.sort_values("from_type").reset_index(drop=True)


def series_corr(
    ds: rd.Dataset,
    ts_col: str,
    type_col: str,
    type_a: str,
    type_b: str,
    freq: str = "h",
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Pearson cross-correlation between two event types' gap-FILLED
    period count series — "do clicks and views move together hour by
    hour?" (the co-movement / leading-indicator check).  Zero periods
    count: both series are materialized over the global [min, max]
    period range of the two types (a missing hour is a 0 on both).

    Rides :func:`windows.resample_counts` (one skinny grouped_reduce
    exchange; the fill grid is time-range-bounded, not data-bounded).
    All sufficient statistics are INTEGER sums of counts, so the closing
    ``r`` is computed from bit-identical exact inputs on both engines —
    hash-exact without rounding slack.

    Returns one row: ``(n_periods, sum_a, sum_b, r)``; r is NULL when
    either series is constant.
    """
    from .windows import resample_counts

    pair = ds.map_batches(
        lambda b: b[b[type_col].isin([type_a, type_b])],
        batch_format="pandas",
    )
    grid = resample_counts(pair, ts_col, type_col, freq=freq,
                           num_buckets=num_buckets)
    wide = grid.pivot(index="period", columns=type_col, values="n")
    for t in (type_a, type_b):
        if t not in wide.columns:
            wide[t] = 0
    a = wide[type_a].fillna(0).to_numpy(dtype=np.int64)
    b = wide[type_b].fillna(0).to_numpy(dtype=np.int64)
    n = int(len(wide))
    sa, sb = int(a.sum()), int(b.sum())
    saa = int((a * a).sum())
    sbb = int((b * b).sum())
    sab = int((a * b).sum())
    num = n * sab - sa * sb
    va = n * saa - sa * sa
    vb = n * sbb - sb * sb
    r = float(num) / float(np.sqrt(float(va) * float(vb))) if va > 0 and vb > 0 else np.nan
    if not np.isnan(r):
        r = float(np.sign(r) * np.floor(abs(r) * 1e6 + 0.5) / 1e6)
    return pd.DataFrame(
        {
            "n_periods": pd.Series([n], dtype="int64"),
            "sum_a": pd.Series([sa], dtype="int64"),
            "sum_b": pd.Series([sb], dtype="int64"),
            "r": pd.Series([r], dtype="float64"),
        }
    )


def pairwise_corr(
    ds: rd.Dataset,
    cols: list[str],
) -> pd.DataFrame:
    """Pearson correlation MATRIX over ``d`` numeric columns in ONE
    map-only pass — the multi-column profiling sweep (one scan answers
    every pairwise "are these related", instead of d²/2 separate corr
    queries): each batch emits a single flat moment row (n, Σxᵢ, Σxᵢxⱼ
    for i ≤ j); the driver sums blocks×(1+d+d(d+1)/2) partial rows and
    finishes the raw-sum algebra per pair.  Nothing shuffles.

    ``r = (nΣxy − ΣxΣy) / sqrt((nΣxx − Σx²)(nΣyy − Σy²))``, NULL when
    either side is constant; rounded half-away 6 dp (the SQL oracle
    mirrors the identical algebra, so both engines agree to ~1e-10).

    Returns one row per unordered pair (i < j in ``cols`` order):
    ``(col_a, col_b, n, r)``.
    """
    d = len(cols)
    if d < 2:
        raise ValueError("need at least two columns")
    pairs = [(i, j) for i in range(d) for j in range(i, d)]

    def partial(b: pd.DataFrame) -> pa.Table:
        x = b[cols].to_numpy(dtype=np.float64)
        out = {"n": pa.array([float(len(b))], pa.float64())}
        s = x.sum(axis=0)
        for i, c in enumerate(cols):
            out[f"s_{i}"] = pa.array([s[i]], pa.float64())
        for i, j in pairs:
            out[f"p_{i}_{j}"] = pa.array(
                [float((x[:, i] * x[:, j]).sum())], pa.float64()
            )
        return pa.table(out)

    p = ds.map_batches(partial, batch_format="pandas").to_pandas().sum()
    n = float(p["n"])
    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            num = n * p[f"p_{i}_{j}"] - p[f"s_{i}"] * p[f"s_{j}"]
            vx = n * p[f"p_{i}_{i}"] - p[f"s_{i}"] ** 2
            vy = n * p[f"p_{j}_{j}"] - p[f"s_{j}"] ** 2
            if vx > 0 and vy > 0:
                r = num / np.sqrt(vx * vy)
                r = float(np.sign(r) * np.floor(abs(r) * 1e6 + 0.5) / 1e6)
            else:
                r = np.nan
            rows.append((cols[i], cols[j], int(n), r))
    return pd.DataFrame(rows, columns=["col_a", "col_b", "n", "r"])


def roc_auc(
    ds: rd.Dataset,
    label_col: str,
    score_col: str,
    num_buckets: int = 64,
) -> dict:
    """Exact ROC-AUC via the rank-sum identity — the classifier-eval
    scalar completing the lift-curve (:mod:`datapipe` ntile) and
    Mann–Whitney entries: ``AUC = U / (n_pos·n_neg)`` where U counts
    positive-over-negative score pairs with ties at ½ (Hanley & McNeil
    1982).  Like :func:`mann_whitney_u`, tie-average ranks are a pure
    function of the pooled SCORE HISTOGRAM, so one skinny
    ``grouped_reduce`` exchange over distinct (label, score) pairs
    replaces any row-level ranking or O(n_pos·n_neg) pair scan.

    ``label_col`` must be 0/1 integers.  Rank sums are exact multiples
    of ½, so ``u2 = 2·U`` is an exact int64 that matches SQL's window
    formulation bit-for-bit — oracle on (n_pos, n_neg, u2); the float
    ``auc`` quotient is a convenience output."""
    from .agg import grouped_reduce

    def stack(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "__y": pa.array(
                    b[label_col].to_numpy(dtype=np.int64).clip(0, 1), pa.int8()
                ),
                "__s": pa.array(
                    b[score_col].to_numpy(dtype=np.float64), pa.float64()
                ),
            }
        )

    hist = (
        grouped_reduce(
            ds.map_batches(stack, batch_format="pandas"),
            ["__y", "__s"],
            {"__n": (None, "count")},
            num_buckets=num_buckets,
        )
        .to_pandas()
        .pivot_table(index="__s", columns="__y", values="__n", fill_value=0)
        .reindex(columns=[0, 1], fill_value=0)
        .sort_index()
    )
    npos_v = hist[1].to_numpy(dtype=np.float64)
    nneg_v = hist[0].to_numpy(dtype=np.float64)
    t = npos_v + nneg_v
    below = np.concatenate([[0.0], np.cumsum(t)[:-1]])
    avg_rank = below + (t + 1.0) / 2.0  # exact multiples of 1/2 to 2^52
    n_pos = float(npos_v.sum())
    n_neg = float(nneg_v.sum())
    r_pos = float((avg_rank * npos_v).sum())
    u = r_pos - n_pos * (n_pos + 1.0) / 2.0
    auc = u / (n_pos * n_neg) if n_pos > 0 and n_neg > 0 else float("nan")
    return {
        "n_pos": int(n_pos),
        "n_neg": int(n_neg),
        "u2": int(round(2.0 * u)),
        "auc": auc,
    }


def calibration_bins(
    scored: rd.Dataset,
    score_col: str,
    label_col: str,
    id_col: str,
    k: int = 10,
) -> pd.DataFrame:
    """Reliability-diagram bins for a probabilistic scorer: NTILE(k)
    over the (score, id) global order, then per-bin count, positive
    count, mean predicted score and observed positive rate — the
    calibration table ECE/Brier diagnostics read off.

    Exactness contract: scores must sit on a 1e-6 lattice (round
    upstream); they are summed as INTEGER micro-units so per-bin sums
    are order-independent, and the two output rates are each ONE double
    division of exact integers — bit-identical to a SQL NTILE mirror.
    Shape: the ntile tile is closed-form from range-partitioned
    global_rank (no single-node sort); one grouped_reduce collapses to
    k rows.  Output ``(tile, n, pos, sum_score_u, mean_score,
    pos_rate)`` sorted by tile.
    """
    from .agg import grouped_reduce
    from .datapipe import ntile

    def to_units(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        s = b[score_col].to_numpy(dtype=np.float64)
        b["__cal_u"] = np.round(s * 1e6).astype(np.int64)
        return b

    tiled = ntile(scored, [score_col], id_col, k=k).map_batches(
        to_units, batch_format="pandas"
    )
    out = grouped_reduce(
        tiled,
        ["tile"],
        {
            "n": (None, "count"),
            "pos": (label_col, "sum"),
            "sum_score_u": ("__cal_u", "sum"),
        },
    ).to_pandas()
    for c in ("tile", "n", "pos", "sum_score_u"):
        out[c] = out[c].astype("int64")
    out["mean_score"] = out["sum_score_u"].to_numpy(np.float64) / (
        1e6 * out["n"].to_numpy(np.float64)
    )
    out["pos_rate"] = out["pos"].to_numpy(np.float64) / out["n"].to_numpy(
        np.float64
    )
    return out.sort_values("tile").reset_index(drop=True)


def group_ablation(
    scored: rd.Dataset,
    group_col: str,
    score_col: str,
    scale: float = 1e6,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Leave-one-group-out contribution analysis — the data-valuation
    primitive for corpus mixing: for every group (source, domain,
    shard), how would the global mean score move if the group were
    removed?

        loo_mean = (S - s_g) / (scale * (N - n_g))
        delta    = loo_mean - global_mean

    Scores must sit on a ``1/scale`` lattice (round upstream); they are
    summed as integer units so every sum is order-independent, and each
    output rate is a single double division — bit-identical to a SQL
    mirror evaluating the same expressions.  ONE grouped_reduce
    exchange; driver math is group-count-bounded.  Output ``(group, n,
    sum_u, mean_score, loo_mean, delta)`` sorted by group (groups
    covering the whole corpus get NULL loo/delta).
    """
    from .agg import grouped_reduce

    def to_units(b: pd.DataFrame) -> pd.DataFrame:
        s = b[score_col].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                group_col: b[group_col],
                "__ab_u": np.round(s * scale).astype(np.int64),
            }
        )

    agg = grouped_reduce(
        scored.map_batches(to_units, batch_format="pandas"),
        [group_col],
        {"n": (None, "count"), "sum_u": ("__ab_u", "sum")},
        num_buckets=num_buckets,
    ).to_pandas()
    agg["n"] = agg["n"].astype("int64")
    agg["sum_u"] = agg["sum_u"].astype("int64")
    N = int(agg["n"].sum())
    S = int(agg["sum_u"].sum())
    gmean = S / (scale * N)
    n = agg["n"].to_numpy(dtype=np.float64)
    su = agg["sum_u"].to_numpy(dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        loo = (S - su) / (scale * (N - n))
    loo = np.where(n < N, loo, np.nan)
    agg["mean_score"] = su / (scale * n)
    agg["loo_mean"] = loo
    agg["delta"] = loo - gmean
    return agg.sort_values(group_col).reset_index(drop=True)


def cuped_adjusted(
    ds: rd.Dataset,
    user_col: str,
    ts_col: str,
    val_col: str,
    split_ts: str,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """CUPED variance-reduced experiment readout (Deng et al. 2013):
    per user, the pre-period metric ``x`` (value sum before
    ``split_ts``) and the experiment metric ``y`` (sum at/after);
    cohort = ``user % 2``; the adjusted cohort mean is::

        theta      = (n*Sxy - Sx*Sy) / (n*Sxx - Sx*Sx)      (pooled)
        mean_adj_c = Sy_c/(100*n_c) - theta*(Sx_c/(100*n_c) - Sx/(100*n))

    Exactness: values ride the cent lattice, so every sufficient
    statistic is an exact integer — summed as int64 per batch and as
    PYTHON ints on the driver (n*Sxy overflows int64 at sf0.1; the SQL
    mirror uses HUGEINT) — and the float expressions above are
    evaluated in exactly the SQL association order.  Shape: one
    grouped_reduce to the per-user (x, y) table, one map pass of
    per-batch moment partials, driver math.  Output one row per
    cohort: ``(cohort, n_users, sum_x_cents, sum_y_cents, mean_y,
    mean_adj)``.
    """
    from .agg import grouped_reduce

    cut = pd.Timestamp(split_ts)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b[val_col].to_numpy(dtype=np.float64) * 100.0).astype(
            np.int64
        )
        pre = (b[ts_col] < cut).to_numpy()
        return pd.DataFrame(
            {
                user_col: b[user_col],
                "x": np.where(pre, cents, 0),
                "y": np.where(pre, 0, cents),
            }
        )

    users = grouped_reduce(
        ds.map_batches(tag, batch_format="pandas"),
        [user_col],
        {"x": ("x", "sum"), "y": ("y", "sum")},
        num_buckets=num_buckets,
    ).materialize()

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        x = b["x"].to_numpy(dtype=np.int64)
        y = b["y"].to_numpy(dtype=np.int64)
        c = (b[user_col].to_numpy(dtype=np.int64) % 2).astype(np.int64)
        rows = [
            {
                "cohort": -1, "n": len(b), "sx": int(x.sum()),
                "sy": int(y.sum()), "sxx": int((x * x).sum()),
                "sxy": int((x * y).sum()),
            }
        ]
        for co in (0, 1):
            m = c == co
            rows.append(
                {
                    "cohort": co, "n": int(m.sum()), "sx": int(x[m].sum()),
                    "sy": int(y[m].sum()), "sxx": 0, "sxy": 0,
                }
            )
        return pd.DataFrame(rows)

    parts = users.map_batches(moments, batch_format="pandas").to_pandas()
    g = parts[parts["cohort"] == -1]
    n = int(g["n"].sum())
    Sx = int(g["sx"].sum())
    Sy = int(g["sy"].sum())
    Sxx = int(g["sxx"].sum())
    Sxy = int(g["sxy"].sum())
    num = n * Sxy - Sx * Sy  # Python ints: no overflow
    den = n * Sxx - Sx * Sx
    theta = float(num) / float(den) if den != 0 else 0.0
    gxbar = Sx / (100.0 * n)

    out = []
    for co in (0, 1):
        p = parts[parts["cohort"] == co]
        n_c = int(p["n"].sum())
        sx_c = int(p["sx"].sum())
        sy_c = int(p["sy"].sum())
        mean_y = sy_c / (100.0 * n_c)
        mean_adj = mean_y - theta * (sx_c / (100.0 * n_c) - gxbar)
        out.append(
            {
                "cohort": co, "n_users": n_c, "sum_x_cents": sx_c,
                "sum_y_cents": sy_c, "mean_y": mean_y, "mean_adj": mean_adj,
            }
        )
    df = pd.DataFrame(out)
    for c in ("cohort", "n_users", "sum_x_cents", "sum_y_cents"):
        df[c] = df[c].astype("int64")
    return df


def roc_points(
    scored: rd.Dataset,
    label_col: str,
    score_col: str,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """The full ROC curve (one point per distinct score threshold,
    descending): cumulative TP/FP counts and the two rates — the
    curve behind :func:`roc_auc` when the shape, not just the area,
    matters (operating-point selection).

    Counts-engine: ONE grouped_reduce collapses to the distinct-score
    histogram ``(score, n, n_pos)`` (driver-bounded by distinct
    scores — round upstream); the cumulation is driver-side.  Rates
    are single double divisions of exact ints.  Output ``(thr, tp,
    fp, tpr, fpr)`` for thresholds "predict positive when score >=
    thr", sorted by thr descending.
    """
    from .agg import grouped_reduce

    hist = grouped_reduce(
        scored.select_columns([score_col, label_col]),
        [score_col],
        {"n": (None, "count"), "pos": (label_col, "sum")},
        num_buckets=num_buckets,
    ).to_pandas()
    hist = hist.sort_values(score_col, ascending=False).reset_index(drop=True)
    hist["n"] = hist["n"].astype("int64")
    hist["pos"] = hist["pos"].astype("int64")
    P = int(hist["pos"].sum())
    N = int(hist["n"].sum()) - P
    tp = hist["pos"].cumsum().to_numpy(dtype=np.int64)
    fp = (hist["n"] - hist["pos"]).cumsum().to_numpy(dtype=np.int64)
    return pd.DataFrame(
        {
            "thr": hist[score_col].to_numpy(dtype=np.float64),
            "tp": tp,
            "fp": fp,
            "tpr": tp.astype(np.float64) / float(P) if P else np.nan,
            "fpr": fp.astype(np.float64) / float(N) if N else np.nan,
        }
    )


def bootstrap_mean_ci(
    ds: rd.Dataset,
    val_col: str,
    id_col: str,
    n_boot: int = 200,
    alpha: float = 0.05,
) -> dict:
    """Poisson-bootstrap confidence interval for the mean — the
    one-pass, at-scale bootstrap (each replicate resamples every row
    with multiplicity ~ Poisson(1), approximating multinomial
    resampling; Chamandy et al.): ALL ``n_boot`` replicate sums
    accumulate in a single map pass, so the data is read once
    regardless of replicate count.

    Determinism: multiplicities come from splitmix64(id * n_boot + b)
    inverted through the Poisson(1) CDF — independent of block layout,
    so the interval is reproducible across partitionings (pinned in
    pytest).  Values ride the cent lattice (exact int64 replicate
    sums).  Returns ``{n, mean, lo, hi, n_boot}`` with the interval as
    the alpha/2 element quantiles of the replicate means.
    """
    B = int(n_boot)
    # Poisson(1) CDF, enough mass through k=12 (1 - 6e-13)
    pmf = np.ones(13, dtype=np.float64)
    for k in range(1, 13):
        pmf[k] = pmf[k - 1] / k
    pmf /= np.e
    cdf = np.cumsum(pmf)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy(dtype=np.int64).astype(np.uint64)
        cents = np.round(b[val_col].to_numpy(dtype=np.float64) * 100.0).astype(
            np.int64
        )
        reps = np.zeros(B, dtype=np.int64)
        cnts = np.zeros(B, dtype=np.int64)
        z = (ids[:, None] * np.uint64(B)) + np.arange(B, dtype=np.uint64)[None, :]
        # splitmix64 finalizer, vectorized over the (rows x B) grid
        z = (z + np.uint64(0x9E3779B97F4A7C15))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        u = z.astype(np.float64) / float(2**64)
        mult = np.searchsorted(cdf, u, side="right").astype(np.int64)
        reps = (mult * cents[:, None]).sum(axis=0)
        cnts = mult.sum(axis=0)
        return pd.DataFrame(
            {"b": np.arange(B, dtype=np.int64), "s": reps, "c": cnts,
             "n": len(b), "tot": int(cents.sum())}
        )

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby("b", sort=True).agg(
        s=("s", "sum"), c=("c", "sum")
    )
    n = int(parts.groupby("b")["n"].sum().iloc[0]) if len(parts) else 0
    tot = int(parts.groupby("b")["tot"].sum().iloc[0]) if len(parts) else 0
    means = agg["s"].to_numpy(dtype=np.float64) / (
        100.0 * np.maximum(agg["c"].to_numpy(dtype=np.float64), 1.0)
    )
    means.sort()
    lo_i = int(np.floor(alpha / 2 * (B - 1)))
    hi_i = int(np.ceil((1 - alpha / 2) * (B - 1)))
    return {
        "n": n,
        "mean": tot / (100.0 * n) if n else float("nan"),
        "lo": float(means[lo_i]),
        "hi": float(means[hi_i]),
        "n_boot": B,
    }


def mix_shift(
    ds: rd.Dataset,
    segment_col: str,
    period_col: str,
    val_col: str,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Mix-shift decomposition of a period-over-period mean change —
    the analytics answer to "did the average move because segments
    changed behavior (RATE) or because the traffic mix moved
    (MIX)?"::

        mean_p     = Σ_s share_p(s) * rate_p(s)
        mix_effect(s)  = (share_new - share_old) * rate_old
        rate_effect(s) = share_new * (rate_new - rate_old)

    (sums of the two effect columns reproduce the total mean change
    exactly).  ``period_col`` must be 0 (old) / 1 (new).  Values ride
    the cent lattice: every count/sum is an exact integer and every
    output float is evaluated in exactly the SQL association order.
    ONE grouped_reduce exchange; driver math is segment-bounded.
    Output one row per segment present in both periods, sorted.
    """
    from .agg import grouped_reduce

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                segment_col: b[segment_col],
                period_col: b[period_col].astype("int64"),
                "__ms_c": np.round(
                    b[val_col].to_numpy(dtype=np.float64) * 100.0
                ).astype(np.int64),
            }
        )

    agg = grouped_reduce(
        ds.map_batches(tag, batch_format="pandas"),
        [segment_col, period_col],
        {"n": (None, "count"), "cents": ("__ms_c", "sum")},
        num_buckets=num_buckets,
    ).to_pandas()
    agg["n"] = agg["n"].astype("int64")
    agg["cents"] = agg["cents"].astype("int64")
    tot = agg.groupby(period_col)["n"].sum()
    if 0 not in tot.index or 1 not in tot.index:
        return pd.DataFrame(
            columns=[segment_col, "n_old", "n_new", "cents_old", "cents_new",
                     "share_old", "share_new", "rate_old", "rate_new",
                     "mix_effect", "rate_effect"]
        )
    n0, n1 = float(tot.loc[0]), float(tot.loc[1])
    wide = agg.pivot_table(index=segment_col, columns=period_col,
                           values=["n", "cents"], aggfunc="first")
    wide = wide.dropna()  # segments present in both periods only
    out = pd.DataFrame(index=wide.index)
    out["n_old"] = wide[("n", 0)].astype("int64")
    out["n_new"] = wide[("n", 1)].astype("int64")
    out["cents_old"] = wide[("cents", 0)].astype("int64")
    out["cents_new"] = wide[("cents", 1)].astype("int64")
    so = out["n_old"].to_numpy(np.float64) / n0
    sn = out["n_new"].to_numpy(np.float64) / n1
    ro = out["cents_old"].to_numpy(np.float64) / (
        100.0 * out["n_old"].to_numpy(np.float64))
    rn_ = out["cents_new"].to_numpy(np.float64) / (
        100.0 * out["n_new"].to_numpy(np.float64))
    out["share_old"] = so
    out["share_new"] = sn
    out["rate_old"] = ro
    out["rate_new"] = rn_
    out["mix_effect"] = (sn - so) * ro
    out["rate_effect"] = sn * (rn_ - ro)
    return out.reset_index().sort_values(segment_col).reset_index(drop=True)


def isotonic_calibration(
    bins: pd.DataFrame,
    n_col: str = "n",
    pos_col: str = "pos",
    tile_col: str = "tile",
) -> pd.DataFrame:
    """Pool-adjacent-violators (PAVA) over a calibration-bin table —
    the monotone recalibration step after :func:`calibration_bins`:
    per-bin positive rates are pooled (count-weighted) wherever they
    decrease, yielding the least-squares monotone fit.  Driver math
    over k bins (bin-count-bounded by construction); deterministic
    rational pooling.  Output adds ``iso_rate`` to the input rows
    (sorted by tile).
    """
    b = bins.sort_values(tile_col).reset_index(drop=True)
    # blocks as (pos_sum, n_sum) — rates compared as cross products so
    # the pooling decisions are EXACT integer comparisons, no floats
    blocks: list[list[int]] = []  # [pos, n, count_of_bins]
    for p, n in zip(b[pos_col].astype(int), b[n_col].astype(int)):
        blocks.append([p, n, 1])
        while len(blocks) > 1 and (
            blocks[-2][0] * blocks[-1][1] > blocks[-1][0] * blocks[-2][1]
        ):
            p2, n2, c2 = blocks.pop()
            blocks[-1][0] += p2
            blocks[-1][1] += n2
            blocks[-1][2] += c2
    iso = np.concatenate(
        [np.full(c, p / n if n else np.nan) for p, n, c in blocks]
    )
    out = b.copy()
    out["iso_rate"] = iso
    return out


def capture_recapture(
    ds: rd.Dataset,
    id_col: str,
    pct: int = 20,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Lincoln–Petersen distinct-population estimate from two
    INDEPENDENT deterministic hash captures — distinct counting with
    two cheap membership passes instead of a distinct exchange or an
    HLL: sample A = ids with Knuth-hash bucket < pct, sample B = same
    with a second multiplier; ``N_hat = n1 * n2 / m`` (m = ids in
    both).  Chapman's bias-corrected variant is also returned.  Both
    hashes are pure integer arithmetic (SQL-reproducible, the
    id_hash_bucket contract).  One grouped_reduce over DISTINCT ids of
    the union (the captures are tiny at small pct).  Output one row:
    ``(n1, n2, m, est_lp, est_chapman)``."""
    from .agg import bucketed_distinct

    MULT2 = 2246822519  # second odd Knuth-style multiplier
    MOD = 4294967296

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy(dtype=np.int64).astype(np.uint64)
        b1 = ((ids * np.uint64(2654435761)) % np.uint64(MOD)) % np.uint64(100)
        b2 = ((ids * np.uint64(MULT2)) % np.uint64(MOD)) % np.uint64(100)
        in1 = b1 < pct
        in2 = b2 < pct
        keep = in1 | in2
        return pd.DataFrame(
            {
                id_col: b[id_col][keep],
                "in1": in1[keep].astype("int64"),
                "in2": in2[keep].astype("int64"),
            }
        )

    cap = bucketed_distinct(
        ds.map_batches(tag, batch_format="pandas"), [id_col],
        num_buckets=num_buckets,
    ).to_pandas()
    n1 = int(cap["in1"].sum())
    n2 = int(cap["in2"].sum())
    m = int((cap["in1"] & cap["in2"]).sum())
    est_lp = (n1 * n2 / m) if m else float("nan")
    est_ch = (n1 + 1) * (n2 + 1) / (m + 1) - 1
    return pd.DataFrame(
        [{"n1": n1, "n2": n2, "m": m, "est_lp": est_lp,
          "est_chapman": est_ch}]
    )


def simpson_check(
    ds: rd.Dataset,
    segment_col: str,
    x_col: str,
    y_col: str,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Simpson's-paradox detector: for every segment, does the OLS
    slope of y on x point the OPPOSITE way from the pooled slope?  The
    aggregation-reversal audit run before trusting any pooled trend.

    Sign-exact by construction: with x integral and y on the cent
    lattice, each slope's NUMERATOR ``n*Sxy - Sx*Sy`` is an exact
    integer (the denominator is positive), so the sign comparison has
    no float in it — per-segment numerators fit int64; the pooled
    numerator is Python-int driver math (HUGEINT in the SQL mirror).
    One grouped_reduce of sufficient statistics.  Output per segment:
    ``(segment, n, slope_num, sign_seg, sign_pooled, flip)``.
    """
    from .agg import grouped_reduce

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        x = b[x_col].to_numpy(dtype=np.float64).astype(np.int64)
        y = np.round(b[y_col].to_numpy(dtype=np.float64) * 100.0).astype(
            np.int64
        )
        return pd.DataFrame(
            {
                segment_col: b[segment_col],
                "x": x, "y": y, "xy": x * y, "xx": x * x,
            }
        )

    agg = grouped_reduce(
        ds.map_batches(tag, batch_format="pandas"),
        [segment_col],
        {"n": (None, "count"), "sx": ("x", "sum"), "sy": ("y", "sum"),
         "sxy": ("xy", "sum"), "sxx": ("xx", "sum")},
        num_buckets=num_buckets,
    ).to_pandas()
    for c in ("n", "sx", "sy", "sxy", "sxx"):
        agg[c] = agg[c].astype("int64")
    num_seg = (
        agg["n"].to_numpy() * agg["sxy"].to_numpy()
        - agg["sx"].to_numpy() * agg["sy"].to_numpy()
    )
    N = int(agg["n"].sum())
    pooled_num = N * int(agg["sxy"].sum()) - int(agg["sx"].sum()) * int(
        agg["sy"].sum()
    )
    sgn_p = int(np.sign(pooled_num))
    out = pd.DataFrame(
        {
            segment_col: agg[segment_col],
            "n": agg["n"],
            "slope_num": num_seg.astype(np.int64),
            "sign_seg": np.sign(num_seg).astype(np.int64),
            "sign_pooled": np.full(len(agg), sgn_p, dtype=np.int64),
        }
    )
    out["flip"] = (
        (out["sign_seg"] != 0) & (out["sign_seg"] != sgn_p)
    ).astype("int64")
    return out.sort_values(segment_col).reset_index(drop=True)


def _conformal_residuals(
    batch: pa.Table,
    group_col: str,
    id_col: str,
    val_col: str,
    mean_pred: dict,
    num_buckets: int,
) -> pa.Table:
    """Calibration rows (odd ids) of one block with a fitted group:
    ``(group, resid, rid, __cf_bkt)``, the group typed as in ``batch``
    even when no row survives (a block of even ids alone)."""
    schema = pa.schema([
        (group_col, batch.schema.field(group_col).type),
        ("resid", pa.float64()),
        ("rid", pa.int64()),
        ("__cf_bkt", pa.int64()),
    ])
    b = batch.to_pandas()
    b = b[(b[id_col].to_numpy(dtype=np.int64) % 2) == 1]
    m = b[group_col].map(mean_pred)
    keep = m.notna().to_numpy()
    b = b[keep]
    out = pd.DataFrame(
        {
            group_col: b[group_col],
            "resid": np.abs(
                b[val_col].to_numpy(dtype=np.float64)
                - m[keep].to_numpy(dtype=np.float64)
            ),
            "rid": b[id_col].to_numpy(dtype=np.int64),
        }
    )
    out["__cf_bkt"] = (
        pd.util.hash_pandas_object(out[group_col], index=False).to_numpy()
        % np.uint64(num_buckets)
    ).astype(np.int64)
    return pa.Table.from_pandas(out, schema=schema, preserve_index=False)


def conformal_intervals(
    ds: rd.Dataset,
    group_col: str,
    id_col: str,
    val_col: str,
    alpha: float = 0.1,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Split-conformal prediction intervals per group (Vovk; the
    distribution-free coverage guarantee): the TRAIN split (even ids)
    fits the trivial per-group mean predictor, the CALIBRATION split
    (odd ids) ranks absolute residuals, and the interval half-width is
    the ``ceil((n_cal + 1) * (1 - alpha))``-th smallest residual — an
    ELEMENT of the residual multiset (ties broken by id), so the SQL
    mirror selects the identical ranked row, bit-exact.

    Guarantee: P(|y - mean| <= qhat) >= 1 - alpha on exchangeable new
    rows, regardless of the value distribution.  One grouped_reduce
    for the means + one hash(group) co-location for the ranked
    residual selection.  Output ``(group, n_train, n_cal, mean_pred,
    qhat)``."""
    from .agg import grouped_reduce

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b[val_col].to_numpy(dtype=np.float64) * 100.0).astype(
            np.int64
        )
        even = (b[id_col].to_numpy(dtype=np.int64) % 2) == 0
        return pd.DataFrame(
            {
                group_col: b[group_col],
                "tr_n": even.astype(np.int64),
                "tr_c": np.where(even, cents, 0),
            }
        )

    means = grouped_reduce(
        ds.map_batches(tag, batch_format="pandas"),
        [group_col],
        {"n_train": ("tr_n", "sum"), "sum_c": ("tr_c", "sum")},
        num_buckets=num_buckets,
    ).to_pandas()
    means["n_train"] = means["n_train"].astype("int64")
    means["sum_c"] = means["sum_c"].astype("int64")
    mean_pred = {
        g: sc / (100.0 * n)
        for g, sc, n in zip(means[group_col], means["sum_c"],
                            means["n_train"])
        if n > 0
    }
    def pick(g: pd.DataFrame) -> pa.Table:
        g = (
            g.drop(columns="__cf_bkt")
            .sort_values([group_col, "resid", "rid"], kind="mergesort")
            .reset_index(drop=True)
        )
        gb = g.groupby(group_col, sort=False)
        n = gb["resid"].transform("size").to_numpy(dtype=np.int64)
        rank = gb.cumcount().to_numpy(dtype=np.int64) + 1
        k = np.ceil((n + 1) * (1.0 - alpha)).astype(np.int64)
        k = np.minimum(k, n)  # tiny groups: fall back to the max residual
        hit = rank == k
        sel = g[hit]
        return pa.table(
            {
                group_col: pa.array(sel[group_col].tolist()),
                "n_cal": pa.array(n[hit], pa.int64()),
                "qhat": pa.array(
                    sel["resid"].to_numpy(dtype=np.float64), pa.float64()),
            }
        )

    picked = (
        ds.map_batches(
            _conformal_residuals, batch_format="pyarrow",
            fn_args=(group_col, id_col, val_col, mean_pred, num_buckets),
        )
        .groupby("__cf_bkt")
        .map_groups(pick, batch_format="pandas")
        .to_pandas()
    )
    out = means.merge(picked, on=group_col, how="inner")
    out["mean_pred"] = out[group_col].map(mean_pred).astype("float64")
    out["n_cal"] = out["n_cal"].astype("int64")
    out = out.drop(columns=["sum_c"])
    return out.sort_values(group_col).reset_index(drop=True)


def markov_removal_attribution(
    ds: rd.Dataset,
    key_col: str,
    order_cols: list[str],
    type_col: str,
    conversion: str,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Markov removal-effect attribution (Anderl et al.) — the
    data-driven completion of the last-touch/linear family: build the
    first-order journey chain (START -> types -> CONV/NULL absorbing
    states, one transition row per consecutive pair, journeys end at
    the first ``conversion`` event or at history end), then score each
    channel by how much the chain's conversion probability drops when
    the channel is removed (its transitions redirect to NULL)::

        removal_effect(c) = 1 - P_conv(without c) / P_conv(full)

    Transition counts ride ONE hash(key) exchange + one skinny count
    exchange (exact integers); absorption probabilities solve the
    |types|-sized linear system on the driver (the markov_stationary
    contract).  Output per channel: ``(channel, removal_effect,
    share)`` with shares normalized over positive effects.
    """
    from .agg import grouped_reduce

    nb = np.uint64(num_buckets)

    def tag(b: pd.DataFrame) -> pa.Table:
        import pyarrow as pa

        b = b[[key_col, *order_cols, type_col]].copy()
        b["__ma_bkt"] = (
            pd.util.hash_pandas_object(b[key_col], index=False).to_numpy() % nb
        ).astype(np.int64)
        return pa.Table.from_pandas(b, preserve_index=False)

    def transitions(g: pd.DataFrame) -> pa.Table:
        import pyarrow as pa

        g = (
            g.drop(columns="__ma_bkt")
            .sort_values([key_col] + order_cols, kind="mergesort")
            .reset_index(drop=True)
        )
        frames = []
        for _, sub in g.groupby(key_col, sort=False):
            ts = sub[type_col].tolist()
            # truncate at first conversion; journey = START..absorb
            if conversion in ts:
                cut = ts.index(conversion)
                path = ["__START__"] + ts[:cut] + ["__CONV__"]
            else:
                path = ["__START__"] + ts + ["__NULL__"]
            frames.append(pd.DataFrame(
                {"src": path[:-1], "dst": path[1:]}
            ))
        t = pd.concat(frames, ignore_index=True) if frames else \
            pd.DataFrame({"src": [], "dst": []})
        c = t.groupby(["src", "dst"], sort=False).size().rename(
            "n").reset_index()
        return pa.table(
            {
                "src": pa.array(c["src"].tolist(), pa.string()),
                "dst": pa.array(c["dst"].tolist(), pa.string()),
                "n": pa.array(c["n"].to_numpy(dtype=np.int64)
                              if len(c) else np.empty(0, np.int64),
                              pa.int64()),
            }
        )

    counts = grouped_reduce(
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__ma_bkt")
        .map_groups(transitions, batch_format="pandas"),
        ["src", "dst"],
        {"n": ("n", "sum")},
        num_buckets=num_buckets,
    ).to_pandas()
    counts["n"] = counts["n"].astype("int64")

    states = sorted(
        set(counts["src"]) | set(counts["dst"])
        - {"__CONV__", "__NULL__"}
    )
    trans = {s: {} for s in states}
    for s, d, n in zip(counts["src"], counts["dst"], counts["n"]):
        if s in trans:
            trans[s][d] = trans[s].get(d, 0) + int(n)

    def p_conv(removed: str | None) -> float:
        # absorption probability into CONV from START; removing a
        # channel redirects its transitions to NULL
        live = [s for s in states if s != removed]
        idx = {s: i for i, s in enumerate(live)}
        A = np.eye(len(live))
        b = np.zeros(len(live))
        for s in live:
            tot = float(sum(trans[s].values()))
            if tot == 0:
                continue
            for d, n in trans[s].items():
                p = n / tot
                if d == "__CONV__":
                    b[idx[s]] += p
                elif d in idx:  # removed channel's mass -> NULL
                    A[idx[s], idx[d]] -= p
        x = np.linalg.solve(A, b)
        return float(x[idx["__START__"]])

    base = p_conv(None)
    rows = []
    for ch in states:
        if ch == "__START__":
            continue
        eff = 1.0 - (p_conv(ch) / base if base > 0 else 0.0)
        rows.append({"channel": ch, "removal_effect": eff})
    out = pd.DataFrame(rows)
    pos = out["removal_effect"].clip(lower=0.0)
    tot = float(pos.sum())
    out["share"] = pos / tot if tot > 0 else np.nan
    return out.sort_values("channel").reset_index(drop=True)
