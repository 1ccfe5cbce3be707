"""Round-5 continuation wave: theilsen_by_key, weighted_median_by_key,
jaccard_links, seasonal_mase, fuzzy_pairs_1del."""

import os

import numpy as np
import pandas as pd
import pytest

import pyarrow as pa
import ray.data as rd


def _theilsen_ref(v: np.ndarray) -> tuple[int, float]:
    slopes = []
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            slopes.append((v[j] - v[i]) / (j - i))
    slopes.sort()
    return len(slopes), slopes[(len(slopes) - 1) // 2]


def test_theilsen_by_key_vs_pairwise(ray_session):
    from table_annotation_ray.stages.windows import theilsen_by_key

    rng = np.random.default_rng(11)
    frames = []
    expect = {}
    for k in range(8):
        n = int(rng.integers(2, 30))
        v = np.round(rng.normal(0, 5, n) + 0.7 * np.arange(n), 2)
        frames.append(pd.DataFrame({"k": k, "t": np.arange(n), "v": v}))
        expect[k] = _theilsen_ref(v)
    # a 1-row key must be dropped
    frames.append(pd.DataFrame({"k": [99], "t": [0], "v": [1.0]}))
    df = pd.concat(frames, ignore_index=True).sample(frac=1, random_state=0)
    out = (
        theilsen_by_key(rd.from_pandas(df).repartition(4), "k", ["t"], "v")
        .to_pandas()
        .set_index("k")
    )
    assert 99 not in out.index
    assert len(out) == 8
    for k, (n_pairs, med) in expect.items():
        assert out.loc[k, "n_pairs"] == n_pairs
        assert out.loc[k, "ts_slope"] == med  # element selection: bit-exact


def test_weighted_median_by_key_hand(ray_session):
    from table_annotation_ray.stages.quantiles import weighted_median_by_key

    # key a: values 1(w1), 2(w1), 3(w2): total 4, cum 1,2,4 -> first 2cum>=4 is v=2
    # key b: values 10(w3), 20(w1): total 4, cum 3 -> 2*3>=4 at v=10
    # key c: single value
    df = pd.DataFrame(
        {
            "k": ["a", "a", "a", "a", "b", "b", "c"],
            "v": [1.0, 2.0, 3.0, 3.0, 10.0, 20.0, 7.0],
            "w": [1.0, 1.0, 1.0, 1.0, 3.0, 1.0, 2.0],
        }
    )
    out = (
        weighted_median_by_key(rd.from_pandas(df).repartition(3), "k", "v", "w")
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    assert out.loc["a", "wmedian"] == 2.0 and out.loc["a", "total_weight"] == 4.0
    assert out.loc["b", "wmedian"] == 10.0 and out.loc["b", "total_weight"] == 4.0
    assert out.loc["c", "wmedian"] == 7.0 and out.loc["c", "total_weight"] == 2.0


def test_jaccard_links_small_graph(ray_session):
    from table_annotation_ray.stages.graph import jaccard_links

    # path 1-2, 2-3, 3-4, plus 1-5, 3-5: N(1)={2,5}, N(3)={2,4,5}
    edges = pd.DataFrame(
        {"src": [1, 2, 3, 1, 3], "dst": [2, 3, 4, 5, 5]}
    )
    out = (
        jaccard_links(rd.from_pandas(edges).repartition(2),
                      max_center_degree=64, min_common=2)
        .to_pandas()
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )
    # non-adjacent pairs with >=2 common neighbors:
    # (1,3) via {2,5}; (2,5) via {1,3} (N(2) == N(5))
    assert len(out) == 2
    r = out.iloc[0]
    assert (r["u"], r["v"], r["common"]) == (1, 3, 2)
    assert (r["deg_u"], r["deg_v"], r["union_size"]) == (2, 3, 3)
    assert r["jaccard"] == 2 / 3
    r2 = out.iloc[1]
    assert (r2["u"], r2["v"], r2["common"]) == (2, 5, 2)
    assert (r2["deg_u"], r2["deg_v"], r2["union_size"]) == (2, 2, 2)
    assert r2["jaccard"] == 1.0


def test_seasonal_mase_hand(ray_session):
    from table_annotation_ray.stages.windows import seasonal_mase

    # key x: hourly counts over 50 hours with period-24 structure:
    # 2 events in hours 0,24,48 and 1 event elsewhere -> compute by hand
    rows = []
    base = pd.Timestamp("2024-01-01 00:00:00")
    for h in range(50):
        n = 2 if h % 24 == 0 else 1
        for i in range(n):
            rows.append({"ts": base + pd.Timedelta(hours=h, minutes=i), "k": "x"})
    df = pd.DataFrame(rows)
    out = seasonal_mase(rd.from_pandas(df).repartition(2), "ts", "k", period=24)
    assert list(out.columns) == ["k", "n_periods", "sae_seasonal", "sae_naive", "mase"]
    y = np.where(np.arange(50) % 24 == 0, 2, 1)
    sae_s = int(np.abs(y[24:] - y[:-24]).sum())
    sae_n = int(np.abs(y[1:] - y[:-1]).sum())
    r = out.iloc[0]
    assert r["n_periods"] == 50
    assert r["sae_seasonal"] == sae_s and r["sae_naive"] == sae_n
    assert r["mase"] == (sae_s * 49) / (sae_n * 26)
    # constant series -> NULL mase
    df2 = pd.DataFrame(
        {"ts": [base + pd.Timedelta(hours=h) for h in range(30)], "k": "c"}
    )
    out2 = seasonal_mase(rd.from_pandas(df2), "ts", "k", period=24)
    assert out2.iloc[0]["sae_naive"] == 0 and np.isnan(out2.iloc[0]["mase"])


def test_lev1_mask_cases():
    from table_annotation_ray.stages.joins import _lev1_mask

    a = np.array(["abc", "abc", "abc", "abcd", "abc", "ab", "a", "abc"], object)
    b = np.array(["abd", "bca", "abcd", "abc", "ab", "abc", "", "xyz"], object)
    got = _lev1_mask(a, b)
    #      sub    d=2    ins    del    del   ins   del   d=3
    assert list(got) == [True, False, True, True, True, True, True, False]


def test_fuzzy_pairs_1del_vs_brute(ray_session):
    from table_annotation_ray.stages.joins import fuzzy_pairs_1del

    def lev(x, y):
        m, n = len(x), len(y)
        d = list(range(n + 1))
        for i in range(1, m + 1):
            prev, d[0] = d[0], i
            for j in range(1, n + 1):
                cur = d[j]
                d[j] = min(d[j] + 1, d[j - 1] + 1,
                           prev + (x[i - 1] != y[j - 1]))
                prev = cur
        return d[n]

    rng = np.random.default_rng(5)
    alphabet = list("abcd")
    vocab = set()
    while len(vocab) < 60:
        vocab.add("".join(rng.choice(alphabet, rng.integers(2, 6))))
    vocab = sorted(vocab)
    expect = {
        (x, y)
        for i, x in enumerate(vocab)
        for y in vocab[i + 1:]
        if lev(x, y) <= 1
    }
    assert expect  # the generator must actually produce near pairs
    # duplicate rows: operator runs on distinct strings
    df = pd.DataFrame({"s": vocab * 2})
    out = fuzzy_pairs_1del(rd.from_pandas(df).repartition(3), "s").to_pandas()
    got = set(zip(out["a"], out["b"]))
    assert got == expect


def _unigram_reference(texts, vocab_size, seed_size, max_piece_len, n_iters, shrink):
    """Pure single-process mirror of train_unigram_lm (same seed rule,
    same hard-EM, same prune order) — distributed run must match
    byte-identically."""
    import math
    import re

    ws = re.compile(r"\s+")
    wc = {}
    for t in texts:
        for w in ws.split(t.lower()):
            if w:
                wc[w] = wc.get(w, 0) + 1
    sub = {}
    for w, n in wc.items():
        for i in range(len(w)):
            for j in range(i + 1, min(i + max_piece_len, len(w)) + 1):
                sub[w[i:j]] = sub.get(w[i:j], 0) + n
    chars = {p: c for p, c in sub.items() if len(p) == 1}
    multi = sorted(
        ((p, c) for p, c in sub.items() if len(p) > 1),
        key=lambda t: (-t[1], t[0]),
    )[: max(0, seed_size - len(chars))]
    cur = dict(chars)
    cur.update(dict(multi))

    from table_annotation_ray.stages.unigram import _viterbi

    for it in range(n_iters):
        total = float(sum(cur.values()))
        logp = {p: math.log(c / total) for p, c in cur.items() if c > 0}
        floor = math.log(0.5 / total)
        for p in cur:
            if len(p) == 1 and p not in logp:
                logp[p] = floor
        cnt = {}
        for w, n in wc.items():
            for piece in _viterbi(w, logp, max_piece_len):
                cnt[piece] = cnt.get(piece, 0) + n
        cur = {p: cnt.get(p, 0) for p in cur}
        msort = sorted(
            ((c, p) for p, c in cur.items() if len(p) > 1),
            key=lambda t: (t[0], t[1]),
        )
        n_chars = sum(1 for p in cur if len(p) == 1)
        target_multi = max(0, vocab_size - n_chars)
        if it < n_iters - 1:
            keep = max(target_multi, int(len(msort) * (1.0 - shrink)))
        else:
            keep = target_multi
        drop = {p for _, p in msort[: max(0, len(msort) - keep)]}
        cur = {p: c for p, c in cur.items() if p not in drop}
    return cur


def test_train_unigram_lm_matches_reference(ray_session):
    from table_annotation_ray.stages.unigram import train_unigram_lm

    texts = (
        ["low lower lowest", "new newer newest", "wide wider widest"] * 4
        + ["slow slower slowest", "deep deeper deepest"] * 3
    )
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = train_unigram_lm(
        rd.from_pandas(df).repartition(5),
        vocab_size=24, seed_size=64, max_piece_len=5, n_iters=3, shrink=0.3,
    )
    ref = _unigram_reference(texts, 24, 64, 5, 3, 0.3)
    got_d = dict(zip(got["piece"], got["count"].astype(int)))
    assert got_d == ref
    # morpheme discovery: a comparative/superlative suffix must survive
    assert any(p in got_d and got_d[p] > 0 for p in ("er", "est", "st"))
    # every single char of the corpus is retained (coverage floor)
    corpus_chars = set("".join(texts).lower().replace(" ", ""))
    assert corpus_chars <= set(got["piece"])


def test_unigram_encode_coverage(ray_session):
    from table_annotation_ray.stages.unigram import (
        train_unigram_lm, unigram_encode,
    )

    texts = ["hello hello world", "world of hello"]
    df = pd.DataFrame({"doc_id": [1, 2], "text": texts})
    ds = rd.from_pandas(df)
    model = train_unigram_lm(ds, vocab_size=16, seed_size=32,
                             max_piece_len=5, n_iters=2)
    out = unigram_encode(ds, model).to_pandas().set_index("doc_id")
    # full coverage: n_pieces >= 1 per word, n_chars exact
    assert out.loc[1, "n_chars"] == len("hellohelloworld")
    assert out.loc[2, "n_chars"] == len("worldofhello")
    assert (out["n_pieces"] > 0).all()
    # "hello" should be a single piece (dominant word)
    assert out.loc[1, "n_pieces"] <= 4


def test_viterbi_unseen_character_is_own_piece():
    """A character missing from the piece table used to leave its
    back-pointer at 0, so the backtrack loop never ended."""
    import signal

    from table_annotation_ray.stages.unigram import _viterbi

    def hang(*_):
        raise TimeoutError("_viterbi did not return")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        assert _viterbi("aé", {"a": -1.0}, 3) == ["a", "é"]
        assert _viterbi("éab", {"a": -2.0, "b": -2.0, "ab": -1.0}, 3) == ["é", "ab"]
        # a known piece spanning the character still wins
        assert _viterbi("xéy", {"x": -1.0, "y": -1.0, "éy": -5.0}, 3) == ["x", "éy"]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_train_unigram_lm_zero_counts_without_warning(ray_session):
    """Unused pieces get a NULL logprob without numpy evaluating
    log(0) for them; used pieces keep ln(count / total) exactly."""
    import math
    import warnings

    from table_annotation_ray.stages.unigram import train_unigram_lm

    texts = ["low lower lowest", "new newer newest", "wide wider widest"] * 3
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = train_unigram_lm(rd.from_pandas(df), vocab_size=24, seed_size=64,
                               max_piece_len=5, n_iters=3, shrink=0.3)
    zero = got["count"] == 0
    assert zero.any() and got.loc[zero, "logprob"].isna().all()
    total = float(got["count"].sum())
    assert [math.log(c / total) for c in got.loc[~zero, "count"]] == got.loc[~zero, "logprob"].tolist()


def test_kcenter_coreset_matches_numpy_greedy(ray_session):
    from table_annotation_ray.stages.clustering import kcenter_coreset

    rng = np.random.default_rng(9)
    X = rng.normal(0, 1, (120, 6))
    ids = np.arange(1000, 1000 + len(X))
    df = pd.DataFrame({"vec_id": ids, "embedding": list(X)})
    k = 8
    got = kcenter_coreset(rd.from_pandas(df).repartition(5),
                          "vec_id", "embedding", k=k)

    # pure-numpy greedy reference with the same tie rules
    chosen = [0]  # position of min id (ids ascending -> index 0)
    mind = ((X - X[0]) ** 2).sum(axis=1)
    ref_radii = [float("nan")]
    for _ in range(1, k):
        best = np.lexsort((ids, -mind))[0]
        ref_radii.append(float(mind[best]))
        chosen.append(best)
        mind = np.minimum(mind, ((X - X[best]) ** 2).sum(axis=1))
    assert list(got["id"]) == [int(ids[c]) for c in chosen]
    assert got["radius"].iloc[1:].to_numpy() == pytest.approx(
        np.array(ref_radii[1:]), abs=0
    )
    # radii are non-increasing (greedy k-center invariant)
    r = got["radius"].iloc[1:].to_numpy()
    assert (np.diff(r) <= 1e-12).all()


def test_trimmed_mean_by_key_vs_pandas(ray_session):
    from table_annotation_ray.stages.quantiles import trimmed_mean_by_key

    rng = np.random.default_rng(13)
    df = pd.DataFrame(
        {
            "k": rng.choice(["a", "b", "c"], 500),
            "v": np.round(rng.normal(100, 30, 500), 2),
        }
    )
    out = (
        trimmed_mean_by_key(rd.from_pandas(df).repartition(4), "k", "v",
                            trim=0.1)
        .to_pandas()
        .set_index("k")
    )
    for k, sub in df.groupby("k"):
        v = np.sort(sub["v"].to_numpy())
        lo = int(np.floor(0.1 * len(v)))
        inner = v[lo: len(v) - lo]
        cents = np.round(inner * 100).astype(np.int64).sum()
        assert out.loc[k, "n"] == len(v)
        assert out.loc[k, "n_used"] == len(inner)
        assert out.loc[k, "sum_cents"] == cents
        assert out.loc[k, "trimmed_mean"] == cents / (100.0 * len(inner))


def test_group_ablation_hand(ray_session):
    from table_annotation_ray.stages.stats import group_ablation

    df = pd.DataFrame(
        {
            "g": ["a"] * 3 + ["b"] * 2,
            "s": [0.1, 0.2, 0.3, 0.5, 0.7],
        }
    )
    out = group_ablation(rd.from_pandas(df), "g", "s").set_index("g")
    assert out.loc["a", "n"] == 3 and out.loc["b", "n"] == 2
    # removing b leaves mean(a) = 0.2
    assert out.loc["b", "loo_mean"] == pytest.approx(0.2, abs=1e-12)
    gmean = (0.1 + 0.2 + 0.3 + 0.5 + 0.7) / 5
    assert out.loc["b", "delta"] == pytest.approx(0.2 - gmean, abs=1e-12)
    # a single group covering everything -> NULL loo
    out2 = group_ablation(
        rd.from_pandas(pd.DataFrame({"g": ["x", "x"], "s": [0.5, 0.5]})),
        "g", "s",
    )
    assert np.isnan(out2["loo_mean"].iloc[0])


def test_k_anonymity_flags(ray_session):
    from table_annotation_ray.stages.dq import k_anonymity

    df = pd.DataFrame(
        {
            "zip": ["111"] * 12 + ["222"] * 3 + ["333"] * 1,
            "age": ["30s"] * 12 + ["40s"] * 3 + ["50s"] * 1,
        }
    )
    out = (
        k_anonymity(rd.from_pandas(df).repartition(3), ["zip", "age"], k=5)
        .to_pandas()
        .set_index("zip")
    )
    assert out.loc["111", "n"] == 12 and out.loc["111", "risky"] == 0
    assert out.loc["222", "n"] == 3 and out.loc["222", "risky"] == 1
    assert out.loc["333", "risky"] == 1


def test_regex_extract_nulls(ray_session):
    from table_annotation_ray.stages.relational import regex_extract

    df = pd.DataFrame(
        {"id": [1, 2, 3], "s": ["red widget", "odd", "hot gear"]}
    )
    out = (
        regex_extract(
            rd.from_pandas(df), "s", r"^(?P<adj>[a-z]+) (?P<noun>[a-z]+)$",
            keep_cols=["id"],
        )
        .to_pandas()
        .set_index("id")
        .sort_index()
    )
    assert out.loc[1, "adj"] == "red" and out.loc[1, "noun"] == "widget"
    assert out.loc[3, "adj"] == "hot" and out.loc[3, "noun"] == "gear"
    assert pd.isna(out.loc[2, "adj"]) and pd.isna(out.loc[2, "noun"])


def test_incremental_join_equals_filtered_full_join(ray_session):
    from table_annotation_ray.stages.relational import incremental_join

    rng = np.random.default_rng(21)
    L = pd.DataFrame({"k": rng.integers(0, 30, 80),
                      "lv": rng.integers(0, 100, 80)})
    R = pd.DataFrame({"rk": rng.integers(0, 30, 90),
                      "rv": rng.integers(0, 100, 90)})
    lmask = L["lv"] % 3 == 0
    rmask = R["rv"] % 4 == 0
    out = incremental_join(
        rd.from_pandas(L[~lmask]).repartition(3),
        rd.from_pandas(L[lmask]).repartition(2),
        rd.from_pandas(R[~rmask]).repartition(3),
        rd.from_pandas(R[rmask]).repartition(2),
        "k", "rk", broadcast_below=10,  # force the bucketed path on leg1
    ).to_pandas()
    full = L.merge(R.rename(columns={"rk": "k"}), on="k")
    want = full[(full["lv"] % 3 == 0) | (full["rv"] % 4 == 0)]
    key = ["k", "lv", "rv"]
    got_s = out[key].sort_values(key).reset_index(drop=True)
    want_s = want[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got_s, want_s, check_dtype=False
    )


def test_cooccurrence_cosine_hand(ray_session):
    from table_annotation_ray.stages.relational import cooccurrence_cosine

    # baskets: b1={1,2}, b2={1,2}, b3={1,3}
    df = pd.DataFrame(
        {"b": [1, 1, 2, 2, 3, 3], "i": [1, 2, 1, 2, 1, 3]}
    )
    out = (
        cooccurrence_cosine(rd.from_pandas(df).repartition(2), "b", "i",
                            min_count=1)
        .to_pandas()
        .set_index(["item_a", "item_b"])
        .sort_index()
    )
    # (1,2): n_ab=2, n_1=3, n_2=2 -> 2/sqrt(6); (1,3): 1/sqrt(3)
    assert out.loc[(1, 2), "cosine"] == 2 / np.sqrt(6.0)
    assert out.loc[(1, 3), "cosine"] == 1 / np.sqrt(3.0)
    assert out.loc[(1, 2), "n_a"] == 3 and out.loc[(1, 2), "n_b"] == 2


def test_centroid_outliers_vs_numpy(ray_session):
    from table_annotation_ray.stages.clustering import centroid_outliers

    rng = np.random.default_rng(31)
    X = rng.normal(0, 1, (90, 4))
    lab = np.repeat([0, 1, 2], 30)
    X[5] += 40.0  # planted outlier in label 0
    X[40] += 25.0  # planted outlier in label 1
    df = pd.DataFrame(
        {"vec_id": np.arange(90), "label": lab, "embedding": list(X)}
    )
    out = (
        centroid_outliers(rd.from_pandas(df).repartition(4),
                          "label", "vec_id", "embedding", top_k=3)
        .to_pandas()
    )
    assert len(out) == 9
    top0 = out[out["label"] == 0].sort_values("dist2", ascending=False)
    top1 = out[out["label"] == 1].sort_values("dist2", ascending=False)
    assert top0["vec_id"].iloc[0] == 5
    assert top1["vec_id"].iloc[0] == 40
    # distances match numpy at rtol (float centroid sums)
    c0 = X[lab == 0].mean(axis=0)
    assert out.set_index("vec_id").loc[5, "dist2"] == pytest.approx(
        ((X[5] - c0) ** 2).sum(), rel=1e-9
    )


def test_rolling_slope_by_key_vs_polyfit(ray_session):
    from table_annotation_ray.stages.windows import rolling_slope_by_key

    rng = np.random.default_rng(17)
    frames = []
    for k in ("u1", "u2"):
        n = 20
        frames.append(
            pd.DataFrame(
                {
                    "k": k,
                    "t": np.arange(n),
                    "v": np.round(rng.normal(50, 10, n), 2),
                }
            )
        )
    df = pd.concat(frames, ignore_index=True)
    w = 5
    out = (
        rolling_slope_by_key(rd.from_pandas(df).repartition(3),
                             "k", ["t"], "v", window=w)
        .to_pandas()
        .set_index(["k", "rn"])
        .sort_index()
    )
    for k, sub in df.groupby("k"):
        y = np.round(sub["v"].to_numpy() * 100).astype(np.int64)
        for end in range(w - 1, len(y)):
            ys = y[end - w + 1: end + 1].astype(np.float64)
            xs = np.arange(end - w + 1, end + 1, dtype=np.float64)
            ref = np.polyfit(xs, ys, 1)[0]
            assert out.loc[(k, end), "slope_cents"] == pytest.approx(
                ref, rel=1e-9
            )
    # first full frame is rn = w-1 (no cross-key leakage)
    assert out.reset_index()["rn"].min() == w - 1


def test_containment_pairs_hand(ray_session):
    from table_annotation_ray.stages.retrieval import containment_pairs

    # doc 1 tokens a..f (3 distinct 2-grams per pair below); doc 2 is a
    # strict prefix of doc 1 (quote): containment_b == 1.0
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "a b c d e f",
                "a b c d",
                "x y z w",
            ],
        }
    )
    cand = pd.DataFrame({"doc_a": [1], "doc_b": [2]})
    out = (
        containment_pairs(
            rd.from_pandas(docs).repartition(2),
            rd.from_pandas(cand),
            ngram=2,
        )
        .to_pandas()
        .set_index(["doc_a", "doc_b"])
    )
    r = out.loc[(1, 2)]
    # doc1 2-grams: ab bc cd de ef (5); doc2: ab bc cd (3); shared 3
    assert r["n_shared"] == 3 and r["size_a"] == 5 and r["size_b"] == 3
    assert r["containment_b"] == 1.0
    assert r["containment_a"] == 3 / 5
    assert r["jaccard"] == 3 / 5


def test_cuped_adjusted_vs_numpy(ray_session):
    from table_annotation_ray.stages.stats import cuped_adjusted

    rng = np.random.default_rng(23)
    rows = []
    for uid in range(40):
        base = rng.integers(10, 100)
        for _ in range(rng.integers(3, 9)):
            pre = rng.random() < 0.5
            ts = pd.Timestamp("2024-01-0" + str(rng.integers(1, 6))) if pre \
                else pd.Timestamp("2024-01-2" + str(rng.integers(0, 6)))
            rows.append(
                {"user_id": uid, "ts": ts,
                 "value": round(float(base + rng.normal(0, 5)), 2)}
            )
    df = pd.DataFrame(rows)
    out = cuped_adjusted(
        rd.from_pandas(df).repartition(4), "user_id", "ts", "value",
        "2024-01-16",
    ).set_index("cohort")

    cut = pd.Timestamp("2024-01-16")
    cents = np.round(df["value"].to_numpy() * 100).astype(np.int64)
    pre = (df["ts"] < cut).to_numpy()
    ud = pd.DataFrame(
        {"u": df["user_id"], "x": np.where(pre, cents, 0),
         "y": np.where(pre, 0, cents)}
    ).groupby("u").sum()
    x = ud["x"].to_numpy(np.int64)
    y = ud["y"].to_numpy(np.int64)
    n = len(ud)
    num = n * int((x * y).sum()) - int(x.sum()) * int(y.sum())
    den = n * int((x * x).sum()) - int(x.sum()) ** 2
    theta = num / den
    gxbar = int(x.sum()) / (100.0 * n)
    for co in (0, 1):
        m = (ud.index.to_numpy() % 2) == co
        mean_y = int(y[m].sum()) / (100.0 * m.sum())
        mean_adj = mean_y - theta * (int(x[m].sum()) / (100.0 * m.sum()) - gxbar)
        assert out.loc[co, "n_users"] == int(m.sum())
        assert out.loc[co, "mean_y"] == pytest.approx(mean_y, abs=1e-12)
        assert out.loc[co, "mean_adj"] == pytest.approx(mean_adj, abs=1e-10)
    # CUPED shrinks cross-cohort variance of a no-effect metric toward 0
    # (not asserted numerically here; covered by construction)


def test_roc_points_hand(ray_session):
    from table_annotation_ray.stages.stats import roc_points

    df = pd.DataFrame(
        {"score": [0.9, 0.8, 0.8, 0.4, 0.2], "label": [1, 1, 0, 1, 0]}
    )
    out = roc_points(rd.from_pandas(df).repartition(2), "label", "score")
    assert list(out["thr"]) == [0.9, 0.8, 0.4, 0.2]
    assert list(out["tp"]) == [1, 2, 3, 3]
    assert list(out["fp"]) == [0, 1, 1, 2]
    assert out["tpr"].iloc[1] == 2 / 3 and out["fpr"].iloc[1] == 1 / 2
    assert out["tpr"].iloc[-1] == 1.0 and out["fpr"].iloc[-1] == 1.0


def test_duplicate_weights_hand(ray_session):
    from table_annotation_ray.stages.dedup import duplicate_weights

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": ["Hello  World", "hello world", "unique", "HELLO WORLD "],
        }
    )
    out = (
        duplicate_weights(rd.from_pandas(df).repartition(2))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert list(out["n_copies"]) == [3, 3, 1, 3]
    assert out.loc[1, "weight"] == 1 / 3 and out.loc[3, "weight"] == 1.0
    # total mass = number of distinct texts
    assert out["weight"].sum() == pytest.approx(2.0, abs=1e-12)


def test_bootstrap_ci_partition_invariant(ray_session):
    from table_annotation_ray.stages.stats import bootstrap_mean_ci

    rng = np.random.default_rng(3)
    df = pd.DataFrame(
        {"event_id": np.arange(2000),
         "value": np.round(rng.normal(50, 10, 2000), 2)}
    )
    r1 = bootstrap_mean_ci(rd.from_pandas(df).repartition(2), "value",
                           "event_id", n_boot=100)
    r2 = bootstrap_mean_ci(rd.from_pandas(df).repartition(7), "value",
                           "event_id", n_boot=100)
    assert r1 == r2  # deterministic across block layouts
    assert r1["lo"] <= r1["mean"] <= r1["hi"]
    # the CI half-width should be near sigma/sqrt(n) (loose sanity band)
    hw = (r1["hi"] - r1["lo"]) / 2
    se = 10 / np.sqrt(2000)
    assert 0.4 * 1.96 * se < hw < 2.5 * 1.96 * se


def test_functional_dependencies_hand(ray_session):
    from table_annotation_ray.stages.dq import functional_dependencies

    df = pd.DataFrame(
        {
            "id": [1, 2, 3, 4],
            "country": ["fr", "fr", "de", "de"],
            "segment": ["A", "B", "A", "A"],
        }
    )
    out = functional_dependencies(
        rd.from_pandas(df).repartition(2),
        [("id", "country"), ("country", "segment"), ("segment", "country")],
    ).set_index(["det", "dep"])
    assert out.loc[("id", "country"), "holds"] == 1
    # fr maps to {A,B} -> violated by one determinant
    assert out.loc[("country", "segment"), "holds"] == 0
    assert out.loc[("country", "segment"), "n_violating"] == 1
    # A maps to {fr,de} -> violated
    assert out.loc[("segment", "country"), "holds"] == 0
    assert out.loc[("id", "country"), "n_det"] == 4
    assert out.loc[("country", "segment"), "n_pairs"] == 3


def test_vocab_drift_hand(ray_session):
    from table_annotation_ray.stages.textstats import vocab_drift

    df = pd.DataFrame(
        {
            "side": [0, 0, 1, 1],
            "text": ["apple apple pear", "apple fig", "apple plum plum",
                     "plum kiwi"],
        }
    )
    out = vocab_drift(rd.from_pandas(df).repartition(2), "side",
                      top_k=2).set_index("token")
    # side 0 top-2: apple(3), fig/pear(1 each, lexicographic -> fig)
    # side 1 top-2: plum(3), apple(1)
    assert out.loc["apple", "rank_a"] == 1 and out.loc["apple", "rank_b"] == 2
    assert out.loc["plum", "rank_b"] == 1 and np.isnan(out.loc["plum", "rank_a"])
    assert out.loc["plum", "n_a"] == 0  # not in side-0 top list
    assert out.loc["fig", "rank_a"] == 2
    assert str(out["rank_a"].dtype) == "float64"


def test_mix_shift_reconstructs_total_change(ray_session):
    from table_annotation_ray.stages.stats import mix_shift

    rng = np.random.default_rng(7)
    n = 3000
    df = pd.DataFrame(
        {
            "seg": rng.choice(["x", "y", "z"], n, p=[0.5, 0.3, 0.2]),
            "p": rng.integers(0, 2, n),
            "value": np.round(rng.normal(40, 8, n), 2),
        }
    )
    out = mix_shift(rd.from_pandas(df).repartition(4), "seg", "p", "value")
    cents = np.round(df["value"].to_numpy() * 100).astype(np.int64)
    m0 = cents[df["p"] == 0].sum() / (100.0 * (df["p"] == 0).sum())
    m1 = cents[df["p"] == 1].sum() / (100.0 * (df["p"] == 1).sum())
    total = out["mix_effect"].sum() + out["rate_effect"].sum()
    assert total == pytest.approx(m1 - m0, abs=1e-9)
    # shares sum to 1 on each side (all segments present both periods)
    assert out["share_old"].sum() == pytest.approx(1.0, abs=1e-12)
    assert out["share_new"].sum() == pytest.approx(1.0, abs=1e-12)


def test_pruning_stats_zorder_beats_natural(ray_session):
    from table_annotation_ray.stages.datapipe import pruning_stats

    rng = np.random.default_rng(41)
    n = 4000
    df = pd.DataFrame(
        {
            "event_id": rng.permutation(n),  # natural order ~ random in x/y
            "x": rng.integers(0, 1024, n),
            "y": rng.integers(0, 1024, n),
        }
    )
    out = pruning_stats(
        rd.from_pandas(df).repartition(4), "x", "y", "event_id",
        (100, 200), (300, 400), file_rows=200,
    ).set_index("layout")
    n_files = n // 200
    assert out.loc["natural", "n_files"] == n_files
    assert out.loc["zorder", "n_files"] == n_files
    # random natural order: every file's box spans the domain -> 0 skips;
    # z-order clusters both dims -> most files skip a 100x100 rectangle
    assert out.loc["natural", "n_skipped"] == 0
    assert out.loc["zorder", "n_skipped"] > n_files // 2
    assert out.loc["zorder", "rows_scanned"] < out.loc["natural",
                                                       "rows_scanned"]
    # skipped files cannot contain matching rows (exactness of pruning)
    match = ((df["x"].between(100, 200)) & (df["y"].between(300, 400))).sum()
    assert out.loc["zorder", "rows_scanned"] >= match


def test_auto_skew_join_equals_plain(ray_session):
    from table_annotation_ray.stages.relational import auto_skew_join, equi_join

    rng = np.random.default_rng(43)
    # one celebrity key (0) with 60% of rows + a uniform tail
    keys = np.where(rng.random(3000) < 0.6, 0,
                    rng.integers(1, 400, 3000)).astype(np.int64)
    L = pd.DataFrame({"k": keys, "lv": rng.integers(0, 100, 3000)})
    R = pd.DataFrame({"k": np.arange(400), "rv": rng.integers(0, 100, 400)})
    plain = (
        equi_join(rd.from_pandas(L).repartition(4),
                  rd.from_pandas(R).repartition(2), "k",
                  broadcast_below=0)  # force the bucketed path
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    auto = (
        auto_skew_join(rd.from_pandas(L).repartition(4),
                       rd.from_pandas(R).repartition(2), "k",
                       hot_count=500, broadcast_below=1000)
        .to_pandas()
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        plain[["k", "lv", "rv"]], auto[["k", "lv", "rv"]], check_dtype=False
    )


def test_session_pattern_counts_hand(ray_session):
    from table_annotation_ray.stages.windows import session_pattern_counts

    base = pd.Timestamp("2024-01-01")
    rows = []
    # user 1, session 1: view, click, purchase (match)
    for i, et in enumerate(["view", "click", "purchase"]):
        rows.append({"u": 1, "ts": base + pd.Timedelta(minutes=i), "e": i,
                     "t": et})
    # user 1, session 2 (gap > 30min): purchase, view (no match)
    for i, et in enumerate(["purchase", "view"]):
        rows.append({"u": 1, "ts": base + pd.Timedelta(hours=2, minutes=i),
                     "e": 10 + i, "t": et})
    # user 2: view ... click but never purchase
    for i, et in enumerate(["view", "click", "click"]):
        rows.append({"u": 2, "ts": base + pd.Timedelta(minutes=i), "e": i,
                     "t": et})
    df = pd.DataFrame(rows)
    out = (
        session_pattern_counts(
            rd.from_pandas(df).repartition(2), "u", "ts", "t",
            "view.*click.*purchase", pd.Timedelta(minutes=30),
            tiebreak_col="e",
        )
        .to_pandas()
        .set_index("u")
    )
    assert out.loc[1, "n_sessions"] == 2 and out.loc[1, "n_matching"] == 1
    assert out.loc[2, "n_sessions"] == 1 and out.loc[2, "n_matching"] == 0


def test_activity_labels_hand(ray_session):
    from table_annotation_ray.stages.windows import activity_labels

    wk = 604800
    rows = []
    # user 1 active weeks 0, 1, 3 -> returned: 1, 0, 0
    for w in (0, 0, 1, 3):
        rows.append({"u": 1, "ts": pd.Timestamp(w * wk + 1000, unit="s")})
    # user 2 active week 1 only
    rows.append({"u": 2, "ts": pd.Timestamp(wk + 5, unit="s")})
    df = pd.DataFrame(rows)
    out = (
        activity_labels(rd.from_pandas(df).repartition(2), "u", "ts")
        .to_pandas()
        .set_index(["u", "period"])
        .sort_index()
    )
    base_week = 0  # epoch-aligned
    assert out.loc[(1, base_week), "n_events"] == 2
    assert out.loc[(1, base_week), "returned"] == 1
    assert out.loc[(1, base_week + 1), "returned"] == 0
    assert out.loc[(1, base_week + 3), "returned"] == 0
    assert out.loc[(2, base_week + 1), "returned"] == 0


def test_sqlite_round_trip(ray_session, tmp_path):
    from table_annotation_ray.sources.sqlite import read_sqlite, write_sqlite

    rng = np.random.default_rng(51)
    df = pd.DataFrame(
        {
            "id": np.arange(5000, dtype=np.int64),
            "name": [f"row{i}" for i in range(5000)],
            "v": np.round(rng.normal(0, 1, 5000), 4),
        }
    )
    db = str(tmp_path / "t.db")
    n = write_sqlite(rd.from_pandas(df).repartition(4), db, "items")
    assert n == 5000
    back = (
        read_sqlite(db, "items", partitions=7)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(back, df, check_dtype=False)
    # column pruning
    pruned = read_sqlite(db, "items", columns=["id"], partitions=3).to_pandas()
    assert list(pruned.columns) == ["id"] and len(pruned) == 5000
    # append mode doubles rows; fail mode raises
    write_sqlite(rd.from_pandas(df.head(10)), db, "items", if_exists="append")
    assert len(read_sqlite(db, "items", partitions=2).to_pandas()) == 5010
    with pytest.raises(ValueError):
        write_sqlite(rd.from_pandas(df.head(1)), db, "items", if_exists="fail")


def test_sqlite_sparse_rowids_typed_empty_block(ray_session, tmp_path):
    """After deletes, a rowid range with no rows reads as an empty block
    typed like the populated blocks (declared or not), so it
    concatenates with them."""
    import sqlite3

    import ray

    from table_annotation_ray.sources.sqlite import read_sqlite

    db = str(tmp_path / "sparse.db")
    con = sqlite3.connect(db)
    con.execute("CREATE TABLE items (id INTEGER, name TEXT, v REAL, w)")
    con.executemany("INSERT INTO items VALUES (?, ?, ?, ?)",
                    [(i, f"n{i % 3}", i * 0.5, i) for i in range(1, 101)])
    con.execute("DELETE FROM items WHERE rowid > 40 AND rowid <= 60")
    con.commit()
    con.close()
    blocks = ray.get(read_sqlite(db, "items", partitions=5).to_arrow_refs())
    assert 0 in {b.num_rows for b in blocks}  # the emptied range
    want = pa.schema([("id", pa.int64()), ("name", pa.string()),
                      ("v", pa.float64()), ("w", pa.int64())])
    assert all(b.schema.remove_metadata() == want for b in blocks)
    ids = pa.concat_tables(blocks)["id"].to_pylist()
    assert sorted(ids) == [i for i in range(1, 101) if not 40 < i <= 60]


def test_read_parquet_evolved(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from table_annotation_ray.sources.evolved import read_parquet_evolved

    # v1: (id int64, a string); v2 adds b; v3 drops a, widens id->float64
    p1, p2, p3 = (str(tmp_path / f"v{i}.parquet") for i in (1, 2, 3))
    pq.write_table(pa.table({"id": pa.array([1, 2], pa.int64()),
                             "a": pa.array(["x", "y"])}), p1)
    pq.write_table(pa.table({"id": pa.array([3], pa.int64()),
                             "a": pa.array(["z"]),
                             "b": pa.array([9.5], pa.float64())}), p2)
    pq.write_table(pa.table({"id": pa.array([4.5], pa.float64()),
                             "b": pa.array([7.0], pa.float64())}), p3)
    ds = read_parquet_evolved([p1, p2, p3])
    out = ds.to_pandas().sort_values("id").reset_index(drop=True)
    assert list(out.columns) == ["id", "a", "b"]
    assert out["id"].dtype == np.float64  # promoted
    assert out.loc[3, "a"] is None or pd.isna(out.loc[3, "a"])
    assert pd.isna(out.loc[0, "b"])
    assert len(out) == 4
    # the union survives a shuffle (single canonical block schema)
    assert ds.groupby("b").count().to_pandas() is not None
    # incompatible redefinition fails at plan time
    p4 = str(tmp_path / "v4.parquet")
    pq.write_table(pa.table({"id": pa.array(["oops"])}), p4)
    with pytest.raises(ValueError):
        read_parquet_evolved([p1, p4])
    # column pruning on the union
    pr = read_parquet_evolved([p1, p2, p3], columns=["id", "b"]).to_pandas()
    assert list(pr.columns) == ["id", "b"]


def test_frequent_directions_bound(ray_session):
    from table_annotation_ray.stages.decomp import frequent_directions

    rng = np.random.default_rng(61)
    # low-rank + noise: FD must capture the dominant subspace
    U = rng.normal(0, 1, (3000, 3))
    V = rng.normal(0, 1, (3, 24))
    A = U @ V + rng.normal(0, 0.05, (3000, 24))
    df = pd.DataFrame({"embedding": list(A)})
    ell = 8
    B = frequent_directions(rd.from_pandas(df).repartition(5),
                            "embedding", ell=ell)
    assert B.shape == (ell, 24)
    G = A.T @ A
    H = B.T @ B
    diff = G - H
    # PSD underestimate within ||A||_F^2 / ell (Liberty guarantee)
    eig = np.linalg.eigvalsh(diff)
    bound = (A * A).sum() / ell
    assert eig.min() >= -1e-6 * bound  # underestimates (up to num. noise)
    assert eig.max() <= bound * (1 + 1e-9)
    # dominant 3-dim subspace is captured: projecting A onto B's top-3
    # right singular vectors preserves most of the energy
    _, _, vt = np.linalg.svd(B, full_matrices=False)
    proj = A @ vt[:3].T
    assert (proj * proj).sum() > 0.95 * (A * A).sum()


def test_cosine_pairs_tf_hand(ray_session):
    from table_annotation_ray.stages.retrieval import cosine_pairs_tf

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["a a b", "a b b", "z z"],
        }
    )
    cand = pd.DataFrame({"doc_a": [1, 1], "doc_b": [2, 3]})
    out = (
        cosine_pairs_tf(rd.from_pandas(docs).repartition(2),
                        rd.from_pandas(cand))
        .to_pandas()
        .set_index(["doc_a", "doc_b"])
    )
    # tf1=(a:2,b:1), tf2=(a:1,b:2): dot=4, norms 5,5 -> cos=0.8
    r = out.loc[(1, 2)]
    assert r["dot"] == 4 and r["norm2_a"] == 5 and r["norm2_b"] == 5
    assert r["cosine"] == 4 / (np.sqrt(5.0) * np.sqrt(5.0))
    # no shared tokens -> pair absent (dot would be 0)
    assert (1, 3) not in out.index


def test_bottomk_signatures_accuracy(ray_session):
    from table_annotation_ray.stages.sketches import (
        bottomk_pairwise, bottomk_signatures,
    )

    rng = np.random.default_rng(71)
    # two categories with controlled overlap
    a_ids = rng.choice(100000, 5000, replace=False)
    b_ids = np.concatenate([a_ids[:2500],
                            rng.choice(np.arange(100000, 200000), 2500,
                                       replace=False)])
    df = pd.concat(
        [pd.DataFrame({"cat": "A", "uid": a_ids}),
         pd.DataFrame({"cat": "B", "uid": b_ids})],
        ignore_index=True,
    )
    sigs = bottomk_signatures(
        rd.from_pandas(df).repartition(5), "cat", "uid", k=256
    )
    out = bottomk_pairwise(sigs, "cat", k=256).iloc[0]
    exact_j = len(set(a_ids) & set(b_ids)) / len(set(a_ids) | set(b_ids))
    assert abs(out["est_jaccard"] - exact_j) < 0.12  # ~1/sqrt(k) band
    assert abs(out["est_distinct_a"] - 5000) / 5000 < 0.2
    # signatures are partition-invariant (exact bottom-k, not a sample)
    sigs2 = bottomk_signatures(
        rd.from_pandas(df).repartition(2), "cat", "uid", k=256
    )
    for s1, s2 in zip(sigs["sig"], sigs2["sig"]):
        assert np.array_equal(s1, s2)
    # small sets: distinct estimate is exact
    tiny = pd.DataFrame({"cat": "C", "uid": np.arange(37)})
    s3 = bottomk_signatures(rd.from_pandas(tiny), "cat", "uid", k=256)
    assert len(s3["sig"].iloc[0]) == 37


def test_compaction_plan_invariants():
    from table_annotation_ray.stages.datapipe import compaction_plan

    rng = np.random.default_rng(81)
    sizes = rng.integers(50, 900, 60)
    files = pd.DataFrame({"f": np.arange(60), "sz": sizes})
    cap = 1000
    out = compaction_plan(files, "f", "sz", cap)
    # every file assigned exactly once
    assert sorted(out["f"]) == list(range(60))
    # no bin over capacity (oversized files would get their own bin)
    per_bin = out.groupby("bin")["sz"].sum()
    assert (per_bin <= cap).all()
    # FFD bound: bins <= 11/9 * OPT + 1, with OPT >= ceil(total/cap)
    opt_lb = int(np.ceil(sizes.sum() / cap))
    assert len(per_bin) <= int(np.ceil(11 / 9 * opt_lb)) + 1
    # oversized file gets a singleton bin
    big = compaction_plan(
        pd.DataFrame({"f": [1, 2], "sz": [1500, 100]}), "f", "sz", 1000
    )
    assert big.loc[big["f"] == 1, "bin_total"].iloc[0] == 1500
    # deterministic
    out2 = compaction_plan(files.sample(frac=1, random_state=3), "f", "sz", cap)
    pd.testing.assert_frame_equal(out.reset_index(drop=True),
                                  out2.reset_index(drop=True))


def test_length_batching_sorted_saves_padding(ray_session):
    from table_annotation_ray.stages.datapipe import length_batching_stats

    rng = np.random.default_rng(83)
    df = pd.DataFrame(
        {"doc_id": np.arange(640),
         "n_chars": rng.integers(10, 2000, 640)}
    )
    out = length_batching_stats(
        rd.from_pandas(df).repartition(4), "doc_id", "n_chars",
        batch_rows=32,
    ).set_index("layout")
    assert out.loc["natural", "n_batches"] == 20
    assert out.loc["sorted", "padded_cells"] < out.loc["natural",
                                                       "padded_cells"]
    # exact padding for the sorted layout vs a numpy reference
    ln = np.sort(df["n_chars"].to_numpy())
    pads = sum(
        int(ln[i:i + 32].max()) * len(ln[i:i + 32]) - int(ln[i:i + 32].sum())
        for i in range(0, len(ln), 32)
    )
    assert out.loc["sorted", "padded_cells"] == pads


def test_rolling_kmv_distinct_accuracy(ray_session):
    from table_annotation_ray.stages.sketches import rolling_kmv_distinct

    rng = np.random.default_rng(91)
    rows = []
    base = pd.Timestamp("2024-03-01")
    for day in range(20):
        for _ in range(400):
            rows.append(
                {"ts": base + pd.Timedelta(days=day,
                                           seconds=int(rng.integers(0, 86400))),
                 "user_id": int(rng.integers(0, 3000))}
            )
    df = pd.DataFrame(rows)
    out = rolling_kmv_distinct(
        rd.from_pandas(df).repartition(4), "ts", "user_id",
        window_days=7, k=256,
    ).set_index("day")
    # exact reference per trailing window
    d0 = int(df["ts"].min().normalize().value // 86_400_000_000_000 // 1000)
    days = (df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
            // 86_400_000_000)
    for day in out.index:
        m = (days >= day - 6) & (days <= day)
        exact = len(np.unique(df["user_id"].to_numpy()[m]))
        est = out.loc[day, "est_distinct"]
        assert abs(est - exact) / exact < 0.2  # ~3/sqrt(256)
    assert out["n_days"].iloc[0] == 1 and out["n_days"].iloc[-1] == 7


def test_mix_rebalance_plan(ray_session):
    from table_annotation_ray.stages.datapipe import mix_rebalance

    rng = np.random.default_rng(93)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(3000),
            "g": rng.choice(["a", "b", "c"], 3000, p=[0.6, 0.3, 0.1]),
        }
    )
    kept, plan = mix_rebalance(
        rd.from_pandas(df).repartition(3), "g", "doc_id",
        {"a": 1.0, "b": 1.0, "c": 1.0},
    )
    plan = plan.set_index("g")
    # the scarcest group anchors: c keeps ~100%, larger groups downsample
    assert plan.loc["c", "pct"] == 100
    assert plan.loc["a", "pct"] < plan.loc["b", "pct"] < 100
    out = kept.to_pandas()
    mix = out["g"].value_counts()
    # achieved mix near uniform (hash-percent granularity dominates)
    assert mix.max() / mix.min() < 1.3
    # determinism across partitionings
    kept2, _ = mix_rebalance(
        rd.from_pandas(df).repartition(7), "g", "doc_id",
        {"a": 1.0, "b": 1.0, "c": 1.0},
    )
    assert sorted(kept2.to_pandas()["doc_id"]) == sorted(out["doc_id"])
    # a group absent from targets drops entirely
    kept3, plan3 = mix_rebalance(
        rd.from_pandas(df), "g", "doc_id", {"a": 1.0, "b": 1.0}
    )
    assert (kept3.to_pandas()["g"] != "c").all()


def test_ncd_pairs_properties(ray_session):
    from table_annotation_ray.stages.textstats import ncd_pairs

    base = "the quick brown fox jumps over the lazy dog " * 20
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [base, base + "tail change", "completely different "
                     "content with other words entirely " * 15],
        }
    )
    cand = pd.DataFrame({"doc_a": [1, 1], "doc_b": [2, 3]})
    out = (
        ncd_pairs(rd.from_pandas(docs).repartition(2), rd.from_pandas(cand))
        .to_pandas()
        .set_index(["doc_a", "doc_b"])
    )
    near, far = out.loc[(1, 2), "ncd"], out.loc[(1, 3), "ncd"]
    assert near < far  # near-duplicate compresses together
    assert near < 0.4 and far > 0.5
    assert (out["c_ab"] >= out[["c_a", "c_b"]].min(axis=1)).all()


def test_vocab_growth_monotone(ray_session):
    from table_annotation_ray.stages.textstats import vocab_growth

    rng = np.random.default_rng(97)
    words = [f"w{i}" for i in range(300)]
    texts = [
        " ".join(rng.choice(words, 30))
        for _ in range(120)
    ]
    df = pd.DataFrame({"doc_id": range(120), "text": texts})
    out = vocab_growth(rd.from_pandas(df).repartition(4), grid=(10, 40, 120))
    v = out["vocab"].to_numpy()
    t = out["total_tokens_at_k"].to_numpy()
    assert (np.diff(v) > 0).all() and (np.diff(t) > 0).all()
    # exact check vs sequential reference at each k
    for k, vk, tk in zip(out["k"], v, t):
        seen = set()
        tot = 0
        for i in range(k):
            ws = texts[i].lower().split()
            seen.update(ws)
            tot += len(ws)
        assert vk == len(seen) and tk == tot


def test_event_kgrams_hand(ray_session):
    from table_annotation_ray.stages.windows import event_kgrams

    df = pd.DataFrame(
        {
            "u": [1, 1, 1, 1, 2, 2, 2],
            "t": [0, 1, 2, 3, 0, 1, 2],
            "e": ["a", "b", "a", "b", "a", "b", "a"],
        }
    )
    out = (
        event_kgrams(rd.from_pandas(df).repartition(2), "u", ["t"], "e", k=3)
        .to_pandas()
        .set_index(["t_0", "t_1", "t_2"])
    )
    # user1: aba, bab; user2: aba -> aba x2, bab x1
    assert out.loc[("a", "b", "a"), "n"] == 2
    assert out.loc[("b", "a", "b"), "n"] == 1
    assert len(out) == 2
    # k-grams never cross users: user2 has no 4th event


def test_isotonic_calibration_hand():
    from table_annotation_ray.stages.stats import isotonic_calibration

    bins = pd.DataFrame(
        {
            "tile": [1, 2, 3, 4],
            "n": [10, 10, 10, 10],
            "pos": [1, 5, 3, 9],  # violation at 3
        }
    )
    out = isotonic_calibration(bins)
    # bins 2 and 3 pool: (5+3)/(10+10) = 0.4
    assert list(out["iso_rate"]) == [0.1, 0.4, 0.4, 0.9]
    # already monotone input is unchanged
    mono = pd.DataFrame({"tile": [1, 2], "n": [5, 5], "pos": [1, 4]})
    assert list(isotonic_calibration(mono)["iso_rate"]) == [0.2, 0.8]
    # cascading pool
    casc = pd.DataFrame({"tile": [1, 2, 3], "n": [10, 10, 10],
                         "pos": [6, 4, 2]})
    assert list(isotonic_calibration(casc)["iso_rate"]) == [0.4, 0.4, 0.4]


def test_capture_recapture_estimate(ray_session):
    from table_annotation_ray.stages.stats import capture_recapture

    df = pd.DataFrame({"uid": np.repeat(np.arange(5000), 2)})
    out = capture_recapture(
        rd.from_pandas(df).repartition(4), "uid", pct=30
    ).iloc[0]
    # both captures near 30% of 5000; estimate within 15% of truth
    assert 1200 < out["n1"] < 1800 and 1200 < out["n2"] < 1800
    assert abs(out["est_chapman"] - 5000) / 5000 < 0.15
    # duplicates in the input must not inflate the captures
    out2 = capture_recapture(
        rd.from_pandas(pd.DataFrame({"uid": np.arange(5000)})), "uid", pct=30
    ).iloc[0]
    assert out["n1"] == out2["n1"] and out["m"] == out2["m"]


def test_simpson_check_planted_flip(ray_session):
    from table_annotation_ray.stages.stats import simpson_check

    rng = np.random.default_rng(101)
    # segment A: y increases with x; segment B: y DECREASES with x but
    # sits at much higher y for low x -> pooled slope positive, B flips
    xa = rng.integers(1, 20, 300)
    xb = rng.integers(20, 40, 300)
    df = pd.concat(
        [
            pd.DataFrame({"seg": "A", "x": xa,
                          "y": np.round(2.0 * xa + rng.normal(0, 1, 300), 2)}),
            pd.DataFrame({"seg": "B", "x": xb,
                          "y": np.round(200.0 - 1.5 * xb
                                        + rng.normal(0, 1, 300), 2)}),
        ],
        ignore_index=True,
    )
    out = simpson_check(
        rd.from_pandas(df).repartition(3), "seg", "x", "y"
    ).set_index("seg")
    assert out.loc["A", "sign_seg"] == 1
    assert out.loc["B", "sign_seg"] == -1
    assert out.loc["A", "sign_pooled"] == out.loc["B", "sign_pooled"] == 1
    assert out.loc["B", "flip"] == 1 and out.loc["A", "flip"] == 0


def test_doc_novelty_sequential(ray_session):
    from table_annotation_ray.stages.textstats import doc_novelty

    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": ["a b c", "a b d", "a e"],
        }
    )
    out = (
        doc_novelty(rd.from_pandas(df).repartition(2))
        .to_pandas()
        .set_index("doc")
    )
    assert out.loc[0, "novelty"] == 1.0  # everything new
    assert out.loc[1, "n_new"] == 1 and out.loc[1, "novelty"] == 1 / 3
    assert out.loc[2, "n_new"] == 1 and out.loc[2, "novelty"] == 1 / 2


def test_audio_spectral_tone_recovery(ray_session):
    from table_annotation_ray.functions import codecs
    from table_annotation_ray.stages.multimodal import AudioSpectralFeatures

    sr = 16000
    t = np.arange(sr) / sr
    lo = codecs.encode_wav((0.8 * np.sin(2 * np.pi * 440 * t)), sr)
    hi = codecs.encode_wav((0.8 * np.sin(2 * np.pi * 4000 * t)), sr)
    batch = pa.table(
        {"media_id": pa.array([1, 2, 3], pa.int64()),
         "payload": pa.array([lo, hi, b"notaudio"], pa.binary())}
    )
    out = AudioSpectralFeatures()(batch).to_pandas().set_index("media_id")
    # pure tones: centroid ~= f/sr_nyquist fraction = f/sr * ... f/(sr) in [0,0.5]
    assert abs(out.loc[1, "centroid_norm"] - 440 / sr) < 0.01
    assert abs(out.loc[2, "centroid_norm"] - 4000 / sr) < 0.01
    assert out.loc[2, "zcr"] > out.loc[1, "zcr"]
    assert not out.loc[3, "decoded"] and np.isnan(out.loc[3, "centroid_norm"])


def test_image_ssim_separates_planted(ray_session):
    from table_annotation_ray.stages.multimodal import (
        image_ssim_pairs, plant_perturbed_images, synth_media_table,
    )

    t = plant_perturbed_images(synth_media_table(n=48, seed=9),
                               n_planted=6, noise=2)
    ids = [r["media_id"] for r in t.to_pylist() if r["media_id"] >= 1_000_000]
    import pandas as pd

    planted = pd.DataFrame(
        {"media_a": [i - 1_000_000 for i in ids], "media_b": ids}
    )
    img_ids = sorted(
        r["media_id"] for r in t.to_pylist()
        if r["kind"] == "image" and r["media_id"] < 1_000_000
    )
    random_pairs = pd.DataFrame(
        {"media_a": img_ids[0:3], "media_b": img_ids[3:6]}
    )
    sp = image_ssim_pairs(t, planted)["ssim"]
    rp = image_ssim_pairs(t, random_pairs)["ssim"]
    assert sp.min() > 0.9  # noise-2 perturbation stays near-identical
    assert sp.min() > rp.max()  # planted pairs separate from random
    # identical pair -> ssim == 1
    same = image_ssim_pairs(
        t, pd.DataFrame({"media_a": [img_ids[0]], "media_b": [img_ids[0]]})
    )
    assert same["ssim"].iloc[0] == 1.0


def test_l_diversity_hand(ray_session):
    from table_annotation_ray.stages.dq import l_diversity

    df = pd.DataFrame(
        {
            "zip": ["1"] * 4 + ["2"] * 4,
            "sens": ["a", "a", "a", "a", "x", "y", "z", "x"],
        }
    )
    out = l_diversity(
        rd.from_pandas(df).repartition(2), ["zip"], "sens", l=2
    ).set_index("zip")
    # class 1 is large but zero-diversity -> risky; class 2 has 3 values
    assert out.loc["1", "n"] == 4 and out.loc["1", "n_sensitive"] == 1
    assert out.loc["1", "risky"] == 1
    assert out.loc["2", "n_sensitive"] == 3 and out.loc["2", "risky"] == 0


def test_skipgram_pairs_hand(ray_session):
    from table_annotation_ray.stages.textstats import skipgram_pairs

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["a b c", "b a"]})
    out = (
        skipgram_pairs(rd.from_pandas(df).repartition(2), window=2)
        .to_pandas()
        .set_index(["center", "context"])["n"]
    )
    # doc1 (w<=2): (a,b),(b,a),(b,c),(c,b),(a,c),(c,a); doc2: (b,a),(a,b)
    assert out[("a", "b")] == 2 and out[("b", "a")] == 2
    assert out[("a", "c")] == 1 and out[("c", "a")] == 1
    assert out.sum() == 8
    # pairs never cross documents
    assert ("c", "b") in out.index and out[("c", "b")] == 1


def test_conformal_intervals_coverage(ray_session):
    from table_annotation_ray.stages.stats import conformal_intervals

    rng = np.random.default_rng(107)
    n = 4000
    df = pd.DataFrame(
        {
            "event_id": np.arange(n),
            "g": rng.choice(["a", "b"], n),
            "value": np.round(rng.normal(100, 10, n), 2),
        }
    )
    out = conformal_intervals(
        rd.from_pandas(df).repartition(4), "g", "event_id", "value",
        alpha=0.1,
    ).set_index("g")
    # conformal guarantee: >= 90% of CALIBRATION rows fall inside
    # [mean - qhat, mean + qhat] by construction of the rank
    for g, sub in df[df["event_id"] % 2 == 1].groupby("g"):
        m = out.loc[g, "mean_pred"]
        q = out.loc[g, "qhat"]
        cover = (np.abs(sub["value"] - m) <= q).mean()
        assert cover >= 0.9
        # and the width is not degenerate (roughly 1.64 sigma for normal)
        assert 12 < q < 25
    assert (out["n_train"] + out["n_cal"]).sum() == n


def test_conformal_intervals_even_only_block_is_typed(ray_session):
    """A block holding only even (training) ids has no calibration row:
    its residual block must be empty and typed like the input, not a
    NULL-typed frame that Ray logs as a schema change."""
    import logging

    from table_annotation_ray.stages.stats import conformal_intervals

    rng = np.random.default_rng(5)
    n = 400
    df = pd.DataFrame({"event_id": np.arange(n), "g": rng.choice(["a", "b"], n),
                       "value": np.round(rng.normal(100, 10, n), 2)})
    even = df[df["event_id"] % 2 == 0].iloc[:50]

    class Collect(logging.Handler):
        def __init__(self):
            super().__init__(logging.WARNING)
            self.messages = []

        def emit(self, record):
            self.messages.append(record.getMessage())

    logger = logging.getLogger("ray.data")
    handler, level = Collect(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        split = conformal_intervals(rd.from_pandas([even, df.drop(even.index)]),
                                    "g", "event_id", "value")
    finally:
        logger.setLevel(level)
        logger.removeHandler(handler)
    assert not [m for m in handler.messages if "different schema" in m]
    whole = conformal_intervals(rd.from_pandas(df), "g", "event_id", "value")
    pd.testing.assert_frame_equal(split, whole)

    from table_annotation_ray.stages.stats import _conformal_residuals

    for gtype, vals in ((pa.string(), ["a", "b"]), (pa.large_string(), ["a", "b"]),
                        (pa.int64(), [1, 2])):
        batch = pa.table({"g": pa.array(vals * 2, gtype), "event_id": [0, 2, 4, 6],
                          "value": [1.0, 2.0, 3.0, 4.0]})
        res = _conformal_residuals(batch, "g", "event_id", "value", {v: 1.0 for v in vals}, 8)
        assert res.num_rows == 0
        assert res.schema == pa.schema([("g", gtype), ("resid", pa.float64()),
                                        ("rid", pa.int64()), ("__cf_bkt", pa.int64())])


def test_embedding_hubness_planted_hub(ray_session):
    from table_annotation_ray.stages.similarity import brute_force_topk

    rng = np.random.default_rng(111)
    X = rng.normal(0, 1, (200, 8))
    # a tight cluster around a fixed direction: the exact center (id 1)
    # enters every cluster member's top-5 -> massive in-degree
    h = rng.normal(0, 1, 8)
    X[1] = h
    X[2:102] = h[None, :] + 0.1 * rng.normal(0, 1, (100, 8))
    df = pd.DataFrame({"vec_id": np.arange(200), "embedding": list(X)})
    ids = list(range(200))
    topk = brute_force_topk(rd.from_pandas(df).repartition(3), ids, k=5)
    deg = topk.groupby("neighbor_id").size()
    # total edges = 200 * 5; in-degree mass conserved
    assert deg.sum() == 200 * 5
    # the centroid-aligned vector is a hub (in-degree well above mean 5)
    assert deg.get(1, 0) > 15


def test_kendall_by_key_vs_scipy_free_ref(ray_session):
    from table_annotation_ray.stages.windows import kendall_by_key

    rng = np.random.default_rng(113)
    frames, expect = [], {}
    for k in range(5):
        n = int(rng.integers(3, 25))
        v = np.round(rng.normal(0, 3, n) + 0.4 * np.arange(n), 2)
        frames.append(pd.DataFrame({"k": k, "t": np.arange(n), "v": v}))
        c = d = 0
        for i in range(n):
            for j in range(i + 1, n):
                if v[j] > v[i]:
                    c += 1
                elif v[j] < v[i]:
                    d += 1
        expect[k] = (n, c, d, (c - d) / (n * (n - 1) / 2))
    df = pd.concat(frames, ignore_index=True)
    out = (
        kendall_by_key(rd.from_pandas(df).repartition(3), "k", ["t"], "v")
        .to_pandas()
        .set_index("k")
    )
    for k, (n, c, d, tau) in expect.items():
        assert out.loc[k, "n"] == n
        assert out.loc[k, "concordant"] == c
        assert out.loc[k, "discordant"] == d
        assert out.loc[k, "tau"] == tau


def test_kendall_by_key_string_keys_singleton_bucket(ray_session):
    """A bucket holding only singleton keys emits its empty block with
    the key's own type: with every key a singleton, the output is still
    string-keyed and concatenates with a populated run's blocks."""
    import ray

    from table_annotation_ray.stages.windows import kendall_by_key

    singles = pd.DataFrame({"k": ["a", "b", "c"], "t": 0, "v": [1.0, 2.0, 3.0]})
    pairs = pd.DataFrame({"k": ["x"] * 4, "t": np.arange(4), "v": [1.0, 3.0, 2.0, 4.0]})
    empty, full = (kendall_by_key(rd.from_pandas(df), "k", ["t"], "v", num_buckets=8)
                   for df in (singles, pairs))
    blocks = ray.get(empty.to_arrow_refs()) + ray.get(full.to_arrow_refs())
    assert {b.schema.field("k").type for b in blocks} == {pa.string()}
    out = pa.concat_tables(blocks).to_pylist()
    assert out == [{"k": "x", "n": 4, "concordant": 5, "discordant": 1,
                    "tau": 4 / 6}]


def test_markov_removal_hand_chain(ray_session):
    from table_annotation_ray.stages.stats import markov_removal_attribution

    # every converting journey passes through B; A appears in half the
    # journeys but never gates conversion -> B's removal effect 1.0
    rows = []
    t = pd.Timestamp("2024-01-01")
    journeys = [
        ["A", "B", "buy"],
        ["B", "buy"],
        ["A", "x"],
        ["B", "buy"],
    ]
    for u, path in enumerate(journeys):
        for i, et in enumerate(path):
            rows.append({"u": u, "ts": t + pd.Timedelta(minutes=i),
                         "e": i, "et": et})
    df = pd.DataFrame(rows)
    out = markov_removal_attribution(
        rd.from_pandas(df).repartition(2), "u", ["ts", "e"], "et", "buy"
    ).set_index("channel")
    assert out.loc["B", "removal_effect"] == pytest.approx(1.0, abs=1e-12)
    # A's removal cannot eliminate conversions (B->buy path survives)
    assert out.loc["A", "removal_effect"] < 1.0
    assert out.loc["B", "share"] > out.loc["A", "share"]


def test_zorder_oracles_floor_subsecond_hours(ray_session, tmp_path):
    """The zorder oracles bucket ``ts`` into epoch hours the way the
    engine does (``datetime64[h]``, a floor): an event 0.4 s before an
    hour boundary stays in the earlier hour.  A rounding CAST of
    ``epoch(ts)`` moves it into the next hour — here from hr 299, below
    the pruning rectangle's [300, 400], into it."""
    import duckdb

    import __ray_entry__ as e

    hour0 = pd.Timestamp(0) + pd.Timedelta(hours=1024 * 462 + 299)
    events = pd.DataFrame(
        {
            "event_id": np.arange(4, dtype=np.int64),
            "user_id": np.array([150, 151, 1024 + 160, 170], dtype=np.int64),
            "ts": [hour0 + pd.Timedelta(minutes=59, seconds=59.6),
                   hour0 + pd.Timedelta(seconds=0.4),
                   hour0 + pd.Timedelta(minutes=30),
                   hour0 - pd.Timedelta(hours=2, minutes=59, seconds=59.5)],
        }
    )
    events["ts"] = events["ts"].astype("datetime64[us]")
    sf_dir = str(tmp_path)
    events.to_parquet(os.path.join(sf_dir, "events.parquet"), index=False)
    con = duckdb.connect()
    con.register("events", events)
    ours = {}
    for name in ("zorder_layout", "zorder_pruning"):
        ours[name] = e.queries()[name](sf_dir)
        theirs = con.execute(e.oracle_sql()[name]).df()
        assert list(ours[name].columns) == list(theirs.columns), name
        assert ours[name].astype(str).values.tolist() == theirs.astype(str).values.tolist(), name
    assert ours["zorder_layout"][["min_hr", "max_hr"]].values.tolist() == [[296, 299]]
