"""Flagship-job workloads: ``run_kg_pipeline(..., out_dir=fresh)`` in a
1-process closed loop, and the traced per-layer run on the same inputs."""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import common
import gen
import layers

from table_annotation_ray.config import DEFAULT_CONFIG
from table_annotation_ray.pipelines.kg_pipeline import read_transcripts, run_kg_pipeline
from table_annotation_ray.stages.annotate_stage import (
    AnnotateBucket,
    add_bucket,
    get_annotate_stage,
)
from table_annotation_ray.stages.triples import dedup_triples, write_triples_partitioned
from table_annotation_ray.state.kb import load_kb

# input sizes: a job takes 4-13 s on one core, which keeps a run (set-up
# plus the timed jobs) near a minute
SIZES = {
    "kg_templates": {"n_convs": 600},
    "kg_diverse_kb": {"n_people": 10_000, "n_convs": 100},
}
# golden (precision, recall) floors, besides every clean golden triple
# being found.  Today's engine, in-process over seeds 1-9 and 201-205:
# precision 1.0 on both, recall 1.0 on kg_templates and 0.990-0.998 on
# kg_diverse_kb (typos that lookup cannot recover).
FLOORS = {"kg_templates": (0.99, 1.0), "kg_diverse_kb": (0.99, 0.98)}
NUM_CPUS = 1
SETUP_REPEATS = 2
# op_tail_ms and peak_rss_mb are taken over the first FIXED_JOBS timed
# jobs, the same count on every run however fast the jobs are: a faster
# engine fits more jobs into a run, and a maximum over more jobs is higher
FIXED_JOBS = 3
WARM_CONVS = 40


def inputs(workload: str, seed: int) -> tuple[str, str, float]:
    """(input dir, warm-up input dir, generation seconds)."""
    t0 = time.perf_counter()
    if workload == "kg_templates":
        path = gen.kg_templates(common.BENCH_DIR, seed, **SIZES[workload])
    else:
        path = gen.kg_diverse_kb(common.BENCH_DIR, seed, **SIZES[workload])
    warm = gen.kg_templates(common.BENCH_DIR, seed, WARM_CONVS)
    return path, warm, time.perf_counter() - t0


def golden_triples(path: str) -> dict:
    """(subj, pred, obj) -> clean."""
    t = pq.read_table(os.path.join(path, "golden_triples.parquet"))
    return dict(zip(zip(t["subj"].to_pylist(), t["pred"].to_pylist(), t["obj"].to_pylist()),
                    t["clean"].to_pylist()))


def _out_dir(tag: str) -> str:
    return os.path.join(common.BENCH_DIR, ".cache", f"out-{os.getpid()}-{tag}")


def run_job(path: str, tag: str) -> tuple[float, list]:
    """One flagship job into a fresh sink; returns (seconds, sink rows)."""
    out = _out_dir(tag)
    shutil.rmtree(out, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        run_kg_pipeline(os.path.join(path, "transcripts.parquet"),
                        os.path.join(path, "kb"), out_dir=out)
        dt = time.perf_counter() - t0
        return dt, common.read_sink(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def setup(warm: str, repeats: int) -> list[float]:
    """``ray.init`` plus one untimed warm-up job, ``repeats`` times; the
    session of the last repeat stays up."""
    times = []
    for i in range(repeats):
        t0 = time.perf_counter()
        common.start_ray(NUM_CPUS)
        run_job(warm, "warm")
        times.append(time.perf_counter() - t0)
        if i + 1 < repeats:
            common.stop_ray()
    return times


def check_rows(check: common.OutputCheck, rows) -> None:
    check.check(rows, {r[:3] for r in rows})


def untraced(workload: str, seed: int, seconds: float) -> dict:
    path, warm, gen_s = inputs(workload, seed)
    check = common.OutputCheck(golden_triples(path), *FLOORS[workload])
    n_turns = pq.ParquetFile(os.path.join(path, "transcripts.parquet")).metadata.num_rows
    jobs: list[float] = []
    with common.RssSampler() as rss:
        setups = setup(warm, SETUP_REPEATS)
        peak_fixed = None
        t_start = time.perf_counter()
        while len(jobs) < FIXED_JOBS or time.perf_counter() - t_start < seconds:
            try:
                dt, rows = run_job(path, f"job{len(jobs)}")
            except Exception as e:  # a failed job is counted, not fatal
                check.record(False, f"job {len(jobs)}: {type(e).__name__}: {e}")
                break
            jobs.append(dt)
            check_rows(check, rows)
            if len(jobs) == FIXED_JOBS:
                rss.sample()
                peak_fixed = rss.peak_mb
        context = common.host_context(NUM_CPUS)
    common.stop_ray()
    job_s = statistics.median(jobs) if jobs else float("nan")
    return {
        "check": check,
        "setup_s": statistics.median(setups),
        "op_p50_ms": job_s * 1e3,
        "op_tail_ms": max(jobs[:FIXED_JOBS]) * 1e3 if jobs else float("nan"),
        "rows_per_s": n_turns / job_s,
        "peak_rss_mb": peak_fixed or rss.peak_mb,
        "report": {
            "job_s": job_s, "jobs": len(jobs), "job_samples_s": jobs,
            "turns": n_turns, "turns_per_s": n_turns / job_s,
            "setup_samples_s": setups, "gen_s": gen_s,
        },
        "context": context,
    }


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------

def _prefilter(table: pa.Table) -> pa.Table:
    cap = DEFAULT_CONFIG.runtime.max_rows_per_conv
    return table.filter(pc.less(table["turn_idx"], cap))


def local_buckets(path: str) -> list[pa.Table]:
    """The flagship's annotate groups, formed in process: pre-shuffle cap,
    ``add_bucket``, one table per bucket."""
    t = _prefilter(pq.read_table(os.path.join(path, "transcripts.parquet"),
                                 columns=["conv_id", "turn_idx", "text"]))
    t = add_bucket(t, DEFAULT_CONFIG.runtime.num_buckets)
    t = t.sort_by("bucket")
    b = t["bucket"].to_numpy()
    edges = [0] + [i for i in range(1, len(b)) if b[i] != b[i - 1]] + [len(b)]
    return [t.slice(lo, hi - lo) for lo, hi in zip(edges, edges[1:])]


def local_dedup(tables: list[pa.Table]) -> list:
    """(subj, pred, obj) → max score, min conv_id: the sink's rows."""
    best: dict[tuple, tuple] = {}
    for t in tables:
        for s, p, o, c, sc in zip(*(t[k].to_pylist() for k in
                                    ("subj", "pred", "obj", "conv_id", "score"))):
            prev = best.get((s, p, o))
            if prev is None:
                best[(s, p, o)] = (sc, c)
            else:
                best[(s, p, o)] = (max(prev[0], sc), min(prev[1], c))
    return [(s, p, o, sc, c) for (s, p, o), (sc, c) in best.items()]


def _identity(group: pa.Table) -> pa.Table:
    return group


def _annotate_blocks(block: pa.Table, kb_ref, log_path: str) -> pa.Table:
    """Annotate stage of the staged Ray run: splits an exchanged block into
    its buckets and makes the flagship's per-bucket call on each,
    appending one ``bucket seconds`` line per call to ``log_path``."""
    stage = get_annotate_stage(kb_ref, DEFAULT_CONFIG)
    b = block["bucket"].to_numpy()
    edges = [0] + [i for i in range(1, len(b)) if b[i] != b[i - 1]] + [len(b)]
    outs, lines = [], []
    for lo, hi in zip(edges, edges[1:]):
        t0 = time.perf_counter()
        outs.append(stage.annotate_turns_table(block.slice(lo, hi - lo)))
        lines.append(f"{int(b[lo])} {time.perf_counter() - t0}\n")
    with open(log_path, "a") as f:
        f.writelines(lines)
    return pa.concat_tables(outs) if outs else layers.EMPTY_TRIPLES


def staged_ray_job(path: str, rss: common.RssSampler) -> tuple[dict, list]:
    """The flagship's stages one at a time, with ``materialize()`` as the
    barrier between them; returns (metrics, sink rows)."""
    import ray

    cfg = DEFAULT_CONFIG
    out = _out_dir("traced")
    log = _out_dir("buckets.log")
    shutil.rmtree(out, ignore_errors=True)
    if os.path.exists(log):
        os.remove(log)
    m: dict[str, float] = {}
    workers_before = rss.workers_mb()
    t_all = time.perf_counter()
    try:
        kb_ref = ray.put(load_kb(os.path.join(path, "kb")))

        t0 = time.perf_counter()
        ds = read_transcripts(os.path.join(path, "transcripts.parquet")).materialize()
        m["ray.read.s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        ds = ds.filter(expr=f"turn_idx < {cfg.runtime.max_rows_per_conv}").map_batches(
            add_bucket, batch_format="pyarrow",
            fn_kwargs={"num_buckets": cfg.runtime.num_buckets}).materialize()
        m["ray.bucket_map.s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        ds = ds.groupby("bucket").map_groups(_identity, batch_format="pyarrow").materialize()
        m["ray.bucket_exchange.s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        raw = ds.map_batches(_annotate_blocks, batch_format="pyarrow", batch_size=None,
                             fn_kwargs={"kb_ref": kb_ref, "log_path": log}).materialize()
        m["ray.annotate.s"] = time.perf_counter() - t0
        with open(log) as f:
            bucket_s = [float(line.split()[1]) for line in f]
        m["ray.annotate.tasks"] = len(bucket_s)
        m["ray.annotate.skew"] = (max(bucket_s) / statistics.mean(bucket_s)
                                  if bucket_s and statistics.mean(bucket_s) > 0 else 0.0)
        m["ray.dedup.rows_in"] = raw.count()

        t0 = time.perf_counter()
        deduped = dedup_triples(raw).materialize()
        m["ray.dedup_exchange.s"] = time.perf_counter() - t0
        m["ray.dedup.rows_out"] = deduped.count()

        t0 = time.perf_counter()
        write_triples_partitioned(deduped, out, cfg.runtime.triple_partitions,
                                  lineage={"input": path})
        m["ray.sink.s"] = time.perf_counter() - t0
        m["ray.wall.s"] = time.perf_counter() - t_all
        m["state.rss_growth_mb_per_job"] = rss.workers_mb() - workers_before
        return m, common.read_sink(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if os.path.exists(log):
            os.remove(log)


def traced(workload: str, seed: int, seconds: float) -> dict:
    path, warm, _ = inputs(workload, seed)
    check = common.OutputCheck(golden_triples(path), *FLOORS[workload])
    buckets = local_buckets(path)
    kb_dir = os.path.join(path, "kb")

    # in process, each pass on cold state: a discarded first pass (it runs
    # faster than any later one), an untraced pass, then the traced pass
    wall_untraced = 0.0
    for _ in range(2):
        stage = AnnotateBucket(load_kb(kb_dir), DEFAULT_CONFIG)
        t0 = time.perf_counter()
        for b in buckets:
            stage.annotate_turns_table(b)
        wall_untraced = time.perf_counter() - t0
        del stage
        gc.collect()

    tracer = layers.Tracer()
    t0 = time.perf_counter()
    kb = load_kb(kb_dir)
    tracer.add("state.load_kb", time.perf_counter() - t0)
    t0 = time.perf_counter()
    stage = AnnotateBucket(kb, DEFAULT_CONFIG)
    tracer.add("state.ctor", time.perf_counter() - t0)
    with tracer.instrument_stage(stage):
        t0 = time.perf_counter()
        outs = [stage.annotate_turns_table(b) for b in buckets]
        wall = time.perf_counter() - t0
    check_rows(check, local_dedup(outs))
    metrics = tracer.annotate_metrics(wall, wall_untraced)
    metrics["triples.raw_rows"] = sum(t.num_rows for t in outs)

    with common.RssSampler() as rss:
        setup(warm, 1)
        try:
            ray_m, rows = staged_ray_job(path, rss)
            metrics.update(ray_m)
            check_rows(check, rows)
        except Exception as e:
            check.record(False, f"staged job: {type(e).__name__}: {e}")
        context = common.host_context(NUM_CPUS)
    common.stop_ray()
    return {"check": check, "metrics": metrics, "context": context}
