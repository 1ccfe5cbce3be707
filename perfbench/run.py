#!/usr/bin/env python3
"""KG-engine benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs generated from ``--seed`` into ``perfbench/.cache``):

* ``kg_templates``  flagship job ``run_kg_pipeline(..., out_dir=fresh)``
  over template transcripts and the 295-label KB: warm lookup cache,
  ~150 distinct triples, so disambiguation and Ray scheduling dominate.
  Not gated in BENCHMARK.json: its ~5 s jobs are mostly Ray task and
  exchange overhead, whose run-to-run spread on a shared 4-vCPU host
  (IQR/median 0.17-0.34 of job time over ten seeds) is wider than any
  bound a gate can use.  Run it by name for its layer split.
* ``kg_diverse_kb`` the same job over a 10k-person KB with distinct
  names and uniformly drawn ``person | city`` rows: lookup misses, a
  large per-worker state build and ~1.2k distinct triples.
* ``serve_tables``  ``ServiceState.annotate`` (jobs/serve_api.py), one
  closed-loop client, no Ray, Zipf repeats over a pool of tables cut from
  template conversations: per-request latency with preprocessing on the
  path.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; one metric name covers each workload's own operation:

* ``op_p50_ms``   median op latency: one job (kg_*), one request (serve)
* ``op_tail_ms``  slowest of the first three jobs (kg_*); p95 request
  (serve, see serve.py for why not the p99)
* ``rows_per_s``  input rows (transcript turns, table data rows) per second
* ``setup_s``     median of repeated set-ups: ``ray.init`` + a warm-up job
  (kg_*), service KB load + state build (serve); input generation is
  reported apart as ``gen_s``
* ``peak_rss_mb`` RSS of this process plus its Ray workers, through
  set-up and the first three jobs (kg_*) or the whole run (serve)
* ``precision``, ``recall``  triples (kg_*) or CEA cells (serve) against
  the generator's goldens

With ``--trace 1`` it carries the per-layer metrics from a traced run on
the same inputs (layers.py).  The line before it is a JSON report with the
workload's own metric names, the host context and any check errors.
``failed``/``attempted`` in the last line count wrong or raising
operations: every output is checked (every clean golden item found,
precision and recall floors, hash equal to the run's first output).
A metric a workload should produce but did not makes the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(BENCH_DIR))

WORKLOADS = ("kg_templates", "kg_diverse_kb", "serve_tables")
# per-layer metrics of layers off a workload's path, reported as 0: the
# serve path runs no Ray stage and emits no triples
OFF_PATH = {
    "kg_templates": set(),
    "kg_diverse_kb": set(),
    "serve_tables": {
        "ray.read.s", "ray.bucket_map.s", "ray.bucket_exchange.s", "ray.annotate.s",
        "ray.annotate.tasks", "ray.annotate.skew", "ray.dedup_exchange.s",
        "ray.dedup.rows_in", "ray.dedup.rows_out", "ray.sink.s", "ray.wall.s",
        "state.rss_growth_mb_per_job", "triples.raw_rows",
    },
}


def load_spec() -> dict:
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import common
    import kg
    import serve

    try:
        if workload == "serve_tables":
            return serve.traced(seed, seconds) if trace else serve.untraced(seed, seconds)
        return (kg.traced if trace else kg.untraced)(workload, seed, seconds)
    finally:
        common.stop_ray()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    import table_annotation_ray  # noqa: F401  (fail before any output)

    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    check = res["check"]
    section = "per_layer" if args.trace else "end_to_end"
    values = res["metrics"] if args.trace else {
        **res, **check.summary()}
    metrics, missing = {}, []
    for m in spec[section]:
        name = m["name"]
        v = float(values.get(name, 0.0))
        if name not in values and not (args.trace and name in OFF_PATH[args.workload]):
            missing.append(name)
        metrics[name] = {"value": v, "unit": m["unit"]}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():  # keep the line valid JSON; correct is false
        if not math.isfinite(m["value"]):
            m["value"] = 0.0
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_ratio": check.failed / max(1, check.attempted),
        **({} if args.trace else res["report"]),
        **check.summary(),
        "context": res["context"],
        "errors": check.errors[:20],
        "missing_metrics": missing,
    }
    result = {
        "correct": (check.failed == 0 and check.attempted > 0 and finite
                    and not missing),
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
    sys.stdout.flush()
    print(json.dumps(report), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
