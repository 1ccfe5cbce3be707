"""Serve-path workload: ``ServiceState.annotate`` (jobs/serve_api.py) in
a closed loop with one client and no Ray, over a fixed pool of tables
requested with Zipf repeats, so the service's caches are warm.

The pool holds 2% hot tables (120 rows, 21-61 ms each on one core), and
they alone set the p99: with Zipf repeats over a seeded popularity order,
the p99 is the latency of whichever hot table is popular under the seed,
and it spreads by ~0.4 of its median between seeds.  So the gated tail,
``op_tail_ms``, is the p95, which spreads by ~0.05-0.07; the p99 is
reported as ``table_p99_ms``.

The pool size is an assumption, not a measured value.  It is 2000 tables
so that ~40 hot tables share the popularity ranks: with 400 (8 hot), one
seed in ~20 put hot tables on enough top ranks to draw over 5% of the
requests, which moved the p95 from ~12 ms to 40-50 ms."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import statistics
import time

import common
import gen
import layers

POOL_TABLES = 2000
SEQUENCE = 20_000  # longer than any run consumes; replayed from the start
TRACE_REQUESTS = 800
SETUP_REPEATS = 9
# CEA (precision, recall) floors against the generator's truth, besides
# every clean cell being found.  Today's engine over seeds 201-203 and
# 801-810: precision 1.0, recall 0.997-0.999 (typos that lookup cannot
# recover).
FLOORS = (0.99, 0.98)


def _service_class():
    path = os.path.join(common.REPO_ROOT, "jobs", "serve_api.py")
    spec = importlib.util.spec_from_file_location("serve_api", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ServiceState


def inputs(seed: int) -> tuple[str, dict, float]:
    t0 = time.perf_counter()
    path = gen.serve_tables(common.BENCH_DIR, seed, POOL_TABLES, SEQUENCE)
    with open(os.path.join(path, "requests.json")) as f:
        data = json.load(f)
    return path, data, time.perf_counter() - t0


def _digest(resp: dict) -> str:
    return hashlib.sha256(
        json.dumps(resp["annotated"], sort_keys=True).encode()).hexdigest()


def _cea(idx: int, resp: dict) -> set:
    return {(idx, c["row"], c["column"], c["annotation"]["uri"].rsplit("/", 1)[-1])
            for c in resp["annotated"]["CEA"]}


class Client:
    """The closed-loop client: holds the pool, its goldens and the answer
    the service first gave to each table."""

    def __init__(self, data: dict):
        self.tables = data["tables"]
        self.sequence = data["sequence"]
        golden = {(i, r, c, q): clean for i, cells in enumerate(data["truth"])
                  for r, c, q, clean in cells}
        self.check = common.OutputCheck(golden, *FLOORS)
        self.ref: list[str] = []
        self.rows = data["rows"]

    def warm(self, state) -> float:
        """Every pool table once, checked; the answers become the reference
        each later request is compared with.  Returns the seconds spent
        in ``annotate``."""
        t0 = time.perf_counter()
        resps = [state.annotate(table) for table in self.tables]
        elapsed = time.perf_counter() - t0
        digests = [(i, _digest(r)) for i, r in enumerate(resps)]
        self.ref = [d for _, d in digests]
        self.check.check(digests, set().union(*(_cea(i, r) for i, r in enumerate(resps))))
        return elapsed

    def replay(self, state, n: int | None = None, seconds: float | None = None):
        """Requests in sequence order until ``n`` are done or ``seconds``
        pass; returns (latencies in s, data rows served, wall s)."""
        lat, rows = [], 0
        t_start = time.perf_counter()
        for k in range(n if n is not None else len(self.sequence) * 1000):
            idx = self.sequence[k % len(self.sequence)]
            t0 = time.perf_counter()
            try:
                resp = state.annotate(self.tables[idx])
                t1 = time.perf_counter()
                lat.append(t1 - t0)
                rows += self.rows[idx]
                ok = _digest(resp) == self.ref[idx]
                self.check.record(ok, "" if ok else f"request {k}: table {idx} answer changed")
            except Exception as e:  # a failed request is counted, not fatal
                t1 = time.perf_counter()
                self.check.record(False, f"request {k}: {type(e).__name__}: {e}")
            if seconds is not None and t1 - t_start >= seconds:
                break
        return lat, rows, time.perf_counter() - t_start


def setup(ServiceState, kb_dir: str, repeats: int):
    """Service start-up (KB load, state build), ``repeats`` times; returns
    (times, the last service)."""
    times, state = [], None
    for _ in range(repeats):
        state = None
        t0 = time.perf_counter()
        state = ServiceState(kb_dir)
        times.append(time.perf_counter() - t0)
    return times, state


def _percentile(values: list[float], q: float) -> float:
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def untraced(seed: int, seconds: float) -> dict:
    path, data, gen_s = inputs(seed)
    ServiceState = _service_class()
    client = Client(data)
    with common.RssSampler() as rss:
        setups, state = setup(ServiceState, os.path.join(path, "kb"), SETUP_REPEATS)
        warm_s = client.warm(state)
        lat, rows, wall = client.replay(state, seconds=seconds)
        context = common.host_context(None)
    p50 = statistics.median(lat)
    p95 = _percentile(lat, 0.95)
    p99 = _percentile(lat, 0.99)
    return {
        "check": client.check,
        "setup_s": statistics.median(setups),
        "op_p50_ms": p50 * 1e3,
        "op_tail_ms": p95 * 1e3,
        "rows_per_s": rows / wall,
        "peak_rss_mb": rss.peak_mb,
        "report": {
            "table_p50_ms": p50 * 1e3, "table_p95_ms": p95 * 1e3,
            "table_p99_ms": p99 * 1e3, "requests": len(lat),
            "tables_per_s": len(lat) / wall, "data_rows_per_s": rows / wall,
            "setup_samples_s": setups, "warm_pass_s": warm_s, "gen_s": gen_s,
        },
        "context": context,
    }


def traced(seed: int, seconds: float) -> dict:
    path, data, _ = inputs(seed)
    ServiceState = _service_class()
    client = Client(data)
    tracer = layers.Tracer()
    from table_annotation_ray.stages import annotate_stage
    from table_annotation_ray.state import kb as kb_mod

    with tracer.patched(kb_mod, "load_kb", lambda f: tracer.timed("state.load_kb", f)), \
            tracer.patched(annotate_stage, "AnnotateBucket",
                           lambda f: tracer.timed("state.ctor", f)):
        state = ServiceState(os.path.join(path, "kb"))
    client.warm(state)
    _, _, wall_untraced = client.replay(state, n=TRACE_REQUESTS)
    with tracer.instrument_service(state):
        _, _, wall = client.replay(state, n=TRACE_REQUESTS)
    return {"check": client.check,
            "metrics": tracer.annotate_metrics(wall, wall_untraced),
            "context": common.host_context(None)}
