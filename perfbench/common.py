"""Host context, Ray session, memory sampling and output checks shared by
the benchmark workloads."""

from __future__ import annotations

import hashlib
import os
import statistics
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


# --------------------------------------------------------------------------
# host context
# --------------------------------------------------------------------------

def run_canary() -> float:
    """Fixed pure-CPU workload (numpy matmul, no Ray), the same on every
    commit: divide wall times by it to compare hosts or contention."""
    import numpy as np

    a = np.random.default_rng(0).normal(size=(600, 600))
    t0 = time.perf_counter()
    for _ in range(8):
        a = a @ a / np.linalg.norm(a)
    return time.perf_counter() - t0


def host_context(num_cpus: int | None) -> dict:
    import pyarrow
    import ray

    return {
        # as GNU nproc counts: OMP_NUM_THREADS when set, else affinity
        "nproc": int(os.environ.get("OMP_NUM_THREADS") or len(os.sched_getaffinity(0))),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "ray_num_cpus": num_cpus,
        "loadavg_1m": os.getloadavg()[0],
        "canary_s": run_canary(),
        "ray_version": ray.__version__,
        "pyarrow_version": pyarrow.__version__,
    }


# --------------------------------------------------------------------------
# Ray session
# --------------------------------------------------------------------------

def ray_temp_dir() -> str | None:
    """Ray's temp dir (session logs, sockets, spilled objects) inside the
    checkout, so that a run writes nowhere else; None, Ray's default under
    /tmp, when the checkout path is too long (over ~38 characters) for
    Ray's socket paths to fit the 107-byte AF_UNIX limit there."""
    path = os.path.join(REPO_ROOT, ".ray")
    longest = os.path.join(
        path, "session_2000-01-01_00-00-00_000000_4194304", "sockets", "plasma_store")
    return path if len(longest.encode()) <= 107 else None


def start_ray(num_cpus: int) -> None:
    """Local session sized to ``num_cpus``.  Workers get the repo root and
    this directory on their PYTHONPATH: they do not inherit this process's
    ``sys.path``, so without it every task fails to import
    ``table_annotation_ray`` when the benchmark is launched from another
    directory."""
    import logging

    import ray
    from ray.data.context import DataContext

    ray.init(
        address="local",
        num_cpus=num_cpus,
        object_store_memory=512 * 1024 * 1024,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        runtime_env={"env_vars": {"PYTHONPATH": os.pathsep.join([REPO_ROOT, BENCH_DIR])}},
        _temp_dir=ray_temp_dir(),
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def stop_ray() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()


# --------------------------------------------------------------------------
# memory
# --------------------------------------------------------------------------

def _rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, IndexError, ValueError):
        return 0.0


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    return kids


class RssSampler:
    """Background sampler of the RSS of this process plus its Ray worker
    processes (descendants whose command line is ``ray::...`` or
    ``default_worker.py``), read from /proc every ``interval`` seconds."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.peak_mb = 0.0
        self._is_worker: dict[int, bool] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _worker(self, pid: int) -> bool:
        hit = self._is_worker.get(pid)
        if hit is None:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    cmd = f.read()
            except OSError:
                return False
            hit = cmd.startswith(b"ray::") or b"default_worker.py" in cmd
            self._is_worker[pid] = hit
        return hit

    def worker_pids(self) -> list[int]:
        kids = _children()
        out, stack = [], list(kids.get(os.getpid(), []))
        while stack:
            pid = stack.pop()
            stack.extend(kids.get(pid, []))
            if self._worker(pid):
                out.append(pid)
        return out

    def workers_mb(self) -> float:
        return sum(_rss_mb(p) for p in self.worker_pids())

    def sample(self) -> float:
        now = _rss_mb(os.getpid()) + self.workers_mb()
        self.peak_mb = max(self.peak_mb, now)
        return now

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

def triple_set_hash(rows) -> str:
    """Order-independent hash of an iterable of row tuples."""
    h = hashlib.sha256()
    for r in sorted(rows):
        h.update(repr(r).encode())
    return h.hexdigest()


def read_sink(out_dir: str):
    """(subj, pred, obj, score, conv_id) rows the partitioned sink wrote."""
    import pyarrow.parquet as pq

    rows = []
    for name in sorted(os.listdir(out_dir)):
        part = os.path.join(out_dir, name)
        if not (name.startswith("part=") and os.path.isdir(part)):
            continue
        for f in sorted(os.listdir(part)):
            if f.endswith(".parquet"):
                t = pq.read_table(os.path.join(part, f),
                                  columns=["subj", "pred", "obj", "score", "conv_id"])
                rows.extend(zip(*(t[c].to_pylist() for c in t.column_names)))
    return rows


def precision_recall(found: set, golden: set) -> tuple[float, float]:
    tp = len(found & golden)
    return (tp / len(found) if found else 0.0,
            tp / len(golden) if golden else 0.0)


class OutputCheck:
    """Checks every output of one workload run against the goldens and
    against the run's first output.  An output must find every clean
    golden item (see gen.py), keep precision and recall over all goldens
    at or above the floors, and hash the same as the first output.  Each
    mismatch counts as a failed operation."""

    def __init__(self, golden: dict, min_precision: float, min_recall: float):
        """``golden``: item -> clean."""
        self.golden = set(golden)
        self.must_find = {k for k, clean in golden.items() if clean}
        self.min_precision = min_precision
        self.min_recall = min_recall
        self.ref_hash = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.precision: list[float] = []
        self.recall: list[float] = []

    def check(self, full_rows, keys: set) -> None:
        """``full_rows``: every output row (hashed); ``keys``: the items
        compared with the goldens."""
        digest = triple_set_hash(full_rows)
        p, r = precision_recall(keys, self.golden)
        self.precision.append(p)
        self.recall.append(r)
        problems = []
        missing = self.must_find - keys
        if missing:
            problems.append(f"{len(missing)} clean golden item(s) missing, e.g. {min(missing)}")
        if p < self.min_precision:
            problems.append(f"precision {p:.4f} < {self.min_precision}")
        if r < self.min_recall:
            problems.append(f"recall {r:.4f} < {self.min_recall}")
        if self.ref_hash is None:
            self.ref_hash = digest
        elif digest != self.ref_hash:
            problems.append(f"output hash {digest[:12]} != {self.ref_hash[:12]}")
        self.record(not problems, "; ".join(problems))

    def record(self, ok: bool, problem: str = "") -> None:
        """One attempted operation; a failed one is counted with its
        problem."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(problem)

    def summary(self) -> dict:
        return {
            "precision": statistics.median(self.precision) if self.precision else 0.0,
            "recall": statistics.median(self.recall) if self.recall else 0.0,
        }
