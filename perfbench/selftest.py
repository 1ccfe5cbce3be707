#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

* a corrupted output (one triple dropped from a real annotate result) is
  flagged by the output check, as a run's first output and after a good
  one;
* the benchmark runs correctly when launched from another directory
  (Ray workers must still import ``table_annotation_ray``);
* in a directory holding only BENCHMARK.json and this directory, it exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(BENCH_DIR))
sys.path.insert(0, BENCH_DIR)

import common  # noqa: E402
import kg  # noqa: E402

RUN = os.path.join(BENCH_DIR, "run.py")


def _scratch(name: str) -> str:
    path = os.path.join(BENCH_DIR, ".cache", f"selftest-{os.getpid()}-{name}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _dropped_triple_is_flagged(workload: str) -> None:
    path, _, _ = kg.inputs(workload, 0)
    from table_annotation_ray.config import DEFAULT_CONFIG
    from table_annotation_ray.stages.annotate_stage import AnnotateBucket
    from table_annotation_ray.state.kb import load_kb

    stage = AnnotateBucket(load_kb(os.path.join(path, "kb")), DEFAULT_CONFIG)
    rows = sorted(kg.local_dedup(
        [stage.annotate_turns_table(b) for b in kg.local_buckets(path)]))
    golden = kg.golden_triples(path)
    i = next(i for i, r in enumerate(rows) if golden.get(r[:3]))
    dropped = rows[:i] + rows[i + 1:]

    # on the first output of a run: caught by the goldens alone
    check = common.OutputCheck(golden, *kg.FLOORS[workload])
    kg.check_rows(check, dropped)
    assert (check.attempted, check.failed) == (1, 1), check.errors
    assert "clean golden" in check.errors[0], check.errors

    # after a good output: caught by the goldens and by the run's hash
    check = common.OutputCheck(golden, *kg.FLOORS[workload])
    kg.check_rows(check, rows)
    assert check.failed == 0, check.errors
    kg.check_rows(check, dropped)
    assert (check.attempted, check.failed) == (2, 1), check.errors
    assert "output hash" in check.errors[0], check.errors


def test_dropped_triple_is_flagged_kg_templates() -> None:
    _dropped_triple_is_flagged("kg_templates")


def test_dropped_triple_is_flagged_kg_diverse_kb() -> None:
    _dropped_triple_is_flagged("kg_diverse_kb")


def test_runs_from_another_directory() -> None:
    p = subprocess.run(
        [sys.executable, RUN, "--workload", "kg_templates", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=_scratch("cwd"), capture_output=True, text=True, timeout=180,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2, res


def test_fails_without_the_engine() -> None:
    root = _scratch("bare")
    shutil.copy(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), root)
    os.makedirs(os.path.join(root, "perfbench"))
    for f in os.listdir(BENCH_DIR):
        if f.endswith(".py"):
            shutil.copy(os.path.join(BENCH_DIR, f), os.path.join(root, "perfbench"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kg_templates",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert p.returncode != 0, p.stdout
    assert '"correct"' not in p.stdout, p.stdout


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"ok    {name}", flush=True)
            except Exception as e:  # report every test, then fail
                failed += 1
                print(f"FAIL  {name}: {type(e).__name__}: {e}", flush=True)
    for f in os.listdir(os.path.join(BENCH_DIR, ".cache")):
        if f.startswith(f"selftest-{os.getpid()}-"):
            shutil.rmtree(os.path.join(BENCH_DIR, ".cache", f), ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
