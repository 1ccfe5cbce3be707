"""Per-process state cache for task-based stateful stages.

Ray Data offers actor pools for stateful stages, but a FIXED pool holds
its CPUs for the whole pipeline lifetime (starving barrier stages like
sort on a saturated node) and an AUTOSCALING pool ramps too slowly for
minute-scale stages.  The alternative used by the flagship pipeline:
plain task-based ``map_batches`` whose UDF builds its state ONCE PER
WORKER PROCESS through this cache — Ray reuses worker processes across
tasks, so the lifecycle matches the reference's module-level model
loading (spacy_ner_parser.py:30) while scheduling stays fully elastic.

State is keyed by (stage name, ref key, ...), where the ref key is the
hex of a broadcast ObjectRef.  The KB broadcast is content-addressed
(state/kb.py::broadcast_kb: one ObjectRef per KB content per Ray
session), so a worker's KB-derived state is built once per session and
reused by every later job over the same KB; a changed KB gets a new ref
and so a fresh state.  A worker holds two KB-derived entries:
``annotate`` (stages/annotate_stage.py::get_annotate_stage: the label
index, KB reader and cell typer that every lookup and annotate stage
reads, keyed on the config fields it reads) and ``typer``
(stages/typing_stage.py::worker_typer: the cell typer alone, for the
typing-only jobs that need no label index).  The driver is a process
too: ``broadcast_kb`` keeps its refs in this same cache.

The cache is an LRU that keeps at most :data:`MAX_PER_NAME` entries per
stage name (``key[0]``).  An evicted entry is rebuilt on its next use,
so eviction costs time, never a wrong answer; the bound keeps a
long-lived worker from holding one KB image per job or per KB seen.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

import ray

# entries kept per stage name: the live KB plus one other, e.g. a
# pipeline and its warm-up, or two KBs used alternately
MAX_PER_NAME = 2

_STATE: OrderedDict[tuple, Any] = OrderedDict()
_LOCK = threading.Lock()  # guards _STATE's bookkeeping, not the builders


def get_worker_state(key: tuple, builder: Callable[[], Any]) -> Any:
    with _LOCK:
        state = _STATE.get(key)
        if state is not None:
            _STATE.move_to_end(key)
            return state
    state = builder()
    with _LOCK:
        others = [k for k in _STATE if k[0] == key[0] and k != key]
        for old in others[: max(0, len(others) + 1 - MAX_PER_NAME)]:
            del _STATE[old]
        _STATE[key] = state
        _STATE.move_to_end(key)
    return state


def pop_state(name: str, stale: Callable[[tuple], bool]) -> list:
    """Remove the ``name`` entries whose key is ``stale``; return their
    values, so the caller decides when they are released."""
    with _LOCK:
        keys = [k for k in _STATE if k[0] == name and stale(k)]
        return [_STATE.pop(k) for k in keys]


def ref_key(ref: ray.ObjectRef | None) -> str | None:
    """Cache-key fragment for a broadcast ObjectRef: its hex, or None for
    None.  Any other value raises ``TypeError``: a raw value has no
    identity that outlives it, and one shipped through a task's
    ``fn_kwargs`` arrives as a fresh copy per task, so ``ray.put`` it
    and pass the ref."""
    if ref is None:
        return None
    if not isinstance(ref, ray.ObjectRef):
        raise TypeError(f"ref_key takes a ray.ObjectRef or None, not {type(ref).__name__}")
    return ref.hex()
