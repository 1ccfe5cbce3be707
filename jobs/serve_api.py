#!/usr/bin/env python
"""Lookup / preprocessing / annotation HTTP service — the reference's
deployable surface (README API examples + docker-compose.yml) for this
engine.  Where the reference serves from Elasticsearch + LMDB sidecars,
this service holds the KB image, SymSpell lookup index, gazetteer NER
and annotator IN PROCESS (loaded once at startup, the ST3–ST5 state
pattern) and answers per-request without Ray — serving is single-table
latency work; corpus-scale batches belong to the job CLIs
(jobs/run_kg.py, jobs/run_tables.py).

Endpoints (stdlib ThreadingHTTPServer, JSON in/out):

* ``GET  /health``      → {"status": "ok", "entities": N}
* ``POST /lookup``      {"labels": ["MUFC", ...]} →
  reference entity_lookup shape (README.md "Entity Lookup"):
  {"executionTimeSec": t, "output": [{"label": .., "entities":
  [{"entity","label","score"}...]}]}
* ``POST /preprocess``  {"table": [[..], ..]} →
  reference table_preprocessing shape: {"raw": {"tableDataRaw": ..},
  "preprocessed": {..}}
* ``POST /annotate``    {"table": [[..], ..]} →
  reference table_annotation shape: {"annotated": {"CEA": ..,
  "CTA": .., "CPA": ..}, "raw": {..}, "requestInfo": {"id": n}}

Run::

    python jobs/serve_api.py --kb /path/to/kb --port 8765

Smoke::

    curl -s -X POST localhost:8765/lookup -d '{"labels": ["Paris"]}'
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class _StageView:
    """What ``annotate_single`` reads of a stage: the shared cell typer
    and KB reader, and one thread's annotator."""

    __slots__ = ("_type_cell", "kbr", "annotator")

    def __init__(self, stage, annotator):
        self._type_cell = stage._type_cell
        self.kbr = stage.kbr
        self.annotator = annotator


class ServiceState:
    """All model state, loaded once (the per-actor __init__ pattern)."""

    def __init__(self, kb_dir: str):
        from table_annotation_ray.config import DEFAULT_CONFIG
        from table_annotation_ray.stages.annotate_stage import AnnotateBucket
        from table_annotation_ray.state.kb import load_kb

        self.kb = load_kb(kb_dir)
        # AnnotateBucket accepts the raw KB image (no Ray object store):
        # it builds the lookup index, cell typer and annotator
        self.stage = AnnotateBucket(self.kb, DEFAULT_CONFIG)
        self._req_id = 0
        self._req_lock = threading.Lock()
        # TableAnnotator.annotate mutates per-call instance state
        # (table, cea/cta/cpa dicts), so /annotate gives each handler
        # THREAD its own TableAnnotator — the heavy state (KB image,
        # SymSpell index, cell typer, caches) stays shared: index search
        # and the typer are lru-cached/thread-safe, and ActorCaches entries are
        # deterministic memos (a racing double-fill writes the same
        # value).  Requests run concurrently; r4's single global
        # annotate lock is gone.
        self._tls = threading.local()

    def _thread_annotator(self):
        ann = getattr(self._tls, "annotator", None)
        if ann is None:
            from table_annotation_ray.stages.annotator import TableAnnotator

            ann = TableAnnotator(
                self.stage.index,
                self.stage.kbr,
                self.stage.cfg.annotation,
                self.stage.caches,
            )
            self._tls.annotator = ann
        return ann

    def _thread_view(self) -> "_StageView":
        """This thread's stage for ``annotate_single``, built once."""
        view = getattr(self._tls, "view", None)
        if view is None:
            view = self._tls.view = _StageView(self.stage, self._thread_annotator())
        return view

    def next_request_id(self) -> int:
        with self._req_lock:
            self._req_id += 1
            return self._req_id

    # ---- handlers ------------------------------------------------------
    def lookup(self, labels: list[str]) -> dict:
        t0 = time.time()
        kbr = self.stage.kbr
        output = []
        for label in labels:
            ents = [
                {
                    "entity": eid,
                    "label": kbr.get_label_of_entity(eid),
                    "score": score,
                }
                for eid, score in self.stage.index.search(str(label).lower())
            ]
            output.append({"label": label, "entities": ents})
        return {"executionTimeSec": round(time.time() - t0, 4), "output": output}

    def preprocess(self, table: list[list[str]]) -> dict:
        from table_annotation_ray.stages.preprocess import preprocess_table

        # already the reference shape: {"raw": {...}, "preprocessed": {...}}
        return preprocess_table(table, self.stage._type_cell)

    def annotate(self, table: list[list[str]]) -> dict:
        from table_annotation_ray.pipelines.table_pipeline import annotate_single

        payload = annotate_single(table, self._thread_view())
        if payload is None:  # preprocessing filtered the table away
            payload = {"CEA": [], "CTA": [], "CPA": [], "avgLookupCandidate": 0.0}
        return {
            "annotated": payload,
            "raw": {
                "tableContent": None,
                "tableEndOffset": None,
                "tableNum": None,
                "tableOffset": None,
            },
            "requestInfo": {"id": self.next_request_id()},
        }


def make_handler(state: ServiceState):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):  # stdout stays parseable
            pass

        def _reply(self, code: int, payload: dict):
            body = json.dumps(payload).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path.rstrip("/") in ("", "/health"):
                self._reply(200, {"status": "ok",
                                  "entities": len(state.kb.labels)})
            else:
                self._reply(404, {"error": f"no route {self.path}"})

        def do_POST(self):
            try:
                n = int(self.headers.get("Content-Length", 0))
                req = json.loads(self.rfile.read(n) or b"{}")
            except (ValueError, json.JSONDecodeError) as e:
                return self._reply(400, {"error": f"bad JSON: {e}"})
            try:
                if self.path == "/lookup":
                    labels = req.get("labels")
                    if not isinstance(labels, list):
                        return self._reply(400, {"error": "need labels: [..]"})
                    return self._reply(200, state.lookup(labels))
                if self.path in ("/preprocess", "/annotate"):
                    table = req.get("table")
                    if not (isinstance(table, list) and
                            all(isinstance(r, list) for r in table)):
                        return self._reply(400, {"error": "need table: [[..],..]"})
                    table = [[str(c) for c in row] for row in table]
                    fn = state.preprocess if self.path == "/preprocess" else state.annotate
                    return self._reply(200, fn(table))
                return self._reply(404, {"error": f"no route {self.path}"})
            except Exception as e:  # one bad request must not kill the server
                return self._reply(500, {"error": f"{type(e).__name__}: {e}"})

    return Handler


def serve(kb_dir: str, host: str = "127.0.0.1", port: int = 8765):
    state = ServiceState(kb_dir)
    server = ThreadingHTTPServer((host, port), make_handler(state))
    return server, state


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kb", required=True, help="KB directory (labels/edges parquet)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    args = parser.parse_args()
    server, state = serve(args.kb, args.host, args.port)
    print(json.dumps({
        "serving": f"http://{args.host}:{server.server_address[1]}",
        "entities": len(state.kb.labels),
        "endpoints": ["/health", "/lookup", "/preprocess", "/annotate"],
    }), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
