"""Knowledge-base backend: Parquet mini-KB → broadcast dict → per-actor reader.

Replaces the reference's LMDB hashmap + ES server pair
(`annot_scripts/knowledge_bases.py:50-77`, `data/lookup/entity_indexing.py`)
with a Parquet-backed KB loaded on the driver and shared through the
object store (:func:`broadcast_kb` — every worker on a node maps the
same plasma copy), wrapped per worker in :class:`KBReader`, which
reproduces the ``Wikidata_KB`` query surface (knowledge_bases.py:63-203).
The reference's ``map_unit_dimension_to_entity`` (knowledge_bases.py:122)
has no counterpart: nothing in the reference calls it.

:func:`load_kb` is the one reader of KB files, for every path (the
broadcast image, :func:`kb_digest`, the serve API and the sharded
tier's actors).  ``kb_dir`` is a local path or any pyarrow-filesystem URI
(``file://``, ``s3://``), holding either layout:

* flat — ``kb_edges.parquet``, ``kb_entity_meta.parquet`` and
  ``kb_labels.parquet``, each a file or a directory of part files (the
  synth mini-KB);
* dump — :mod:`.kb_build`'s ``edges/bucket=b/`` (with its
  ``_bucket_manifest.json``) and ``meta/`` directories, next to a
  ``kb_labels.parquet`` written by ``build_labels_from_dump``.

``load_kb(kb_dir, K, i)`` keeps only the rows of the entities shard
``i`` of ``K`` owns (``crc32(entity) % K == i``); on the dump layout it
reads only the edge buckets that can hold them.

:func:`broadcast_kb` gives the image the reference's lifetime — its ES
index and LMDB map are long-lived services — instead of one job's: one
``ray.put`` per KB content per Ray session, so the per-worker state
built from the ref (state/worker_state.py) is reused by every later job.

SCALE NOTE — this in-memory image is the SMALL-KB FAST PATH.  The
reference's production KB is a 248 GB LMDB (`data/hashmap/
wd_hashmap_indexing.py:45`); a KB that size must not be broadcast.  The
scale path is :mod:`.sharded_kb`: entities hash-sharded across K
actors, each serving its shard's subgraphs (batched fetches +
per-worker LRU) and label index.  It produces BYTE-IDENTICAL
annotation output (tests/test_sharded_kb.py) and is enabled with
``run_kg_pipeline(..., sharded_kb=True)``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zlib
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.fs as pafs
import pyarrow.parquet as pq

ENTITY_RANKS = ("NORMAL", "PREFERRED", "DEPRECATED")

# transitive properties (knowledge_bases.py:46-47)
TRANSITIVE_PIDS = frozenset(
    ["P131", "P276", "P279", "P361", "P403", "P460", "P527", "P706", "P927",
     "P1647", "P2094", "P3373", "P3403", "P5607", "P5973", "P171"]
)

TYPE_PROPERTIES = ("P31", "P106", "P39", "P105")  # knowledge_bases.py:30
INSTANCE_OF = "P31"
SUBCLASS_OF = "P279"
UNIT_SYMBOL = "P5061"


@dataclass
class KBData:
    """Plain-dict KB image — picklable, broadcast with ray.put."""

    # qid -> {pid: {obj: kind}}  (kind = rank for entities, type tag for literals)
    subgraphs: dict[str, dict[str, dict[str, str]]] = field(default_factory=dict)
    labels: dict[str, str] = field(default_factory=dict)  # qid -> en label
    num_edges: dict[str, int] = field(default_factory=dict)
    # lookup label table rows: (entity, label, origin, pr)
    label_rows: list[tuple[str, str, str, float]] = field(default_factory=list)


KB_FILES = ("kb_edges.parquet", "kb_entity_meta.parquet", "kb_labels.parquet")

# the directory kb_build.build_edges_from_dump writes in place of a flat
# graph table; the label table has only its flat name (point
# build_labels_from_dump at kb_dir/kb_labels.parquet)
_DUMP_DIRS = {"kb_edges.parquet": "edges", "kb_entity_meta.parquet": "meta"}


def _kb_root(kb_dir: str) -> tuple[pafs.FileSystem, str]:
    """The filesystem and root path of ``kb_dir``: an existing local
    path, else a URI (``file://``, ``s3://``, ...), else a local path
    that will report it is missing — the order ``pq.read_table``
    resolves a path in."""
    if not os.path.exists(kb_dir):
        try:
            fs, base = pafs.FileSystem.from_uri(kb_dir)
        except pa.ArrowInvalid:
            if "://" in kb_dir:
                raise
        else:
            return fs, base.rstrip("/")
    return pafs.LocalFileSystem(), os.path.abspath(kb_dir)


def _resolve(fs: pafs.FileSystem, root: str, name: str) -> pafs.FileInfo:
    """KB table ``name`` under ``root``: its flat name (a file or a
    directory of part files), else its dump-layout directory."""
    info = fs.get_file_info(f"{root}/{name}")
    if info.type == pafs.FileType.NotFound and name in _DUMP_DIRS:
        dump = fs.get_file_info(f"{root}/{_DUMP_DIRS[name]}")
        if dump.type == pafs.FileType.Directory:
            return dump
    if info.type == pafs.FileType.NotFound:
        where = f" or {_DUMP_DIRS[name]}/" if name in _DUMP_DIRS else ""
        raise FileNotFoundError(f"KB table {name}{where} not found under {root!r}")
    return info


def _bucket_files(
    fs: pafs.FileSystem, edges_dir: str, num_shards: int, shard_id: int
) -> tuple[list[str], bool]:
    """The part files of a dump-layout ``edges/bucket=b/`` directory that
    can hold shard ``shard_id``'s edges, and whether that prune is exact.

    The reader sends entity E to shard ``crc32(E) % num_shards``, while
    the build bucketed by ``crc32(E) % num_buckets``.  Skipping buckets
    by ``bucket % num_shards == shard_id`` is exact ONLY when num_shards
    divides num_buckets; otherwise an entity can sit in a skipped bucket
    while the reader still routes it here.  So: read num_buckets from the
    build manifest, keep the buckets with ``bucket % gcd(num_buckets,
    num_shards) == shard_id % gcd`` (all of them without a manifest), and
    report the prune exact only under divisibility."""
    try:
        with fs.open_input_stream(f"{edges_dir}/_bucket_manifest.json") as f:
            num_buckets = int(json.load(f)["num_buckets"])
    except FileNotFoundError:
        num_buckets = None
    exact = num_buckets is not None and num_buckets % num_shards == 0
    g = num_shards if exact else math.gcd(num_buckets or 1, num_shards)
    files = []
    for d in sorted(fs.get_file_info(pafs.FileSelector(edges_dir)), key=lambda i: i.path):
        if (d.type == pafs.FileType.Directory and d.base_name.startswith("bucket=")
                and int(d.base_name.split("=")[1]) % g == shard_id % g):
            parts = fs.get_file_info(pafs.FileSelector(d.path))
            files.extend(sorted(i.path for i in parts if i.path.endswith(".parquet")))
    return files, exact


def owner(entity: str, num_shards: int) -> int:
    """The shard that holds ``entity``'s rows, and that readers ask for them."""
    return zlib.crc32(entity.encode()) % num_shards


def _owned_rows(table: pa.Table, key: str, num_shards: int, shard_id: int) -> pa.Table:
    """The rows of ``table`` whose non-null ``key`` entity is owned by
    ``shard_id``: one crc32 per distinct entity, then a NumPy gather."""
    enc = pc.dictionary_encode(table[key].combine_chunks())
    owners = np.array([owner(e, num_shards) for e in enc.dictionary.to_pylist()], np.int64)
    return table.filter(pa.array(owners[enc.indices.to_numpy()] == shard_id))


def pylist(col: pa.Array | pa.ChunkedArray) -> list:
    """Equal to ``col.to_pylist()``, converted through NumPy where that
    gives the same list: ``to_pylist`` makes a pyarrow scalar per element
    (~1.3 µs each on pyarrow 16, 0.21 s over the 10k-person KB's edge
    table) and NumPy's ``tolist`` ~20× less.

    * string columns go through their dictionary (a null is a dictionary
      entry, so it becomes None): each distinct value is one ``str``
      object, which the KB image's pickle then stores once (0.06 → 0.02 s
      to pickle the 10k-person KB, and as much again to unpickle it);
    * null-free integer, float32/64 and bool columns go through
      ``to_numpy``;
    * everything else keeps ``to_pylist``: a dictionary-encoded array's
      ``to_numpy`` returns a neighbouring value for a null (``['a', 'b',
      None, 'a']`` came back as ``['a', 'b', 'b', 'a']``), and numeric
      nulls would come back as NaN."""
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        enc = pc.dictionary_encode(col, null_encoding="encode")
        values = np.asarray(enc.dictionary.to_numpy(zero_copy_only=False), dtype=object)
        return values[enc.indices.to_numpy()].tolist()
    if col.null_count == 0 and (
        pa.types.is_integer(t) or pa.types.is_boolean(t)
        or pa.types.is_float32(t) or pa.types.is_float64(t)
    ):
        return col.to_numpy(zero_copy_only=False).tolist()
    return col.to_pylist()


# the columns load_kb reads, per table, the owning entity first; a null
# is an error in every one but kb_entity_meta.en_label (an entity
# without an English label)
_KB_COLUMNS = {
    "kb_edges.parquet": ("src", "pid", "obj", "obj_kind"),
    "kb_entity_meta.parquet": ("entity", "en_label", "num_edges"),
    "kb_labels.parquet": ("entity", "label", "origin", "pr"),
}
_NULLABLE = {("kb_entity_meta.parquet", "en_label")}


def _read_table(
    fs: pafs.FileSystem, root: str, name: str, num_shards: int, shard_id: int
) -> list[list]:
    """The :data:`_KB_COLUMNS` of KB table ``name`` as Python lists, only
    the rows shard ``shard_id`` of ``num_shards`` owns; raises ValueError
    naming the table, column and null count when a column that must be
    set holds nulls."""
    columns = _KB_COLUMNS[name]
    info = _resolve(fs, root, name)
    source, exact = info.path, num_shards == 1
    if name == "kb_edges.parquet" and info.base_name == _DUMP_DIRS[name]:
        source, pruned_exact = _bucket_files(fs, info.path, num_shards, shard_id)
        exact = exact or pruned_exact
    if not source:
        return [[] for _ in columns]
    table = pq.read_table(source, columns=list(columns), filesystem=fs)
    for col in columns:
        nulls = table[col].null_count
        if nulls and (name, col) not in _NULLABLE:
            raise ValueError(f"KB file {name}: column {col!r} has {nulls} null value(s)")
    if not exact:
        table = _owned_rows(table, columns[0], num_shards, shard_id)
    return [pylist(table[col]) for col in columns]


def load_kb(kb_dir: str, num_shards: int = 1, shard_id: int = 0) -> KBData:
    """The KB image of ``kb_dir`` — the one reader of KB files.

    With ``num_shards > 1`` only the rows of entities ``e`` with
    ``owner(e, num_shards) == shard_id``: the shard a sharded tier's
    actor holds."""
    fs, root = _kb_root(kb_dir)

    def read(name: str) -> list[list]:
        return _read_table(fs, root, name, num_shards, shard_id)

    kb = KBData()
    for src, pid, obj, kind in zip(*read("kb_edges.parquet")):
        kb.subgraphs.setdefault(src, {}).setdefault(pid, {})[obj] = kind
    for ent, lab, n in zip(*read("kb_entity_meta.parquet")):
        # a null en_label stored as None would bypass the reader's
        # "No English Label" default (the key EXISTS) and crash
        # get_symbol_of_unit_entity's .lower()
        if lab is not None:
            kb.labels[ent] = lab
        kb.num_edges[ent] = int(n)
    kb.label_rows = list(zip(*read("kb_labels.parquet")))
    return kb


# ObjectRefs and actor handles of ended Ray sessions, held until the
# process exits.  Releasing one after a new ``ray.init`` decrements a
# count in the NEW session's core worker.  Object and actor ids repeat
# across local sessions (the job and put counters restart), so
# that can free a live object of the new session; for an id it never
# saw, Ray logs "Tried to decrease ref count for nonexistent object".
# Each ended session leaves at most worker_state.MAX_PER_NAME entries per
# state name here; their objects and actors died with it.
_ENDED_SESSION_REFS: list = []


def kb_digest(kb_dir: str) -> str:
    """blake2b over the relative paths, sizes and bytes of every file
    :func:`load_kb` may read (a KB table may be a directory of part
    files, in either layout): equal digests mean the same KB content,
    whatever the directory or filesystem."""
    fs, root = _kb_root(kb_dir)
    h = hashlib.blake2b(digest_size=16)
    for name in KB_FILES:
        table = _resolve(fs, root, name)
        files = [table]
        if table.type == pafs.FileType.Directory:
            found = fs.get_file_info(pafs.FileSelector(table.path, recursive=True))
            files = sorted((i for i in found if i.type == pafs.FileType.File), key=lambda i: i.path)
        for info in files:
            h.update(f"{name}{info.path[len(table.path):]}:{info.size}\n".encode())
            with fs.open_input_stream(info.path) as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
    return h.hexdigest()


def broadcast_kb(kb_dir: str) -> "ray.ObjectRef":
    """The KB image's ObjectRef, one per (Ray session, KB content).

    The same content in the same session returns the same ref, so the
    per-worker state keyed on the ref's hex (the ``annotate`` and
    ``typer`` entries) survives across jobs.  A KB rewritten under the
    same ``kb_dir`` hashes differently and gets a new ref and fresh
    worker state.  The session is (node id, job id):
    a new local cluster has a new node id and a new driver of a running
    cluster a new job id, while the driver's worker id and job id alone
    repeat across local ``ray.init`` calls."""
    import ray

    return session_state("kb", (kb_digest(kb_dir),), lambda: ray.put(load_kb(kb_dir)))


def session_state(name: str, key: tuple, build):
    """This process's worker-state entry ``(name, session, *key)``, built
    by ``build`` once per Ray session.  The session is (node id, job
    id); entries of ``name`` from ended sessions are parked in
    :data:`_ENDED_SESSION_REFS`, never released into this one."""
    import ray

    from . import worker_state

    ctx = ray.get_runtime_context()
    session = (ctx.get_node_id(), ctx.get_job_id())
    _ENDED_SESSION_REFS.extend(worker_state.pop_state(name, lambda k: k[1] != session))
    return worker_state.get_worker_state((name, session, *key), build)


class KBReader:
    """Per-actor KB query interface — the ``Wikidata_KB`` surface
    (knowledge_bases.py:63-203) over a :class:`KBData` image."""

    def __init__(self, kb: KBData):
        self.kb = kb
        self.transitive_pids = TRANSITIVE_PIDS

    # -- identity / formatting (knowledge_bases.py:63-67, 182-203) --------
    @staticmethod
    def is_valid_id(entity_id: str) -> bool:
        return (
            len(entity_id) > 1
            and entity_id[0] in ("P", "Q")
            and entity_id[1:].isdigit()
        )

    @staticmethod
    def prefixing_entity(entity: str) -> str:
        if entity.startswith("Q"):
            return "http://www.wikidata.org/entity/" + entity
        if entity.startswith("P"):
            return "http://www.wikidata.org/prop/direct/" + entity
        return entity

    @staticmethod
    def map_rank(rank: str) -> int:
        if rank == "PREFERRED":
            return 2
        if rank == "NORMAL":
            return 1
        return 0

    # -- graph getters (knowledge_bases.py:69-180) ------------------------
    # Every derived getter below routes through these three primitives so
    # a backend that stores the graph elsewhere (state/sharded_kb.py's
    # actor tier) only overrides the primitives.
    def get_subgraph_of_entity(self, entity_id: str) -> dict[str, dict[str, str]]:
        return self.kb.subgraphs.get(entity_id, {})

    def get_label_of_entity(self, entity_id: str) -> str:
        return self.kb.labels.get(entity_id, "No English Label")

    def get_num_edges(self, entity_id: str) -> int:
        return self.kb.num_edges.get(entity_id, 0)

    def prefetch(self, entity_ids) -> None:
        """Warm-up hint: a remote-backed reader batches these ids into
        shard round trips; the in-memory image needs nothing."""

    def get_symbol_of_unit_entity(self, unit_entity_id: str):
        sub = self.get_subgraph_of_entity(unit_entity_id)
        if not sub:
            return None
        if "Q8142" in sub.get(INSTANCE_OF, {}):
            # currency unit → snake_cased label (knowledge_bases.py:110-112;
            # the reference's call has a latent only_one bug — fixed here)
            return "_".join(self.get_label_of_entity(unit_entity_id).lower().split(" "))
        syms = sub.get(UNIT_SYMBOL)
        if syms:
            return sorted(syms)[0]
        return None

    def get_supertypes_of_type(self, type_id: str) -> dict[str, str]:
        # same literal-kind guard as the type props below: a
        # literal-valued P279 edge must not leak a raw string into the
        # annotator's supertype sets / CTA voting (code-review r4 found
        # the guard applied at level 1 only — pass 7 completes it)
        sup = self.get_subgraph_of_entity(type_id).get(SUBCLASS_OF)
        if not sup:
            return {}
        return {o: k for o, k in sup.items() if k in ENTITY_RANKS}

    def get_types_of_entity(self, entity_id: str, num_level: int = 1) -> dict[str, dict]:
        """3-level hierarchical types (knowledge_bases.py:136-180): level 1
        from P106/P39/P105 if any, else P31; higher levels walk P279."""
        hierarchical: dict[str, dict] = {}
        if num_level <= 0:
            return hierarchical
        sub = self.get_subgraph_of_entity(entity_id)
        instance_types: dict[str, str] = {}
        other_types: dict[str, str] = {}
        for prop in TYPE_PROPERTIES:
            objs = sub.get(prop)
            if objs:
                # literal-valued type props (e.g. a DateTime P39 edge in
                # the mini-KB) are not types — keep entity objs only; the
                # same guard applies to P31 (a literal P31 would leak a
                # raw string into level_1 and CTA voting, code-review r4)
                ent_objs = {o: k for o, k in objs.items() if k in ENTITY_RANKS}
                if prop == INSTANCE_OF:
                    instance_types.update(ent_objs)
                else:
                    other_types.update(ent_objs)
        hierarchical["level_1"] = other_types if other_types else instance_types
        inter = hierarchical["level_1"]
        for lvl in range(2, num_level + 1):
            nxt: dict[str, str] = {}
            for t in inter:
                # entity-ranked P279 edges only (see get_supertypes_of_type)
                nxt.update(self.get_supertypes_of_type(t))
            hierarchical[f"level_{lvl}"] = nxt
            inter = nxt
        return hierarchical

    # -- ours: NER gazetteer derived from the KB --------------------------
    _TYPE_TO_NER = {
        "Q515": "GPE", "Q486972": "GPE", "Q6256": "GPE",
        "Q5": "PERSON",
        "Q11424": "WORK_OF_ART",
        "Q476028": "ORG", "Q43229": "ORG",
    }

    def build_gazetteer(self) -> dict[str, str]:
        """lowercased surface form -> NER label, from KB labels + P31."""
        gaz: dict[str, str] = {}
        for entity, label, _origin, _pr in self.kb.label_rows:
            p31 = self.kb.subgraphs.get(entity, {}).get(INSTANCE_OF, {})
            ner = None
            for t in p31:
                ner = self._TYPE_TO_NER.get(t)
                if ner:
                    break
            if ner:
                gaz[label.lower()] = ner
        return gaz
