"""Delimited-text table reader — CSV/TSV/TXT with encoding + delimiter
sniffing (reference S1: `annotation/annot_scripts/file_loader.py:38-66`).

chardet is unavailable here; encoding detection uses BOM inspection and
a UTF-8-first try (equivalent behavior on the encodings that matter:
utf-8(-sig), utf-16, latin-1 fallback).  Delimiter sniffing delegates to
``csv.Sniffer`` over the reference's candidate set ``,\\t;:``.

Ray path: ``read_tables_from_files`` maps each file to one logical
table via ``read_binary_files`` → flat_map-style ``map_batches`` so
thousands of small table files ingest in parallel; each output row is
(table_id, row_idx, cells list<string>).

The xlsx reader (S2, file_loader.py:79-161 — merged-cell unfolding +
connected-component multi-table segmentation) is hermetic stdlib
zip+XML: see sources/xlsx.py.
"""

from __future__ import annotations

import codecs
import csv
import io

import pyarrow as pa

import ray.data as rd

# 4-byte UTF-32 BOMs FIRST: BOM_UTF16_LE (ff fe) is a prefix of
# BOM_UTF32_LE (ff fe 00 00), so the 2-byte check would misdecode
# UTF-32LE payloads as NUL-interleaved UTF-16 (code-review r4, pass 7)
_BOMS = [
    (codecs.BOM_UTF32_LE, "utf-32"),
    (codecs.BOM_UTF32_BE, "utf-32"),
    (codecs.BOM_UTF8, "utf-8-sig"),
    (codecs.BOM_UTF16_LE, "utf-16"),
    (codecs.BOM_UTF16_BE, "utf-16"),
]


def sniff_encoding(payload: bytes) -> str:
    for bom, enc in _BOMS:
        if payload.startswith(bom):
            return enc
    try:
        payload.decode("utf-8")
        return "utf-8"
    except UnicodeDecodeError:
        return "latin-1"


def txt_to_table(payload: bytes) -> list[list[str]]:
    """Bytes of a delimited file → 2D string table (S1 semantics:
    sniff encoding, sniff delimiter over ,\\t;: then parse)."""
    text = payload.decode(sniff_encoding(payload))
    sample = text[:4096]
    try:
        dialect = csv.Sniffer().sniff(sample, delimiters=",\t;:")
        delimiter = dialect.delimiter
    except csv.Error:
        delimiter = ","
    # skipinitialspace + keep blank rows: both match the reference
    # parse exactly (file_loader.py:62-65 appends EVERY reader item,
    # including [] for blank lines — table_filtering drops them later
    # while preserving them in tableDataRaw; code-review r4, pass 7)
    reader = csv.reader(io.StringIO(text), delimiter=delimiter, skipinitialspace=True)
    return list(reader)


def excel_to_table(payload: bytes) -> list[list[str]]:
    """First segmented table of the workbook (single-table convenience;
    the full multi-table surface is sources/xlsx.excel_to_tables)."""
    from .xlsx import excel_to_tables

    for tables in excel_to_tables(payload).values():
        if tables:
            return tables[0]
    return []


def load_tables(path_or_bytes, filename: str = "") -> list[tuple[str, list[list[str]]]]:
    """Extension dispatch (file_loader.py:220-230) → [(table_key, table)].
    Delimited files yield one table; xlsx workbooks yield every
    connected-component table of every sheet."""
    if isinstance(path_or_bytes, (bytes, bytearray)):
        payload = bytes(path_or_bytes)
    else:
        filename = filename or str(path_or_bytes)
        with open(path_or_bytes, "rb") as f:
            payload = f.read()
    ext = filename.rsplit(".", 1)[-1].lower() if "." in filename else "csv"
    if ext == "xlsx":
        from .xlsx import excel_to_tables

        out = []
        for key, tables in excel_to_tables(payload).items():
            for i, t in enumerate(tables):
                out.append((f"{key}_{i}", t))
        return out
    return [("tableFromTextFile_0", txt_to_table(payload))]


def read_tables_from_files(paths: str | list[str]) -> rd.Dataset:
    """Directory/list of delimited files → Dataset of
    (table_id, row_idx, cells:list<string>) — one logical table per file."""
    files = rd.read_binary_files(paths, include_paths=True)

    def to_rows(batch: pa.Table) -> pa.Table:
        table_ids, row_idxs, cells = [], [], []
        for path, payload in zip(batch["path"].to_pylist(), batch["bytes"].to_pylist()):
            tables = load_tables(payload, filename=path)
            for key, rows in tables:
                # single-table files keep the bare path as their id;
                # multi-table workbooks get a #<sheet>_<i> suffix
                tid = path if len(tables) == 1 else f"{path}#{key}"
                for i, row in enumerate(rows):
                    table_ids.append(tid)
                    row_idxs.append(i)
                    cells.append([str(c) for c in row])
        return pa.table(
            {
                "table_id": pa.array(table_ids, pa.string()),
                "row_idx": pa.array(row_idxs, pa.int32()),
                "cells": pa.array(cells, pa.list_(pa.string())),
            }
        )

    return files.map_batches(to_rows, batch_format="pyarrow")
