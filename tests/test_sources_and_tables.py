"""Delimited sources (S1) + generic-table Ray pipelines."""

import codecs
import json
import os
import sys

import pytest

from table_annotation_ray.sources import delimited

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_txt_to_table_comma():
    payload = b"a,b,c\n1,2,3\n"
    assert delimited.txt_to_table(payload) == [["a", "b", "c"], ["1", "2", "3"]]


def test_txt_to_table_tab_and_semicolon():
    assert delimited.txt_to_table(b"a\tb\n1\t2\n") == [["a", "b"], ["1", "2"]]
    assert delimited.txt_to_table(b"a;b\n1;2\n") == [["a", "b"], ["1", "2"]]


def test_encoding_sniffing():
    text = "café,prix\n"
    assert delimited.sniff_encoding(text.encode("utf-8")) == "utf-8"
    assert delimited.sniff_encoding(text.encode("latin-1")) == "latin-1"
    assert delimited.sniff_encoding("﻿x,y".encode("utf-8")) == "utf-8-sig"
    t = delimited.txt_to_table(text.encode("latin-1") + b"1,2\n")
    assert t[0][0] == "café"


def test_xlsx_roundtrip_single_table():
    from table_annotation_ray.sources.xlsx import excel_to_tables, tables_to_xlsx

    payload = tables_to_xlsx(
        {"Sheet1": [["city", "pop"], ["Paris", 2100000], ["Berlin", 3600000]]}
    )
    out = excel_to_tables(payload)
    assert list(out) == ["tableFromExcelSheet_Sheet1"]
    (t,) = out["tableFromExcelSheet_Sheet1"]
    assert t == [["city", "pop"], ["Paris", "2100000"], ["Berlin", "3600000"]]
    # single-table convenience dispatch
    assert delimited.excel_to_table(payload)[0] == ["city", "pop"]


def test_xlsx_multi_table_segmentation():
    """Two islands of cells separated by blank rows/cols → two tables
    (file_loader.py:103-160 connected-component semantics)."""
    from table_annotation_ray.sources.xlsx import excel_to_tables, tables_to_xlsx

    grid = [
        ["a", "b", "", "", "x", "y"],
        ["1", "2", "", "", "7", "8"],
        ["", "", "", "", "", ""],
        ["p", "q", "", "", "", ""],
        ["3", "4", "", "", "", ""],
    ]
    out = excel_to_tables(tables_to_xlsx({"S": grid}))
    tables = out["tableFromExcelSheet_S"]
    assert len(tables) == 3
    assert [["a", "b"], ["1", "2"]] in tables
    assert [["x", "y"], ["7", "8"]] in tables
    assert [["p", "q"], ["3", "4"]] in tables
    # a 1×1 island is dropped (shape > 1 in both dims required)
    out2 = excel_to_tables(tables_to_xlsx({"S": [["solo"]]}))
    assert out2["tableFromExcelSheet_S"] == []


def test_xlsx_styled_empty_cells_are_foreground():
    """Reference file_loader.py:121-126: an EMPTY cell with a fill
    pattern (or left/right border) counts as foreground.  A styled
    spacer column bridging two value islands must merge them into ONE
    segmented table; without the styling they remain two."""
    from table_annotation_ray.sources.xlsx import excel_to_tables, tables_to_xlsx

    grid = [
        ["a", "b", "", "x", "y"],
        ["1", "2", "", "7", "8"],
    ]
    # value-only: two 2x2 tables
    plain = excel_to_tables(tables_to_xlsx({"S": grid}))["tableFromExcelSheet_S"]
    assert len(plain) == 2

    # styled empty bridge at column 2 joins the components
    styled = excel_to_tables(
        tables_to_xlsx({"S": grid}, styled={"S": [(0, 2), (1, 2)]})
    )["tableFromExcelSheet_S"]
    assert len(styled) == 1
    assert styled[0] == [["a", "b", "", "x", "y"], ["1", "2", "", "7", "8"]]

    # a styled-empty-only island is still dropped by the >1x1 rule, and
    # styling must not leak values into the grid
    lone = excel_to_tables(
        tables_to_xlsx({"S": [["v", ""]]}, styled={"S": [(0, 1)]})
    )["tableFromExcelSheet_S"]
    assert lone == []


def test_xlsx_merged_cells_unfold():
    """Every cell of a merged range takes the top-left value
    (file_loader.py:92-101)."""
    from table_annotation_ray.sources.xlsx import excel_to_tables, tables_to_xlsx

    payload = tables_to_xlsx(
        {"S": [["span", "", "c"], ["1", "2", "3"]]}, merges={"S": ["A1:B1"]}
    )
    (t,) = excel_to_tables(payload)["tableFromExcelSheet_S"]
    assert t[0] == ["span", "span", "c"]


def test_xlsx_value_types_and_sheets():
    import datetime

    from table_annotation_ray.sources.xlsx import excel_to_tables, tables_to_xlsx

    payload = tables_to_xlsx(
        {
            "One": [["d", "b"], [datetime.datetime(2023, 5, 17), True]],
            "Two": [["k", "v"], ["pi", 3.5]],
        }
    )
    out = excel_to_tables(payload)
    assert out["tableFromExcelSheet_One"][0][1] == ["05/17/2023", "True"]
    assert out["tableFromExcelSheet_Two"][0][1] == ["pi", "3.5"]


def test_xlsx_in_read_tables_from_files(ray_session, tmp_path):
    from table_annotation_ray.sources.xlsx import tables_to_xlsx

    grid = [["a", "b", "", "x", "y"], ["1", "2", "", "7", "8"]]
    (tmp_path / "wb.xlsx").write_bytes(tables_to_xlsx({"S": grid}))
    df = delimited.read_tables_from_files(str(tmp_path)).to_pandas()
    ids = set(df.table_id)
    assert len(ids) == 2
    assert all("#tableFromExcelSheet_S_" in t for t in ids)
    assert len(df) == 4


def test_read_tables_from_files(ray_session, tmp_path):
    for name, content in [("t1.csv", "x,y\nParis,France\n"), ("t2.tsv", "a\tb\n1\t2\n")]:
        (tmp_path / name).write_text(content)
    ds = delimited.read_tables_from_files(str(tmp_path))
    df = ds.to_pandas()
    assert set(os.path.basename(t) for t in df.table_id) == {"t1.csv", "t2.tsv"}
    assert len(df) == 4


def test_preprocess_tables_stage(ray_session, tmp_path, kb_objects):
    import ray

    from table_annotation_ray.pipelines.table_pipeline import preprocess_tables

    (tmp_path / "cities.csv").write_text(
        "city,country\nParis,France\nBerlin,Germany\nMadrid,Spain\nRome,Italy\n"
    )
    kb, _, _ = kb_objects
    ds = delimited.read_tables_from_files(str(tmp_path))
    out = preprocess_tables(ds, ray.put(kb)).to_pandas()
    info = json.loads(out.preprocessed.iloc[0])
    assert info["tableOrientation"]["orientationLabel"] == "HORIZONTAL"
    assert info["headerInfo"]["hasHeader"] is True


def test_lookup_labels_stage(ray_session, kb_objects):
    import ray
    import ray.data as rd

    from table_annotation_ray.pipelines.table_pipeline import lookup_labels

    kb, _, _ = kb_objects
    ds = rd.from_items([{"label": "belgium"}, {"label": "MUFC"}, {"label": "paris"}])
    out = lookup_labels(ds, ray.put(kb)).to_pandas()
    top = out[out["rank"] == 1].set_index("label")["entity"].to_dict()
    assert top["MUFC"] == "Q18656"
    assert top["paris"] == "Q90"
    assert "belgium" not in top  # not in the mini-KB → no rows


def test_annotate_tables_stage(ray_session, tmp_path, kb_objects):
    import ray

    from table_annotation_ray.pipelines.table_pipeline import annotate_tables

    (tmp_path / "films.csv").write_text(
        "Pulp Fiction,John Travolta,Vincent Vega,1994-05-21\n"
        "Casino Royale,Daniel Craig,James Bond,2006-11-14\n"
        "The Matrix,Keanu Reeves,Neo,1999-03-31\n"
        "Titanic,Leonardo DiCaprio,Jack Dawson,1997-12-19\n"
    )
    kb, _, _ = kb_objects
    ds = delimited.read_tables_from_files(str(tmp_path))
    out = annotate_tables(ds, ray.put(kb)).to_pandas()
    ann = json.loads(out.annotated.iloc[0])
    cea = {(a["row"], a["column"]): a["annotation"]["uri"] for a in ann["CEA"]}
    assert cea[(0, 0)].endswith("Q104123")
    assert cea[(1, 1)].endswith("Q4547")
    cta = {c["column"]: c["annotation"][0]["uri"] for c in ann["CTA"]}
    assert cta[0].endswith("Q11424")
    cpa = {(c["headColumn"], c["tailColumn"]): c["annotation"]["uri"] for c in ann["CPA"]}
    assert cpa[(0, 1)].endswith("P161")
    assert cpa[(0, 3)].endswith("P577")


def test_annotate_tables_with_header_row(ray_session, tmp_path, kb_objects):
    """A headered table: preprocessing detects the header, annotation
    starts at row 1 and CEA never fires on header cells (reference flow,
    annotation_models.py:85-93)."""
    import ray

    from table_annotation_ray.pipelines.table_pipeline import annotate_tables

    (tmp_path / "films_hdr.csv").write_text(
        "Title,Actor,Character,Published\n"
        "Pulp Fiction,John Travolta,Vincent Vega,1994-05-21\n"
        "Casino Royale,Daniel Craig,James Bond,2006-11-14\n"
        "The Matrix,Keanu Reeves,Neo,1999-03-31\n"
        "Titanic,Leonardo DiCaprio,Jack Dawson,1997-12-19\n"
    )
    kb, _, _ = kb_objects
    ds = delimited.read_tables_from_files(str(tmp_path))
    out = annotate_tables(ds, ray.put(kb)).to_pandas()
    ann = json.loads(out.annotated.iloc[0])
    rows = {a["row"] for a in ann["CEA"]}
    assert 0 not in rows  # header row not annotated
    cea = {(a["row"], a["column"]): a["annotation"]["uri"] for a in ann["CEA"]}
    assert cea[(1, 0)].endswith("Q104123")


def test_annotate_tables_vertical(ray_session, tmp_path, kb_objects):
    """A vertical table is transposed before annotation (preprocessing
    orientation step) — annotations land on the transposed grid."""
    import ray

    from table_annotation_ray.pipelines.table_pipeline import annotate_tables

    # 3 attribute rows x 5 record columns (city / country / founded)
    (tmp_path / "vert.csv").write_text(
        "Paris,Berlin,Madrid,Rome,London\n"
        "France,Germany,Spain,Italy,United Kingdom\n"
        "1163-04-12,1237-10-28,0865-05-09,0753-04-21,0047-01-15\n"
    )
    kb, _, _ = kb_objects
    ds = delimited.read_tables_from_files(str(tmp_path))
    out = annotate_tables(ds, ray.put(kb)).to_pandas()
    ann = json.loads(out.annotated.iloc[0])
    cea = {(a["row"], a["column"]): a["annotation"]["uri"] for a in ann["CEA"]}
    # after transposition: rows = records, col0 = city, col1 = country
    assert cea[(0, 0)].endswith("Q90")
    assert cea[(0, 1)].endswith("Q142")
    cpa = {(c["headColumn"], c["tailColumn"]): c["annotation"]["uri"] for c in ann["CPA"]}
    assert cpa[(0, 1)].endswith("P17")


# --- sixth code-review batch regressions -----------------------------------


def test_xlsx_excel_serial_dates():
    """Real Excel stores dates as t=\"n\" serials bound to a date numFmt;
    they must render '%m/%d/%Y' like openpyxl (file_loader.py:110)."""
    import io
    import zipfile

    from table_annotation_ray.sources.xlsx import excel_to_tables

    MAIN = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
    REL = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
    PKG = "http://schemas.openxmlformats.org/package/2006/relationships"
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr(
            "[Content_Types].xml",
            '<?xml version="1.0"?><Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
            '<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
            '<Default Extension="xml" ContentType="application/xml"/>'
            '<Override PartName="/xl/workbook.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>'
            "</Types>",
        )
        zf.writestr(
            "_rels/.rels",
            f'<?xml version="1.0"?><Relationships xmlns="{PKG}">'
            '<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" Target="xl/workbook.xml"/>'
            "</Relationships>",
        )
        zf.writestr(
            "xl/workbook.xml",
            f'<?xml version="1.0"?><workbook xmlns="{MAIN}" xmlns:r="{REL}">'
            '<sheets><sheet name="S" sheetId="1" r:id="rId1"/></sheets></workbook>',
        )
        zf.writestr(
            "xl/_rels/workbook.xml.rels",
            f'<?xml version="1.0"?><Relationships xmlns="{PKG}">'
            '<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/worksheet" Target="worksheets/sheet1.xml"/>'
            '<Relationship Id="rId2" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/styles" Target="styles.xml"/>'
            "</Relationships>",
        )
        # xf 0: general; xf 1: builtin date (numFmtId 14); xf 2: custom
        # date code; xf 3: time-only (numFmtId 21) — NOT converted
        zf.writestr(
            "xl/styles.xml",
            f'<?xml version="1.0"?><styleSheet xmlns="{MAIN}">'
            '<numFmts count="1"><numFmt numFmtId="164" formatCode="yyyy-mm-dd"/></numFmts>'
            '<cellXfs count="4"><xf numFmtId="0"/><xf numFmtId="14"/>'
            '<xf numFmtId="164"/><xf numFmtId="21"/></cellXfs></styleSheet>',
        )
        # 44927 = 2023-01-01; 45292 = 2024-01-01
        zf.writestr(
            "xl/worksheets/sheet1.xml",
            f'<?xml version="1.0"?><worksheet xmlns="{MAIN}"><sheetData>'
            '<row r="1"><c r="A1" t="inlineStr"><is><t>when</t></is></c>'
            '<c r="B1" t="inlineStr"><is><t>num</t></is></c></row>'
            '<row r="2"><c r="A2" s="1"><v>44927</v></c><c r="B2"><v>7</v></c></row>'
            '<row r="3"><c r="A3" s="2"><v>45292</v></c><c r="B3" s="3"><v>0.5</v></c></row>'
            "</sheetData></worksheet>",
        )
    tables = excel_to_tables(buf.getvalue())["tableFromExcelSheet_S"]
    assert len(tables) == 1
    t = tables[0]
    assert t[1][0] == "01/01/2023" and t[2][0] == "01/01/2024"
    assert t[1][1] == "7" and t[2][1] == "0.5"  # time-only xf untouched


def test_xlsx_quoted_sheet_name_roundtrip():
    from table_annotation_ray.sources.xlsx import excel_to_tables, tables_to_xlsx

    name = 'My "Q1" data'
    payload = tables_to_xlsx({name: [["a", "b"], ["1", "2"]]})
    out = excel_to_tables(payload)
    assert f"tableFromExcelSheet_{name}" in out
    assert out[f"tableFromExcelSheet_{name}"][0] == [["a", "b"], ["1", "2"]]


def test_xlsx_styles_part_has_relationship():
    import io
    import zipfile

    from table_annotation_ray.sources.xlsx import tables_to_xlsx

    payload = tables_to_xlsx({"S": [["x", ""], ["1", ""]]}, styled={"S": [(0, 1), (1, 1)]})
    with zipfile.ZipFile(io.BytesIO(payload)) as zf:
        rels = zf.read("xl/_rels/workbook.xml.rels").decode()
    assert "styles.xml" in rels and "relationships/styles" in rels


# --- seventh code-review batch regressions ----------------------------------


def test_txt_to_table_skipinitialspace_and_blank_rows():
    """Reference parity (file_loader.py:62-65): skipinitialspace=True
    strips the space after the delimiter, and blank lines stay as []
    rows in the raw table (table_filtering removes them later)."""
    from table_annotation_ray.sources import delimited

    assert delimited.txt_to_table(b"a, b, c\n1, 2, 3\n") == [
        ["a", "b", "c"], ["1", "2", "3"],
    ]
    assert delimited.txt_to_table(b"a,b\n\n1,2\n") == [["a", "b"], [], ["1", "2"]]


def test_sniff_encoding_utf32_before_utf16():
    """BOM_UTF16_LE is a byte-prefix of BOM_UTF32_LE — the 4-byte BOMs
    must match first or UTF-32LE decodes as NUL-interleaved UTF-16."""
    from table_annotation_ray.sources import delimited

    payload = "a,b\n1,2\n".encode("utf-32")  # LE with BOM on this platform
    assert delimited.sniff_encoding(payload) == "utf-32"
    assert delimited.txt_to_table(payload) == [["a", "b"], ["1", "2"]]
    be = codecs.BOM_UTF32_BE + "a,b\n".encode("utf-32-be")
    assert delimited.sniff_encoding(be) == "utf-32"


def test_annotate_bucket_rejects_no_kb_and_no_tier():
    """kb_ref=None without a tier used to die with an opaque
    AttributeError deep in the ctor; now a ValueError says what to pass."""
    import pytest as _pytest

    from table_annotation_ray.stages.annotate_stage import AnnotateBucket

    with _pytest.raises(ValueError, match=r"needs a KB: the broadcast KB image \(kb_ref\) or a ShardedKB tier"):
        AnnotateBucket(None)
    with _pytest.raises(ValueError, match="needs a KB"):
        AnnotateBucket(None, tier=None)


def test_annotate_bucket_rejects_a_tier_of_another_lookup_config():
    """A sharded tier scores with the lookup config it was built with, so
    a job with another ``cfg.lookup`` must not read it."""
    from dataclasses import replace

    import pytest as _pytest

    from table_annotation_ray.config import DEFAULT_CONFIG, LookupConfig
    from table_annotation_ray.stages.annotate_stage import AnnotateBucket

    class FakeTier:
        cfg = LookupConfig()

        def make_reader(self):  # pragma: no cover - never reached
            raise AssertionError

    cfg = replace(DEFAULT_CONFIG, lookup=replace(DEFAULT_CONFIG.lookup, label_token_diff=0))
    with _pytest.raises(ValueError, match="another lookup config"):
        AnnotateBucket(None, cfg, FakeTier())


def test_read_documents_jsonl_matches_parquet(ray_session, tmp_path):
    import gzip
    import json

    import duckdb

    from table_annotation_ray.sources.jsonl import read_documents, write_jsonl

    docs = duckdb.sql(
        "SELECT doc_id, text FROM '/root/testdata/sf0.001/documents.parquet'"
        " ORDER BY doc_id LIMIT 40"
    ).df()
    p = tmp_path / "docs.jsonl"
    with open(p, "w") as f:
        for r in docs.itertuples():
            f.write(json.dumps({"doc_id": int(r.doc_id), "text": r.text,
                                "extra": "x"}) + "\n")
    gz = tmp_path / "docs.jsonl.gz"
    with gzip.open(gz, "wt") as f:
        for r in docs.itertuples():
            f.write(json.dumps({"doc_id": int(r.doc_id), "text": r.text}) + "\n")

    for path in (str(p), str(gz)):
        got = (
            read_documents(path, columns=["doc_id", "text"])
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert list(got.columns) == ["doc_id", "text"]
        assert (got["doc_id"].to_numpy() == docs["doc_id"].to_numpy()).all()
        assert (got["text"] == docs["text"]).all(), path

    # parquet dispatch unchanged
    pq = read_documents(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    assert pq.schema().names == ["doc_id", "text"]

    # schema error surfaces at the read
    import pytest

    with pytest.raises(ValueError, match="lacks columns"):
        read_documents(str(p), columns=["doc_id", "nope"])

    # jsonl sink round-trip
    outd = write_jsonl(read_documents(str(p), columns=["doc_id", "text"]),
                       str(tmp_path / "out"))
    import ray.data as rd

    back = rd.read_json(outd).to_pandas().sort_values("doc_id")
    assert len(back) == len(docs)


def test_bucket_tables_crc32_and_null_table_id(ray_session):
    """Table buckets are crc32(table_id) % n through the shared string
    partition rule; a null table_id is a ValueError naming the key
    (it used to fail as None.encode)."""
    import zlib

    import pyarrow as pa
    import ray.data as rd

    from table_annotation_ray.pipelines.table_pipeline import _bucket_tables

    ids = ["t1", "films.csv", "t1", "é"]
    ds = rd.from_arrow(pa.table({"table_id": ids, "row_idx": [0, 0, 1, 0]}))
    out = _bucket_tables(ds, 7).to_pandas()
    assert out["__tb_bkt"].tolist() == [zlib.crc32(t.encode()) % 7 for t in ids]

    nulls = rd.from_arrow(pa.table({"table_id": pa.array(["t1", None], pa.string()),
                                    "row_idx": [0, 0]}))
    with pytest.raises(Exception, match="null table_id"):
        _bucket_tables(nulls).materialize()


def test_annotate_tables_logs_no_schema_divergence(ray_session, kb_objects):
    """A 3-table annotate run leaves no reducer of the table exchange
    without rows: Ray logs each schema-less empty block as a schema
    change ("Operator produced a RefBundle with a different schema")."""
    import logging

    import ray
    import ray.data as rd

    from table_annotation_ray import synth
    from table_annotation_ray.pipelines.table_pipeline import annotate_tables

    class Collect(logging.Handler):
        def __init__(self):
            super().__init__(logging.WARNING)
            self.messages = []

        def emit(self, record):
            self.messages.append(record.getMessage())

    rows = [{"table_id": t["name"], "row_idx": i, "cells": cells}
            for t in synth.TEMPLATES
            for i, (cells, _truth) in enumerate(synth._rows_for_template(t, None))]
    logger = logging.getLogger("ray.data")
    handler, level = Collect(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        out = annotate_tables(rd.from_items(rows), ray.put(kb_objects[0])).to_pandas()
    finally:
        logger.setLevel(level)
        logger.removeHandler(handler)
    assert sorted(out["table_id"]) == ["cities", "films", "mayors"]
    assert all(json.loads(a)["CEA"] for a in out["annotated"])
    assert not [m for m in handler.messages if "different schema" in m]


def test_table_oracle_literals_match_in_process():
    """The ``table_preprocess`` / ``table_annotate`` oracles' pinned
    sf0.01 literals are those queries' rows computed in process, without
    Ray (check_oracles compares the Ray queries with them)."""
    import __ray_entry__ as entry

    sys.path.insert(0, os.path.join(REPO, "tools"))
    from check_oracles import SF_DIR

    for name, pinned in entry._TABLE_LITERALS_SF001.items():
        assert entry.values_literal(entry.table_rows_in_process(name, SF_DIR)) == pinned, name
