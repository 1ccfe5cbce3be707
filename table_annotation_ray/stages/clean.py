"""Stage 1 — transcript cleaning + cell explosion (stateless map_batches).

Reference computations covered: encoding recovery applied per cell
(`prp_scripts/utils.py:135-147` via `table_filtering` :149-177), and the
table→cells decomposition.  A conversation is one logical table
(SURVEY.md §1.2): every turn's ``text`` is a row whose cells are joined
by ``" | "``; exploding yields one row per (conv_id, turn_idx, col_slot).

Both transforms are zero-copy-Arrow ``map_batches`` bodies: the clean
pass fast-paths pure-ASCII batches entirely in pyarrow.compute, and the
explosion uses vectorized ``split_pattern`` + ``list_flatten``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import fix_encoding_column
from ..schemas import CELL_SEP


def clean_text_batch(batch: pa.Table) -> pa.Table:
    """Encoding-repair the ``text`` column (vectorized fast path)."""
    fixed = fix_encoding_column(batch["text"].combine_chunks())
    return batch.set_column(batch.schema.get_field_index("text"), "text", fixed)


def explode_cells_batch(batch: pa.Table) -> pa.Table:
    """(conv_id, turn_idx, text) → (conv_id, turn_idx, col_slot, mention).

    Fully vectorized: split each text on the cell separator, flatten,
    and compute per-cell slot indices from the list offsets.  A null
    text is one empty cell at slot 0, like the annotate stage's turn
    reader; it is filled before the split because a null list has no
    length for the slot arithmetic.
    """
    text = batch["text"].combine_chunks().fill_null("")
    cells = pc.split_pattern(text, CELL_SEP)
    flat = pc.list_flatten(cells)
    lengths = pc.list_value_length(cells).to_numpy(zero_copy_only=False)
    # repeat parent row index per cell, and build intra-list positions
    parent = np.repeat(np.arange(len(batch), dtype=np.int64), lengths)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    col_slot = (np.arange(offsets[-1], dtype=np.int64) - offsets[parent]).astype(np.int32)
    parent_idx = pa.array(parent)
    out = pa.table(
        {
            "conv_id": pc.take(batch["conv_id"].combine_chunks(), parent_idx),
            "turn_idx": pc.take(batch["turn_idx"].combine_chunks(), parent_idx),
            "col_slot": pa.array(col_slot, pa.int32()),
            "mention": pc.utf8_trim_whitespace(flat),
        }
    )
    return out


def clean_and_explode(batch: pa.Table) -> pa.Table:
    return explode_cells_batch(clean_text_batch(batch))
