"""Report envelopes and serialization.

Every report embeds a schema tag, the tool version, and the exact config
that produced it, with stable field order, so identical configs yield
byte-identical output regardless of worker count.  emit_json, the only JSON
writer, gives exactly the bytes of json.dumps(report, indent=2) + "\n", and
joins the text once, not once per nesting level.  A table has one row type,
Rows: its column names once, then a tuple of values per row, made as it is
read (table_rows).  emit_json prints its values one block of rows at a time,
and emit_csv prints the same columns and values.
"""

from __future__ import annotations

import io
import json
from collections.abc import Iterable
from functools import lru_cache
from itertools import chain, islice
from typing import NamedTuple, Tuple

from . import __version__

SCHEMA_VERSION = "omegalab.report/1"


def envelope(command: str, config: dict, result) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": {"command": command, **config},
        "result": result,
    }


_SCALARS = {str, int, float, bool, type(None)}  # a subclass takes the general path
_scalar = json.JSONEncoder().encode  # C-backed: no indent


@lru_cache(maxsize=None)
def _flat(depth: int):
    """Encodes a container of scalars with its items split as at depth."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode


_lines = json.JSONEncoder(separators=("\n", ": ")).encode  # json escapes each newline in a string
_BLOCK = 1024  # rows whose values go to one encoder call


class Rows(NamedTuple):
    """A table: its column names (distinct strs) once, then each row's values
    as a tuple in column order.  It prints as the list of {column: value}
    dicts would.  values may be a generator, read once, a block at a time."""
    columns: Tuple[str, ...]
    values: Iterable[tuple]


def _rows(rows: Rows, depth: int, out: list) -> None:
    """Appends rows as json.dumps prints the list of their dicts, depth levels
    deep: the column names are encoded once, and the values of each block of
    _BLOCK rows in one encoder call, one per line, to go between the fixed
    text of each name.  The values may be read only once, so a row that is
    not a tuple of one exact scalar per column raises, not falls back."""
    columns, width = rows.columns, len(rows.columns)
    pad, end = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    inner = pad + "  "
    names = [k[:-1] for k in _lines(dict.fromkeys(columns, 0))[1:-1].split("\n")]  # '"key": 0' less its 0
    glue = [pad + "}," + pad + "{" + inner + names[0]] + ["," + inner + k for k in names[1:]]
    out.append("[")
    start, values = len(out), iter(rows.values)
    for block in iter(lambda: list(islice(values, _BLOCK)), []):
        if not (set(map(type, block)) == {tuple} and set(map(len, block)) == {width}
                and set(map(type, chain.from_iterable(block))) <= _SCALARS):
            raise ValueError(f"a row of columns {columns} is not a tuple of {width} exact scalars")
        text = _lines(list(chain.from_iterable(block)))[1:-1].split("\n")
        parts = text * 2
        parts[::2] = glue * len(block)
        parts[1::2] = text
        out.append("".join(parts))  # not joined again until emit_json's one join
    if len(out) > start:
        out[start] = out[start][len(pad) + 2:]  # less the '},' of a row before the first
        out.append(pad + "}" + end)
    out.append("]")


def _indented(v, depth: int, out: list) -> None:
    """Appends the pieces of v as json.dumps prints it with indent=2, depth levels deep."""
    if type(v) is Rows:
        return _rows(v, depth, out)
    if not isinstance(v, (dict, list, tuple)) or not v:
        out.append(_scalar(v))
        return
    pad, end = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    items = v.values() if isinstance(v, dict) else v
    brackets = "{}" if isinstance(v, dict) else "[]"
    if set(map(type, items)) <= _SCALARS:
        out += (brackets[0], pad, _flat(depth + 1)(v)[1:-1], end, brackets[1])
    else:  # a key prints as the one key of {key: 0} does
        keys = [_scalar({k: 0})[1:-4] + ": " for k in v] if isinstance(v, dict) else [""] * len(v)
        for i, (key, x) in enumerate(zip(keys, items)):
            out += ("," if i else brackets[0], pad, key)
            _indented(x, depth + 1, out)
        out += (end, brackets[1])


def emit_json(report: dict) -> str:
    """json.dumps(report, indent=2) + "\n", without json's pure-Python indent
    path: each container of scalars goes to the C encoder in one call; a Rows
    prints as the list of its rows' dicts would, its column names encoded
    once and its values in one call per block of rows; and the pieces are
    joined once.  A row that is not a tuple of one exact scalar per column
    raises ValueError, so no text is returned."""
    out: list = []
    _indented(report, 0, out)
    out.append("\n")
    return "".join(out)


def emit_csv(rows: Rows) -> str:
    """rows as CSV: the column names, then each row's values, None as an empty field."""
    import csv  # not at module level: only --csv needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows.columns)
    writer.writerows(rows.values)
    return buf.getvalue()


def table_rows(table) -> Rows:
    """ComplexityTable entries as rows, each made as it is read, in the
    table's order: bit outputs, then pairs."""
    return Rows(("output", "kind", "h_upper", "witness", "minimal_count", "prob"), (
        (e.output if kind == "bits" else "|".join(e.output), kind, e.h_upper, e.witness, e.minimal_count,
         "" if e.prob is None else str(e.prob))
        for kind, entries in (("bits", table.entries), ("pair", table.pair_entries)) for e in entries.values()))


def table_report(table) -> dict:
    return {
        "machine": table.ens.machine,
        "L": table.ens.L,
        "B": table.ens.B,
        "exhaustive_limit": table.exhaustive_limit,
        "contributing": table.contributing,
        "conversion_failure_mass": str(table.conv_fail_mass),
        "entries": table_rows(table),
    }
