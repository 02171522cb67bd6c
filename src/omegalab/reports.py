"""Report envelopes and serialization.

Every report embeds a schema tag, the tool version, and the exact config
that produced it, with stable field order, so identical configs yield
byte-identical output under any hash seed.  emit_json, the only JSON
writer, gives exactly the bytes of json.dumps(report, indent=2) + "\n", and
joins the text once, not once per nesting level.  Each C encoder it calls is
built once (sexpr.json_encoder) and has no cycle check: what reaches one, a
scalar, an empty container, a container of exact scalars or a block of row
values, cannot hold a cycle, and a cyclic report ends in _indented's own
RecursionError.  A table has one row type, Rows: its column names once,
then a tuple of values per row, made as it is read (table_rows), or a
Family of rows made from one.  One walk, _printed, reads a Rows' values for
both writers, checks them and appends their text; a writer gives how it
prints rows, a NUL, and a Family's block under each high-bit string (JSON
by reference, so its text is copied once).
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import chain, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Tuple

from . import __version__
from .bits import bit_strings, dyadic_bits
from .sexpr import json_encoder

SCHEMA_VERSION = "omegalab.report/1"


def envelope(command: str, config: dict, result) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": {"command": command, **config},
        "result": result,
    }


_SCALARS = {str, int, float, bool, type(None)}  # a subclass takes the general path
_scalar = json_encoder(", ", ": ")  # no indent


@lru_cache(maxsize=None)
def _flat(depth: int):
    """Encodes a container of scalars with its items split as at depth."""
    return json_encoder(",\n" + "  " * depth, ": ")


_lines = json_encoder("\n", ": ")  # json escapes each newline in a string
_BLOCK = 1024  # rows whose values go to one encoder call


class Rows(NamedTuple):
    """A table: its column names (distinct strs) once, then each row's values
    as a tuple in column order, or a Family of rows.  It prints as the list of
    {column: value} dicts would.  values may be a generator, read once."""
    columns: Tuple[str, ...]
    values: Iterable[tuple]


class Family(NamedTuple):
    """The 2^n rows made from row by putting each n-bit string, in lex order,
    in place of every NUL in row's str values; they print from row's text."""
    n: int
    row: tuple


def _blocks(items: Iterator) -> Iterator[list]:
    """An iterator's items in lists of _BLOCK, the last one shorter."""
    return iter(lambda: list(islice(items, _BLOCK)), [])


def _printed(rows: Rows, text, bits, lay, mark: str, split: str, out: list) -> list:
    """Appends to out, and returns it, the text of rows' values as text prints
    a list of rows, a piece per _BLOCK rows, each row checked first (the values
    may be read only once): a row that is not a tuple of one exact scalar per
    column raises.  A Family's row prints once, mark for each NUL, in pieces p0
    ... pk split at split; under each first n - bits(n) bits hi its rows are the
    block [p0, lo + p1, ..., lo + pk + p0, ...] over each last bits(n) bits lo,
    less the last p0, with hi between items, as lay(block, each hi, out) appends
    them: JSON by reference (so emit_json's join is its one copy), bits(n) = n // 2
    to keep both lists short; CSV joined (short pieces), bits(n) = min(n, 10)."""
    columns, width = rows.columns, len(rows.columns)

    def checked(block: list) -> list:
        if not (set(map(type, block)) == {tuple} and set(map(len, block)) == {width}
                and set(map(type, chain.from_iterable(block))) <= _SCALARS):
            raise ValueError(f"a row of columns {columns} is not a tuple of {width} exact scalars")
        return block

    for kind, group in groupby(rows.values, type):
        if kind is not Family:
            out += map(text, map(checked, _blocks(group)))
            continue
        for n, row in group:
            nuls = sum(v.count("\0") for v in checked([row])[0] if type(v) is str)
            p0, *ps = text([tuple(v.replace("\0", mark) if type(v) is str else v for v in row)]).split(split)
            low = bits(n)
            if not n or len(ps) != nuls:  # split printed of its own, or n = 0 (a lone "" CSV field): its rows
                out += map(text, _blocks(tuple(v.replace("\0", r) if type(v) is str else v for v in row)
                                         for r in bit_strings(n)))
            elif ps:
                ps[-1] += p0  # a row's last piece runs into the next row's first
                block = [p0] + [lo + p for lo in bit_strings(low) for p in ps]
                block[-1] = block[-1].removesuffix(p0)
                lay(block, bit_strings(n - low), out)
            else:  # no NUL: each row prints as p0
                lay([p0 * (1 << low)], bit_strings(n - low), out)
    return out


def _rows(rows: Rows, depth: int, out: list) -> None:
    """Appends rows as json.dumps prints the list of their dicts, depth levels
    deep: the column names are encoded once, and the values of each block of
    rows in one encoder call, one per line, to go between the fixed text of
    each name; a NUL prints as \\u0000."""
    pad, end = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    inner = pad + "  "
    names = [k[:-1] for k in _lines(dict.fromkeys(rows.columns, 0))[1:-1].split("\n")]  # '"key": 0' less its 0
    glue = [pad + "}," + pad + "{" + inner + names[0]] + ["," + inner + k for k in names[1:]]

    def text(block: list) -> str:
        lines = _lines(list(chain.from_iterable(block)))[1:-1].split("\n")
        parts = lines * 2
        parts[::2] = glue * len(block)
        parts[1::2] = lines
        return "".join(parts)

    def lay(block: list, his: Iterator[str], out: list) -> None:
        parts = [x for item in block for x in (item, "")][:-1]  # a place for hi between each two items
        for hi in his:
            parts[1::2] = [hi] * (len(block) - 1)
            out += parts

    out.append("[")
    start = len(out)
    _printed(rows, text, lambda n: n // 2, lay, "\0", "\\u0000", out)  # joined only in emit_json
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
    else:  # a key prints as json's C encoder prints a str key, or as the one key of {key: 0} does
        keys = [(encode_basestring_ascii(k) if isinstance(k, str) else _scalar({k: 0})[1:-4]) + ": "
                for k in v] if isinstance(v, dict) else [""] * len(v)
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


_MARK = "\uf8ff"  # a NUL's stand-in in a CSV line: csv before Python 3.11 cannot write a NUL


def emit_csv(rows: Rows) -> str:
    """rows as CSV: the column names, then each row's values, None as an
    empty field, a NUL in a Family's row written as _MARK.  A row that is not
    a tuple of one exact scalar per column raises ValueError, as in emit_json."""
    import csv  # not at module level: only --csv needs it

    def text(block: list) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(block)
        return buf.getvalue()

    return "".join(_printed(rows, text, lambda n: min(n, 10), lambda block, his, out: out.extend(
        map(str.join, his, repeat(block))), _MARK, _MARK, [text([rows.columns])]))


def table_rows(table) -> Rows:
    """ComplexityTable entries as rows, each made as it is read, in the
    table's order: bit outputs, then pairs; c2's by_length, its rule's as Families."""
    def row(e, kind: str) -> tuple:
        return (e.output if kind == "bits" else "|".join(e.output), kind, e.h_upper, e.witness, e.minimal_count,
                "" if e.prob is None else str(e.prob))

    bits = table.entries.values() if type(table.entries) is dict else table.entries.by_length()
    return Rows(("output", "kind", "h_upper", "witness", "minimal_count", "prob"), (
        Family(e.n, row(e.row, kind)) if type(e) is Family else row(e, kind)
        for kind, entries in (("bits", bits), ("pair", table.pair_entries.values())) for e in entries))


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


def omega_report(table, emit_bits: int = 0) -> dict:
    """A capped omega, the mass of table, with its first emit_bits bits if any."""
    d = {"machine": table.ens.machine, "L": table.ens.L, "B": table.ens.B, "value": str(table.mass),
         "contributing": table.contributing, "conversion_failure_mass": str(table.conv_fail_mass)}
    return {**d, "bits": dyadic_bits(table.mass, emit_bits)} if emit_bits else d
