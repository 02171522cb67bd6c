"""Report envelopes and serialization.

Every report embeds a schema tag, the tool version, and the exact config
that produced it, with stable field order, so identical configs yield
byte-identical output regardless of worker count.  emit_json, the only JSON
writer, gives exactly the bytes of json.dumps(report, indent=2) + "\n": a
table's rows go to the C encoder as flat blocks of values, with each key
encoded once per list, and the text is joined once, not once per nesting
level.  A table's rows are made as they are read (table_rows): a report
holds them as a generator, which emit_json prints as json.dumps prints the
rows listed, one block of rows at a time, so no list of every row is held.
"""

from __future__ import annotations

import io
import json
from collections.abc import Generator, Iterable
from functools import lru_cache
from itertools import chain, islice
from types import GeneratorType

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


def _row_keys(rows: list) -> list:
    """The keys of rows (dicts) when all have the same str keys in one order
    and only exact scalars as values, else []: a str key prints as every key
    equal to it does, and an exact scalar as the C encoder prints it."""
    keys = list(rows[0])
    return keys if set(map(type, keys)) == {str} and _rows_have(rows, keys) else []


def _rows_have(rows: list, keys: list) -> bool:
    """Whether every row is a dict with exactly keys, in order, and only exact
    scalars as values."""
    # a row's keys are distinct, so the keys of all rows run as keys repeated
    # only when every row has exactly keys, in order
    return (set(map(type, rows)) == {dict} and list(chain.from_iterable(rows)) == keys * len(rows)
            and set(map(type, chain.from_iterable(map(dict.values, rows)))) <= _SCALARS)


def _checked_blocks(rows, keys: list):
    """The blocks of _BLOCK rows of a lazily made row list, each checked as
    _row_keys checks a list, against keys, the first row's: the list cannot
    be read twice, so a row that fails raises instead of taking the general
    path."""
    for block in iter(lambda: list(islice(rows, _BLOCK)), []):
        if not (keys and _rows_have(block, keys)):
            raise ValueError("a lazily made row list holds a row that is not a dict with the first row's "
                             "str keys, in order, and exact scalars as values")
        yield block


def _rows(blocks, keys: list, pad: str, end: str, out: list) -> None:
    """Appends the rows of blocks (lists of rows), whose keys are all keys, as
    a list whose items start at pad and which closes at end: the keys are
    encoded once, and the values of each block in one encoder call, one per
    line, to go between the fixed text of each key."""
    inner = pad + "  "
    names = [k[:-1] for k in _lines(dict.fromkeys(keys, 0))[1:-1].split("\n")]  # '"key": 0' less its 0
    glue = [pad + "}," + pad + "{" + inner + names[0]] + ["," + inner + k for k in names[1:]]
    out += ("[", pad, "{")
    for i, block in enumerate(blocks):
        values = _lines(list(chain.from_iterable(map(dict.values, block))))[1:-1].split("\n")
        parts = values * 2
        parts[::2] = glue * (len(values) // len(glue))
        parts[1::2] = values
        if not i:
            parts[0] = inner + names[0]
        out.append("".join(parts))  # not joined again until emit_json's one join
    out += (pad, "}", end, "]")


def _lazy_rows(rows: Generator, depth: int, out: list) -> None:
    """Appends a lazily made row list as _rows does a list of rows, depth
    levels deep, reading it one block at a time."""
    first = next(rows, None)
    if first is None:
        out.append("[]")
        return
    keys = _row_keys([first]) if type(first) is dict else []  # [] fails the first block's check
    pad, end = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    _rows(_checked_blocks(chain((first,), rows), keys), keys, pad, end, out)


def _indented(v, depth: int, out: list) -> None:
    """Appends the pieces of v as json.dumps prints it with indent=2, depth levels deep."""
    if not isinstance(v, (dict, list, tuple)) or not v:
        if type(v) is GeneratorType:
            _lazy_rows(v, depth, out)
        else:
            out.append(_scalar(v))
        return
    pad, end = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    items = v.values() if isinstance(v, dict) else v
    brackets = "{}" if isinstance(v, dict) else "[]"
    types = set(map(type, items))
    if types <= _SCALARS:
        out += (brackets[0], pad, _flat(depth + 1)(v)[1:-1], end, brackets[1])
    elif types == {dict} and type(v) is list and (columns := _row_keys(v)):
        _rows((v[i:i + _BLOCK] for i in range(0, len(v), _BLOCK)), columns, pad, end, out)
    else:  # a key prints as the one key of {key: 0} does
        keys = [_scalar({k: 0})[1:-4] + ": " for k in v] if isinstance(v, dict) else [""] * len(v)
        for i, (key, x) in enumerate(zip(keys, items)):
            out += ("," if i else brackets[0], pad, key)
            _indented(x, depth + 1, out)
        out += (end, brackets[1])


def emit_json(report: dict) -> str:
    """json.dumps(report, indent=2) + "\n", without json's pure-Python indent
    path: each container of scalars goes to the C encoder in one call; a list
    of rows (dicts with the same str keys in one order, of exact scalars) has
    its keys encoded once and its values in one call per block of rows; and
    the pieces are joined once.  A generator stands for a lazily made list of
    such rows: it prints as json.dumps prints the rows listed, read one block
    at a time, and a row that breaks the keys or the value types raises
    ValueError, so no text is returned."""
    out: list = []
    _indented(report, 0, out)
    out.append("\n")
    return "".join(out)


def emit_csv(rows: Iterable[dict], fieldnames: list) -> str:
    import csv  # not at module level: only --csv needs it

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n", extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)  # a missing field prints as ""
    return buf.getvalue()


def table_rows(table) -> Generator[dict, None, None]:
    """ComplexityTable entries as flat rows, each made as it is read, in the
    table's order: bit outputs, then pairs."""
    for kind, entries in (("bits", table.entries), ("pair", table.pair_entries)):
        for e in entries.values():
            yield {
                "output": e.output if kind == "bits" else "|".join(e.output),
                "kind": kind,
                "h_upper": e.h_upper,
                "witness": e.witness,
                "minimal_count": e.minimal_count,
                "prob": str(e.prob) if e.prob is not None else "",
            }


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
