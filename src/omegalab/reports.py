"""Report envelopes and serialization.

Every report embeds a schema tag, the tool version, and the exact config
that produced it, with stable field order, so identical configs yield
byte-identical output regardless of worker count.  emit_json, the only JSON
writer, gives exactly the bytes of json.dumps(report, indent=2) + "\n": a
table's list of rows goes to the C encoder in one call, and the text is
joined once, not once per nesting level.
"""

from __future__ import annotations

import io
import json
from functools import lru_cache

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


def _indented(v, depth: int, out: list) -> None:
    """Appends the pieces of v as json.dumps prints it with indent=2, depth levels deep."""
    if not isinstance(v, (dict, list, tuple)) or not v:
        out.append(_scalar(v))
        return
    pad, end = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    items = v.values() if isinstance(v, dict) else v
    brackets = "{}" if isinstance(v, dict) else "[]"
    if {type(x) for x in items} <= _SCALARS:
        out += (brackets[0], pad, _flat(depth + 1)(v)[1:-1], end, brackets[1])
    elif (type(v) is list and all(type(x) is dict and x for x in v)
          and {type(y) for x in v for y in x.values()} <= _SCALARS):
        # rows (nonempty dicts of scalars) in one call, every item split as
        # at depth + 2: json escapes each newline in a string and no scalar
        # ends in "}", so "},<split>{" only ever joins two rows, and one
        # replace splits the rows as at depth + 1
        inner = "\n" + "  " * (depth + 2)
        text = _flat(depth + 2)(v).replace("}," + inner + "{", pad + "}," + pad + "{" + inner)
        out += ("[", pad, "{", inner, text[2:-2], pad, "}", end, "]")
    else:  # a key prints as the one key of {key: 0} does
        keys = [_scalar({k: 0})[1:-4] + ": " for k in v] if isinstance(v, dict) else [""] * len(v)
        for i, (key, x) in enumerate(zip(keys, items)):
            out += ("," if i else brackets[0], pad, key)
            _indented(x, depth + 1, out)
        out += (end, brackets[1])


def emit_json(report: dict) -> str:
    """json.dumps(report, indent=2) + "\n", without json's pure-Python indent
    path: each container of scalars and each list of rows (nonempty dicts of
    scalars) goes to the C encoder in one call, and the pieces are joined once."""
    out: list = []
    _indented(report, 0, out)
    out.append("\n")
    return "".join(out)


def emit_csv(rows: list, fieldnames: list) -> str:
    import csv  # not at module level: only --csv needs it

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n", extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)  # a missing field prints as ""
    return buf.getvalue()


def table_rows(table) -> list:
    """ComplexityTable entries as flat rows: bit outputs, then pairs, each
    sorted by total output length, then output."""
    rows = []
    for kind, entries, size in (("bits", table.entries, len),
                                ("pair", table.pair_entries, lambda k: len(k[0]) + len(k[1]))):
        for key in sorted(entries, key=lambda k: (size(k), k)):
            e = entries[key]
            rows.append(
                {
                    "output": key if kind == "bits" else "|".join(key),
                    "kind": kind,
                    "h_upper": e.h_upper,
                    "witness": e.witness,
                    "minimal_count": e.minimal_count,
                    "prob": str(e.prob) if e.prob is not None else "",
                }
            )
    return rows


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
