"""Report envelopes and serialization.

Every report embeds a schema tag, the tool version, and the exact config
that produced it, with stable field order, so identical configs yield
byte-identical output regardless of worker count.  emit_json, the only JSON
writer, gives exactly the bytes of json.dumps(report, indent=2) + "\n".
"""

from __future__ import annotations

import csv
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


_SCALARS = (str, int, float, type(None))  # bool is an int
_scalar = json.JSONEncoder().encode  # C-backed: no indent


@lru_cache(maxsize=None)
def _flat(depth: int):
    """Encodes a container of scalars with its items split as at depth."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode


def _indented(v, depth: int) -> str:
    """v as json.dumps prints it with indent=2, depth levels deep."""
    if not isinstance(v, (dict, list, tuple)) or not v:
        return _scalar(v)
    pad = "  " * (depth + 1)
    if all(isinstance(x, _SCALARS) for x in (v.values() if isinstance(v, dict) else v)):
        body = _flat(depth + 1)(v)[1:-1]
    elif isinstance(v, dict):  # a key prints as the one key of {key: 0} does
        body = (",\n" + pad).join(_scalar({k: 0})[1:-4] + ": " + _indented(x, depth + 1)
                                  for k, x in v.items())
    else:
        body = (",\n" + pad).join(_indented(x, depth + 1) for x in v)
    brackets = "{}" if isinstance(v, dict) else "[]"
    return brackets[0] + "\n" + pad + body + "\n" + "  " * depth + brackets[1]


def emit_json(report: dict) -> str:
    """json.dumps(report, indent=2) + "\n", without json's pure-Python indent
    path: each container of scalars goes to the C encoder in one call."""
    return _indented(report, 0) + "\n"


def emit_csv(rows: list, fieldnames: list) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in fieldnames})
    return buf.getvalue()


def table_rows(table) -> list:
    """ComplexityTable entries as flat rows: bit outputs, then pairs, each
    sorted by total output length, then output."""
    rows = []
    for kind, entries in (("bits", table.entries), ("pair", table.pair_entries)):
        for key in sorted(entries, key=lambda k: (len("".join(k)), k)):
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
