"""Report envelopes and serialization.

Every report embeds a schema tag, the tool version, and the exact config
that produced it, with stable field order, so identical configs yield
byte-identical output regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Optional

from . import __version__

SCHEMA_VERSION = "omegalab.report/1"


def envelope(command: str, config: dict, result) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": {"command": command, **config},
        "result": result,
    }


def emit_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def emit_csv(rows: list, fieldnames: list) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in fieldnames})
    return buf.getvalue()


def table_rows(table) -> list:
    """ComplexityTable entries as flat rows, sorted by output."""
    rows = []
    for key in sorted(table.entries, key=lambda o: (len(o), o)):
        e = table.entries[key]
        rows.append(
            {
                "output": key,
                "kind": "bits",
                "h_upper": e.h_upper,
                "witness": e.witness,
                "minimal_count": e.minimal_count,
                "prob": str(e.prob) if e.prob is not None else "",
            }
        )
    for key in sorted(table.pair_entries, key=lambda p: (len(p[0]) + len(p[1]), p)):
        e = table.pair_entries[key]
        rows.append(
            {
                "output": f"{key[0]}|{key[1]}",
                "kind": "pair",
                "h_upper": e.h_upper,
                "witness": e.witness,
                "minimal_count": e.minimal_count,
                "prob": str(e.prob) if e.prob is not None else "",
            }
        )
    return rows


def table_report(table) -> dict:
    return {
        "machine": table.machine,
        "L": table.L,
        "B": table.B,
        "exhaustive_limit": table.exhaustive_limit,
        "contributing": table.contributing,
        "conversion_failure_mass": str(table.conv_fail_mass),
        "entries": table_rows(table),
    }
