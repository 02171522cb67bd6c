"""Report envelopes and serialization.

Every report embeds a schema tag, the tool version, and the exact config
that produced it, with stable field order, so identical configs yield
byte-identical output regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import json

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
