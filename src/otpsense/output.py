"""Tabular result writers: CSV (RFC 4180 quoting) and JSON lines.

Both formats carry a metadata preamble (tool version, seed, config digest)
so an output file is attributable to the exact run that produced it; with a
fixed config and seed the bytes are identical run to run.
"""

from __future__ import annotations

import csv
import io
import json

FORMATS = ("csv", "json-lines")


def _columns(rows: list[dict]) -> list[str]:
    """Every key of every row, in order of first appearance."""
    return list(dict.fromkeys(key for row in rows for key in row))


def render(rows: list[dict], metadata: dict, fmt: str) -> str:
    """Render result rows plus metadata to one text blob."""
    if fmt == "csv":
        buf = io.StringIO()
        for key in sorted(metadata):
            buf.write(f"# {key}: {metadata[key]}\n")
        writer = csv.DictWriter(buf, fieldnames=_columns(rows), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "json-lines":
        lines = [json.dumps({"metadata": metadata}, sort_keys=True)]
        lines += [json.dumps(row, sort_keys=True) for row in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")


def write(rows: list[dict], metadata: dict, fmt: str, path: str | None) -> str:
    """Render and write to `path` (or return only, when path is None)."""
    text = render(rows, metadata, fmt)
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text
