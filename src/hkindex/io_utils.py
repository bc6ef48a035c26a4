"""Deterministic, atomic file output helpers.

Floats are written with the shortest decimal that round-trips (Python's
repr), so identical inputs produce byte-identical files.  Writes go to a
temporary file in the target directory followed by an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile


def format_float(x) -> str:
    return repr(float(x))


def atomic_write_text(path, text: str) -> str:
    return _atomic_write(path, text, "w")


def atomic_write_bytes(path, payload: bytes) -> str:
    return _atomic_write(path, payload, "wb")


def _atomic_write(path, data, mode: str) -> str:
    path = str(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_csv(path, header: list, rows: list) -> str:
    """CSV with '.' decimals, ',' separators, mandatory header row."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload) -> str:
    return atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
