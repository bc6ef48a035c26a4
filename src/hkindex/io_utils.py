"""Deterministic, atomic file output helpers.

Floats are written with the shortest decimal that round-trips (str of a
Python or NumPy float is its repr), so identical inputs produce
byte-identical files.  Writes go to a temporary file in the target
directory, given the mode of a freshly created file, followed by an
atomic rename.
"""

from __future__ import annotations

import json
import math
import os
import tempfile


def atomic_write_text(path, text: str) -> str:
    return _atomic_write(path, text, "w")


def atomic_write_bytes(path, payload: bytes) -> str:
    return _atomic_write(path, payload, "wb")


def _atomic_write(path, data, mode: str) -> str:
    path = str(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    umask = os.umask(0)   # mkstemp makes 0600; a new file gets 0666 & ~umask
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_csv(path, header: list, rows: list) -> str:
    """CSV with '.' decimals, ',' separators, mandatory header row."""
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    return atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload) -> str:
    """Strict JSON: a NaN or infinite float raises ValueError."""
    return atomic_write_text(path, json.dumps(
        payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_json_rows(path, header: list, rows: list) -> str:
    """The rows of a CSV table as a JSON list of objects keyed by the
    header; a non-finite float cell is null."""
    return write_json(path, [
        {key: None if isinstance(cell, float) and not math.isfinite(cell)
         else cell for key, cell in zip(header, row)} for row in rows])
