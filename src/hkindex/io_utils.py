"""Deterministic, atomic file output helpers.

Floats are written with the shortest decimal that round-trips (str of a
Python or NumPy float is its repr), so identical inputs produce
byte-identical files.  Writes go to a temporary file in the target
directory, given the mode of a freshly created file, followed by an
atomic rename; the files of one output are all written before the first
rename.
"""

from __future__ import annotations

import json
import math
import os
import tempfile


def atomic_write_text(path, text: str) -> str:
    return atomic_write_files({path: text})[0]


def atomic_write_files(files: dict) -> list:
    """Write each path: data (str or bytes) of files, and return the paths.

    Every temporary file is written before the first rename, and the
    renames follow the order of files.  On a failure the temporary files
    not yet renamed are removed, so a failed write replaces no file and a
    failed rename leaves the files after it untouched.  The OSError of a
    rename names its target, not the temporary file.
    """
    umask = os.umask(0)   # mkstemp makes 0600; a new file gets 0666 & ~umask
    os.umask(umask)
    pending = {}
    try:
        for path, data in files.items():
            path = str(path)
            directory = os.path.dirname(path) or "."
            os.makedirs(directory, exist_ok=True)
            fd, pending[path] = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                                                 suffix="~")
            with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
                fh.write(data)
            os.chmod(pending[path], 0o666 & ~umask)
        for path in list(pending):
            try:
                os.replace(pending[path], path)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            del pending[path]
    finally:
        for tmp in pending.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
    return [str(path) for path in files]


def csv_text(header: list, columns) -> str:
    """CSV with '.' decimals, ',' separators, mandatory header row, from
    the table's columns: one map(str, ...) per column, one join per row."""
    rows = zip(*(map(str, column) for column in columns))
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def write_csv(path, header: list, rows: list) -> str:
    return atomic_write_text(path, csv_text(header, zip(*rows)))


def json_text(payload) -> str:
    """Strict JSON: a NaN or infinite float raises ValueError."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, payload) -> str:
    return atomic_write_text(path, json_text(payload))


def write_json_rows(path, header: list, rows: list) -> str:
    """The rows of a CSV table as a JSON list of objects keyed by the
    header; a non-finite float cell is null."""
    return write_json(path, [
        {key: None if isinstance(cell, float) and not math.isfinite(cell)
         else cell for key, cell in zip(header, row)} for row in rows])
