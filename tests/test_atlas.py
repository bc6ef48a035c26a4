"""The stability atlas: the `index` record of every point of a grid of
(s, p), pinned, for both rows of the model table.

The points are s in {0.6, 0.75, 1, 1.5, 2} and p in {0.75, 1, 1.2, 1.5,
2, 3, 4, 5} with p < p_max(s), plus (2, 4.1) near the gKdV threshold,
fKdV at c = 1 and fBBM at c = 2, on the default grids, and fBBM (1, 3, 2)
on the fine grid (4096, 100).  Each runs `hkindex index --tol 1e-12`, as
in test_regression, so that a pin records the wave and not the path the
wave solver took to it.  A record pins the exit code, n_L, k_r,
K_formula, the verdict and the diagnostics, or the class and message of
the error, all exactly, except that d, slope and the numbers printed in
a diagnostic or a message are held to the bounds stored beside the
points:

- rel = 1e-9.  Between 1 and 2 BLAS threads every record was the same,
  bit for bit; between OpenBLAS's default, Haswell and Sandybridge
  kernels d and slope moved by at most 3.4e-11 relative.
- abs = 1e-12.  At fkdv (2, 4, 1), the p = 2s point of s = 2, the
  reference slope is 0 and the numerical one is round-off: it read
  -1.26e-14, -1.55e-15 and -1.14e-14 on those three kernels.

The pins are kept in atlas.json, not in this file: float literals here
would feed the examples Hypothesis draws (see conftest.py).  Only the
s = 2 rows run in the quick loop; the others are marked slow.
"""

import json
import re
from pathlib import Path

import pytest

from hkindex import cli

ATLAS = json.loads(Path(__file__).with_name("atlas.json").read_text())


def index_record(point: dict, out, monkeypatch) -> dict:
    """The record of one atlas point: the exit code and the fields of
    index.json that the atlas pins, or the error's class and message."""
    raised = []
    cmd_index = cli.COMMANDS["index"]

    def recording(cfg):
        try:
            return cmd_index(cfg)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setitem(cli.COMMANDS, "index", recording)
    argv = ["index", "--model", point["model"], "--s", repr(point["s"]),
            "--p", repr(point["p"]), "--c", repr(point["c"]),
            "--tol", "1e-12", "--out", str(out)]
    if "n" in point:
        argv += ["--n", str(point["n"]),
                 "--half-length", repr(point["half_length"])]
    record = {"exit": cli.main(argv)}
    if raised:
        record["error"] = type(raised[0]).__name__
        record["message"] = str(raised[0])
        return record
    written = json.loads((Path(out) / "index.json").read_text())
    for key in ("n_L", "k_r", "K_formula", "verdict", "diagnostics", "d",
                "slope"):
        record[key] = written[key]
    return record


# a number as the diagnostics and messages print it, e.g. +8.176e-03
NUMBER = re.compile(r"[-+]?\d\.\d+e[-+]\d+")


def _same(got, want) -> bool:
    """got equals want, with each float, and each number printed in a
    text, within the atlas's bounds."""
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, str):
        return (NUMBER.sub("#", got) == NUMBER.sub("#", want)
                and _same([float(x) for x in NUMBER.findall(got)],
                          [float(x) for x in NUMBER.findall(want)]))
    if isinstance(want, float):
        return got == pytest.approx(want, rel=ATLAS["rel"], abs=ATLAS["abs"])
    return got == want


def _point_id(point: dict) -> str:
    grid = f"-{point['n']}" if "n" in point else ""
    return f"{point['model']}-{point['s']:g}-{point['p']:g}-{point['c']:g}{grid}"


@pytest.mark.parametrize("point", [
    pytest.param(point, id=_point_id(point),
                 marks=() if point["s"] == 2 and "n" not in point
                 else pytest.mark.slow)
    for point in ATLAS["points"]])
def test_index_record_is_pinned(point, tmp_path, monkeypatch):
    got = index_record(point, tmp_path, monkeypatch)
    want = point["record"]
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert _same(got[key], value), (key, got[key], value)
