"""Workload definitions and output checks for the hkindex benchmark.

Each workload is a fixed list of items.  An item is one ``hkindex`` command
line, run in-process through ``hkindex.cli.main``, plus the check that its
written output is right.  The checks read only the files and exit code the
command produced and recompute what they can with NumPy alone, so they do
not trust the code under test.

Workloads (the seed only permutes item order: the verdicts are not
invariant in ``c``, so the inputs themselves are fixed):

* ``gkdv-index``: ``index`` for the gKdV (s = 2) waves p = 2 (stable) and
  p = 5 (unstable) at c = 1 on the default n = 2048 grid.  Dense ``eigh``
  and the nonsymmetric Hamiltonian ``eig`` dominate; c = 1 skips the
  rescale resampling.
* ``bbm-index``: ``index`` for the fBBM wave s = 1.5, p = 1, c = 1.5 at
  n = 2048: two ``eigh`` calls, ``bbm_symmetrize``, three dense rescales
  and the Sylvester check, i.e. the same layers used differently.
* ``wave-table``: ``solve-wave`` for fKdV (c = 1) and fBBM (c = 2) over a
  5 x 5 table of (s, p) with p < p_max(s): 48 items, no dense linear
  algebra.  Resampling, the Petviashvili solve and CSV output dominate; a
  change to ``spectra`` should leave it unchanged.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

FKDV, FBBM = "fkdv", "fbbm"


@dataclass(frozen=True)
class Expected:
    """Index-file values an ``index`` item must reproduce."""
    n_L: int
    K_direct: int
    k_r: int
    verdict: str


@dataclass(frozen=True)
class Item:
    key: str                 # stable identifier, e.g. "fkdv s=2 p=5 c=1"
    command: str             # "index" or "solve-wave"
    model: str
    s: float
    p: float
    c: float
    expected: Expected | None = None
    # the seed's documented numerical failure (exit 1) for this input
    known_failure: bool = False

    def argv(self, out_dir: str) -> list:
        return [self.command, "--model", self.model, "--s", repr(self.s),
                "--p", repr(self.p), "--c", repr(self.c), "--out", out_dir]


def _index_item(model, s, p, c, expected) -> Item:
    return Item(f"{model} s={s:g} p={p:g} c={c:g}", "index", model,
                float(s), float(p), float(c), expected=expected)


def p_max(s: float) -> float:
    """Upper end of the ground-state window: 2s/(1-s) below s = 1."""
    return 2.0 * s / (1.0 - s) if s < 1.0 else math.inf


# fBBM c = 2 rescales that raise ConvergenceError (exit 1) at the seed: the
# rescaled residual exceeds both 10x the solver tolerance and the
# truncation floor.  They stay in the table and are counted, not dropped.
WAVE_TABLE_KNOWN_FAILURES = {(FBBM, 0.6, 2.0), (FBBM, 0.75, 2.0),
                             (FBBM, 0.75, 3.0), (FBBM, 1.0, 3.0)}


def _wave_table() -> list:
    items = []
    for model, c in ((FKDV, 1.0), (FBBM, 2.0)):
        for s in (0.6, 0.75, 1.0, 1.5, 2.0):
            for p in (0.8, 1.0, 1.2, 2.0, 3.0):
                if p < p_max(s):
                    items.append(Item(
                        f"{model} s={s:g} p={p:g} c={c:g}", "solve-wave",
                        model, s, p, c,
                        known_failure=(model, s, p) in WAVE_TABLE_KNOWN_FAILURES))
    return items


WORKLOADS = {
    "gkdv-index": [
        _index_item(FKDV, 2.0, 2.0, 1.0, Expected(1, 0, 0, "STABLE")),
        _index_item(FKDV, 2.0, 5.0, 1.0, Expected(1, 1, 1, "UNSTABLE")),
    ],
    "bbm-index": [
        _index_item(FBBM, 1.5, 1.0, 1.5, Expected(1, 0, 0, "STABLE")),
    ],
    "wave-table": _wave_table(),
}

# Seconds one pass takes on a 2-core x86 VM with BLAS on one thread (numpy
# 2.4.6, OpenBLAS 0.3.31).  A run makes round(budget / this) passes, at
# least one, so the work in a run is fixed by the budget and the same on
# every commit, and a pass is never cut short.
NOMINAL_PASS_S = {"gkdv-index": 26.0, "bbm-index": 19.0, "wave-table": 10.5}

# outcome labels
OK = "ok"
KNOWN_FAILURE = "known-failure"
WRONG = "wrong"


def check(item: Item, exit_code, stdout: str, stderr: str, out_dir: str):
    """Return (outcome, detail) for one finished item."""
    if item.known_failure and exit_code == 1 and "error:" in stderr:
        return KNOWN_FAILURE, stderr.strip().splitlines()[-1]
    try:
        if item.command == "index":
            return _check_index(item, exit_code, stdout, out_dir)
        return _check_wave(item, exit_code, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return WRONG, f"unreadable output: {type(exc).__name__}: {exc}"


def _check_index(item: Item, exit_code, stdout: str, out_dir: str):
    if exit_code != 0:
        return WRONG, f"exit {exit_code}"
    with open(os.path.join(out_dir, "index.json")) as fh:
        res = json.load(fh)
    exp = item.expected
    problems = [f"{name}={res[name]!r}, expected {want!r}"
                for name, want in (("n_L", exp.n_L), ("K_direct", exp.K_direct),
                                   ("k_r", exp.k_r), ("verdict", exp.verdict))
                if res[name] != want]
    if res["K_formula"] != res["K_direct"]:
        problems.append(f"K_formula={res['K_formula']} != K_direct")
    if (res["model"], res["s"], res["p"], res["c"]) != \
            (item.model, item.s, item.p, item.c):
        problems.append("parameters in index.json do not match the command")
    if item.model == FBBM and not (res["slope"] > 0 and res["slope_reference"] > 0):
        problems.append(f"slopes {res['slope']:+.3e}/{res['slope_reference']:+.3e}")
    summary = f"K_Ham={res['K_direct']} verdict={res['verdict']}"
    if summary not in stdout.splitlines():
        problems.append(f"summary line {summary!r} not printed")
    return (WRONG, "; ".join(problems)) if problems else (OK, summary)


def _power(values: np.ndarray, exponent: float) -> np.ndarray:
    # non-integer powers of the round-off tails (which may be slightly
    # negative) are taken of the values clamped at 1e-14 * peak
    if float(exponent).is_integer():
        return values ** exponent
    floor = 1e-14 * max(float(np.max(np.abs(values))), 1e-300)
    return np.maximum(values, floor) ** exponent


def _check_wave(item: Item, exit_code, out_dir: str):
    if exit_code not in (0, 2):
        return WRONG, f"exit {exit_code}"
    with open(os.path.join(out_dir, "wave.json")) as fh:
        meta = json.load(fh)
    problems = []
    if (meta["model"], meta["s"], meta["p"], meta["c"]) != \
            (item.model, item.s, item.p, item.c):
        problems.append("parameters in wave.json do not match the command")
    n, half = int(meta["grid"]["n"]), float(meta["grid"]["half_length"])
    with open(os.path.join(out_dir, "wave.csv")) as fh:
        if fh.readline().strip() != "x,U":
            problems.append("wave.csv header is not 'x,U'")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (n, 2):
        return WRONG, f"wave.csv has shape {data.shape}, expected ({n}, 2)"
    x, u = data[:, 0], data[:, 1]
    h = 2.0 * half / n
    if np.max(np.abs(x - (-half + h * np.arange(n)))) > 1e-12 * half:
        problems.append("x column is not the grid")
    if not np.all(np.isfinite(u)):
        return WRONG, "non-finite wave values"
    peak = float(np.max(u))
    if not (peak > 0 and int(np.argmax(u)) == n // 2):
        problems.append("peak is not positive or not at x = 0")
    if np.max(np.abs(u - np.roll(u[::-1], 1))) > 1e-8 * peak:
        problems.append("profile is not even")

    # residual of |d|^s U + c U - U^(p+1) = 0 (fKdV) or
    # c |d|^s U + (c-1) U - U^(p+1) = 0 (fBBM), recomputed from the file
    s, p, c = item.s, item.p, item.c
    sym = (2.0 * np.pi * np.abs(np.fft.fftfreq(n, d=h))) ** s
    disp = np.fft.ifft(sym * np.fft.fft(u)).real
    lin = disp + c * u if item.model == FKDV else c * disp + (c - 1.0) * u
    residual = float(np.max(np.abs(lin - _power(u, p + 1.0))))
    reported = float(meta["residual_norm"])
    if abs(residual - reported) > 1e-6 * reported + 1e-13 * peak:
        problems.append(f"reported residual {reported:.3e} != recomputed "
                        f"{residual:.3e}")
    truncated = bool(meta["truncation_warning"])
    if truncated != (exit_code == 2):
        problems.append(f"exit {exit_code} with truncation_warning={truncated}")
    if not truncated and residual > 10.0 * float(meta["residual_tol"]):
        problems.append(f"residual {residual:.3e} above 10x tol without a "
                        f"truncation warning")

    if item.model == FKDV and s == 2.0:
        # closed-form gKdV soliton (the formula of waves.sech_profile)
        amp = (c * (p + 2.0) / 2.0) ** (1.0 / p)
        exact = amp / np.cosh(0.5 * p * math.sqrt(c) * x) ** (2.0 / p)
        err = float(np.max(np.abs(u - exact))) / amp
        if err > 1e-8:
            problems.append(f"sup error against the sech soliton {err:.2e}")
    if problems:
        return WRONG, "; ".join(problems)
    return OK, f"exit {exit_code}, residual {residual:.2e}"
