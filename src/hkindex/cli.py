"""Command-line front end.

Subcommands: solve-wave, index, sweep, spectrum, dump-operator, self-check.
Flags override values from an optional JSON config file (--config), which
overrides defaults.  Output files are written atomically with
shortest-round-trip float formatting, so identical configurations produce
byte-identical files on one build of numpy, scipy and OpenBLAS and one BLAS
kernel; across kernels a round-off figure can move, such as the d of fkdv
(2, 4, 1), which read 6.29e-15, 7.77e-16 or 5.72e-15.

Exit codes: 0 success, 1 numerical failure or an output that cannot be
written, 2 accuracy warning, 3 theory-consistency failure, 64 usage
error.  A sweep exits 3 if any point failed a theory-consistency check,
else 1 if any point failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import operators as op
from . import spectra as spc
from . import spectral as sp
from . import verdicts as vd
from . import waves as wv
from .errors import ConvergenceError, TheoryConsistencyError
from .io_utils import write_csv, write_json, write_json_rows

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_ACCURACY = 2
EXIT_THEORY = 3
EXIT_USAGE = 64

SCHRODINGER = "schrodinger"

SWEEP_HEADER = ["s", "p", "c", "model", "n_L", "slope", "K_formula",
                "k_r", "k_c", "k_i_minus", "verdict", "status"]
SPECTRUM_HEADER = ["re", "im", "class", "krein_form_value"]

# each setting's type as its flag parses it, and the choices of the flags
# that have them; a config file may hold exactly these settings
SETTINGS = {"model": str, "s": float, "p": float, "c": float, "n": int,
            "half_length": float, "tol": float, "out": str, "format": str,
            "axis": str, "start": float, "stop": float, "steps": int,
            "case": str}
CHOICES = {"model": [*wv.MODELS, SCHRODINGER], "format": ["csv", "json"],
           "axis": [vd.AXIS_P, vd.AXIS_C, vd.AXIS_S]}
# the value of a setting that neither a flag nor the config file gives
DEFAULTS = {"model": wv.FKDV, "out": ".", "format": "csv"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="hkindex",
                     description="Hamiltonian-Krein index toolkit for "
                                 "fractional KdV/BBM solitary waves")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", choices=CHOICES["model"])
    common.add_argument("--s", type=float, help="dispersion exponent in (0, 2]")
    common.add_argument("--p", type=float, help="nonlinearity exponent")
    common.add_argument("--c", type=float, help="wave speed")
    common.add_argument("--n", type=int, help="grid points (even)")
    common.add_argument("--half-length", type=float, dest="half_length",
                        help="half box length")
    common.add_argument("--tol", type=float, help="wave solver tolerance")
    common.add_argument("--out", help="output directory (default '.')")
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--format", choices=CHOICES["format"],
                        help="tabular output format (default csv)")

    sub.add_parser("solve-wave", parents=[common],
                   help="compute a solitary-wave profile and write CSV+JSON")
    sub.add_parser("index", parents=[common],
                   help="run the full index pipeline, write the result JSON")
    sweep_p = sub.add_parser("sweep", parents=[common],
                             help="run verdicts along one parameter axis")
    sweep_p.add_argument("--axis", choices=CHOICES["axis"])
    sweep_p.add_argument("--from", type=float, dest="start")
    sweep_p.add_argument("--to", type=float, dest="stop")
    sweep_p.add_argument("--steps", type=int)
    sub.add_parser("spectrum", parents=[common],
                   help="export the classified Hamiltonian spectrum")
    sub.add_parser("dump-operator", parents=[common],
                   help="dump the assembled operator matrix (binary + header)")
    # each case runs on its own fixed grid, so no shared flag applies, and
    # without abbreviations --c is not read as --case
    check_p = sub.add_parser("self-check", allow_abbrev=False,
                             help="run packaged theory-consistency assertions")
    check_p.add_argument("--case", help="named case, e.g. gkdv-p2")
    return parser


def load_config(args: argparse.Namespace) -> argparse.Namespace:
    """The command and each of SETTINGS: flag over config file over DEFAULTS
    over None; UsageError for a malformed file or a value the grid or the
    solver rejects."""
    file_values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}")
        _check_config(file_values)
    cfg = argparse.Namespace(command=args.command)
    for key in SETTINGS:
        value = getattr(args, key, None)
        setattr(cfg, key, file_values.get(key, DEFAULTS.get(key))
                if value is None else value)
    try:
        _grid(cfg)
        _numerics(cfg).solver_options()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


def _check_config(values) -> None:
    """Raise UsageError unless the config file holds a JSON object of
    settings, each of its flag's type (an integer passes as a float, a
    boolean never) and among its flag's choices."""
    if not isinstance(values, dict):
        raise UsageError("config file must hold a JSON object")
    for key, value in values.items():
        if key not in SETTINGS:
            raise UsageError(f"unknown config key {key!r}; known keys: "
                             f"{', '.join(SETTINGS)}")
        kind = SETTINGS[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise UsageError(f"config key {key!r} must be of type "
                             f"{kind.__name__}, got {value!r}")
        if value not in CHOICES.get(key, [value]):
            raise UsageError(f"config key {key!r} must be one of "
                             f"{', '.join(CHOICES[key])}, got {value!r}")


def _numerics(cfg) -> vd.NumericsConfig:
    return vd.NumericsConfig(n=cfg.n, half_length=cfg.half_length,
                             solver_tol=cfg.tol)


def _grid(cfg) -> sp.SpectralGrid:
    return _numerics(cfg).grid_for(cfg.s if cfg.s is not None else 2.0)


def _require(cfg, *names) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise UsageError(f"missing required parameter --{name.replace('_', '-')}")


def validate_wave_params(cfg, axis: str | None = None) -> None:
    """A wave model and s, p are given (else a usage error), and c defaults
    to the model's speed; a sweep's axis is neither required nor
    defaulted.  The ranges of s, p and c are the solver's to check: it
    raises ValueError (exit 1), naming the speed first."""
    if cfg.model not in wv.MODELS:
        raise UsageError("this command supports --model fkdv or fbbm")
    _require(cfg, *(name for name in ("s", "p") if name != axis))
    if cfg.c is None and axis != vd.AXIS_C:
        cfg.c = wv.MODELS[cfg.model].default_speed


def _solve_wave(cfg) -> wv.WaveProfile:
    return wv.solve_traveling_wave(cfg.model, cfg.s, cfg.p, cfg.c, _grid(cfg),
                                   _numerics(cfg).solver_options())


def _accuracy_exit(result: vd.KreinIndexResult) -> int:
    """Accuracy warning when the wave's tails do not fit the box."""
    return EXIT_ACCURACY if vd.TRUNCATION_NOTE in result.diagnostics else EXIT_OK


def _write_table(cfg, name: str, header: list, rows: list) -> str:
    """The rows under header as <out>/<name>.csv or .json, by --format."""
    write = write_json_rows if cfg.format == "json" else write_csv
    return write(os.path.join(cfg.out, f"{name}.{cfg.format}"), header, rows)


def cmd_solve_wave(cfg) -> int:
    validate_wave_params(cfg)
    profile = _solve_wave(cfg)
    csv_path, json_path = wv.save_profile(
        profile, os.path.join(cfg.out, "wave.csv"))
    print(f"wrote {csv_path} and {json_path} "
          f"(residual {profile.residual_norm:.3e})")
    return EXIT_ACCURACY if profile.truncation_warning else EXIT_OK


def _run_verdict(cfg, keep_pipeline: bool):
    validate_wave_params(cfg)
    return vd.verdict(cfg.model, cfg.s, cfg.p, cfg.c, _numerics(cfg),
                      keep_pipeline=keep_pipeline)


def cmd_index(cfg) -> int:
    # counts only: no eigenvectors, no Krein forms
    res = _run_verdict(cfg, keep_pipeline=False)
    payload = asdict(res)
    payload["diagnostics"] = list(res.diagnostics)
    write_json(os.path.join(cfg.out, "index.json"), payload)
    print(f"K_Ham={res.K_direct} verdict={res.verdict}")
    return _accuracy_exit(res)


def cmd_sweep(cfg) -> int:
    _require(cfg, "axis", "start", "stop", "steps")
    if cfg.steps < 1:
        raise UsageError(f"--steps must be at least 1, got {cfg.steps}")
    validate_wave_params(cfg, axis=cfg.axis)
    fixed = {"s": cfg.s, "p": cfg.p, "c": cfg.c}
    fixed[cfg.axis] = 0.0  # overwritten per sweep point
    result = vd.sweep(cfg.axis, cfg.start, cfg.stop, cfg.steps,
                      s=fixed["s"], p=fixed["p"], c=fixed["c"],
                      model=cfg.model, numerics=_numerics(cfg))
    rows = []
    failed = [pt for pt in result.points if pt.result is None]
    for pt in result.points:
        if pt.result is not None:
            r = pt.result
            rows.append((pt.s, pt.p, pt.c, r.model, r.n_L, r.slope,
                         r.K_formula, r.k_r, r.k_c, r.k_i_minus, r.verdict,
                         "ok"))
        else:
            rows.append((pt.s, pt.p, pt.c, cfg.model, -1, float("nan"), -1,
                         -1, -1, -1, "ERROR", pt.error.replace(",", ";")))
    path = _write_table(cfg, "sweep", SWEEP_HEADER, rows)
    if result.flip_bracket is not None:
        lo, hi = result.flip_bracket
        print(f"flip in ({lo:g}, {hi:g}): {' -> '.join(result.flip_verdicts)}")
    else:
        print("no verdict flip in range")
    print(f"wrote {path}")
    if failed:
        print(f"{len(failed)} of {len(result.points)} sweep points failed",
              file=sys.stderr)
    if any(pt.theory_violation for pt in failed):
        return EXIT_THEORY
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_spectrum(cfg) -> int:
    data = _run_verdict(cfg, keep_pipeline=True)
    path = _write_table(cfg, "spectrum", SPECTRUM_HEADER, spc.spectrum_rows(
        data.eigensystem, data.classification))
    print(f"K_Ham={data.result.K_direct} verdict={data.result.verdict}")
    print(f"wrote {path}")
    return _accuracy_exit(data.result)


def cmd_dump_operator(cfg) -> int:
    if cfg.model == SCHRODINGER:
        if cfg.c is None:
            cfg.c = 0.5
        grid = _grid(cfg)
        operator = op.schrodinger_operator(
            grid, 2.0 / np.cosh(grid.nodes) ** 2, cfg.c)
    else:
        validate_wave_params(cfg)
        operator = op.linearization(_solve_wave(cfg))
    # the blocks coupling the parities are written as zeros
    bin_path, json_path = op.save_matrix(
        op.operator_blocks(operator), os.path.join(cfg.out, "operator.bin"))
    print(f"wrote {bin_path} and {json_path} (order {operator.grid.n})")
    return EXIT_OK


def cmd_self_check(cfg) -> int:
    if cfg.case is None:
        raise UsageError("missing required parameter --case")
    try:
        report = vd.self_check(cfg.case)
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))
    width = max(len(e.name) for e in report.entries)
    print(f"self-check case {report.case!r}")
    for entry in report.entries:
        status = "PASS" if entry.passed else "FAIL"
        print(f"  [{status}] {entry.name.ljust(width)}  {entry.detail}")
    print(f"{sum(e.passed for e in report.entries)}/{len(report.entries)} "
          f"assertions passed")
    return EXIT_OK if report.passed else EXIT_NUMERICAL


COMMANDS = {
    "solve-wave": cmd_solve_wave,
    "index": cmd_index,
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
    "dump-operator": cmd_dump_operator,
    "self-check": cmd_self_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args)
        return COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TheoryConsistencyError as exc:
        print(f"theory-consistency failure: {exc}", file=sys.stderr)
        return EXIT_THEORY
    except (ValueError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
