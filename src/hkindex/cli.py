"""Command-line front end.

Subcommands: solve-wave, index, sweep, spectrum, dump-operator, self-check.
Flags override values from an optional JSON config file (--config), which
overrides defaults.  Output files are written atomically with
shortest-round-trip float formatting, so identical configurations produce
byte-identical files.

Exit codes: 0 success, 1 numerical failure, 2 accuracy warning,
3 theory-consistency failure, 64 usage error.  A sweep exits 3 if any
point failed a theory-consistency check, else 1 if any point failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import operators as op
from . import spectra as spc
from . import spectral as sp
from . import verdicts as vd
from . import waves as wv
from .errors import (ConvergenceError, FredholmViolationError,
                     TheoryConsistencyError)
from .io_utils import write_csv, write_json

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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str
    model: str = wv.FKDV
    s: float | None = None
    p: float | None = None
    c: float | None = None
    n: int | None = None
    half_length: float | None = None
    tol: float | None = None
    out: str = "."
    format: str = "csv"
    axis: str | None = None
    start: float | None = None
    stop: float | None = None
    steps: int | None = None
    case: str | None = None

    def numerics(self) -> vd.NumericsConfig:
        return vd.NumericsConfig(n=self.n, half_length=self.half_length,
                                 solver_tol=self.tol)

    def grid(self) -> sp.SpectralGrid:
        return self.numerics().grid_for(self.s if self.s is not None else 2.0)


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


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over the JSON config file over defaults; UsageError
    for a malformed file or a value the grid or the solver rejects."""
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
    cfg = RunConfig(command=args.command)
    for key in SETTINGS:
        value = getattr(args, key, None)
        if value is None:
            value = file_values.get(key)
        if value is not None:
            setattr(cfg, key, value)
    try:
        cfg.grid()
        cfg.numerics().solver_options()
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


def _require(cfg: RunConfig, *names) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise UsageError(f"missing required parameter --{name.replace('_', '-')}")


def validate_wave_params(cfg: RunConfig) -> None:
    """Verdict preconditions, checked up front (exit 1 on violation)."""
    if cfg.model not in wv.MODELS:
        raise UsageError("this command supports --model fkdv or fbbm")
    _require(cfg, "s", "p")
    wv._check_exponents(cfg.s, cfg.p)
    model = wv.MODELS[cfg.model]
    if cfg.c is None:
        cfg.c = model.default_speed
    model.check_speed(cfg.c)


def _solve_wave(cfg: RunConfig) -> wv.WaveProfile:
    return wv.solve_traveling_wave(cfg.model, cfg.s, cfg.p, cfg.c, cfg.grid(),
                                   cfg.numerics().solver_options())


def _exit_code(wave: wv.WaveProfile) -> int:
    """Accuracy warning when the wave's tails do not fit the box."""
    return EXIT_ACCURACY if wave.truncation_warning else EXIT_OK


def cmd_solve_wave(cfg: RunConfig) -> int:
    validate_wave_params(cfg)
    profile = _solve_wave(cfg)
    csv_path, json_path = wv.save_profile(
        profile, os.path.join(cfg.out, "wave.csv"))
    print(f"wrote {csv_path} and {json_path} "
          f"(residual {profile.residual_norm:.3e})")
    return _exit_code(profile)


def _run_verdict(cfg: RunConfig) -> vd.PipelineData:
    validate_wave_params(cfg)
    runner = getattr(vd, f"{wv.MODELS[cfg.model].kind}_verdict")
    return runner(cfg.s, cfg.p, cfg.c, cfg.numerics(), keep_pipeline=True)


def cmd_index(cfg: RunConfig) -> int:
    data = _run_verdict(cfg)
    res = data.result
    payload = asdict(res)
    payload["diagnostics"] = list(res.diagnostics)
    write_json(os.path.join(cfg.out, "index.json"), payload)
    print(f"K_Ham={res.K_direct} verdict={res.verdict}")
    return _exit_code(data.wave)


def cmd_sweep(cfg: RunConfig) -> int:
    _require(cfg, "axis", "start", "stop", "steps")
    if cfg.steps < 1:
        raise UsageError(f"--steps must be at least 1, got {cfg.steps}")
    if cfg.model not in wv.MODELS:
        raise UsageError("sweep supports --model fkdv or fbbm")
    fixed = {"s": cfg.s, "p": cfg.p, "c": cfg.c}
    if fixed["c"] is None and cfg.axis != "c":
        fixed["c"] = wv.MODELS[cfg.model].default_speed
    for name in ("s", "p", "c"):
        if name != cfg.axis and fixed[name] is None:
            raise UsageError(f"missing required parameter --{name}")
    fixed[cfg.axis] = 0.0  # overwritten per sweep point
    result = vd.sweep(cfg.axis, cfg.start, cfg.stop, cfg.steps,
                      s=fixed["s"], p=fixed["p"], c=fixed["c"],
                      model=cfg.model, numerics=cfg.numerics())
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
    if cfg.format == "json":
        payload = [dict(zip(SWEEP_HEADER, row)) for row in rows]
        path = write_json(os.path.join(cfg.out, "sweep.json"), payload)
    else:
        path = write_csv(os.path.join(cfg.out, "sweep.csv"), SWEEP_HEADER, rows)
    if result.flip_bracket is not None:
        lo, hi = result.flip_bracket
        print(f"flip in ({lo:g}, {hi:g})")
    else:
        print("no verdict flip in range")
    print(f"wrote {path}")
    if failed:
        print(f"{len(failed)} of {len(result.points)} sweep points failed",
              file=sys.stderr)
    if any(pt.theory_violation for pt in failed):
        return EXIT_THEORY
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    data = _run_verdict(cfg)
    rows = spc.spectrum_rows(data.eigensystem, data.classification)
    if cfg.format == "json":
        payload = [dict(zip(SPECTRUM_HEADER, row)) for row in rows]
        path = write_json(os.path.join(cfg.out, "spectrum.json"), payload)
    else:
        path = write_csv(os.path.join(cfg.out, "spectrum.csv"),
                         SPECTRUM_HEADER, rows)
    print(f"K_Ham={data.result.K_direct} verdict={data.result.verdict}")
    print(f"wrote {path}")
    return _exit_code(data.wave)


def cmd_dump_operator(cfg: RunConfig) -> int:
    if cfg.model == SCHRODINGER:
        if cfg.c is None:
            cfg.c = 0.5
        grid = cfg.grid()
        V = sp.RealField(grid, 2.0 / np.cosh(grid.nodes) ** 2)
        operator = op.schrodinger_operator(V, cfg.c)
    else:
        validate_wave_params(cfg)
        profile = _solve_wave(cfg)
        kind = wv.MODELS[cfg.model].kind
        operator = getattr(op, f"{kind}_linearization")(profile)
    # the blocks coupling the parities are written as zeros
    matrix = op.assemble(operator)
    bin_path, json_path = op.save_matrix(
        matrix, os.path.join(cfg.out, "operator.bin"))
    print(f"wrote {bin_path} and {json_path} (order {matrix.order})")
    return EXIT_OK


def cmd_self_check(cfg: RunConfig) -> int:
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
    except (ValueError, ConvergenceError, FredholmViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
