import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from hkindex import cli
from hkindex import spectra as spc
from hkindex import verdicts as vd
from hkindex import waves as wv
from hkindex.errors import UnresolvedEigenvalueError
from hkindex.io_utils import write_csv

from conftest import count_calls


def run(argv, capsys=None):
    code = cli.main(argv)
    return code


class TestSolveWave:
    def test_writes_profile_and_sidecar(self, tmp_path, capsys):
        code = run(["solve-wave", "--model", "fkdv", "--s", "2", "--p", "2",
                    "--c", "1", "--out", str(tmp_path)])
        assert code == 0
        data = np.loadtxt(tmp_path / "wave.csv", delimiter=",", skiprows=1)
        meta = json.load(open(tmp_path / "wave.json"))
        assert meta["model"] == "fkdv"
        # profile matches sqrt(2) sech on its grid
        exact = np.sqrt(2.0) / np.cosh(data[:, 0])
        assert np.max(np.abs(data[:, 1] - exact)) <= 1e-8

    def test_existence_window_violation_exits_1(self, tmp_path, capsys):
        code = run(["solve-wave", "--model", "fkdv", "--s", "0.5", "--p", "3",
                    "--out", str(tmp_path)])
        assert code == 1
        assert "p_max" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--n", "513", "grid size must be an even integer >= 8, got 513"),
        ("--half-length", "-3", "half_length must be positive, got -3.0"),
        ("--tol", "-1", "tol must be positive, got -1.0"),
        ("--half-length", "inf", "half_length must be finite, got inf"),
        ("--half-length", "1e308", "half_length must be finite, got 1e+308"),
        ("--tol", "inf", "tol must be finite, got inf"),
    ], ids=["n", "half-length", "tol", "half-length-inf", "spacing-overflow",
            "tol-inf"])
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, flag,
                                              value, message):
        code = run(["solve-wave", "--model", "fkdv", "--s", "2", "--p", "2",
                    flag, value, "--out", str(tmp_path)])
        assert code == 64
        assert message in capsys.readouterr().err
        assert not (tmp_path / "wave.csv").exists()

    def test_infinite_speed_exits_1(self, tmp_path, capsys):
        # like c = 0, a speed outside the model's range fails the solve
        code = run(["solve-wave", "--model", "fkdv", "--s", "2", "--p", "2",
                    "--c", "inf", "--out", str(tmp_path)])
        assert code == 1
        assert "need a finite c > 0, got inf" in capsys.readouterr().err
        assert not (tmp_path / "wave.csv").exists()

    @pytest.mark.parametrize("command", ["solve-wave", "index"])
    def test_speed_is_named_before_the_exponents(self, tmp_path, capsys,
                                                 command):
        # the solver's own checks run, speed first: s = 3 and c = 0.5 are
        # both out of range for fBBM
        code = run([command, "--model", "fbbm", "--s", "3", "--p", "2",
                    "--c", "0.5", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: fbbm waves need a finite c > 1, got 0.5\n"

    def test_p_below_half_exits_1(self, tmp_path, capsys):
        # the Petviashvili exponent (p+1)/p leaves (1, 3): a numerical
        # failure of the solver, not a usage error
        code = run(["solve-wave", "--model", "fkdv", "--s", "2", "--p", "0.4",
                    "--out", str(tmp_path)])
        assert code == 1
        assert "got p=0.4" in capsys.readouterr().err

    def test_missing_p_is_usage_error(self, tmp_path, capsys):
        code = run(["solve-wave", "--model", "fkdv", "--s", "2",
                    "--out", str(tmp_path)])
        assert code == 64

    def test_truncation_warning_exits_2(self, tmp_path, capsys):
        # a wide small-s wave on a deliberately short box
        code = run(["solve-wave", "--model", "fkdv", "--s", "0.6", "--p", "1",
                    "--c", "1", "--n", "512", "--half-length", "20",
                    "--out", str(tmp_path)])
        assert code == 2
        meta = json.load(open(tmp_path / "wave.json"))
        assert meta["truncation_warning"] is True


def recomputed_residual(out_dir, model, s, p, c) -> tuple:
    """max |a |d|^s U + b U - U^(p+1)| of wave.csv by a complex FFT, the
    profile's peak, and wave.json."""
    meta = json.load(open(out_dir / "wave.json"))
    u = np.loadtxt(out_dir / "wave.csv", delimiter=",", skiprows=1)[:, 1]
    n = u.size
    h = 2.0 * meta["grid"]["half_length"] / n
    sym = (2.0 * np.pi * np.abs(np.fft.fftfreq(n, d=h))) ** s
    disp = np.fft.ifft(sym * np.fft.fft(u)).real
    a, b = (1.0, c) if model == "fkdv" else (c, c - 1.0)
    peak = float(np.max(u))
    power = u ** (p + 1.0) if float(p).is_integer() else \
        np.maximum(u, 1e-14 * np.max(np.abs(u))) ** (p + 1.0)
    return float(np.max(np.abs(a * disp + b * u - power))), peak, meta


@pytest.mark.parametrize("model, s, p, c, code", [
    ("fkdv", 1.5, 2.0, 1.0, 0), ("fbbm", 0.6, 1.2, 2.0, 2),
    ("fbbm", 2.0, 3.0, 2.0, 0)], ids=["fkdv", "fbbm-truncated", "fbbm-s2"])
def test_reported_residual_is_recomputed_from_the_file(tmp_path, capsys, model,
                                                        s, p, c, code):
    # the bound of the benchmark's output check: 1e-6 relative + 1e-13 peak
    assert run(["solve-wave", "--model", model, "--s", str(s), "--p", str(p),
                "--c", str(c), "--out", str(tmp_path)]) == code
    residual, peak, meta = recomputed_residual(tmp_path, model, s, p, c)
    reported = meta["residual_norm"]
    assert abs(residual - reported) <= 1e-6 * reported + 1e-13 * peak
    assert residual <= meta["residual_tol"]
    assert meta["truncation_warning"] == (code == 2)
    if code == 2:
        assert meta["grid"]["n"] == 4096


SMALL_WAVE = ["--model", "fkdv", "--s", "2", "--p", "2", "--c", "1", "--n",
              "256", "--half-length", "30"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_output_files_get_the_mode_of_a_new_file(tmp_path, capsys, umask,
                                                 mode):
    old = os.umask(umask)
    try:
        assert run(["solve-wave", *SMALL_WAVE, "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    for name in ("wave.csv", "wave.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode


@pytest.mark.parametrize("command", ["solve-wave", "index"])
def test_unwritable_output_is_one_error_line(tmp_path, capsys, command):
    # --out below a regular file: os.makedirs raises NotADirectoryError
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    assert run([command, *SMALL_WAVE, "--out", str(blocker / "x")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and \
        captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "kept"


def test_failed_sidecar_leaves_no_new_profile(tmp_path, capsys):
    # a directory named wave.json: its rename fails after both temporary
    # files are written, and neither file is left behind
    (tmp_path / "wave.json").mkdir()
    assert run(["solve-wave", *SMALL_WAVE, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "wave.json") in err and ".tmp-" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["wave.json"]
    assert list((tmp_path / "wave.json").iterdir()) == []


def test_csv_cells_are_repr_for_floats_and_str_otherwise(tmp_path):
    floats = [1e16, 1e-5, -0.0, float("nan"), float("inf"), 0.1]
    rows = [(3, "REAL_POS", *floats), (-1, "ok", *map(np.float64, floats))]
    write_csv(tmp_path / "t.csv", ["i", "label", *"abcdef"], rows)
    line = "1e+16,1e-05,-0.0,nan,inf,0.1"
    assert (tmp_path / "t.csv").read_bytes() == (
        f"i,label,a,b,c,d,e,f\n3,REAL_POS,{line}\n-1,ok,{line}\n").encode()


class TestIndex:
    def test_unstable_line(self, tmp_path, capsys):
        code = run(["index", "--model", "fkdv", "--s", "2", "--p", "5",
                    "--c", "1", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "K_Ham=1 verdict=UNSTABLE" in out
        payload = json.load(open(tmp_path / "index.json"))
        assert payload["K_direct"] == 1
        assert payload["k_r"] == 1

    def test_stable_line(self, tmp_path, capsys):
        code = run(["index", "--model", "fkdv", "--s", "2", "--p", "2",
                    "--c", "1", "--out", str(tmp_path)])
        assert code == 0
        assert "K_Ham=0 verdict=STABLE" in capsys.readouterr().out

    def test_degenerate_line(self, tmp_path, capsys):
        code = run(["index", "--model", "fkdv", "--s", "1", "--p", "2",
                    "--c", "1", "--out", str(tmp_path)])
        assert code == 0
        assert "verdict=DEGENERATE" in capsys.readouterr().out

    def test_theory_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        from hkindex.errors import TheoryConsistencyError

        def boom(*args, **kwargs):
            raise TheoryConsistencyError("index identity violated (test)")

        monkeypatch.setattr(cli.vd, "verdict", boom)
        code = run(["index", "--model", "fkdv", "--s", "2", "--p", "2",
                    "--c", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "theory-consistency" in capsys.readouterr().err


class TestSweepCommand:
    def test_single_point_csv(self, tmp_path, capsys):
        code = run(["sweep", "--model", "fkdv", "--axis", "p", "--from", "2",
                    "--to", "2", "--steps", "1", "--s", "2", "--c", "1",
                    "--n", "512", "--half-length", "30", "--out", str(tmp_path)])
        assert code == 0
        lines = open(tmp_path / "sweep.csv").read().strip().split("\n")
        assert lines[0] == ",".join(cli.SWEEP_HEADER)
        assert len(lines) == 2
        assert "STABLE" in lines[1]

    def test_theory_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        from hkindex.errors import TheoryConsistencyError

        def boom(*args, **kwargs):
            raise TheoryConsistencyError("index identity violated (test)")

        monkeypatch.setattr(cli.vd, "verdict", boom)
        code = run(["sweep", "--model", "fkdv", "--axis", "p", "--from", "2",
                    "--to", "3", "--steps", "2", "--s", "2", "--c", "1",
                    "--out", str(tmp_path)])
        assert code == 3
        rows = open(tmp_path / "sweep.csv").read().strip().split("\n")[1:]
        assert len(rows) == 2 and all(",ERROR," in row for row in rows)

    def test_missing_axis_is_usage_error(self, tmp_path):
        code = run(["sweep", "--model", "fkdv", "--s", "2", "--p", "2",
                    "--out", str(tmp_path)])
        assert code == 64

    @pytest.mark.parametrize("args, line", [
        (["--model", "fbbm", "--axis", "c", "--from", "1.06", "--to", "1.14",
          "--steps", "2", "--s", "2", "--p", "5"],
         "flip in (1.06, 1.14): UNSTABLE -> STABLE"),
        (["--model", "fkdv", "--axis", "p", "--from", "4.5", "--to", "3.5",
          "--steps", "3", "--s", "2", "--c", "1"],
         "flip in (4.5, 3.5): UNSTABLE -> STABLE"),
    ], ids=["fbbm-c-up", "fkdv-p-down"])
    def test_unstable_to_stable_flip_is_bracketed(self, tmp_path, capsys,
                                                  args, line):
        # the bracket is the first STABLE/UNSTABLE change in the sweep's
        # order, whichever way it goes; a DEGENERATE point may lie between
        assert run(["sweep", *args, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == line

    @pytest.mark.parametrize("args, message", [
        (["--model", "schrodinger", "--s", "2", "--p", "2"],
         "this command supports --model fkdv or fbbm"),
        (["--model", "fbbm", "--p", "2"], "missing required parameter --s"),
    ], ids=["model", "missing-s"])
    def test_wave_parameters_are_checked_as_by_index(self, tmp_path, capsys,
                                                     args, message):
        # a sweep over c, without --c, gets the usage errors of index
        sweep = ["sweep", "--axis", "c", "--from", "1.5", "--to", "2",
                 "--steps", "2"]
        for argv in (sweep, ["index"]):
            assert run([*argv, *args, "--out", str(tmp_path)]) == 64
            assert capsys.readouterr().err.endswith(
                f"usage error: {message}\n")
        assert list(tmp_path.iterdir()) == []


# s = 1.5, p = 2 is STABLE; its algebraic tails do not fit a box of
# half-length 10, while the s = 2 sech tails do
TRUNCATED_BOX = ["--model", "fkdv", "--p", "2", "--c", "1", "--n", "256",
                 "--half-length", "10"]


@pytest.mark.parametrize("command, output", [("index", "index.json"),
                                             ("spectrum", "spectrum.csv")])
@pytest.mark.parametrize("s, code", [("1.5", 2), ("2", 0)],
                         ids=["truncated", "decayed"])
def test_truncation_warning_sets_exit_code(tmp_path, capsys, command, output,
                                           s, code):
    assert run([command, "--s", s, *TRUNCATED_BOX,
                "--out", str(tmp_path)]) == code
    assert "verdict=STABLE" in capsys.readouterr().out
    assert (tmp_path / output).exists()
    if command == "index":
        # index reads the warning from the verdict's diagnostics
        diagnostics = json.load(open(tmp_path / output))["diagnostics"]
        assert (vd.TRUNCATION_NOTE in diagnostics) == (code == 2)


# fkdv s = 2 on n = 512: p = 5 has one real pair, p = 2 none
SMALL_GKDV = ["--model", "fkdv", "--s", "2", "--c", "1", "--n", "512",
              "--half-length", "30"]
SMALL_FBBM = ["--model", "fbbm", "--s", "1.5", "--p", "1", "--c", "1.5",
              "--n", "512", "--half-length", "100"]
T_ORDER = 512 // 2 - 2        # order of T = R^T A_cos R
ODD_ORDER = 512 // 2 - 1      # order of the odd block
EVEN_ORDER = 512 // 2 + 1     # order of the even block


class TestCountingPath:
    """index and sweep take k_r from two LDL^T factors of T, and make no
    eigensolve; only spectrum computes eigenvalues, eigenvectors and Krein
    forms.  No parity block has an eigh: every even block, and both blocks
    of fBBM's L0, are counted by LDL^T factors, and the odd block by an
    LDL^T factor whose inverse iteration certifies its low eigenpairs,
    then factored by Cholesky."""

    @staticmethod
    def spy(monkeypatch) -> tuple:
        calls = dict.fromkeys(["hamiltonian_eigensystem", "classify_krein"], 0)
        for fn in (spc.hamiltonian_eigensystem, spc.classify_krein):
            count_calls(monkeypatch, fn, calls)
        eighs = []

        def eigh(a, *args, _fn=scipy.linalg.eigh, **kw):
            eighs.append((a.shape[0], not kw.get("eigvals_only", False)))
            return _fn(a, *args, **kw)
        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        return calls, eighs

    def test_index_reads_counts_only(self, tmp_path, capsys, monkeypatch):
        # no eigh: T is counted by its factors, and no parity block is
        # eigendecomposed
        calls, eighs = self.spy(monkeypatch)
        assert run(["index", *SMALL_GKDV, "--p", "5",
                    "--out", str(tmp_path)]) == 0
        assert "K_Ham=1 verdict=UNSTABLE" in capsys.readouterr().out
        assert calls == {"hamiltonian_eigensystem": 0, "classify_krein": 0}
        assert eighs == []

    def test_bbm_index_solves_the_odd_block_of_s_only(self, tmp_path, capsys,
                                                     monkeypatch):
        # n(L0) is read from factors, the odd block of S is factored
        # (inverse iteration, then Cholesky), and T is counted by factors
        calls, eighs = self.spy(monkeypatch)
        assert run(["index", *SMALL_FBBM, "--out", str(tmp_path)]) == 0
        assert "verdict=STABLE" in capsys.readouterr().out
        assert calls == {"hamiltonian_eigensystem": 0, "classify_krein": 0}
        assert eighs == []

    def test_sweep_reads_counts_only(self, tmp_path, capsys, monkeypatch):
        calls, eighs = self.spy(monkeypatch)
        assert run(["sweep", *SMALL_GKDV, "--axis", "p", "--from", "2",
                    "--to", "5", "--steps", "2", "--out", str(tmp_path)]) == 0
        assert calls == {"hamiltonian_eigensystem": 0, "classify_krein": 0}
        assert eighs == []

    def test_spectrum_makes_one_solve_with_vectors(self, tmp_path, capsys,
                                                  monkeypatch):
        calls, eighs = self.spy(monkeypatch)
        assert run(["spectrum", *SMALL_GKDV, "--p", "5",
                    "--out", str(tmp_path)]) == 0
        assert calls == {"hamiltonian_eigensystem": 1, "classify_krein": 1}
        assert eighs.count((T_ORDER, True)) == 1
        assert not any(order in (EVEN_ORDER, ODD_ORDER)
                       for order, _ in eighs)

    def test_classes_are_checked_against_the_counts(self, tmp_path, capsys,
                                                   monkeypatch):
        # negated forms give every imaginary column a negative signature:
        # spectrum classifies and refuses, index does not classify
        plain = tmp_path / "plain"
        assert run(["index", *SMALL_GKDV, "--p", "5",
                    "--out", str(plain)]) == 0
        forms = spc._krein_forms
        monkeypatch.setattr(spc, "_krein_forms", lambda *a: -forms(*a))
        assert run(["spectrum", *SMALL_GKDV, "--p", "5",
                    "--out", str(tmp_path / "spectrum")]) == 3
        assert "theory-consistency failure" in capsys.readouterr().err
        patched = tmp_path / "patched"
        assert run(["index", *SMALL_GKDV, "--p", "5",
                    "--out", str(patched)]) == 0
        assert (patched / "index.json").read_bytes() == \
            (plain / "index.json").read_bytes()


@pytest.mark.slow
class TestCountsOnTheFineGrid:
    """s = 2 on (4096, 60), where the noise unit eps max|nu| is large
    against zero_floor^2.  A counting verdict refuses only a nu near
    -zero_floor^2, the threshold of k_r: p = 2 and 5 have none and answer
    with the default grid's counts, by the factors of T alone; p = 4.1 has
    one and is refused by the eigenvalues of T.  spectrum classifies every
    nu, and refuses p = 2 for its nu near +zero_floor^2."""
    FINE = ["--model", "fkdv", "--s", "2", "--c", "1", "--n", "4096",
            "--half-length", "60"]

    @pytest.mark.parametrize("p, k_r, verdict", [
        ("2", 0, "STABLE"), ("5", 1, "UNSTABLE")])
    def test_counting_verdict_answers(self, tmp_path, capsys, monkeypatch,
                                      p, k_r, verdict):
        calls = {"hamiltonian_eigensystem": 0, "_t_spectrum": 0}
        count_calls(monkeypatch, spc.hamiltonian_eigensystem, calls)
        count_calls(monkeypatch, spc._t_spectrum, calls)
        assert run(["index", *self.FINE, "--p", p,
                    "--out", str(tmp_path)]) == 0
        assert f"verdict={verdict}" in capsys.readouterr().out
        assert calls == {"hamiltonian_eigensystem": 0, "_t_spectrum": 0}
        result = json.loads((tmp_path / "index.json").read_text())
        assert (result["n_L"], result["k_r"], result["K_formula"]) == \
            (1, k_r, k_r)

    def test_nu_near_the_real_threshold_is_refused(self, tmp_path, capsys,
                                                   monkeypatch):
        # the eigenvalues of the T in hand refuse: T is formed once
        refusals, solve = [], spc._t_spectrum

        def spy(*args, **kw):
            try:
                return solve(*args, **kw)
            except UnresolvedEigenvalueError as exc:
                refusals.append(str(exc))
                raise
        monkeypatch.setattr(spc, "_t_spectrum", spy)
        calls = {"_restricted_t": 0}
        count_calls(monkeypatch, spc._restricted_t, calls)
        assert run(["index", *self.FINE, "--p", "4.1",
                    "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {refusals[0]}\n"
        assert len(refusals) == 1
        assert calls == {"_restricted_t": 1}
        # lambda^2 > 0: a real pair near the threshold of k_r
        assert re.fullmatch(
            r"'kdv-lin\(s=2,p=4\.1,c=1\)': lambda\^2 = 2\.\d{6}e-03 lies "
            r"\d\.\d\d noise units \(eps max\|nu\| = 3\.37e-04\) from "
            r"\+-zero_floor\^2 = 1\.550593e-03; its class cannot be read on "
            r"this grid", refusals[0])
        assert not (tmp_path / "index.json").exists()

    def test_spectrum_refuses_the_imaginary_threshold(self, tmp_path, capsys):
        assert run(["spectrum", *self.FINE, "--p", "2",
                    "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert re.search(r"lambda\^2 = -2\.\d{6}e-03 lies \d\.\d\d noise "
                         r"units", err)


class TestSpectrumCommand:
    def test_determinism_byte_identical(self, tmp_path, capsys):
        args = ["spectrum", "--model", "fkdv", "--s", "2", "--p", "2",
                "--c", "1", "--n", "512", "--half-length", "30"]
        code1 = run(args + ["--out", str(tmp_path / "a")])
        code2 = run(args + ["--out", str(tmp_path / "b")])
        assert code1 == code2 == 0
        a = open(tmp_path / "a" / "spectrum.csv", "rb").read()
        b = open(tmp_path / "b" / "spectrum.csv", "rb").read()
        assert a == b

    def test_unstable_has_one_real_pos_row(self, tmp_path, capsys):
        code = run(["spectrum", "--model", "fkdv", "--s", "2", "--p", "5",
                    "--c", "1", "--out", str(tmp_path)])
        assert code == 0
        rows = open(tmp_path / "spectrum.csv").read().strip().split("\n")[1:]
        classes = [r.split(",")[2] for r in rows]
        assert classes.count("REAL_POS") == 1

    def test_fine_grid_unstable_has_one_real_pos_row(self, tmp_path, capsys):
        # n = 1024 on a box of 10: the squaring noise against the zero
        # floor is larger than on the default grid
        code = run(["spectrum", "--model", "fkdv", "--s", "2", "--p", "5",
                    "--c", "1", "--n", "1024", "--half-length", "10",
                    "--out", str(tmp_path)])
        assert code == 0
        rows = open(tmp_path / "spectrum.csv").read().strip().split("\n")[1:]
        classes = [r.split(",")[2] for r in rows]
        assert classes.count("REAL_POS") == 1

    def test_stable_has_no_unstable_rows(self, tmp_path, capsys):
        code = run(["spectrum", "--model", "fkdv", "--s", "2", "--p", "2",
                    "--c", "1", "--n", "512", "--half-length", "30",
                    "--out", str(tmp_path)])
        assert code == 0
        rows = open(tmp_path / "spectrum.csv").read().strip().split("\n")[1:]
        classes = [r.split(",")[2] for r in rows]
        assert classes.count("REAL_POS") == 0
        assert classes.count("IMAG_NEG_SIG") == 0

    def test_json_format(self, tmp_path, capsys):
        code = run(["spectrum", "--model", "fkdv", "--s", "2", "--p", "2",
                    "--c", "1", "--n", "512", "--half-length", "30",
                    "--format", "json", "--out", str(tmp_path)])
        assert code == 0
        payload = json.load(open(tmp_path / "spectrum.json"))
        assert {"re", "im", "class", "krein_form_value"} <= payload[0].keys()


def strict_json(path):
    """The JSON file at path, read by a parser that refuses the NaN and
    Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(open(path).read(), parse_constant=refuse)


def test_json_tables_hold_null_for_non_finite_cells(tmp_path, capsys):
    # the form value off the imaginary axis, and the slope of a failed
    # sweep point, are NaN in the CSV tables
    assert run(["spectrum", "--model", "fkdv", "--s", "2", "--p", "5",
                "--c", "1", "--n", "512", "--half-length", "30",
                "--format", "json", "--out", str(tmp_path)]) == 0
    rows = strict_json(tmp_path / "spectrum.json")
    off_axis = [r for r in rows if r["class"] in ("REAL_POS", "REAL_NEG",
                                                  "ZERO")]
    assert len(off_axis) == 4
    assert all(r["krein_form_value"] is None for r in off_axis)
    # p = 3 lies outside the existence window (0, 2) of s = 0.5
    assert run(["sweep", "--axis", "p", "--from", "3", "--to", "3",
                "--steps", "1", "--s", "0.5", "--c", "1", "--format", "json",
                "--out", str(tmp_path)]) == 1
    (point,) = strict_json(tmp_path / "sweep.json")
    assert point["verdict"] == "ERROR" and point["slope"] is None
    # the JSON status holds the error text verbatim, commas and all
    with pytest.raises(ValueError) as err:
        vd.verdict(wv.FKDV, 0.5, 3.0, 1.0)
    assert "," in str(err.value)
    assert point["status"] == f"ValueError: {err.value}"


class TestDumpOperator:
    def test_schrodinger_dump(self, tmp_path, capsys):
        code = run(["dump-operator", "--model", "schrodinger", "--c", "0.5",
                    "--n", "256", "--half-length", "30", "--out", str(tmp_path)])
        assert code == 0
        header = json.load(open(tmp_path / "operator.json"))
        data = np.fromfile(tmp_path / "operator.bin", dtype="<f8")
        assert data.size == header["order"] ** 2


    def test_failed_header_leaves_no_new_matrix(self, tmp_path, capsys):
        # a directory named operator.json: its rename fails after both
        # temporary files are written, and neither file is left behind
        (tmp_path / "operator.json").mkdir()
        code = run(["dump-operator", "--model", "fkdv", "--s", "2", "--p", "2",
                    "--n", "256", "--half-length", "30",
                    "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / "operator.json") in err and ".tmp-" not in err
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "operator.json"]
        assert list((tmp_path / "operator.json").iterdir()) == []


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"model": "fkdv", "s": 2.0, "p": 5.0, "c": 1.0, "n": 512,
             "half_length": 30.0}))
        code = run(["index", "--config", str(config), "--p", "2",
                    "--out", str(tmp_path)])
        assert code == 0
        assert "K_Ham=0 verdict=STABLE" in capsys.readouterr().out
        payload = json.load(open(tmp_path / "index.json"))
        assert payload["p"] == 2.0

    def test_config_supplies_required_params(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"model": "fkdv", "s": 2.0, "p": 2.0, "c": 1.0, "n": 512,
             "half_length": 30.0}))
        code = run(["index", "--config", str(config), "--out", str(tmp_path)])
        assert code == 0

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("{not json")
        code = run(["index", "--config", str(config), "--out", str(tmp_path)])
        assert code == 64

    @pytest.mark.parametrize("values, message", [
        ({"s": "2", "p": 2}, "'s' must be of type float"),
        ([{"s": 2, "p": 2}], "must hold a JSON object"),
        ({"s": 2, "p": 2, "n": "512"}, "'n' must be of type int"),
        ({"s": 2, "p": 2, "n": 512.0}, "'n' must be of type int"),
        ({"s": 2, "p": 2, "halflength": 30}, "unknown config key 'halflength'"),
        ({"s": True, "p": 2}, "'s' must be of type float"),
        ({"s": 2, "p": 2, "model": "kdv"}, "'model' must be one of"),
        ({"s": 2, "p": 2, "format": "xml"}, "'format' must be one of"),
        ({"s": 2, "p": 2, "axis": "q"}, "'axis' must be one of"),
        ({"s": 2, "p": 2, "out": 3}, "'out' must be of type str"),
        ({"s": 2, "p": 2, "n": 513}, "grid size must be an even integer"),
        ({"s": 2, "p": 2, "half_length": -3}, "half_length must be positive"),
        ({"s": 2, "p": 2, "tol": -1}, "tol must be positive"),
    ], ids=["string-number", "list", "string-int", "float-int", "unknown-key",
            "bool", "model-choice", "format-choice", "axis-choice", "out-type",
            "n-range", "half-length-range", "tol-range"])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, values,
                                             message):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        code = run(["index", "--config", str(config), "--out", str(tmp_path)])
        assert code == 64
        assert message in capsys.readouterr().err
        assert not (tmp_path / "index.json").exists()

    def test_sweep_without_steps_is_usage_error(self, tmp_path, capsys):
        code = run(["sweep", "--model", "fkdv", "--axis", "p", "--from", "2",
                    "--to", "3", "--steps", "0", "--s", "2", "--c", "1",
                    "--out", str(tmp_path)])
        assert code == 64
        assert "--steps must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestSelfCheckCommand:
    def test_unknown_case_exits_64(self, capsys):
        assert run(["self-check", "--case", "nope"]) == 64

    @pytest.mark.parametrize("flag, value", [
        ("--n", "64"), ("--half-length", "5"), ("--tol", "1e-6"),
        ("--s", "1"), ("--p", "2"), ("--c", "2")])
    def test_grid_and_wave_flags_are_usage_errors(self, capsys, flag, value):
        # every case runs on its own fixed grid and parameters
        assert run(["self-check", "--case", "schrodinger-sech2",
                    flag, value]) == 64
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_schrodinger_case_exits_0(self, capsys):
        assert run(["self-check", "--case", "schrodinger-sech2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    # the README's python block, run as a script on the source tree, so
    # that a renamed public call breaks a test rather than the README
    (example,) = re.findall(r"```python\n(.*?)```",
                            (ROOT / "README.md").read_text(), re.S)
    out = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))).stdout
    assert out.startswith("1\nTrue\n") and "STABLE" in out
