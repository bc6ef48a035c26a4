import json
import os

import numpy as np
import pytest

from hkindex import cli


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

        monkeypatch.setattr(cli.vd, "kdv_verdict", boom)
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

        monkeypatch.setattr(cli.vd, "kdv_verdict", boom)
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


class TestDumpOperator:
    def test_schrodinger_dump(self, tmp_path, capsys):
        code = run(["dump-operator", "--model", "schrodinger", "--c", "0.5",
                    "--n", "256", "--half-length", "30", "--out", str(tmp_path)])
        assert code == 0
        header = json.load(open(tmp_path / "operator.json"))
        data = np.fromfile(tmp_path / "operator.bin", dtype="<f8")
        assert data.size == header["order"] ** 2


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


class TestSelfCheckCommand:
    def test_unknown_case_exits_64(self, capsys):
        assert run(["self-check", "--case", "nope"]) == 64

    def test_schrodinger_case_exits_0(self, capsys):
        assert run(["self-check", "--case", "schrodinger-sech2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
