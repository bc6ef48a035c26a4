"""Pinned outputs: every index.json field of three small runs, and the
Krein stage's spectrum.csv of two, one per row of the model table.

Integers and strings must match exactly; floats to 1e-9 relative, which
holds across BLAS builds and thread counts, except the small imaginary
eigenvalues and their Krein forms, which carry the error of the squaring
lambda^2 = -nu (see test_spectrum_rows_are_pinned).

The runs solve their waves at --tol 1e-12, not at the default 1e-10 of
s = 2.  The pinned floats follow the wave, and the default tolerance
determines them only to about its own size: between tol 1e-10 and
1e-12 the real root moves by 1.65e-9 relative, past its 1e-9 bound, and
the smallest Krein form by 3.4e-7, a third of its 1e-6 bound.  At 1e-12
a pin records the wave, not the path the wave solver took to it.
"""

import csv
import json

import numpy as np
import pytest

from hkindex import cli

PINNED = {
    ("fkdv", 2.0, 2.0, 1.0): {
        "K_direct": 0, "K_formula": 0, "c": 1.0, "d": -1.000000000000038,
        "diagnostics": [], "k_c": 0, "k_i_minus": 0, "k_r": 0,
        "model": "fkdv", "n_L": 1, "p": 2.0, "s": 2.0,
        "slope": 2.000000000000076, "slope_reference": 2.0000000000002096,
        "verdict": "STABLE"},
    ("fkdv", 2.0, 5.0, 1.0): {
        "K_direct": 1, "K_formula": 1, "c": 1.0, "d": 0.12145016119816587,
        "diagnostics": [], "k_c": 0, "k_i_minus": 0, "k_r": 1,
        "model": "fkdv", "n_L": 1, "p": 5.0, "s": 2.0,
        "slope": -0.24290032239633175, "slope_reference": -0.24290032217902624,
        "verdict": "UNSTABLE"},
    ("fbbm", 2.0, 2.0, 2.0): {
        "K_direct": 0, "K_formula": 0, "c": 2.0, "d": -2.7105759865823558,
        "diagnostics": [],
        "k_c": 0, "k_i_minus": 0, "k_r": 0, "model": "fbbm", "n_L": 1,
        "p": 2.0, "s": 2.0, "slope": 5.4211519731647115,
        "slope_reference": 5.421151989096942, "verdict": "STABLE"},
}


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_index_record_is_pinned(case, tmp_path, capsys):
    model, s, p, c = case
    code = cli.main(["index", "--model", model, "--s", str(s), "--p", str(p),
                     "--c", str(c), "--n", "512", "--half-length", "30",
                     "--tol", "1e-12", "--out", str(tmp_path)])
    assert code == 0
    got = json.load(open(tmp_path / "index.json"))
    want = PINNED[case]
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-9, abs=0.0), key
        else:
            assert got[key] == value, key


# spectrum --model fkdv --s 2 --p 5 --c 1 --n 512 --half-length 30, whose
# rows sort by (imag, real): 253 imaginary rows below the real axis, the
# real pair around the zero pair, and their 253 mirrors
SPECTRUM_CLASSES = (["IMAG_POS_SIG"] * 253
                    + ["REAL_NEG", "ZERO", "ZERO", "REAL_POS"]
                    + ["IMAG_POS_SIG"] * 253)
REAL_ROOT = 0.6345077210423481
# (imag, krein_form_value) of the three smallest positive imaginary parts
SMALL_IMAGINARY = [(0.12877251328858969, 0.009491344595299555),
                   (0.2685995367934328, 0.040382995170157636),
                   (0.429907806211511, 0.10272504074315651)]


def spectrum_rows(out, argv: list) -> list:
    """The rows of spectrum.csv of one spectrum run at --tol 1e-12."""
    code = cli.main(["spectrum", *argv, "--tol", "1e-12", "--out", str(out)])
    assert code == 0
    with open(out / "spectrum.csv", newline="") as f:
        return list(csv.DictReader(f))


def assert_small_imaginary_rows(rows: list, pinned: list) -> None:
    """The smallest positive imaginary rows, one per pinned (imag,
    krein_form_value): lambda^2 within 2 noise units eps max|lambda|^2, the
    bound the index cases hold against the full-order oracle, and the
    forms to 1e-6 relative."""
    im = np.array([float(row["im"]) for row in rows])
    noise = float(np.finfo(float).eps) * float(np.max(im)) ** 2
    small = [rows[i] for i in np.nonzero(im > 0.0)[0][:len(pinned)]]
    for row, (lam, form) in zip(small, pinned):
        assert float(row["re"]) == 0.0
        assert abs(float(row["im"]) ** 2 - lam ** 2) <= 2.0 * noise
        assert float(row["krein_form_value"]) == pytest.approx(
            form, rel=1e-6, abs=0.0)


def test_spectrum_rows_are_pinned(tmp_path, capsys):
    # the class column exactly, the real rows to 1e-9 relative, and the
    # three smallest imaginary rows.  Between 1 and 2 BLAS threads these
    # moved by up to 1.9e-8 and 8.1e-8 relative, the real root by 1e-14
    rows = spectrum_rows(tmp_path, [
        "--model", "fkdv", "--s", "2", "--p", "5", "--c", "1", "--n", "512",
        "--half-length", "30"])
    assert [row["class"] for row in rows] == SPECTRUM_CLASSES
    real = [row for row in rows if row["class"].startswith("REAL")]
    assert [row["im"] for row in real] == ["0.0", "0.0"]
    assert [row["krein_form_value"] for row in real] == ["nan", "nan"]
    assert [float(row["re"]) for row in real] == pytest.approx(
        [-REAL_ROOT, REAL_ROOT], rel=1e-9, abs=0.0)
    assert_small_imaginary_rows(rows, SMALL_IMAGINARY)


# spectrum --model fbbm --s 1.5 --p 1 --c 1.5 --n 512 --half-length 100,
# the CI command, whose n(L0) is counted on the wave's core: 254
# imaginary rows below the real axis, the zero pair, and their 254
# mirrors
FBBM_SPECTRUM_CLASSES = (["IMAG_POS_SIG"] * 254 + ["ZERO", "ZERO"]
                         + ["IMAG_POS_SIG"] * 254)
FBBM_SMALL_IMAGINARY = [(0.016208204509665484, 0.16855041562294595),
                        (0.03303120060196503, 0.3295950407177336),
                        (0.050729122667008505, 0.4085903928036361)]


def test_fbbm_spectrum_rows_are_pinned(tmp_path, capsys):
    rows = spectrum_rows(tmp_path, [
        "--model", "fbbm", "--s", "1.5", "--p", "1", "--c", "1.5", "--n",
        "512", "--half-length", "100"])
    assert [row["class"] for row in rows] == FBBM_SPECTRUM_CLASSES
    assert {(row["re"], row["im"], row["krein_form_value"]) for row in rows
            if row["class"] == "ZERO"} == {("0.0", "0.0", "nan")}
    assert_small_imaginary_rows(rows, FBBM_SMALL_IMAGINARY)
