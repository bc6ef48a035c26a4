"""Pinned verdict records: every index.json field of three small runs.

Integers and strings must match exactly; floats to 1e-9 relative, which
holds across BLAS builds and thread counts.
"""

import json

import pytest

from hkindex import cli

PINNED = {
    ("fkdv", 2.0, 2.0, 1.0): {
        "K_direct": 0, "K_formula": 0, "c": 1.0, "d": -1.0000000000049496,
        "diagnostics": [], "k_c": 0, "k_i_minus": 0, "k_r": 0,
        "model": "fkdv", "n_L": 1, "p": 2.0, "s": 2.0,
        "slope": 2.000000000009899, "slope_reference": 2.000000000026644,
        "verdict": "STABLE"},
    ("fkdv", 2.0, 5.0, 1.0): {
        "K_direct": 1, "K_formula": 1, "c": 1.0, "d": 0.12145016119880218,
        "diagnostics": [], "k_c": 0, "k_i_minus": 0, "k_r": 1,
        "model": "fkdv", "n_L": 1, "p": 5.0, "s": 2.0,
        "slope": -0.24290032239760437, "slope_reference": -0.2429003221796189,
        "verdict": "UNSTABLE"},
    ("fbbm", 2.0, 2.0, 2.0): {
        "K_direct": 0, "K_formula": 0, "c": 2.0, "d": -2.71057598657475,
        "diagnostics": [],
        "k_c": 0, "k_i_minus": 0, "k_r": 0, "model": "fbbm", "n_L": 1,
        "p": 2.0, "s": 2.0, "slope": 5.4211519731495,
        "slope_reference": 5.421151989106281, "verdict": "STABLE"},
}


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_index_record_is_pinned(case, tmp_path, capsys):
    model, s, p, c = case
    code = cli.main(["index", "--model", model, "--s", str(s), "--p", str(p),
                     "--c", str(c), "--n", "512", "--half-length", "30",
                     "--out", str(tmp_path)])
    assert code == 0
    got = json.load(open(tmp_path / "index.json"))
    want = PINNED[case]
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-9, abs=0.0), key
        else:
            assert got[key] == value, key
