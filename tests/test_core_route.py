"""The core route of a counting verdict (cores.core_counts) against the
dense route it stands in for.

An unweighted counting verdict takes n(L), d and k_r from matrices on the
wave's round-off core, of order at most m_e + m_o + 2, where every
certificate holds; elsewhere the dense route runs from the start.  Each
quantity of the core route equals the dense route's: n(L), the odd
eigenvalue counts at -z0, z0 and 1e3 z1 (one kernel eigenvalue, k = 1),
d, and the counts #{nu < -sigma -+ band} of T at both ends of the band.
A forced fallback leaves the index record byte-identical to the dense
route's, and a broken certificate either falls back or fails the index
identity.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from hkindex import cli, cores
from hkindex import operators as op
from hkindex import spectra as spc
from hkindex import spectral as sp
from hkindex import verdicts as vd
from hkindex import waves as wv
from hkindex.errors import FredholmViolationError

from conftest import quiet
from dense_reference import assemble
from test_atlas import ATLAS

EPS = float(np.finfo(float).eps)

# the s = 2 fKdV atlas points on their default grid, INDEX_CASES' fKdV
# points on theirs, and the wave of speed 2: (s, p, c, (n, l) or None)
S2_ATLAS = [(point["s"], point["p"], point["c"], None)
            for point in ATLAS["points"]
            if point["model"] == wv.FKDV and point["s"] == 2.0
            and "n" not in point]
INDEX_FKDV = [(point["s"], point["p"], point["c"],
               (point["n"], point["half_length"]))
              for point in ATLAS["points"]
              if point["model"] == wv.FKDV and point.get("n") == 512]
FAST_WAVE = (2.0, 2.0, 2.0, None)

# where the round-off core is nearly the whole grid (p <= 1), or larger
# than T on a coarse grid (p = 2 on (512, 30)), or where the odd block's
# lowest eigenvalue is near-singular, not a kernel (p = 4.1 on (512, 56)),
# the dense route decides
DENSE = {(2.0, 0.75, 1.0, None), (2.0, 1.0, 1.0, None),
         (2.0, 2.0, 1.0, (512, 30.0)), (2.0, 4.1, 1.0, (512, 56.0))}
ROUTE_CASES = [case for case in [*S2_ATLAS, FAST_WAVE, *INDEX_FKDV]
               if case not in DENSE]


def case_id(case) -> str:
    s, p, c, grid = case
    return f"{s:g}-{p:g}-{c:g}" + ("" if grid is None else
                                   f"-n{grid[0]}-l{grid[1]:g}")


def counting_inputs(case) -> tuple:
    """(L, psi0, zero_floor) of the counting verdict of an fKdV case."""
    s, p, c, grid = case
    cfg = vd.NumericsConfig() if grid is None else vd.NumericsConfig(*grid)
    g = cfg.grid_for(s)
    with quiet():
        U = wv.solve_traveling_wave(wv.FKDV, s, p, c, g)
    L = op.linearization(U)
    floor = spc.GKERNEL_FRACTION * spc.gkernel_floor(g, L.multiplier_symbol)
    return L, sp.apply(sp.derivative_symbol(g), U.values), floor


def core_orders(P) -> tuple:
    """(m_e, m_o): the points of the round-off core of each parity."""
    cutoff = cores.ROUND_OFF_FRACTION * float(np.min(P.op.multiplier_symbol))
    return tuple(cores._core(P, parity, cutoff).points.size
                 for parity in (0, 1))


@contextmanager
def inertia_calls(change=None):
    """(order, negative count) of every LDL^T factor (spectra._ldl) in the
    block, the count None until spectra._negatives reads that factor;
    change(order, index among the factors of that order) is added to the
    count each spectra._negatives call returns."""
    calls, ldl, negatives = [], spc._ldl, spc._negatives

    def ldl_spy(block, shift, work):
        calls.append((block.shape[0], None))
        return ldl(block, shift, work)

    def negatives_spy(ldu, ipiv):
        # every caller counts the factor it has just made
        order, count = ldu.shape[0], negatives(ldu, ipiv)
        assert calls[-1] == (order, None)
        calls[-1] = order, count
        seen = sum(1 for o, _ in calls[:-1] if o == order)
        return count + (change(order, seen) if change else 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spc, "_ldl", ldl_spy)
        mp.setattr(spc, "_negatives", negatives_spy)
        yield calls


@pytest.mark.parametrize("case", ROUTE_CASES, ids=case_id)
def test_every_quantity_equals_the_dense_route(case):
    L, psi0, floor = counting_inputs(case)
    P = op.operator_blocks(L)
    m_e, m_o = core_orders(P)
    m = P.grid.n // 2
    assembled, block = [], op.OperatorBlocks.block
    with pytest.MonkeyPatch.context() as mp, inertia_calls() as calls:
        mp.setattr(op.OperatorBlocks, "block", lambda self, parity: (
            assembled.append(parity), block(self, parity))[1])
        got = cores.core_counts(P, psi0, floor)
    assert got is not None and assembled == []
    assert max(order for order, _ in calls) == m_e + m_o + 2 < m - 2
    n_l, d, k_r = got

    spans = [P.span(0), P.span(1)]
    z0, z1 = spc._bracket(spans)
    eig = spc.symmetric_spectrum(P)
    with quiet():
        dense_d = spc.constrained_quantity(P, psi0, eig)
    t_mat = spc.t_matrix(P, eig)
    nu = scipy.linalg.eigvalsh(t_mat)
    k_dense = spc.real_pair_count(t_mat, floor, P.label)
    odd = scipy.linalg.eigvalsh(P.block(1))

    # n(L); the odd counts at -z0, z0 and 1e3 z1: one kernel eigenvalue
    assert n_l == eig.negative_count
    assert [count for order, count in calls if order == m_o][:3] == \
        [int(np.count_nonzero(odd < t)) for t in (-z0, z0, 1e3 * z1)] == \
        [0, 1, 1]
    assert eig.odd_factor[1].shape[1] == 1
    # d within 1e-12 relative or 1e-14 absolute (p = 4, where d is
    # round-off)
    assert d == pytest.approx(dense_d, rel=1e-12, abs=1e-14)
    # k_r at both ends of the band, and the dense route's
    w = spc.TWO_PI * op.pair_frequencies(P.grid)
    band = spc.NOISE_BAND * EPS * np.sqrt(m - 2.0) * w[-1] ** 2 \
        * spans[0][2] * spans[1][2]
    sigma = floor ** 2
    assert [count - m_o - 1 for order, count in calls
            if order == m_e + m_o + 2] == \
        [int(np.count_nonzero(nu < -z)) for z in (sigma - band, sigma + band)]
    assert k_r == k_dense


@pytest.mark.parametrize("case", [*S2_ATLAS, FAST_WAVE, *INDEX_FKDV],
                         ids=case_id)
def test_which_points_take_the_route(case):
    L, psi0, floor = counting_inputs(case)
    got = cores.core_counts(op.operator_blocks(L), psi0, floor)
    assert (got is None) == (case in DENSE)


def test_weighted_and_held_blocks_stay_dense():
    # fBBM's S = W L W, and blocks held for the dense gates
    L, psi0, floor = counting_inputs((2.0, 5.0, 1.0, (512, 30.0)))
    P = op.operator_blocks(L)
    S = op.congruence(P, op.symmetrizing_weight(P.grid, 2.0), "bbm-sym")
    assert cores.core_counts(S, psi0, floor) is None
    assert cores.core_counts(assemble(L), psi0, floor) is None
    assert cores.core_counts(P, psi0, floor) is not None


SMALL_GKDV5 = ["--model", "fkdv", "--s", "2", "--p", "5", "--c", "1",
               "--n", "512", "--half-length", "30"]


def index_run(path) -> tuple:
    """(exit code, index.json bytes or None) of `index` on SMALL_GKDV5."""
    code = cli.main(["index", *SMALL_GKDV5, "--out", str(path)])
    written = path / "index.json"
    return code, written.read_bytes() if written.exists() else None


@pytest.fixture(scope="module")
def dense_record(tmp_path_factory):
    """The record of the dense route, the core route switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cores, "core_counts", lambda *args: None)
        return index_run(tmp_path_factory.mktemp("dense"))


def routed(monkeypatch) -> list:
    """The results of every core_counts call from here on."""
    results, core = [], cores.core_counts
    monkeypatch.setattr(cores, "core_counts", lambda *args: (
        results.append(core(*args)), results[-1])[1])
    return results


def test_the_route_answers_as_the_dense_route(tmp_path, monkeypatch,
                                              dense_record):
    # the same exit code, counts and verdict; d and slope within 1e-12
    results = routed(monkeypatch)
    code, written = index_run(tmp_path)
    assert results[0] is not None and code == dense_record[0] == 0
    got, want = json.loads(written), json.loads(dense_record[1])
    for key in ("d", "slope"):
        assert got.pop(key) == pytest.approx(want.pop(key), rel=1e-12)
    assert got == want


CORE = cores.core_counts


def _band_above_sigma(*args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spc, "NOISE_BAND", 1e9 * spc.NOISE_BAND)
        return CORE(*args)


@pytest.mark.parametrize("force", ["cutoff", "band", "odd", "e-one-end",
                                   "gamma"])
def test_a_failed_certificate_keeps_the_dense_record(tmp_path, monkeypatch,
                                                     dense_record, force):
    # a cutoff above every |v| (no core), a band above sigma, an odd count
    # of 1 at -z0, the counts of E at the ends of the band apart, or
    # n(Gamma) = 2: the route declines, and the dense route writes its
    # record byte for byte
    L, _, _ = counting_inputs((2.0, 5.0, 1.0, (512, 30.0)))
    m_e, m_o = core_orders(op.operator_blocks(L))
    change = {"odd": lambda order, i: order == m_o and i == 0,
              "e-one-end": lambda order, i: order == m_e + m_o + 2 and i == 1,
              "gamma": lambda order, i: order == m_o + 1 and i == 0}.get(force)
    if force == "cutoff":
        monkeypatch.setattr(cores, "ROUND_OFF_FRACTION", 1e3)
    if force == "band":
        monkeypatch.setattr(cores, "core_counts", _band_above_sigma)
    results = routed(monkeypatch)
    with inertia_calls(change):
        assert index_run(tmp_path) == dense_record
    assert results == [None]


def test_both_counts_of_e_off_by_one_fail_the_identity(tmp_path, capsys):
    # n(E) + 1 at both ends of the band passes the band's certificate, and
    # the index identity catches k_r + 1: exit 3
    L, _, _ = counting_inputs((2.0, 5.0, 1.0, (512, 30.0)))
    m_e, m_o = core_orders(op.operator_blocks(L))
    with inertia_calls(lambda order, i: order == m_e + m_o + 2):
        assert index_run(tmp_path) == (3, None)
    err = capsys.readouterr().err
    assert "index identity violated" in err and "k_r gives 2" in err


def test_a_wrong_gap_count_fails_the_identity(tmp_path, monkeypatch, capsys):
    # n(L) + 1 from the even gap: exit 3
    count = cores.core_count
    monkeypatch.setattr(cores, "core_count", lambda *args: count(*args) + 1)
    assert index_run(tmp_path) == (3, None)
    assert "formula gives 2" in capsys.readouterr().err


def test_a_kernel_component_in_the_right_hand_side_is_refused(monkeypatch):
    # an odd share that reaches the kernel beyond 1e-6 of the right-hand
    # side: the route declines, and the dense solve raises as it does
    L, psi0, floor = counting_inputs((2.0, 5.0, 1.0, (512, 30.0)))
    anti = spc._decaying_antiderivative
    monkeypatch.setattr(spc, "_decaying_antiderivative",
                        lambda grid, f: anti(grid, f) + 1e-3 * f)
    P = op.operator_blocks(L)
    assert cores.core_counts(P, psi0, floor) is None
    with pytest.raises(FredholmViolationError):
        spc.constrained_quantity(P, psi0, spc.symmetric_spectrum(P))
