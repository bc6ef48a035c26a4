import gc
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from hkindex import cores
from hkindex import operators as op
from hkindex import spectra as spc
from hkindex import spectral as sp
from hkindex import verdicts as vd
from hkindex import waves as wv
from hkindex.errors import TheoryConsistencyError

from conftest import count_calls, quiet
from dense_reference import assemble


class TestKdvVerdict:
    def test_stable_gkdv(self, pipeline22):
        res = pipeline22.result
        assert res.verdict == vd.STABLE
        assert res.n_L == 1
        assert res.slope > 0
        assert res.K_formula == res.K_direct == 0

    def test_unstable_gkdv(self, pipeline25):
        res = pipeline25.result
        assert res.verdict == vd.UNSTABLE
        assert res.n_L == 1
        assert res.slope < 0
        assert res.K_formula == res.K_direct == 1
        assert res.k_r == 1

    def test_degenerate_borderline(self):
        with quiet():
            res = vd.verdict(wv.FKDV, 1.0, 2.0, 1.0)
        assert res.verdict == vd.DEGENERATE

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            vd.verdict(wv.FKDV, 2.0, 2.0, -1.0)

    def test_scale_robustness(self, pipeline22):
        with quiet():
            res2 = vd.verdict(wv.FKDV, 2.0, 2.0, 2.0)
        res1 = pipeline22.result
        assert (res1.n_L, res1.K_formula) == (res2.n_L, res2.K_formula)
        assert res2.verdict == vd.STABLE

    @pytest.mark.parametrize("s, p, c, verdict, k_r", [
        (0.75, 1.0, 1.5, vd.STABLE, 0),
        (2.0, 5.0, 0.5, vd.UNSTABLE, 1),
        (2.0, 4.1, 3.0, vd.UNSTABLE, 1),
    ])
    def test_verdict_away_from_unit_speed(self, s, p, c, verdict, k_r):
        # each wave is solved at its own speed, so its linearization is
        # taken about a solution of the equation on the box
        with quiet():
            res = vd.verdict(wv.FKDV, s, p, c)
        assert res.verdict == verdict
        assert res.K_formula == res.K_direct == res.k_r == k_r

    def test_parity_odd_index_has_real_mode(self, pipeline25):
        res = pipeline25.result
        assert res.K_formula % 2 == 1
        assert res.k_r >= 1

    def test_odd_index_without_a_real_mode_is_refused(self):
        # n(L) = 2 with a positive slope gives the odd index 2 - 1 = 1; with
        # k_r = 0 the identity check refuses it, which is the parity check
        with pytest.raises(TheoryConsistencyError, match="index identity"):
            vd._resolve_verdict(2, 1.0, 1.0, 1e-3, 0, "odd",
                                check_reference_sign=True)

    def test_slopes_of_opposite_sign_are_refused_or_degenerate(self):
        # no atlas point reaches this branch: the numerical and reference
        # slopes agree in sign wherever both lie outside the band
        with pytest.raises(TheoryConsistencyError, match="sign unresolved"):
            vd._resolve_verdict(1, 1.0, -1.0, 1e-3, 0, "split",
                                check_reference_sign=True)
        K, verdict, notes = vd._resolve_verdict(
            1, 1.0, -1.0, 1e-3, 0, "split", check_reference_sign=False)
        assert (K, verdict) == (0, vd.DEGENERATE)
        assert "reporting DEGENERATE" in notes[0]


class TestBbmVerdict:
    def test_stable_classical_case(self):
        with quiet():
            res = vd.verdict(wv.FBBM, 2.0, 2.0, 2.0)
        assert res.verdict == vd.STABLE
        assert res.n_L == 1
        assert res.K_formula == res.K_direct == 0
        assert res.slope > 0 and res.slope_reference > 0

    def test_bracket_test_s1(self):
        with quiet():
            res = vd.verdict(wv.FBBM, 1.0, 2.0, 2.0)
        assert res.verdict == vd.STABLE
        assert res.slope_reference > 0

    def test_unit_speed_rejected(self):
        with pytest.raises(ValueError):
            vd.verdict(wv.FBBM, 2.0, 2.0, 1.0)


class TestSweep:
    @pytest.mark.parametrize("steps", [0, -4])
    def test_empty_range_rejected(self, steps):
        with pytest.raises(ValueError, match="at least 1 step"):
            vd.sweep("p", 1.0, 2.0, steps, s=2.0, p=0.0, c=1.0)

    def test_single_point(self, pipeline22):
        cheap = vd.NumericsConfig(n=512, half_length=30.0)
        res = vd.sweep("p", 2.0, 2.0, 1, s=2.0, p=0.0, c=1.0, numerics=cheap)
        assert len(res.points) == 1
        assert res.points[0].result is not None

    def test_failures_are_recorded_not_raised(self):
        # p beyond p_max(0.5) = 2 must fail per-point, not abort the sweep
        cheap = vd.NumericsConfig(n=512, half_length=30.0)
        res = vd.sweep("p", 1.0, 3.0, 3, s=0.5, p=0.0, c=1.0, numerics=cheap)
        errors = [pt for pt in res.points if pt.result is None]
        assert errors and "p_max" in errors[-1].error

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(vd, "verdict", broken)
        with pytest.raises(TypeError):
            vd.sweep("p", 2.0, 3.0, 2, s=2.0, p=0.0, c=1.0)

    def test_memory_bounded_across_points(self, monkeypatch):
        # no eigensystem outlives its point: the traced peak after ten
        # points is within 10 % of the peak after two
        small = vd.NumericsConfig(n=256, half_length=30.0)
        verdict, peaks = vd.verdict, []

        def recorded(*args):
            res = verdict(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return res

        monkeypatch.setattr(vd, "verdict", recorded)
        with quiet():
            # first calls may fill caches
            verdict(wv.FKDV, 2.0, 2.0, 1.0, small)
            gc.collect()
            tracemalloc.start()
            try:
                res = vd.sweep("p", 2.0, 3.0, 10, s=2.0, p=0.0, c=1.0,
                               numerics=small)
            finally:
                tracemalloc.stop()
        assert all(pt.result is not None for pt in res.points)
        assert len(peaks) == 10
        assert peaks[9] <= 1.1 * peaks[1]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            vd.sweep("q", 0.0, 1.0, 2, s=2.0, p=2.0, c=1.0)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            vd.sweep("p", 0.0, 1.0, 2, s=2.0, p=2.0, c=1.0, model="kdv")

    def test_flip_bracket_spans_threshold(self):
        cheap = vd.NumericsConfig(n=512, half_length=30.0)
        with quiet():
            res = vd.sweep("p", 3.5, 4.5, 5, s=2.0, p=0.0, c=1.0,
                           numerics=cheap)
        assert res.flip_bracket is not None
        lo, hi = res.flip_bracket
        assert lo < 4.0 < hi

    def test_c_sweep_has_constant_index(self):
        # the slope sign is c-independent, so the index cannot change
        cheap = vd.NumericsConfig(n=512, half_length=30.0)
        with quiet():
            res = vd.sweep("c", 1.0, 2.0, 3, s=2.0, p=2.0, c=0.0,
                           numerics=cheap)
        assert all(pt.error == "" for pt in res.points)
        ks = [pt.result.K_formula for pt in res.points]
        assert ks == [0, 0, 0]
        assert res.flip_bracket is None

    def test_verdicts_monotone_along_p(self):
        cheap = vd.NumericsConfig(n=512, half_length=30.0)
        with quiet():
            res = vd.sweep("p", 3.5, 4.5, 5, s=2.0, p=0.0, c=1.0,
                           numerics=cheap)
        verdicts = [pt.result.verdict for pt in res.points]
        first_unstable = verdicts.index(vd.UNSTABLE)
        assert all(v == vd.STABLE for v in verdicts[:first_unstable - 1]
                   if v != vd.DEGENERATE)
        assert all(v == vd.UNSTABLE for v in verdicts[first_unstable:])


@pytest.mark.parametrize("model, s, p, c, solves", [
    (wv.FKDV, 2.0, 2.0, 1.0, [(1.0, 1.0)]),
    (wv.FKDV, 2.0, 2.0, 2.0, [(1.0, 1.0), (1.0, 2.0)]),
    (wv.FBBM, 1.5, 1.0, 1.5, [(1.0, 1.0), (1.5, 0.5), (1.51, 0.51),
                              (1.49, 0.49)]),
], ids=["fkdv-c1", "fkdv-c2", "fbbm"])
def test_wave_solves_per_verdict(monkeypatch, model, s, p, c, solves):
    # the ground state, then the wave unless it is the ground state, then
    # the finite-difference family of a weighted row: (a, b) of each solve
    calls, petviashvili = [], wv._petviashvili

    def spied(s, p, a, b, grid, opts):
        calls.append((round(a, 12), round(b, 12)))
        return petviashvili(s, p, a, b, grid, opts)
    monkeypatch.setattr(wv, "_petviashvili", spied)
    with quiet():
        vd.verdict(model, s, p, c, vd.NumericsConfig(n=512, half_length=40.0))
    assert calls == solves


# the stages of a counting verdict whose peaks are traced one by one: the
# assembly of a block or of its span, the counts and solves, and T, or the
# counts and solves on the wave's core
COUNTING_STAGES = [(op.OperatorBlocks, "block"), (op.OperatorBlocks, "span"),
                   (spc, "negative_count"), (op, "congruence"),
                   (spc, "symmetric_spectrum"), (spc, "constrained_quantity"),
                   (spc, "t_matrix"), (spc, "real_pair_count"),
                   (cores, "core_counts")]


def traced_peaks(monkeypatch, model, s, p, c) -> tuple:
    """({stage: peak}, peak) of the traced memory of one verdict, each
    stage of COUNTING_STAGES traced on its own, after a first run that
    may fill caches."""
    with quiet():
        vd.verdict(model, s, p, c)
    peaks, running = {}, [0]

    def traced(name, fn):
        def stage(*args, **kw):
            # the peak so far is the enclosing stage's
            running[-1] = max(running[-1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            running.append(0)
            try:
                return fn(*args, **kw)
            finally:
                peak = max(running.pop(), tracemalloc.get_traced_memory()[1])
                peaks[name] = max(peaks.get(name, 0), peak)
                running[-1] = max(running[-1], peak)
                tracemalloc.reset_peak()
        return stage
    for owner, name in COUNTING_STAGES:
        monkeypatch.setattr(owner, name, traced(name, getattr(owner, name)))
    gc.collect()
    tracemalloc.start()
    try:
        with quiet():
            vd.verdict(model, s, p, c)
        return peaks, max(running[0], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


class TestCountingMemory:
    @pytest.mark.parametrize("model, s, p, c", [
        (wv.FKDV, 2.0, 5.0, 1.0), (wv.FBBM, 1.5, 1.0, 1.5)])
    def test_peak_holds_two_half_order_matrices(self, model, s, p, c,
                                                monkeypatch):
        # the dense route (forced for fKdV, whose core takes the point):
        # the even block's span, then the odd block and one work array for
        # its shifted factor, then the odd block's Cholesky factor in its
        # own memory and the even block's factor in the even block's, then
        # that Cholesky factor and T, and last T and its factor: at most two
        # matrices of the even block's order n/2 + 1 at once, in every stage
        n, _ = vd.default_grid(s)
        block = 8 * (n // 2 + 1) ** 2
        monkeypatch.setattr(cores, "core_counts", lambda *args: None)
        peaks, peak = traced_peaks(monkeypatch, model, s, p, c)
        assert {"block", "span", "symmetric_spectrum", "constrained_quantity",
                "t_matrix", "real_pair_count"} <= set(peaks)
        assert {name: round(got / block, 2) for name, got in peaks.items()
                if got > 2.25 * block} == {}
        assert peak <= 2.25 * block

    @pytest.mark.parametrize("p, bound", [(5.0, 0.25), (2.0, 0.75)])
    def test_core_route_holds_no_half_order_matrix(self, monkeypatch, p,
                                                   bound):
        # the core route assembles no block, only spans 64 rows at a time,
        # and its largest matrix is E, of order m_e + m_o + 2 (209 at p =
        # 5, 505 at p = 2, of 1025): the verdict's traced peak, the wave
        # solve's included, measured 0.21 and 0.64 of one even block
        n, _ = vd.default_grid(2.0)
        block = 8 * (n // 2 + 1) ** 2
        peaks, peak = traced_peaks(monkeypatch, wv.FKDV, 2.0, p, 1.0)
        assert {"span", "core_counts"} <= set(peaks)
        assert not {"block", "symmetric_spectrum", "t_matrix"} & set(peaks)
        assert peak <= bound * block

    @pytest.mark.parametrize("n, half_length", [
        (256, 30.0), (2048, 80.0), (4096, 50.0)])
    def test_in_place_products_equal_the_copies(self, n, half_length):
        # the held blocks of the dense gates scale L0's blocks into S's;
        # a verdict assembles S's blocks scaled, one at a time.  Both
        # factor each block in its own memory: the same entries and the
        # same factors
        grid = sp.make_grid(n, half_length)
        with quiet():
            U = wv.solve_traveling_wave(wv.FBBM, 1.5, 1.0, 1.5, grid)
        weight = op.symmetrizing_weight(grid, 1.5)
        L = op.linearization(U)
        S = op.congruence(assemble(L), weight, "bbm-sym")
        source = op.congruence(op.operator_blocks(L), weight, "bbm-sym")
        assert source.label == S.label
        assert source.coupling == S.coupling
        assert all(np.array_equal(source.block(i), S.block(i))
                   for i in (0, 1))
        assert np.array_equal(source.cos_block(), S.cos_block())
        with ldl_targets() as held:
            copied = spc.symmetric_spectrum(S)
        with ldl_targets() as targets:
            eig = spc.symmetric_spectrum(source)
        # the wave's core's factors of the even gap count, each in its own
        # matrix; the odd block's shifted factor in a work array, the even
        # block's factor in that block; held blocks take their gap count
        # from factors in a work array too, not from the wave's core
        m = n // 2
        core, targets = targets[:-2], targets[-2:]
        assert targets == [(m - 1, False), (m + 1, True)]
        assert core and all(in_place for _, in_place in core)
        assert held[-2:] == targets
        assert not any(in_place for _, in_place in held[:-2])
        for a, b in ((copied.factor, eig.factor),
                     (copied.odd_factor, eig.odd_factor)):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


@contextmanager
def ldl_targets():
    """The order of each spectra._ldl call in the block, and whether it
    factors its block in the block's own memory."""
    targets, ldl = [], spc._ldl
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spc, "_ldl", lambda block, shift, work: targets.append(
            (block.shape[0], work is block)) or ldl(block, shift, work))
        yield targets


class TestSelfCheck:
    def test_unknown_case(self):
        with pytest.raises(KeyError):
            vd.self_check("nope")

    @pytest.mark.parametrize("case", sorted(vd.SELF_CHECK_CASES))
    def test_case_passes(self, case):
        report = vd.self_check(case)
        assert report.case == case
        assert report.passed, [e for e in report.entries if not e.passed]

    def test_gkdv_case_reuses_the_pipeline_spectrum(self, monkeypatch):
        # the generalized kernel is counted on the verdict's eigensystem,
        # and each sandwich and its spectrum serve every check that reads
        # them: one assembly, two Hamiltonian solves (D L and J S), four
        # sandwiches and their four spectra besides L's own
        calls = dict.fromkeys(["operator_blocks", "hamiltonian_eigensystem",
                               "sandwich", "symmetric_spectrum"], 0)
        for fn in (vd.op.operator_blocks, vd.spc.hamiltonian_eigensystem,
                   vd.op.sandwich, vd.spc.symmetric_spectrum):
            count_calls(monkeypatch, fn, calls)
        # no nonsymmetric eigensolve: the D A of the verdict and the J S of
        # the equivalence check both take the symmetric route
        orders = []
        for name in ("eig", "eigvals"):
            def recorded(a, *args, _fn=getattr(scipy.linalg, name), **kw):
                orders.append(a.shape[0])
                return _fn(a, *args, **kw)
            monkeypatch.setattr(scipy.linalg, name, recorded)
        # eigh: T of the verdict with vectors and of J S without; the odd
        # block of each sandwich, where |d|^(1/2) puts more than
        # _INVERSE_COLUMNS eigenvalues below the shift, with vectors; and
        # the even block of each sandwich, whose eigenvalue within 1e3
        # zero_tol (0 at eps = 0) makes its eigenvalues decide, once
        # without vectors: at eps > 0 its factor solves.  L's blocks are
        # factored only, and no block is eigendecomposed twice
        eighs = []

        def eigh(a, *args, _fn=scipy.linalg.eigh, **kw):
            eighs.append((a.shape[0], not kw.get("eigvals_only", False)))
            return _fn(a, *args, **kw)
        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        # the eps = 0 sandwich's even block is singular (its zero mode) and
        # makes no solve: it keeps no factor
        factored = []
        spectrum = vd.spc.symmetric_spectrum

        def spied(P, *args, **kw):
            eig = spectrum(P, *args, **kw)
            factored.append((P.label, eig.factor is not None))
            return eig
        monkeypatch.setattr(vd.spc, "symmetric_spectrum", spied)
        report = vd.self_check("gkdv-p2")
        assert report.passed, [e for e in report.entries if not e.passed]
        assert calls == {"operator_blocks": 1, "hamiltonian_eigensystem": 2,
                         "sandwich": 4, "symmetric_spectrum": 5}
        assert [has for _, has in factored] == [True, False, True, True, True]
        assert factored[1][0].startswith("sandwich(eps=0)")
        assert orders == []
        n = vd.default_grid(2.0)[0]
        assert sorted(eighs) == sorted(
            [(n // 2 - 2, True), (n // 2 - 2, False)] + [(n // 2 - 1, True)] * 4
            + [(n // 2 + 1, False)] * 4)
