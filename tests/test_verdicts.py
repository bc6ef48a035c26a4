import gc
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from hkindex import verdicts as vd
from hkindex import waves as wv

from conftest import quiet


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
            res = vd.kdv_verdict(1.0, 2.0, 1.0)
        assert res.verdict == vd.DEGENERATE

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            vd.kdv_verdict(2.0, 2.0, -1.0)

    def test_scale_robustness(self, pipeline22):
        with quiet():
            res2 = vd.kdv_verdict(2.0, 2.0, 2.0)
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
            res = vd.kdv_verdict(s, p, c)
        assert res.verdict == verdict
        assert res.K_formula == res.K_direct == res.k_r == k_r

    def test_parity_odd_index_has_real_mode(self, pipeline25):
        res = pipeline25.result
        assert res.K_formula % 2 == 1
        assert res.k_r >= 1


class TestBbmVerdict:
    def test_stable_classical_case(self):
        with quiet():
            res = vd.bbm_verdict(2.0, 2.0, 2.0)
        assert res.verdict == vd.STABLE
        assert res.n_L == 1
        assert res.K_formula == res.K_direct == 0
        assert res.slope > 0 and res.slope_reference > 0

    def test_bracket_test_s1(self):
        with quiet():
            res = vd.bbm_verdict(1.0, 2.0, 2.0)
        assert res.verdict == vd.STABLE
        assert res.slope_reference > 0

    def test_unit_speed_rejected(self):
        with pytest.raises(ValueError):
            vd.bbm_verdict(2.0, 2.0, 1.0)


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

        monkeypatch.setattr(vd, "kdv_verdict", broken)
        with pytest.raises(TypeError):
            vd.sweep("p", 2.0, 3.0, 2, s=2.0, p=0.0, c=1.0)

    def test_memory_bounded_across_points(self, monkeypatch):
        # no eigensystem outlives its point: the traced peak after ten
        # points is within 10 % of the peak after two
        small = vd.NumericsConfig(n=256, half_length=30.0)
        verdict, peaks = vd.kdv_verdict, []

        def recorded(*args):
            res = verdict(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return res

        monkeypatch.setattr(vd, "kdv_verdict", recorded)
        with quiet():
            verdict(2.0, 2.0, 1.0, small)  # first calls may fill caches
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


class TestSelfCheck:
    def test_unknown_case(self):
        with pytest.raises(KeyError):
            vd.self_check("nope")

    def test_schrodinger_case_passes(self):
        report = vd.self_check("schrodinger-sech2")
        assert report.passed, [e for e in report.entries if not e.passed]

    def test_bo_case_passes(self):
        report = vd.self_check("bo")
        assert report.passed, [e for e in report.entries if not e.passed]

    def test_gkdv_case_reuses_the_pipeline_spectrum(self, monkeypatch):
        # the generalized kernel is counted on the verdict's eigensystem,
        # and each sandwich and its spectrum serve every check that reads
        # them: one assembly, one Hamiltonian solve, four sandwiches and
        # their four spectra besides L's own
        calls = dict.fromkeys(["assemble", "hamiltonian_eigensystem",
                               "sandwich", "symmetric_spectrum"], 0)
        for fn in (vd.op.assemble, vd.spc.hamiltonian_eigensystem,
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
        # eigenvectors: the odd block of L and of each sandwich, T of the
        # verdict, and the even block of each eps > 0 sandwich, whose
        # near-zero eigenvalue sends its constrained solve to the
        # eigenvector path
        with_vectors = []

        def eigh(a, *args, _fn=scipy.linalg.eigh, **kw):
            if not kw.get("eigvals_only", False):
                with_vectors.append(a.shape[0])
            return _fn(a, *args, **kw)
        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        report = vd.self_check("gkdv-p2")
        assert report.passed, [e for e in report.entries if not e.passed]
        assert calls == {"assemble": 1, "hamiltonian_eigensystem": 1,
                         "sandwich": 4, "symmetric_spectrum": 5}
        assert orders == []
        n = vd.default_grid(2.0)[0]
        assert sorted(with_vectors) == \
            [n // 2 - 2] + [n // 2 - 1] * 5 + [n // 2 + 1] * 3


def count_calls(monkeypatch, fn, calls) -> None:
    """Count the calls of fn in calls[fn.__name__], under every name that
    binds it in a module of the package."""
    def counted(*args, **kw):
        calls[fn.__name__] += 1
        return fn(*args, **kw)
    for modname, module in list(sys.modules.items()):
        if modname == "hkindex" or modname.startswith("hkindex."):
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, counted)
