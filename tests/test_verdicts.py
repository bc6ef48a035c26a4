import numpy as np
import pytest

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
    def test_empty_range(self):
        res = vd.sweep("p", 1.0, 2.0, 0, s=2.0, p=0.0, c=1.0)
        assert res.points == ()
        assert res.flip_bracket is None

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
