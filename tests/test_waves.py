import json
from dataclasses import replace

import numpy as np
import pytest

import dense_reference as ref
from hkindex import spectral as sp
from hkindex import verdicts as vd
from hkindex import waves as wv
from hkindex.errors import ConvergenceError

from conftest import sech_profile, wave

CLAMP_NOTE = "clamp: negative tail mass exceeded 1e-10"


class TestGroundState:
    def test_s2_p2_matches_sqrt2_sech(self, grid40, q22):
        exact = np.sqrt(2.0) / np.cosh(grid40.nodes)
        assert np.max(np.abs(q22.values - exact)) <= 1e-8
        assert (q22.model, q22.c) == (wv.FKDV, 1.0)
        assert q22.c == 1.0
        assert q22.residual_norm <= 1e-10

    def test_s1_p1_half_of_bo_family(self, grid_s1):
        q = wv.solve_ground_state(1.0, 1.0, grid_s1)
        assert q.residual_norm <= 1e-8
        # closed-form bridge: the bo profile is exactly twice this family
        bo = wv.bo_profile(grid_s1, 1.0)
        mismatch = np.max(np.abs(2.0 * q.values - bo.values)) / bo.peak
        assert mismatch <= 1e-3  # periodic-vs-line tails are O(1/l^2)
        assert q.peak == pytest.approx(2.0, abs=1e-3)

    def test_outside_existence_window_rejected(self, grid40):
        with pytest.raises(ValueError, match="p_max"):
            wv.solve_ground_state(0.5, 3.0, grid40)

    def test_pmax_values(self):
        assert wv.p_max(0.5) == pytest.approx(2.0)
        assert wv.p_max(1.0) == np.inf
        assert wv.p_max(2.0) == np.inf

    def test_evenness_and_positivity(self, q22, q25):
        for q in (q22, q25):
            reflected = np.roll(q.values[::-1], 1)
            assert np.max(np.abs(q.values - reflected)) <= 1e-8 * q.peak
            assert np.min(q.values) >= -1e-8 * q.peak

    def test_decay_flag_not_set_on_good_grid(self, q22):
        assert not q22.truncation_warning
        assert q22.boundary_value / q22.peak <= 1e-3

    def test_nonconvergence_reports_residual(self, grid40):
        with pytest.raises(ConvergenceError) as err:
            wv.solve_ground_state(2.0, 2.0, grid40,
                                  wv.SolverOptions(max_iters=2, tol=1e-14))
        assert err.value.last_residual is not None

    def test_solver_options_validation(self):
        with pytest.raises(ValueError):
            wv.SolverOptions(tol=-1.0).resolve(2.0, 2.0)
        with pytest.raises(ValueError, match="p > 1/2; got p=0.4"):
            wv.SolverOptions().resolve(2.0, 0.4)

    def test_stabilizing_factor_settles_at_one(self, grid40):
        opts = wv.SolverOptions().resolve(2.0, 2.0)
        _, factor, _, _ = wv._petviashvili(2.0, 2.0, 1.0, 1.0, grid40, opts)
        assert abs(factor - 1.0) <= 1e-8


def oracle_steps(s, p, a, b, grid, opts) -> tuple:
    """The wave, factor and notes of the reference loop, and its number of
    steps (one residual per step)."""
    steps = []
    residual = ref._residual
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ref, "_residual",
                   lambda *args: steps.append(1) or residual(*args))
        values, factor, notes = ref._petviashvili(s, p, a, b, grid, opts)
    return values, factor, notes, len(steps)


def loop_steps(*args) -> tuple:
    """The wave, factor, notes and residual of waves._petviashvili, and its
    number of steps (one rfft per step)."""
    steps = []
    rfft = np.fft.rfft
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "rfft",
                   lambda *a, **kw: steps.append(1) or rfft(*a, **kw))
        result = wv._petviashvili(*args)
    return *result, len(steps)


def loop_inputs(model, s, p, c, grid=None) -> tuple:
    """(s, p, a, b, grid, opts) of the wave of speed c of the named model."""
    a, b = wv.MODELS[model].coefficients(c)
    grid = grid or sp.make_grid(*vd.default_grid(s))
    return s, p, a, b, grid, wv.SolverOptions().resolve(s, p)


# fKdV and fBBM; s = 0.6 on n = 4096, s = 1 and s = 2; integer and
# non-integer p; c != 1; and the two clamped solves on (128, 40)
LOOP_CASES = [
    (wv.FKDV, 0.6, 1.2, 1.0, None), (wv.FBBM, 0.6, 1.0, 2.0, None),
    (wv.FKDV, 1.0, 1.0, 1.7, None), (wv.FBBM, 1.0, 3.0, 2.0, None),
    (wv.FKDV, 2.0, 3.0, 0.5, None), (wv.FBBM, 2.0, 0.8, 1.5, None),
    (wv.FBBM, 2.0, 3.0, 2.0, None),
    (wv.FKDV, 2.0, 0.8, 1.0, (128, 40.0)), (wv.FBBM, 2.0, 1.2, 2.0, (128, 40.0)),
]

# Each loop stops at a residual of at most tol, so the two residuals differ
# by at most 2 tol, and the waves by the inverse linearization
# (a |d|^s + b - (p+1) U^p)^-1 of that difference.  Its kernel U' is odd,
# so it is bounded on the even waves; on LOOP_CASES it amplifies the 2 tol
# by at most 0.9 (fbbm s=0.6 p=1 c=2), and the bound allows 5.
WAVE_GAP_IN_TOL = 5.0 * 2.0


@pytest.fixture(scope="module")
def both_loops():
    """Both loops on a case of LOOP_CASES, each case solved once:
    (inputs, oracle_steps, loop_steps)."""
    runs = {}

    def run(case):
        if case not in runs:
            model, s, p, c, grid = case
            inputs = loop_inputs(model, s, p, c, grid and sp.make_grid(*grid))
            runs[case] = inputs, oracle_steps(*inputs), loop_steps(*inputs)
        return runs[case]
    return run


class TestPetviashviliLoop:
    @pytest.mark.parametrize("case", LOOP_CASES,
                             ids=[f"{m}-s{s:g}-p{p:g}-c{c:g}" + ("-clamp" if g else "")
                                  for m, s, p, c, g in LOOP_CASES])
    def test_loop_matches_the_reference_loop(self, both_loops, case):
        # the notes of the plain loop with five complex transforms per step,
        # a wave within WAVE_GAP_IN_TOL tol of its wave, in fewer steps, and
        # a residual that a complex FFT recomputes from the returned samples
        # to 1e-13 peak
        inputs, oracle, loop = both_loops(case)
        s, p, a, b, grid, opts = inputs
        expected, _, notes, reference_steps = oracle
        values, factor, got_notes, residual, steps = loop
        peak = float(np.max(values))
        assert got_notes == notes
        assert abs(factor - 1.0) <= 1e-6
        assert np.max(np.abs(values - expected)) <= WAVE_GAP_IN_TOL * opts.tol
        assert np.max(np.abs(residual)) <= opts.tol
        assert np.max(np.abs(ref._residual(grid, expected, s, p, a, b))) <= opts.tol
        recomputed = ref._residual(grid, values, s, p, a, b)
        assert np.max(np.abs(residual - recomputed)) <= 1e-13 * peak
        assert steps < reference_steps
        wv._petviashvili(s, p, a, b, grid, replace(opts, max_iters=steps))
        with pytest.raises(ConvergenceError):
            wv._petviashvili(s, p, a, b, grid, replace(opts, max_iters=steps - 1))

    def test_at_most_half_the_steps_of_the_reference_loop(self, both_loops):
        oracle_total = sum(both_loops(case)[1][-1] for case in LOOP_CASES)
        loop_total = sum(both_loops(case)[2][-1] for case in LOOP_CASES)
        assert loop_total <= oracle_total / 2

    def test_nonconvergence_message_matches_the_reference_loop(self):
        *inputs, opts = loop_inputs(wv.FBBM, 1.5, 1.2, 2.0)
        errors = []
        for loop in (ref._petviashvili, wv._petviashvili):
            with pytest.raises(ConvergenceError) as err:
                loop(*inputs, replace(opts, max_iters=2))
            errors.append(err.value)
        prefix = "Petviashvili did not reach tol=1e-08 in 2 iterations (last residual"
        assert all(str(e).startswith(prefix) for e in errors)
        assert errors[1].last_residual == pytest.approx(errors[0].last_residual,
                                                        rel=1e-10)

    @pytest.mark.parametrize("model, p, c", [(wv.FKDV, 0.8, 1.0), (wv.FBBM, 1.2, 2.0)])
    def test_clamp_note(self, model, p, c):
        # on a coarse box the tails of a non-integer power fall below the floor
        u = wv.solve_traveling_wave(model, 2.0, p, c, sp.make_grid(128, 40.0))
        assert CLAMP_NOTE in u.notes
        assert wv.solve_traveling_wave(model, 2.0, p, c,
                                       sp.make_grid(1024, 40.0)).notes == ()

    def test_transforms_per_step(self, monkeypatch):
        # a solve of N steps: one rfft/irfft pair per map evaluation, one
        # fft/ifft pair per residual (and one for the seed)
        *inputs, opts = args = loop_inputs(wv.FBBM, 1.0, 1.2, 2.0)
        steps = loop_steps(*args)[-1]
        with pytest.raises(ConvergenceError):
            wv._petviashvili(*inputs, replace(opts, max_iters=steps - 1))
        calls = dict.fromkeys(["rfft", "irfft", "fft", "ifft"], 0)

        def counted(name, fn):
            def call(*a, **kw):
                calls[name] += 1
                return fn(*a, **kw)
            return call
        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        wv._petviashvili(*args)
        assert calls == {"rfft": steps, "irfft": steps, "fft": steps + 1,
                         "ifft": steps + 1}


class TestKdvWave:
    def test_speed_one_is_identity(self, q22):
        u = wave(wv.FKDV, q22, 1.0)
        assert u.model == wv.FKDV
        assert np.array_equal(u.values, q22.values)

    def test_norm_scaling_law(self, q22):
        c = 4.0
        u = wave(wv.FKDV, q22, c)
        expected = c ** (2.0 / q22.p - 1.0 / q22.s) * wv.squared_norm(q22)
        assert wv.squared_norm(u) == pytest.approx(expected, rel=1e-6)

    def test_peak_scaling_example(self, q22):
        u = wave(wv.FKDV, q22, 4.0)
        assert u.peak == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)

    def test_residual_within_solver_tol(self, q22):
        u = wave(wv.FKDV, q22, 2.0)
        assert u.residual_norm <= q22.residual_tol
        assert not u.truncation_warning

    def test_nonpositive_speed_rejected(self, q22):
        with pytest.raises(ValueError):
            wave(wv.FKDV, q22, 0.0)

    @pytest.mark.parametrize("p, c", [(2.0, 2.0), (3.0, 0.5)])
    def test_matches_sech_soliton(self, grid40, p, c):
        q = wv.solve_ground_state(2.0, p, grid40)
        u = wave(wv.FKDV, q, c)
        exact = sech_profile(grid40, p, c)
        assert np.max(np.abs(u.values - exact.values)) <= 1e-10 * exact.peak

    def test_matches_half_bo_lorentzian(self, grid_s1):
        # |d|U + cU - U^2 = 0 is solved by half the Lorentzian; the
        # periodic box differs from the line by O(1/(c l)^2)
        c = 2.0
        u = wave(wv.FKDV, wv.solve_ground_state(1.0, 1.0, grid_s1), c)
        half_bo = wv.bo_profile(grid_s1, c).values / 2.0
        assert np.max(np.abs(u.values - half_bo)) <= 2e-4 * u.peak
        assert u.peak == pytest.approx(2.0 * c, rel=2e-4)


class TestBbmWave:
    def test_peak_scaling_near_unit_speed(self, q22):
        # at c = 1.01 the wave is 10x wider than Q and does not fit the box
        assert wave(wv.FBBM, q22, 1.01).truncation_warning
        c = 1.1
        u = wave(wv.FBBM, q22, c)
        assert not u.truncation_warning
        assert u.peak == pytest.approx((c - 1.0) ** 0.5 * q22.peak, rel=1e-6)

    def test_residual_at_speed_two(self, q22):
        u = wave(wv.FBBM, q22, 2.0)
        assert u.model == wv.FBBM
        assert u.residual_norm <= 1e-7

    def test_unit_speed_rejected(self, q22):
        with pytest.raises(ValueError):
            wave(wv.FBBM, q22, 1.0)


class TestSolveTravelingWave:
    @pytest.mark.parametrize("model, c", [(wv.FKDV, 1.0), (wv.FKDV, 1.7),
                                          (wv.FBBM, 2.0)])
    def test_same_wave_as_from_the_ground_state(self, grid40, q22, model, c):
        # no ground state is solved, yet every field of the profile agrees
        u = wv.solve_traveling_wave(model, 2.0, 2.0, c, grid40)
        ref = wave(model, q22, c)
        assert np.array_equal(u.values, ref.values)
        assert u.metadata() == ref.metadata()

    def test_checks_speed_and_exponents(self, grid40):
        with pytest.raises(ValueError, match="c > 1"):
            wv.solve_traveling_wave(wv.FBBM, 2.0, 2.0, 1.0, grid40)
        with pytest.raises(ValueError, match="p_max"):
            wv.solve_traveling_wave(wv.FKDV, 0.5, 3.0, 1.0, grid40)


class TestBoProfile:
    def test_peak_and_half_peak(self):
        g = sp.make_grid(1000, 100.0)  # h = 0.2 puts these x = 1/c on the grid
        for c in (0.5, 1.0, 1.25):
            bo = wv.bo_profile(g, c)
            assert bo.peak == pytest.approx(4.0 * c, abs=1e-12)
            idx = int(np.argmin(np.abs(g.nodes - 1.0 / c)))
            assert g.nodes[idx] == pytest.approx(1.0 / c, abs=1e-12)
            assert bo.values[idx] == pytest.approx(2.0 * c, rel=1e-12)

    def test_squared_norm_converges_to_8pi(self):
        g = sp.make_grid(4096, 400.0)
        bo = wv.bo_profile(g, 1.0)
        assert abs(wv.squared_norm(bo) - 8.0 * np.pi) <= 0.01 * 8.0 * np.pi

    def test_residual_is_truncation_limited(self):
        coarse = wv.bo_profile(sp.make_grid(1024, 100.0), 1.0)
        fine = wv.bo_profile(sp.make_grid(4096, 400.0), 1.0)
        assert fine.residual_norm < coarse.residual_norm


class TestSechProfile:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_residuals(self, grid40, p):
        prof = sech_profile(grid40, p, 1.0)
        assert prof.residual_norm <= 1e-10

    def test_peak_formula(self, grid40):
        for p, c in ((1.0, 1.0), (2.0, 1.0), (3.0, 2.0)):
            prof = sech_profile(grid40, p, c)
            assert prof.peak == pytest.approx(
                (c * (p + 2.0) / 2.0) ** (1.0 / p), rel=1e-12)

    def test_p2_is_sqrt2_sech(self, grid40):
        prof = sech_profile(grid40, 2.0, 1.0)
        exact = np.sqrt(2.0) / np.cosh(grid40.nodes)
        assert np.max(np.abs(prof.values - exact)) <= 1e-12


class TestSerialization:
    def test_round_trip(self, tmp_path, q22):
        csv_path, json_path = wv.save_profile(q22, tmp_path / "wave.csv")
        values = np.loadtxt(csv_path, delimiter=",", skiprows=1)[:, 1]
        with open(json_path) as fh:
            meta = json.load(fh)
        assert np.array_equal(values, q22.values)
        assert meta["s"] == q22.s and meta["p"] == q22.p and meta["c"] == q22.c
        assert meta["model"] == q22.model
        assert meta["residual_norm"] == q22.residual_norm

    def test_csv_shape(self, tmp_path, q22):
        csv_path, _ = wv.save_profile(q22, tmp_path / "wave.csv")
        lines = open(csv_path).read().strip().split("\n")
        assert lines[0] == "x,U"
        assert len(lines) == q22.grid.n + 1
