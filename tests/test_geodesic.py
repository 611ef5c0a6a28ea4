import contextlib
import math
import signal
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tribody import (
    DomainError,
    EnergySurface,
    FreePotential,
    GeodesicState,
    Masses,
    MorsePotential,
    conservation_report,
    external_rates,
    integrate,
    momentum_rhs,
    reduced_mass,
)
from tribody.geodesic import _DormandPrince, read_trajectory_csv, write_trajectory_csv
from tribody.metric import flow_coefficients

from helpers import CallablePotential


def free_surface():
    return EnergySurface(E=1.0, U0=1.0, potential=FreePotential())


def ramp_setup():
    """Linear ramp: g = 1 - x1 falls to g_min = 1e-6 ahead of the motion."""
    pot = CallablePotential(lambda x: x[0], lambda x: np.array([1.0, 0.0, 0.0]))
    surf = EnergySurface(E=1.0, U0=1.0, potential=pot, g_min=1e-6)
    return surf, GeodesicState(x=[0.0, 1.0, 1.0], xi=[0.5, 0.0, 0.0])


def morse_setup():
    m = Masses(1.0, 1.0, 1.0)
    pot = MorsePotential(m, D=1.0, alpha=1.0, d0=2.0)
    surf = EnergySurface(E=1.0, U0=3.0, potential=pot)
    state0 = GeodesicState(x=[2.0, 3.0, 3.5], xi=[0.1, -0.2, 0.05])
    return m, surf, state0


class TestRhs:
    def test_row_one_substitution(self):
        # a=(1,0,0), xi=(1,0,0), Lambda^2=0 -> dxi/ds = (1,0,0)
        out = momentum_rhs(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), 0.0)
        assert np.allclose(out, [1.0, 0.0, 0.0])

    def test_matches_second_order_transcription(self):
        # verbatim transcription of the three second-order right sides,
        # with xi standing in for the velocities
        def second_order(xi, a, lam2):
            x1, x2, x3 = xi
            a1, a2, a3 = a
            return np.array([
                a1 * (x1**2 - x2**2 - x3**2 - lam2) + 2 * x1 * (a2 * x2 + a3 * x3),
                a2 * (x2**2 - x3**2 - x1**2 - lam2) + 2 * x2 * (a3 * x3 + a1 * x1),
                a3 * (x3**2 - x1**2 - x2**2 - lam2) + 2 * x3 * (a1 * x1 + a2 * x2),
            ])

        rng = np.random.default_rng(17)
        for _ in range(300):
            xi = rng.standard_normal(3)
            a = rng.standard_normal(3)
            lam2 = rng.uniform(0, 4)
            assert np.allclose(momentum_rhs(xi, a, lam2), second_order(xi, a, lam2),
                               rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("shape", [(3,), (257, 3), (4, 5, 3)])
    def test_bit_identical_to_reduction_form(self, shape):
        # oracle: the dot products as np.sum reductions over the last axis;
        # magnitudes spread over 8 decades make the order of the additions
        # visible in the last bits
        def reduction_form(xi, a, lam2):
            q = np.sum(xi * xi, axis=-1) + lam2
            s = np.sum(xi * a, axis=-1)
            return 2.0 * s[..., None] * xi - q[..., None] * a

        rng = np.random.default_rng(29)
        for _ in range(50):
            xi = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 4, shape)
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 4, shape)
            lam2 = rng.uniform(0.0, 4.0, shape[:-1])
            ref = reduction_form(xi, a, lam2)
            assert np.array_equal(momentum_rhs(xi, a, lam2), ref)
            out = np.full(shape, np.nan)
            assert momentum_rhs(xi, a, lam2, out=out) is out
            assert np.array_equal(out, ref)


class TestIntegrate:
    def test_free_motion_straight_line(self):
        traj = integrate(GeodesicState(x=[1, 1, 1], xi=[0.1, 0, 0]),
                         free_surface(), s_end=10.0, tol=1e-10)
        assert traj.termination == "s_end"
        assert np.allclose(traj.x[-1], [2.0, 1.0, 1.0], atol=1e-10)
        # affine in s throughout
        expected = np.array([1, 1, 1]) + np.outer(traj.s, [0.1, 0, 0])
        assert np.max(np.abs(traj.x - expected)) < 1e-10

    def test_invalid_tol(self):
        with pytest.raises(DomainError):
            integrate(GeodesicState(x=[1, 1, 1], xi=[0.1, 0, 0]),
                      free_surface(), s_end=1.0, tol=0.0)

    def test_integrals_never_mutated(self):
        _, surf, s0 = morse_setup()
        traj = integrate(s0, surf, J=(0.1, 0.2, 0.05), s_end=2.0, tol=1e-8)
        assert traj.J == (0.1, 0.2, 0.05)

    def test_self_convergence(self):
        # tightening tol by 10x gains at least an order of magnitude against
        # a tol=1e-12 reference
        _, surf, s0 = morse_setup()
        ref = integrate(s0, surf, J=(0.1, 0.2, 0.05), s_end=3.0, tol=1e-12, n_samples=2)
        errs = []
        for tol in (1e-5, 1e-7, 1e-9):
            traj = integrate(s0, surf, J=(0.1, 0.2, 0.05), s_end=3.0, tol=tol, n_samples=2)
            errs.append(np.max(np.abs(traj.x[-1] - ref.x[-1])))
        assert errs[1] < errs[0] / 10
        assert errs[2] < errs[1] / 10

    def test_time_reversal(self):
        tol = 1e-9
        _, surf, s0 = morse_setup()
        fwd = integrate(s0, surf, J=(0.0, 0.0, 0.0), s_end=3.0, tol=tol, n_samples=8)
        back = integrate(GeodesicState(x=fwd.x[-1], xi=-fwd.xi[-1]),
                         surf, J=(0.0, 0.0, 0.0), s_end=3.0, tol=tol, n_samples=8)
        assert np.max(np.abs(back.x[-1] - s0.x)) < 100 * tol

    def test_second_order_formulation_agrees(self):
        # co-integrating the second-order system reproduces the first-order run
        _, surf, s0 = morse_setup()
        J = (0.1, 0.2, 0.05)
        J_tot = float(np.linalg.norm(J))
        traj = integrate(s0, surf, J=J, s_end=3.0, tol=1e-10, n_samples=64)

        def rhs(s, y):
            x, v = y[:3], y[3:]
            _, a, lam2 = flow_coefficients(x, surf, J_tot)
            return np.concatenate([v, momentum_rhs(v, a, lam2)])

        sol = solve_ivp(rhs, (0, 3.0), np.concatenate([s0.x, s0.xi]),
                        rtol=1e-10, atol=1e-13, t_eval=traj.s)
        assert np.max(np.abs(sol.y[:3].T - traj.x)) < 1e-7

    def test_boundary_termination_recorded(self):
        surf, state0 = ramp_setup()
        traj = integrate(state0, surf, s_end=50.0, tol=1e-8)
        assert traj.termination == "boundary"
        # the located event state is the last sample
        assert abs(traj.g[-1] - surf.g_min) < 1e-8
        assert traj.x[-1, 0] < 1.0
        assert np.all(traj.g > 0)

    def test_max_steps_is_a_step_budget(self):
        _, surf, s0 = morse_setup()
        traj = integrate(s0, surf, J=(0.1, 0.2, 0.05), s_end=3.0, max_steps=3)
        assert traj.termination == "max_steps"
        assert traj.meta["accepted_steps"] <= 3
        # the record ends at the state reached, short of s_end
        assert traj.s[-2] < traj.s[-1] < 3.0
        assert traj.meta["nfev"] == 2 + 6 * (traj.meta["accepted_steps"]
                                             + traj.meta["rejected_steps"])

    @pytest.mark.parametrize("kwargs", [
        {"s_end": float("nan")},
        {"s_end": float("inf")},
        {"s_end": 0.0},
        {"n_samples": 1},
        {"n_samples": 0},
    ])
    def test_bad_span_or_sampling_rejected(self, kwargs):
        _, surf, s0 = morse_setup()
        with pytest.raises(DomainError):
            integrate(s0, surf, **{"s_end": 1.0, **kwargs})


@contextlib.contextmanager
def within(seconds):
    """A block that raises TimeoutError once it has run seconds of wall
    time (a POSIX interval timer), so that a loop that does not end fails
    the test instead of holding the suite."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestNonFinite:
    @pytest.mark.parametrize("xi", [[1e300, 0.0, 0.0], [0.1, math.inf, 0.0]],
                             ids=["overflowing-xi", "infinite-xi"])
    def test_start_with_a_derivative_that_is_not_finite_is_rejected(self, xi):
        # |xi|^2 overflows: the derivative at the start holds NaN and inf,
        # which the solver reports as such, not as an overflow warning
        _, surf, s0 = morse_setup()
        with within(1.0), warnings.catch_warnings(), \
                pytest.raises(DomainError, match="derivative at the initial state"):
            warnings.simplefilter("error", RuntimeWarning)
            integrate(GeodesicState(x=s0.x, xi=xi), surf, s_end=0.5)

    def test_nan_step_size_stops_the_solver(self):
        # the retry loop compares the step to its floor NaN-safely
        solver = _DormandPrince(lambda y: -y, 0.0, np.ones(6), 1.0, 1e-9, 1e-12)
        solver.h_abs = math.nan
        with within(1.0):
            assert solver.step() is False
        assert solver.accepted == 0


def scipy_reference(state0, surf, J, s_end, tol, n_samples):
    """The integrator's contract as a solve_ivp call: RK45 at rtol = tol,
    atol = 1e-3 tol, sampled at n_samples even points, stopped by the
    terminal g <= g_min event."""
    J_tot = math.sqrt(sum(j * j for j in J))

    def rhs(s, y):
        _, a, lam2 = flow_coefficients(y[:3], surf, J_tot)
        return np.concatenate([y[3:], momentum_rhs(y[3:], a, lam2)])

    def boundary(s, y):
        return flow_coefficients(y[:3], surf, 0.0)[0] - surf.g_min

    boundary.terminal = True
    boundary.direction = -1
    return solve_ivp(rhs, (state0.s, s_end), np.concatenate([state0.x, state0.xi]),
                     method="RK45", rtol=tol, atol=tol * 1e-3,
                     t_eval=np.linspace(state0.s, s_end, n_samples), events=boundary)


class TestScipyOracle:
    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_same_steps_and_samples(self, tol):
        _, surf, s0 = morse_setup()
        J = (0.1, 0.2, 0.05)
        traj = integrate(s0, surf, J=J, s_end=3.0, tol=tol, n_samples=64)
        sol = scipy_reference(s0, surf, J, 3.0, tol, 64)
        assert traj.termination == "s_end" and sol.status == 0
        assert np.array_equal(traj.s, sol.t)
        assert traj.meta["nfev"] == sol.nfev
        assert np.max(np.abs(np.hstack([traj.x, traj.xi]) - sol.y.T)) <= 1e-12

    def test_step_underflow_recorded(self):
        # the gradient is NaN beyond x1 = 0.5: every step across it is
        # rejected until the step underflows short of that wall
        pot = CallablePotential(lambda x: 0.0, lambda x: np.full(3, 0.0 if x[0] < 0.5 else np.nan))
        surf = EnergySurface(E=1.0, U0=1.0, potential=pot)
        state0 = GeodesicState(x=[0.0, 1.0, 1.0], xi=[0.5, 0.0, 0.0])
        traj = integrate(state0, surf, s_end=5.0, tol=1e-8, n_samples=16)
        sol = scipy_reference(state0, surf, (0.0, 0.0, 0.0), 5.0, 1e-8, 16)
        assert sol.status == -1
        assert traj.termination == f"solver_stop: {sol.message}"
        assert np.array_equal(traj.s[:-1], sol.t)
        assert traj.meta["nfev"] == sol.nfev
        assert 0.5 - 1e-6 < traj.x[-1, 0] < 0.5

    def test_boundary_event_located(self):
        surf, state0 = ramp_setup()
        traj = integrate(state0, surf, s_end=50.0, tol=1e-8)
        sol = scipy_reference(state0, surf, (0.0, 0.0, 0.0), 50.0, 1e-8, 512)
        assert sol.status == 1
        assert abs(traj.s[-1] - sol.t_events[0][0]) <= 1e-10
        assert np.array_equal(traj.s[:-1], sol.t)
        assert traj.meta["nfev"] == sol.nfev


class TestExternalRates:
    def test_direct(self):
        assert np.allclose(external_rates(2.0, 1.0, 2.0, 3.0), [0.5, 1.0, 1.5])

    def test_zero_momentum(self):
        assert np.allclose(external_rates(0.7, 0.0, 0.0, 0.0), 0.0)

    def test_rate_identity_along_trajectory(self):
        # sum over mu of (xdot_mu)^2 equals Lambda^2 at every sample
        _, surf, s0 = morse_setup()
        traj = integrate(s0, surf, J=(0.3, -0.1, 0.2), s_end=3.0, tol=1e-9)
        rates = external_rates(traj.g, *traj.J)
        assert np.max(np.abs(np.sum(rates**2, axis=-1) - traj.lam_sq)) < 1e-10

    def test_quadrature_recovers_angles(self):
        traj = integrate(GeodesicState(x=[1, 1, 1], xi=[0.05, 0, 0]),
                         free_surface(), J=(1.0, 2.0, 3.0), s_end=2.0, tol=1e-10)
        # the trapezoid sum of the rates from x_mu = 0 at s = 0; free
        # motion has g = 1, so x_mu = J_(mu-3) * s exactly
        rates = external_rates(traj.g, *traj.J)
        steps = 0.5 * (rates[1:] + rates[:-1]) * np.diff(traj.s)[:, None]
        ext = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
        assert np.allclose(ext, np.outer(traj.s, [1.0, 2.0, 3.0]), atol=1e-9)


class TestConservation:
    def test_free_motion_zero_drift(self):
        traj = integrate(GeodesicState(x=[1, 1, 1], xi=[0.1, 0, 0]),
                         free_surface(), s_end=10.0, tol=1e-10)
        report = conservation_report(traj, free_surface())
        assert report["H_drift"] < 1e-12
        assert report["speed_drift"] < 1e-12

    def test_morse_run_drift(self):
        m, surf, s0 = morse_setup()
        mu0 = reduced_mass(m)
        traj = integrate(s0, surf, J=(0.1, 0.2, 0.05), s_end=5.0, tol=1e-9, mu0=mu0)
        report = conservation_report(traj, surf)
        assert report["H_drift"] < 1e-6

    def test_single_sample_zero_drift(self):
        _, surf, s0 = morse_setup()
        traj = integrate(s0, surf, s_end=1.0, tol=1e-9, n_samples=2)
        traj.s = traj.s[:1]
        traj.x, traj.xi = traj.x[:1], traj.xi[:1]
        traj.g, traj.lam_sq = traj.g[:1], traj.lam_sq[:1]
        report = conservation_report(traj, surf)
        assert report["H_drift"] == 0.0


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        m, surf, s0 = morse_setup()
        traj = integrate(s0, surf, J=(0.1, 0.0, 0.0), s_end=1.0, tol=1e-9, n_samples=32,
                         mu0=reduced_mass(m))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, surf, path)
        data = read_trajectory_csv(path)
        assert list(data) == ["s", "x1", "x2", "x3", "xi1", "xi2", "xi3", "g", "H",
                              "a1", "a2", "a3", "lam_sq"]
        assert np.allclose(data["s"], traj.s)
        assert np.allclose(data["x1"], traj.x[:, 0])
        assert np.allclose(data["g"], traj.g)
        # the coefficient schedule reads back to the same bits
        a = np.stack([data["a1"], data["a2"], data["a3"]], axis=1)
        assert np.array_equal(a, traj.a)
        assert np.array_equal(data["lam_sq"], traj.lam_sq)
