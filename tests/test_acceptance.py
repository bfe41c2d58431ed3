"""Acceptance checklist. One test per criterion; each prints a single
pass/fail line (visible without -s) summarizing the measured quantities.

Run just this module with: pytest tests/test_acceptance.py
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from kslyap.attractor import LyapunovConstants, forcing_constant, monitor, radius
from kslyap.coercivity import certify, hardy_check
from kslyap.exponents import OperatorOrder, PotentialClass, classify, solve_critical_exponents
from kslyap.potential import (
    PiecewiseParams,
    bs_functional_and_gradient,
    bs_optimal_potential,
    build_profile,
    check_admissible,
    norms,
)
from kslyap.solver import (
    SolveConfig,
    SpectralState,
    Trajectory,
    _power,
    default_grid,
    default_transient,
    linear_symbol,
    random_initial,
    simulate,
    simulate_many,
    step,
)
from kslyap.study import ConditionViolatedError, fit_power_law, molinet

SWEEP_LS = (32.0, 64.0, 128.0, 256.0, 512.0)


class _Criterion:
    """Prints 'criterion N PASS/FAIL: <detail>' around a block of asserts."""

    def __init__(self, capsys, num):
        self.capsys = capsys
        self.num = num
        self.detail = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        elapsed = time.perf_counter() - self.t0
        with self.capsys.disabled():
            print(f"criterion {self.num} {status}: {self.detail} [{elapsed:.2f}s]")
        return False


@pytest.fixture(scope="module")
def sweep_rows():
    """Profile -> certificate -> norms -> radius for each L, one at a time."""
    rows = []
    for L in SWEEP_LS:
        profile = build_profile(L)
        report = certify(profile)
        nrm = norms(profile)
        M2 = forcing_constant(profile)
        r_ss = radius(nrm.phi, M2, report.delta_margin).r_star_star if report.delta_margin > 0 else float("nan")
        rows.append(
            {
                "L": L,
                "margin": report.delta_margin,
                "lambda_min": report.lambda_min,
                "converged": report.converged,
                "h2": nrm.h2,
                "grad2": nrm.phi_x**2,
                "hess2": nrm.phi_xx**2,
                "r_ss": r_ss,
            }
        )
        del profile  # the largest grids are ~16M points; free before the next one
    return rows


def test_criterion_1_exact_exponents(capsys):
    with _Criterion(capsys, 1) as c:
        t0 = time.perf_counter()
        s4 = solve_critical_exponents(OperatorOrder.FOURTH)
        s2 = solve_critical_exponents(OperatorOrder.SECOND)
        elapsed = time.perf_counter() - t0
        assert (s4.pair.c1, s4.pair.c2) == (Fraction(1, 3), Fraction(4, 3))
        assert s4.objective == Fraction(3, 2)
        assert (s2.pair.c1, s2.pair.c2) == (Fraction(1), Fraction(2))
        assert s2.objective == Fraction(5, 2)
        assert classify(s4.pair) is PotentialClass.CRITICAL
        assert elapsed < 1.0
        c.detail = f"(1/3, 4/3) obj 3/2 and (1, 2) obj 5/2, exact, {elapsed * 1e3:.1f}ms"


def test_criterion_2_admissibility_matches_eigenvalue_oracle(capsys):
    with _Criterion(capsys, 2) as c:
        t0 = time.perf_counter()
        rep = check_admissible(PiecewiseParams())
        assert rep.passed
        assert np.allclose(rep.minors, (1.0, 0.25, 0.125), atol=1e-12)
        rng = np.random.default_rng(2024)
        n_pass = 0
        for _ in range(100):
            params = PiecewiseParams(
                a=float(rng.uniform(0.3, 2.5)),
                q0=float(rng.uniform(0.05, 3.0)),
                q1=float(rng.uniform(0.05, 5.0)),
            )
            r = check_admissible(params)
            oracle = bool(np.all(np.linalg.eigvalsh(r.matrix) > 0.0))
            assert r.passed == oracle
            n_pass += r.passed
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        c.detail = f"minors (1, 1/4, 1/8); 100/100 oracle agreement ({n_pass} admissible), {elapsed * 1e3:.0f}ms"


def test_criterion_3_hardy_inequality_on_random_functions(capsys):
    with _Criterion(capsys, 3) as c:
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        worst = math.inf
        for _ in range(500):
            deg = int(rng.integers(1, 13))
            coeffs = rng.standard_normal(deg)

            def u(y, coeffs=coeffs):
                out = np.zeros_like(y)
                for j, cj in enumerate(coeffs, start=1):
                    out += cj * np.sin(j * np.pi * y)
                return out

            _, _, margin = hardy_check(u, n=8193)
            assert margin >= -1e-10
            worst = min(worst, margin)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        c.detail = f"500 random odd trig functions, worst margin {worst:.3e}, {elapsed:.2f}s"


def test_criterion_4_certified_margins_across_domains(capsys, sweep_rows, make_flat_profile):
    with _Criterion(capsys, 4) as c:
        assert [row["L"] for row in sweep_rows] == list(SWEEP_LS)
        assert all(row["converged"] for row in sweep_rows)
        margins = np.array([row["margin"] for row in sweep_rows])
        assert np.all(margins >= -1e-6)
        assert margins.min() >= margins.max() / 2.0  # no collapse across the sweep
        control = certify(make_flat_profile(L=64.0, n=16384, slope=0.0))
        assert abs(control.lambda_min - (-0.25)) < 1e-3
        assert control.delta_margin < 0
        c.detail = (
            f"margins {margins.min():.4f}..{margins.max():.4f} over L=32..512; "
            f"control lambda_min {control.lambda_min:.4f}"
        )


def test_criterion_5_scaling_slopes(capsys, sweep_rows):
    with _Criterion(capsys, 5) as c:
        Ls = [row["L"] for row in sweep_rows]
        f_h2 = fit_power_law(zip(Ls, (row["h2"] for row in sweep_rows)))
        f_g2 = fit_power_law(zip(Ls, (row["grad2"] for row in sweep_rows)))
        f_x2 = fit_power_law(zip(Ls, (row["hess2"] for row in sweep_rows)))
        f_r = fit_power_law(zip(Ls, (row["r_ss"] for row in sweep_rows)))
        assert abs(f_h2.slope - 1.5) <= 0.05
        assert abs(f_g2.slope - 7.0 / 3.0) <= 0.1
        assert abs(f_x2.slope - 3.0) <= 0.1
        assert abs(f_r.slope - 1.5) <= 0.05
        c.detail = (
            f"slopes: h2 {f_h2.slope:.3f} (want 1.5), |phi_x|^2 {f_g2.slope:.3f} (7/3), "
            f"|phi_xx|^2 {f_x2.slope:.3f} (3), R** {f_r.slope:.3f} (1.5)"
        )


def test_criterion_6_trajectories_stay_in_the_ball(capsys):
    with _Criterion(capsys, 6) as c:
        worst_ratio = 0.0
        total_violations = 0
        n_runs = 0
        for L in (16.0 * np.pi, 32.0 * np.pi):
            profile = build_profile(L)
            report = certify(profile)
            assert report.converged and report.delta_margin > 0
            nrm = norms(profile)
            M2 = forcing_constant(profile)
            r_ss = radius(nrm.phi, M2, report.delta_margin).r_star_star
            constants = LyapunovConstants(lam=report.delta_margin, M2=M2)
            N = default_grid(L)
            for gamma in (0.0, 0.1):
                transient = default_transient(L, N, gamma)
                cfg = SolveConfig(
                    gamma=gamma,
                    t_end=transient + 200.0,
                    transient=transient,
                    record_every=100,
                    odd_only=True,
                )
                # the three seeds share (L, N), so they run as one stack
                initials = [random_initial(L, N, seed=seed, odd_only=True) for seed in (0, 1, 2)]
                for traj in simulate_many(initials, cfg):
                    assert isinstance(traj, Trajectory)
                    assert np.isfinite(traj.sup_norm)
                    assert traj.sup_norm <= r_ss
                    rep = monitor(traj, profile, constants)
                    assert rep.violations == 0
                    worst_ratio = max(worst_ratio, traj.sup_norm / r_ss)
                    total_violations += rep.violations
                    n_runs += 1
            del profile
        c.detail = (
            f"{n_runs} runs (L in {{16pi, 32pi}}, gamma in {{0, 0.1}}, 3 seeds): "
            f"max sup/R** = {worst_ratio:.2e}, {total_violations} monitor violations"
        )


def test_criterion_7_integrator_fidelity(capsys):
    with _Criterion(capsys, 7) as c:
        # energy balance d/dt (1/2)|u|^2 = |u_x|^2 - |u_xx|^2 along a saturated run
        L, N, dt = 32.0, 256, 0.05
        warm = simulate(
            random_initial(L, N, seed=5),
            SolveConfig(dt=dt, t_end=100.0, record_every=2000, transient=0.0),
        )
        fine = simulate(
            SpectralState(L=L, N=N, half=warm.half[-1].copy()),
            SolveConfig(dt=dt, t_end=20.0, record_every=1, transient=0.0),
        )
        energy = 0.5 * fine.l2**2
        dEdt = (energy[:-4] - 8.0 * energy[1:-3] + 8.0 * energy[3:-1] - energy[4:]) / (12.0 * dt)
        rhs = fine.l2_grad[2:-2] ** 2 - fine.l2_hess[2:-2] ** 2
        rel = np.abs(dEdt - rhs) / fine.l2[2:-2] ** 2
        max_rel = float(np.max(rel))
        assert max_rel < 1e-4

        # strict decay below L = pi
        decay = simulate(random_initial(2.0, 64, seed=0), SolveConfig(dt=0.05, t_end=50.0, record_every=100))
        assert decay.l2[-1] < 1e-8

        # temporal order of the stepper
        st = random_initial(16.0, 64, seed=0, amplitude=3.0)

        def integrate(step_dt):
            state = st
            cfg = SolveConfig(dt=step_dt, t_end=1.0)
            for _ in range(int(round(1.0 / step_dt))):
                state = step(state, cfg)
            return state.half

        # |.|_2 of the half-spectrum error, by Parseval
        ref = integrate(1.0 / 2048.0)
        errs = [math.sqrt(2.0 * 16.0 * np.sum(_power(integrate(h) - ref))) for h in (1.0 / 32.0, 1.0 / 64.0)]
        order = float(np.log2(errs[0] / errs[1]))
        assert order >= 3.5

        # unstable mode count at L = 10 pi
        sig = linear_symbol(10.0 * np.pi, 128)
        n_growing = int(np.sum(sig[1:64] > 0.0))
        assert n_growing == 9
        c.detail = (
            f"energy residual {max_rel:.2e} (tol 1e-4), decay to {decay.l2[-1]:.1e}, "
            f"order {order:.2f}, {n_growing} growing modes at L=10pi"
        )


def test_criterion_8_variational_gradient_and_descent(capsys):
    with _Criterion(capsys, 8) as c:
        rng = np.random.default_rng(88)
        L, mu, n = math.pi, 1.0, 64
        dx = 2.0 * L / n
        worst = 0.0
        for _ in range(20):
            u = rng.standard_normal(n)
            u -= u.mean()
            _, g = bs_functional_and_gradient(u, L, mu)
            h = 1e-6
            g_fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                jp, _ = bs_functional_and_gradient(u + e, L, mu)
                jm, _ = bs_functional_and_gradient(u - e, L, mu)
                g_fd[i] = (jp - jm) / (2.0 * h * dx)
            g_fd -= g_fd.mean()
            rel = float(np.linalg.norm(g_fd - g) / np.linalg.norm(g))
            assert rel <= 1e-6
            worst = max(worst, rel)
        res = bs_optimal_potential()
        assert res.grad_norm < 1e-8
        assert np.all(np.diff(res.values) <= 0.0)
        c.detail = (
            f"gradient vs FD worst rel {worst:.2e} on 20 states; descent monotone over "
            f"{res.iterations} iterations to grad norm {res.grad_norm:.2e}"
        )


def test_criterion_9_thin_rectangle_corollary(capsys):
    with _Criterion(capsys, 9) as c:
        m = molinet(100.0)
        assert np.isclose(m.ly_max, 100.0 ** (-13.0 / 7.0), rtol=1e-6)
        assert np.isclose(molinet(100.0, Ly=1e-4).norm_bound, 10.0, rtol=1e-6)
        with pytest.raises(ConditionViolatedError):
            molinet(100.0, Ly=2.0 * m.ly_max)
        c.detail = (
            f"ly_max(100) = {m.ly_max:.6e}, bound(100, 1e-4) = 10; "
            "violated aspect condition raises"
        )
