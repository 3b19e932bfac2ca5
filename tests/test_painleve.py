import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bundled_spec
from lagdpw.errors import DomainError, NotRadialPIII, SeedTooLarge
from lagdpw.painleve import (PainleveParams, asymptotic_seed, crosscheck,
                             metric_to_h, piii_rhs, polar_tzitzeica_residual,
                             series_coefficients, series_seed, solve_piii)
from lagdpw.potentials import (Poly, clifford_spec, normalized_spec,
                               radial_monomial_spec)

P00 = PainleveParams(0, 0, 1.0, 1.0)


def exact_h(s):
    return s ** (1.0 / 3.0)


def test_rhs_exact_solution_machine_relative():
    # h = s^{1/3} solves the equation algebraically iff |psi0| = 1
    for s in (1e-3, 1e-2, 0.3, 1.0, 7.5):
        h = exact_h(s)
        hd = h / (3 * s)
        hdd = -2 * h / (9 * s * s)
        scale = abs(hd ** 2 / h) + abs(hd / s) + (16 / 9) * (h * h / s + 1 / h)
        assert abs(hdd - piii_rhs(s, h, hd, P00)) <= 1e-12 * scale


def test_rhs_coefficients_k0n0():
    assert P00.coeff == pytest.approx(16.0 / 9.0)
    s, h = 2.0, 1.3
    val = piii_rhs(s, h, 0.0, P00)
    assert val == pytest.approx((16 / 9) * (1.0 / h - h * h / s))


def test_rhs_constant_h_formula():
    p = PainleveParams(1, 2, 0.8, 1.0)
    c = 16.0 / (2 * 1 + 2 + 3) ** 2
    s, h = 1.7, 2.2
    assert piii_rhs(s, h, 0.0, p) == pytest.approx(c * (0.8 ** 2 / h - h * h / s))


def test_rhs_domain_error():
    with pytest.raises(DomainError):
        piii_rhs(-1.0, 1.0, 0.0, P00)
    with pytest.raises(DomainError):
        piii_rhs(1.0, 0.0, 0.0, P00)


def test_substitution_exponents():
    assert P00.l == pytest.approx(1.5)
    assert P00.j == pytest.approx(1.0 / 3.0)
    p = PainleveParams(1, 0, 1.0, 1.0)
    assert float(p.l) == pytest.approx(2.5)
    assert float(p.slope) == pytest.approx(3.0 / 5.0)


def test_asymptotic_seed_examples():
    h0, hd0 = asymptotic_seed(P00, 1e-3)
    assert h0 == pytest.approx(1e-1)
    assert hd0 == pytest.approx((1.0 / 3.0) * h0 / 1e-3)
    h0, _ = asymptotic_seed(PainleveParams(0, 0, 1.0, 2.0), 1.0)
    assert h0 == pytest.approx(4.0)
    h0, _ = asymptotic_seed(PainleveParams(1, 0, 1.0, 1.0), 1e-3)
    assert h0 == pytest.approx((1e-3) ** (3.0 / 5.0))


def test_series_seed_exact_case():
    # |psi0| = |a_k| = 1, k = n = 0: both sides of m^2 c_m = [x^{m-1}] cancel
    assert series_coefficients(P00) == [0.0] * 13
    for s0 in (1e-7, 1e-3, 0.1):
        h0, hd0 = series_seed(P00, s0)
        assert h0 == s0 ** (1.0 / 3.0)
        assert hd0 == pytest.approx(s0 ** (-2.0 / 3.0) / 3.0, rel=1e-14)


def test_series_seed_leading_term_is_asymptotic_seed():
    p = PainleveParams(1, 0, 1.0, 1.3)
    for s0 in (1e-12, 1e-9):
        assert series_seed(p, s0)[0] == pytest.approx(asymptotic_seed(p, s0)[0], rel=1e-6)


def test_series_seed_rejects_unusable_input():
    with pytest.raises(DomainError):
        series_seed(P00, 0.0)
    with pytest.raises(DomainError):
        series_seed(P00, math.nan)
    # |a_k|^2 underflows and |psi0|/|a_k|^2 overflows: the seed is not finite
    with pytest.raises(SeedTooLarge):
        series_seed(PainleveParams(0, 0, 1.0, 1e-200), 1e-3)
    # |a_k|^2 overflows
    with pytest.raises(SeedTooLarge):
        series_seed(PainleveParams(0, 0, 1.0, 1e200), 1e-3)


def test_solve_exact_case():
    sol = solve_piii(P00, s_max=10.0, tol=1e-10)
    assert np.max(np.abs(sol.h - exact_h(sol.s_samples))) < 1e-6
    assert sol.blowup_at is None


def test_solve_single_sample():
    sol = solve_piii(P00, s_max=1e-3, tol=1e-10, s0=1e-3)
    assert sol.s_samples.shape == (1,)
    assert sol.h[0] == pytest.approx(1e-1)


def test_solve_nonunit_ak_deviates_downstream():
    # |a_k| = 1.3: near 0 the solution follows 1.69 s^{1/3}, away it leaves it
    p = PainleveParams(0, 0, 1.0, 1.3)
    sol = solve_piii(p, s_max=10.0, tol=1e-10, s0=1e-7)
    near = abs(sol.interp(2e-7) - 1.69 * (2e-7) ** (1 / 3))
    far = abs(sol.interp(8.0) - 1.69 * 8.0 ** (1 / 3))
    assert near < 1e-6
    assert far > 0.05


def test_asymptotics_recovery_by_fit():
    p = PainleveParams(0, 0, 2.0, 1.0)  # |psi0| = 2 (the a=1, b=2 case)
    sol = solve_piii(p, s_max=5.0, tol=1e-10, s0=1e-7)
    mask = (sol.s_samples >= 1e-3) & (sol.s_samples <= 1e-2)
    a = np.vstack([np.log(sol.s_samples[mask]),
                   np.ones(mask.sum())]).T
    slope, intercept = np.linalg.lstsq(a, np.log(sol.h[mask]), rcond=None)[0]
    assert abs(slope - float(p.slope)) < 0.02 * float(p.slope)
    assert abs(intercept - 2 * math.log(p.ak_abs)) < 0.05


def test_dual_seed_guard_detects_asymptotics_misuse():
    # |psi0| = 2 at s0 = 0.5: beyond the radius where SERIES_TERMS terms of
    # the seed series are accurate (the seeds at s0 and s0/2 agree up to
    # s0 = 0.1), so the neglected tail is far above tol: the guard must fire
    p = PainleveParams(0, 0, 2.0, 1.0)
    with pytest.raises(SeedTooLarge):
        solve_piii(p, s_max=5.0, tol=1e-10, s0=0.5)


@settings(max_examples=12, deadline=None)
@given(k=st.integers(0, 2), n=st.integers(0, 2),
       psi0=st.floats(0.5, 2.0), ak=st.floats(0.5, 2.0))
def test_series_seed_is_stable_under_shrinking_s0(k, n, psi0, ak):
    # the series seed is accurate at both seeds, so neither trips the guard
    # and the two solutions agree where both exist, on the guard's scale
    p = PainleveParams(k, n, psi0, ak)
    tol = 1e-10
    sol_a = solve_piii(p, s_max=5.0, tol=tol, s0=1e-6)
    sol_b = solve_piii(p, s_max=5.0, tol=tol, s0=1e-7)
    probe = np.geomspace(1e-6, min(sol_a.s_samples[-1], sol_b.s_samples[-1]), 64)
    h_a = sol_a.interp(probe)
    gap = np.max(np.abs(h_a - sol_b.interp(probe)))
    assert gap <= 100 * tol * max(float(np.max(np.abs(h_a))), 1.0)


def test_uniqueness_two_seeds_agree():
    sol_a = solve_piii(P00, s_max=5.0, tol=1e-10, s0=1e-3)
    sol_b = solve_piii(P00, s_max=5.0, tol=1e-10, s0=5e-4)
    probe = np.geomspace(1e-3, 5.0, 50)
    assert np.max(np.abs(sol_a.interp(probe) - sol_b.interp(probe))) < 100 * 1e-10


def test_metric_to_h_examples():
    s, h = metric_to_h([0.5, 1.0, 2.0], [0.0, 0.0, 0.0], P00)
    assert np.allclose(h, s ** (1 / 3))
    s, h = metric_to_h([1.0], [math.log(4.0)], P00)
    assert h[0] == pytest.approx(4.0 * s[0] ** (1 / 3))
    s, h = metric_to_h([], [], P00)
    assert s.size == 0 and h.size == 0


def test_crosscheck_clifford():
    assert crosscheck(clifford_spec(), (1e-3, 5.0), trunc=20) < 1e-6


def test_crosscheck_unequal_ab():
    spec = radial_monomial_spec(0, 0, 1.0, b_n=2.0)
    assert crosscheck(spec, (1e-3, 5.0), trunc=36) < 1e-4


def test_crosscheck_radial_k1():
    # k = 1: the first correction to the leading power law is O(s^{4/5}),
    # which only the series seed captures
    spec, _ = bundled_spec("radial_k1")
    assert crosscheck(spec, (1e-3, 5.0), trunc=36) < 1e-4


def test_crosscheck_rejects_zero_psi():
    rp2 = normalized_spec(Poly.of(1.0), Poly.of(0.0))
    with pytest.raises(NotRadialPIII):
        crosscheck(rp2)


def test_polar_tzitzeica_consistency():
    p = PainleveParams(0, 0, 2.0, 1.0)
    sol = solve_piii(p, s_max=5.0, tol=1e-10, s0=1e-7)
    assert polar_tzitzeica_residual(p, sol) < 1e-4


def test_polar_tzitzeica_residual_matches_scalar_loop():
    # reference: the residual radius by radius, one dense call per point
    p = PainleveParams(1, 0, 1.0, 1.0)
    sol = solve_piii(p, s_max=5.0, tol=1e-10, s0=1e-7)
    l, jl = float(p.l), float(p.j * p.l)
    s = np.geomspace(max(sol.s_samples[0] * 4, 0.05), sol.s_samples[-1] * 0.9, 50)

    def u_and_du(rv):
        h, hd = sol.dense(np.atleast_1d(rv ** l))[:, 0]
        return math.log(h) - jl * math.log(rv), (hd / h) * l * rv ** (l - 1.0) - jl / rv

    worst = 0.0
    for rv in s ** (1.0 / l):
        u0, up = u_and_du(rv)
        upp = (u_and_du(rv + 5e-4)[1] - u_and_du(rv - 5e-4)[1]) / 1e-3
        psi_abs = p.psi0_abs * rv ** (2 * p.k + p.n)
        worst = max(worst, abs(upp + up / rv + 4 * math.exp(u0)
                               - 4 * psi_abs ** 2 * math.exp(-2 * u0)))
    assert polar_tzitzeica_residual(p, sol, n_probe=50) == pytest.approx(worst, rel=1e-9)
