"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is sized for desk scale (about a minute).
"""

import math

import numpy as np

from conftest import bundled_spec, random_twisted_group_loop
from lagdpw.dpw import (GridSpec, PipelineSurface, clifford_frame_loop, axis_log_v0,
                        frame_point, rp2_oracle, surface_sample)
from lagdpw.factorization import birkhoff, iwasawa
from lagdpw.geometry import (certify, homogeneity_frame_residual,
                             hopf_coefficient, symmetry_residual,
                             tzitzeica_residual)
from lagdpw.loops import loop_sum
from lagdpw.painleve import PainleveParams, crosscheck, solve_piii
from lagdpw.periodicity import closing_delta, closing_report

BUNDLED = ("clifford", "rp2", "radial_k1", "radial_ab", "rotational_m4")
# specs immersed at the base point z = 0 (Wu's formula needs a(0) != 0;
# radial_k1 has a branch point there and its cubic form is checked instead)
IMMERSED = ("clifford", "rp2", "radial_ab", "rotational_m4")


def report(n, ok, text):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {n}: {text}"


def test_criterion_1_clifford_oracle_equivalence():
    spec, run = bundled_spec("clifford")
    grid = GridSpec.from_dict(run["grid"])  # 9 x 9 over |z| <= 2
    trunc = 16
    worst_frame = worst_u = worst_psi = 0.0
    for z in grid.nodes():
        fp = frame_point(spec, z, trunc)
        oracle = clifford_frame_loop(z, trunc)
        worst_frame = max(worst_frame,
                          loop_sum(fp.frame, oracle, sign=-1.0).wiener_norm())
        s = surface_sample(spec, z, 1.0, trunc)
        worst_u = max(worst_u, abs(s.u))
        worst_psi = max(worst_psi, abs(s.psi + 1.0))
    samples = PipelineSurface(spec, 1.0, trunc).samples
    for z in (0.8, 1.2 - 0.7j):
        worst_psi = max(worst_psi, abs(hopf_coefficient(samples, z) + 1.0))
    ok = worst_frame < 1e-8 and worst_u < 1e-8 and worst_psi < 1e-6
    report(1, ok, f"frame {worst_frame:.2e} (<1e-8), u {worst_u:.2e} (<1e-8), "
                  f"psi {worst_psi:.2e} (<1e-6) on the 9x9 grid, trunc 16")


def test_criterion_2_psi0_oracle_equivalence():
    spec, run = bundled_spec("rp2")
    grid = GridSpec(kind="polar", r_max=2.0, n_r=5, n_theta=8)
    samples = PipelineSurface(spec, 1.0, 16).samples
    lifts, exact = samples(grid.nodes()).lift, rp2_oracle(1j, grid.nodes(), 1.0).lift
    phase = np.einsum("nlk,nlk->nl", np.conj(exact), lifts)[..., None]
    worst_lift = float(np.max(np.abs(lifts - phase / np.abs(phase) * exact)))
    nodes = [z for z in grid.nodes() if abs(z) < 1.8][:12]
    rep = certify(samples, nodes, h=1e-3)
    ok = worst_lift < 1e-6 and rep.horizontality < 1e-5 and rep.conformality < 1e-5
    report(2, ok, f"lift vs closed form {worst_lift:.2e} (<1e-6), "
                  f"horizontality {rep.horizontality:.2e}, "
                  f"conformality {rep.conformality:.2e} (<1e-5)")


def test_criterion_3_wu_round_trip():
    probes = [r * np.exp(2j * np.pi * (m + 0.3) / 4)
              for r in (0.5, 1.0) for m in range(4)]
    worst = 0.0
    detail = []
    for name in IMMERSED:
        spec, _ = bundled_spec(name)
        samples = PipelineSurface(spec, 1.0, 16).samples
        u00 = samples(0.0).u
        w_axis = axis_log_v0(spec)
        err = 0.0
        for z in probes:
            a_regen = math.exp(u00 / 2) * np.exp(-2.0 * w_axis(z))
            psi_fd = hopf_coefficient(samples, z, h=1e-3)
            b_regen = -psi_fd / a_regen ** 2
            err = max(err, abs(a_regen - spec.a(z)), abs(b_regen - spec.b(z)))
        detail.append(f"{name} {err:.2e}")
        worst = max(worst, err)
    ok = worst < 1e-6
    report(3, ok, "regenerated potential coefficients on |z| <= 1: "
                  + ", ".join(detail) + " (<1e-6)")


def test_criterion_4_integrability_certification():
    h = 1e-3
    worst_tz = worst_cod = 0.0
    detail = []
    for name in BUNDLED:
        spec, run = bundled_spec(name)
        grid = GridSpec.from_dict(run["grid"])
        nodes = [z for z in grid.nodes() if abs(z) > 1e-9]
        rep = certify(PipelineSurface(spec, 1.0, 16).samples, nodes, h)
        tz, cod = rep.tzitzeica, rep.codazzi
        detail.append(f"{name} tz {tz:.1e} cod {cod:.1e}")
        worst_tz = max(worst_tz, tz)
        worst_cod = max(worst_cod, cod)

    # convergence order of the stencil, measured where the residual is far
    # above the sampling noise floor (the closed-form rp2 surface)
    def rp2_res(step):
        z0 = 0.6 + 0.3j
        ii, jj = np.meshgrid(np.arange(-1, 2), np.arange(-1, 2), indexing="ij")
        zs = z0 + (jj + 1j * ii) * step
        u = rp2_oracle(1j, zs).u
        return tzitzeica_residual(u, np.zeros_like(zs), step)

    ratio = rp2_res(2e-3) / rp2_res(1e-3)
    ok = worst_tz < 1e-4 and worst_cod < 1e-5 and 3.0 <= ratio <= 5.0
    report(4, ok, f"tzitzeica {worst_tz:.2e} (<1e-4), codazzi {worst_cod:.2e} "
                  f"(<1e-5) at h=1e-3 on every bundled grid; halving ratio "
                  f"{ratio:.2f} in [3,5]; " + ", ".join(detail))


def test_criterion_5_painleve_exactness():
    params = PainleveParams(0, 0, 1.0, 1.0)
    sol = solve_piii(params, s_max=10.0, tol=1e-10, s0=1e-3)
    gap = float(np.max(np.abs(sol.h - sol.s_samples ** (1.0 / 3.0))))
    mask = (sol.s_samples >= 1e-3) & (sol.s_samples <= 1e-2)
    a = np.vstack([np.log(sol.s_samples[mask]), np.ones(mask.sum())]).T
    slope, _ = np.linalg.lstsq(a, np.log(sol.h[mask]), rcond=None)[0]
    slope_err = abs(slope - 1.0 / 3.0) / (1.0 / 3.0)
    ok = gap < 1e-6 and slope_err < 0.02
    report(5, ok, f"h vs s^(1/3) {gap:.2e} (<1e-6) on [1e-3,10]; "
                  f"slope error {100 * slope_err:.3f}% (<2%)")


def test_criterion_6_painleve_dpw_crosscheck():
    spec, _ = bundled_spec("radial_ab")
    gap = crosscheck(spec, (1e-3, 5.0), trunc=36)
    ok = gap < 1e-4
    report(6, ok, f"DPW vs PIII metric gap {gap:.2e} (<1e-4) on s in [1e-3,5] "
                  f"for the a=1, b=2 constant radial potential")


def test_criterion_7_closing_conditions():
    lams = (1.0, 1j, np.exp(1j * np.pi / 7))
    worst = 0.0
    count = 0
    all_closed = True
    for l1 in (-1, 0, 1):
        for l2 in (-1, 0, 1):
            for l3 in (-1, 0, 1):
                for lam in lams:
                    rep = closing_report(l1, l2, l3, lam)
                    all_closed &= rep.closed and abs(rep.c ** 3 - 1) < 1e-9
                    worst = max(worst, rep.residual)
                    count += 1
    delta_exact = abs(closing_delta(1, 0, 0, 1.0) - 2 * np.pi / 3)
    ok = all_closed and worst < 1e-9 and delta_exact < 1e-15 and count == 81
    report(7, ok, f"all 27 lattice tuples x 3 lambda_0: M = cI with c^3 = 1, "
                  f"worst residual {worst:.2e} (<1e-9); delta(1,0,0) formula "
                  f"off by {delta_exact:.1e}")


def test_criterion_8_symmetries():
    spec_m4, _ = bundled_spec("rotational_m4")
    nodes = [0.3, 0.7, 0.5 + 0.4j, -0.6j, 0.8 - 0.2j]
    res_m4 = symmetry_residual(spec_m4, lambda z: 1j * z,
                               np.diag([1j, -1j, 1.0]), nodes, 1.0, 16)
    spec_k1, _ = bundled_spec("radial_k1")
    res_hom = homogeneity_frame_residual(spec_k1, (0.4, 1.1, 2.3),
                                         (0.5 + 0.2j, 0.8), trunc=16)
    ok = res_m4 < 1e-7 and res_hom < 1e-7
    report(8, ok, f"m=4 surface symmetry {res_m4:.2e} (<1e-7); radial (1,0) "
                  f"frame transport {res_hom:.2e} (<1e-7) at 3 sampled t")


def test_criterion_9_factorization_round_trips():
    rng = np.random.default_rng(911)
    worst_iw = worst_bk = 0.0
    g = None
    for _ in range(50):
        g = random_twisted_group_loop(rng)
        worst_iw = max(worst_iw, iwasawa(g, 16).residual)
        worst_bk = max(worst_bk, birkhoff(g, 16).residual)
    f1 = iwasawa(g, 16)
    f2 = iwasawa(g, 16)
    deterministic = (np.array_equal(f1.unitary.coeffs, f2.unitary.coeffs)
                     and np.array_equal(f1.v_plus.coeffs, f2.v_plus.coeffs))
    ok = worst_iw < 1e-8 and worst_bk < 1e-8 and deterministic
    report(9, ok, f"50 random twisted loops: iwasawa {worst_iw:.2e}, "
                  f"birkhoff {worst_bk:.2e} (<1e-8); bit-exact determinism "
                  f"{deterministic}")
