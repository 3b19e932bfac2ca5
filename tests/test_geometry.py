import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import bundled_spec
from lagdpw.dpw import PipelineSurface, clifford_oracle, rp2_oracle
from lagdpw.errors import GridTooCoarse
from lagdpw.geometry import (certify, codazzi_residual, fubini_study_distance,
                             hopf_coefficient, symmetry_residual, tzitzeica_residual)
from lagdpw.periodicity import closing_delta
from lagdpw.potentials import Poly, clifford_spec, rotational_potential

NODES = [0.3, 0.8, 0.4 + 0.6j, -0.9j, -0.7 + 0.2j, 1.1 - 0.3j]


def clifford(lam=1.0):
    return lambda points: clifford_oracle(points, lam)


def rp2(lam=1.0):
    return lambda points: rp2_oracle(1j, points, lam)


def noisy_lift(samples, amp=1e-3):
    """A samples function with deterministic non-smooth noise on the lift."""
    def noise(z):
        rng = np.random.default_rng(abs(hash((round(z.real, 12), round(z.imag, 12)))) % 2 ** 32)
        return rng.standard_normal(3) + 1j * rng.standard_normal(3)

    def noisy(points):
        s = samples(points)
        kick = np.array([noise(z) for z in s.z.ravel()]).reshape(s.z.shape + (1, 3))
        return replace(s, lift=s.lift + amp * kick)
    return noisy


def test_structure_residuals_clifford_oracle():
    rep = certify(clifford(), NODES, h=1e-3)
    assert rep.horizontality < 1e-9
    assert rep.conformality < 1e-6


def test_structure_residuals_rp2_oracle():
    rep = certify(rp2(), NODES, h=1e-3)
    assert rep.horizontality < 1e-6
    assert rep.conformality < 1e-6


def test_structure_residuals_detect_noise():
    noisy = noisy_lift(clifford())
    rep = certify(noisy, NODES, h=1e-3)
    assert rep.horizontality > 1e-4


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        certify(clifford(), [0.1, 0.2], h=1e-3)
    with pytest.raises(GridTooCoarse):
        tzitzeica_residual(np.zeros((2, 2)), np.zeros((2, 2)), 1e-3)


def test_tzitzeica_residual_examples():
    h = 1e-3
    u = np.zeros((5, 5))
    psi = -np.ones((5, 5), dtype=complex)
    assert tzitzeica_residual(u, psi, h) == 0.0

    u1 = np.ones((5, 5))
    psi0 = np.zeros((5, 5), dtype=complex)
    assert tzitzeica_residual(u1, psi0, h) == pytest.approx(math.e)


def test_tzitzeica_rp2_closed_form():
    h = 1e-3
    z0 = 0.6 + 0.3j
    ii, jj = np.meshgrid(np.arange(-2, 3), np.arange(-2, 3), indexing="ij")
    zs = z0 + (jj + 1j * ii) * h
    u = rp2()(zs).u
    psi = np.zeros_like(zs)
    assert tzitzeica_residual(u, psi, h) < 1e-5


def test_tzitzeica_halving_ratio_rp2():
    z0 = 0.6 + 0.3j
    samples = rp2()

    def residual(h):
        ii, jj = np.meshgrid(np.arange(-1, 2), np.arange(-1, 2), indexing="ij")
        zs = z0 + (jj + 1j * ii) * h
        u = samples(zs).u
        return tzitzeica_residual(u, np.zeros_like(zs), h)

    r1 = residual(2e-3)
    r2 = residual(1e-3)
    assert 3.0 <= r1 / r2 <= 5.0


def test_codazzi_residual_examples():
    h = 1e-3
    psi = -np.ones((5, 5), dtype=complex)
    assert codazzi_residual(psi, h) == 0.0

    z0 = 0.4 + 0.2j
    ii, jj = np.meshgrid(np.arange(-2, 3), np.arange(-2, 3), indexing="ij")
    zs = z0 + (jj + 1j * ii) * h
    psi_holo = -0.7 * zs ** 3
    assert codazzi_residual(psi_holo, h) < 1e-8
    psi_anti = np.conj(zs)
    assert codazzi_residual(psi_anti, h) == pytest.approx(1.0, abs=1e-8)


def test_detector_completeness_corrupted_inputs(rng):
    h = 1e-3
    u = 1e-3 * rng.standard_normal((5, 5))
    psi = -np.ones((5, 5), dtype=complex)
    assert tzitzeica_residual(u, psi, h) > 1e-4
    psi_noise = psi + 1e-3 * rng.standard_normal((5, 5))
    assert codazzi_residual(psi_noise, h) > 1e-4


def test_certify_pipeline_clifford():
    rep = certify(PipelineSurface(clifford_spec(), 1.0, 16).samples, NODES, h=1e-3)
    assert rep.horizontality < 1e-5
    assert rep.conformality < 1e-5
    assert rep.codazzi < 1e-5
    assert rep.tzitzeica < 1e-4
    assert rep.unitarity < 1e-9
    assert rep.determinant < 1e-9
    assert rep.stencil_h == 1e-3


def test_certify_all_bundled_specs():
    from lagdpw.dpw import GridSpec
    for name in ("clifford", "rp2", "radial_k1", "radial_ab", "rotational_m4"):
        spec, run = bundled_spec(name)
        grid = GridSpec.from_dict(run["grid"])
        nodes = [z for z in grid.nodes() if abs(z) > 1e-9][::7][:6]
        rep = certify(PipelineSurface(spec, 1.0, 16).samples, nodes, h=1e-3)
        assert rep.horizontality < 1e-5, name
        assert rep.conformality < 1e-5, name
        assert rep.codazzi < 1e-5, name
        assert rep.tzitzeica < 1e-4, name
        assert rep.unitarity < 1e-8, name
        assert rep.determinant < 1e-8, name


def test_symmetry_residual_m4():
    spec, t_mat = rotational_potential(4, Poly.of(1.0), Poly.of(0.0, 1.0))
    res = symmetry_residual(spec, lambda z: 1j * z, np.diag([1j, -1j, 1.0]),
                            NODES, 1.0, 16)
    assert res < 1e-7


def test_symmetry_residual_identity_and_closing():
    cl = clifford_spec()
    res = symmetry_residual(cl, lambda z: z, np.eye(3), NODES[:5], 1.0, 16)
    assert res < 1e-12
    delta = closing_delta(1, 0, 0, 1.0)
    c = np.exp(4j * np.pi / 3)
    # translated nodes reach |z| ~ 2.6; trunc 24 keeps the frame tails small
    res = symmetry_residual(cl, lambda z: z + delta, c * np.eye(3),
                            NODES[:4], 1.0, 24)
    assert res < 1e-7


def test_fubini_study_distance_properties():
    u = np.array([1.0, 0, 0], dtype=complex)
    assert fubini_study_distance(u, np.exp(0.7j) * u) == 0.0
    v = np.array([0, 1.0, 0], dtype=complex)
    assert fubini_study_distance(u, v) == pytest.approx(np.pi / 2)


_VECTOR = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).map(
    lambda x: np.array(x[:3]) + 1j * np.array(x[3:]))


def _unitary(seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@settings(max_examples=200, deadline=None)
@given(_VECTOR, _VECTOR, st.floats(-math.pi, math.pi), st.integers(0, 2 ** 32 - 1))
def test_fubini_study_distance_is_accurate_at_both_ends(u, v, phi, seed):
    assume(np.linalg.norm(u) > 1e-3 and np.linalg.norm(v) > 1e-3)
    d = fubini_study_distance(u, v)
    # the same point of CP^2 is at distance zero to rounding, not sqrt(rounding)
    assert fubini_study_distance(u, np.exp(1j * phi) * u) <= 1e-15
    assert abs(d - fubini_study_distance(v, u)) <= 1e-15
    g = _unitary(seed)
    assert abs(d - fubini_study_distance(g @ u, g @ v)) <= 1e-14
    if d > 1e-3:  # where arccos is well conditioned the two agree
        c = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
        assert abs(d - math.acos(min(c, 1.0))) <= 1e-12


def test_hopf_coefficient_carries_family_factor():
    # f_zz . conj(f_zbar) at lambda0 equals -i lambda0^{-3} psi; the helper
    # divides the factor out, so Clifford gives -1 at every lambda0
    for lam in (1.0, np.exp(1j * np.pi / 5)):
        psi = hopf_coefficient(clifford(lam), 0.4 + 0.2j, h=1e-3)
        assert psi == pytest.approx(-1.0, abs=1e-7)
    raw = hopf_coefficient(clifford(1.0), 0.3, h=1e-3) / (1j * 1.0)
    assert raw == pytest.approx(1j, abs=1e-7)  # nu psi = (-i)(-1) = i


def test_certify_every_lambda0_from_shared_frames(monkeypatch):
    from lagdpw import dpw
    spec, _ = bundled_spec("rp2")
    lams = (1.0, 0.6 + 0.8j)
    ring = [0.6 * np.exp(2j * np.pi * k / 5) for k in range(5)]
    singles = [certify(PipelineSurface(spec, lam, 16).samples, ring) for lam in lams]
    solve, calls = dpw.frame_point, []
    monkeypatch.setattr(dpw, "frame_point", lambda *a: calls.append(a[1]) or solve(*a))
    both = certify(PipelineSurface(spec, lams, 16).samples, ring)
    assert len(calls) == 13 * len(ring)  # frames do not depend on lambda_0
    for name, value in vars(both).items():
        assert value == max(getattr(s, name) for s in singles), name


def test_hopf_coefficient_needs_one_lambda0():
    with pytest.raises(ValueError):
        hopf_coefficient(PipelineSurface(bundled_spec("rp2")[0], (1.0, 1j), 16).samples, 0.4)


def test_certify_skips_singular_nodes_and_counts_the_rest():
    from lagdpw.potentials import radial_monomial_spec
    # the branch point z = 0 of a k = 1 monomial makes a node at 1e-12 singular
    spec = radial_monomial_spec(1, 0, 1.0, psi0=-1.0)
    regular = [0.5, 0.5j, -0.5, -0.5j, 0.3 + 0.3j]
    samples = PipelineSurface(spec, 1.0, 16).samples
    rep = certify(samples, regular + [1e-12])
    assert rep == certify(samples, regular)
    with pytest.raises(GridTooCoarse):
        certify(samples, regular[:4] + [1e-12])


_FIELD = st.floats(-1.0, 1.0, allow_subnormal=False)
_NODES = st.lists(st.builds(complex, _FIELD, _FIELD), min_size=10, max_size=10)
# examples per surface: the oracles are cheap, rp2's pipeline solves 390 points each
_BATCH_SURFACES = {"clifford": (lambda: clifford(np.exp(0.3j)), 8),
                   "rp2_oracle": (lambda: rp2(0.6 + 0.8j), 8),
                   "rp2_pipeline": (lambda: PipelineSurface(
                       bundled_spec("rp2")[0], (1.0, 0.6 + 0.8j), 16).samples, 2)}


@pytest.mark.parametrize("name", sorted(_BATCH_SURFACES))
def test_certify_does_not_depend_on_the_batch(name):
    make, examples = _BATCH_SURFACES[name]
    surf = make()

    @settings(max_examples=examples, deadline=None)
    @given(_NODES, st.permutations(range(10)))
    def check(nodes, order):
        whole = certify(surf, nodes)
        shuffled = [nodes[i] for i in order]
        assert certify(surf, shuffled) == whole
        halves = [certify(surf, shuffled[:5]), certify(surf, shuffled[5:])]
        for name, value in vars(whole).items():
            assert value == max(getattr(h, name) for h in halves), name

    check()
