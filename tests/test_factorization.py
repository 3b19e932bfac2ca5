import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (bundled_spec, random_twisted_group_loop, twist_residual,
                      unitarity_on_circle)
from lagdpw import dpw, factorization, su3
from lagdpw.errors import DomainError, IllConditioned, OutsideBigCell
from lagdpw.factorization import birkhoff, iwasawa
from lagdpw.loops import LoopMatrix, loop_exp, loop_product, max_distance_on_circle

A = su3.A_CLIFFORD
Z = 0.7 - 0.4j


def clifford_minus(z):
    return loop_exp(LoopMatrix.monomial(-1, z * A, twisted=True), 16)


def clifford_frame(z):
    exponent = LoopMatrix.from_coeffs(
        {-1: z * A, 1: np.conj(z) * su3.tau(A)}, twisted=True)
    return loop_exp(exponent, 16)


# -- Birkhoff -------------------------------------------------------------

def test_birkhoff_constant_unitary_is_plus_loop():
    g = LoopMatrix.constant(su3.expm3(0.3 * (A + su3.tau(A))))
    fac = birkhoff(g, 16)
    assert max_distance_on_circle(fac.f_minus, LoopMatrix.identity()) == 0.0
    assert max_distance_on_circle(fac.f_plus, g) < 1e-14


def test_birkhoff_identity():
    fac = birkhoff(LoopMatrix.identity(), 16)
    assert fac.residual < 1e-14
    assert max_distance_on_circle(fac.f_plus, LoopMatrix.identity()) < 1e-14


def test_birkhoff_splits_commuting_exponential():
    # [A, tau(A)] = 0, so the frame splits exactly into minus and plus parts
    assert np.max(np.abs(A @ su3.tau(A) - su3.tau(A) @ A)) < 1e-14
    fac = birkhoff(clifford_frame(Z), 16)
    oracle = clifford_minus(Z)
    for d in range(-16, 1):
        assert np.max(np.abs(fac.f_minus.coefficient(d)
                             - oracle.coefficient(d))) < 1e-10
    assert fac.residual < 1e-10


def test_birkhoff_minus_factor_normalized_exactly():
    fac = birkhoff(clifford_frame(Z), 16)
    assert np.array_equal(fac.f_minus.coefficient(0), np.eye(3, dtype=complex))


def test_birkhoff_outside_big_cell():
    # nonzero partial indices: diag(lambda, lambda^{-1}, 1)
    g = LoopMatrix.from_coeffs({
        -1: np.diag([0.0, 1.0, 0.0]).astype(complex),
        0: np.diag([0.0, 0.0, 1.0]).astype(complex),
        1: np.diag([1.0, 0.0, 0.0]).astype(complex)})
    with pytest.raises(OutsideBigCell):
        birkhoff(g, 8)


def test_birkhoff_roundtrip_random(rng):
    worst = 0.0
    for _ in range(20):
        g = random_twisted_group_loop(rng)
        fac = birkhoff(g, 16)
        worst = max(worst, fac.residual)
    assert worst < 1e-8


def test_birkhoff_twisted_flag_alone_does_not_grade(rng):
    # off-grade mass under a twisted flag takes the ungraded system, as in iwasawa
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    g = loop_product(LoopMatrix.constant(q, twisted=True), clifford_frame(Z))
    assert g.twisted and not factorization._grade_split(g)
    assert birkhoff(g, 16).residual < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, 1.0))
def test_birkhoff_property_on_random_twisted_loops(seed, amp):
    g = random_twisted_group_loop(np.random.default_rng(seed), amp=amp)
    assert factorization._grade_split(g)
    fac = birkhoff(g, 16)
    single = birkhoff(LoopMatrix(g.coeffs, g.min_degree, twisted=False), 16)
    assert max(max_distance_on_circle(fac.f_minus, single.f_minus),
               max_distance_on_circle(fac.f_plus, single.f_plus)) < 1e-12
    assert fac.residual < 1e-8
    assert np.array_equal(fac.f_minus.coefficient(0), np.eye(3))
    assert -16 <= fac.f_minus.min_degree and fac.f_minus.max_degree == 0
    assert 0 <= fac.f_plus.min_degree and fac.f_plus.max_degree <= 16
    again = birkhoff(g, 16)
    assert np.array_equal(again.f_minus.coeffs, fac.f_minus.coeffs)
    assert np.array_equal(again.f_plus.coeffs, fac.f_plus.coeffs)


# -- Iwasawa --------------------------------------------------------------

def test_iwasawa_constant_unitary():
    u = su3.expm3(0.3 * (A + su3.tau(A)))
    fac = iwasawa(LoopMatrix.constant(u, twisted=True), 16)
    assert max_distance_on_circle(fac.unitary, LoopMatrix.constant(u)) < 1e-13
    assert max_distance_on_circle(fac.v_plus, LoopMatrix.identity()) < 1e-13


def test_iwasawa_identity():
    fac = iwasawa(LoopMatrix.identity(), 16)
    assert fac.residual < 1e-14


def test_iwasawa_clifford_example():
    fac = iwasawa(clifford_minus(Z), 16)
    assert max_distance_on_circle(fac.unitary, clifford_frame(Z)) < 1e-12
    v_oracle = loop_exp(
        LoopMatrix.monomial(1, -np.conj(Z) * su3.tau(A), twisted=True), 16)
    assert max_distance_on_circle(fac.v_plus, v_oracle) < 1e-12


def test_iwasawa_normalization_and_membership(rng):
    g = random_twisted_group_loop(rng)
    fac = iwasawa(g, 16)
    v0 = fac.v_plus.coefficient(0)
    # twisted plus-loops have diagonal lambda=0 coefficient, positive diagonal
    off = v0 - np.diag(np.diagonal(v0))
    assert np.max(np.abs(off)) < 1e-10
    assert np.all(np.diagonal(v0).real > 0)
    assert np.max(np.abs(np.diagonal(v0).imag)) < 1e-10
    assert fac.v_plus.min_degree >= 0
    assert unitarity_on_circle(fac.unitary) < 1e-9
    assert twist_residual(fac.unitary) < 1e-9


def test_iwasawa_roundtrip_and_determinism(rng):
    worst = 0.0
    g = None
    for _ in range(20):
        g = random_twisted_group_loop(rng)
        fac = iwasawa(g, 16)
        worst = max(worst, fac.residual)
    assert worst < 1e-8
    f1 = iwasawa(g, 16)
    f2 = iwasawa(g, 16)
    assert np.array_equal(f1.unitary.coeffs, f2.unitary.coeffs)
    assert np.array_equal(f1.v_plus.coeffs, f2.v_plus.coeffs)


def test_iwasawa_idempotent_on_unitary_factor(rng):
    g = random_twisted_group_loop(rng)
    fac = iwasawa(g, 16)
    again = iwasawa(fac.unitary, 16)
    assert max_distance_on_circle(again.unitary, fac.unitary) < 1e-9
    assert max_distance_on_circle(again.v_plus, LoopMatrix.identity()) < 1e-9


def test_both_engines_trivial_on_plus_loops(rng):
    xi = su3.eigenspace_project(
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), 1)
    g = loop_exp(LoopMatrix.monomial(1, 0.4 * xi, twisted=True), 16)
    bk = birkhoff(g, 16)
    assert max_distance_on_circle(bk.f_minus, LoopMatrix.identity()) == 0.0
    iw = iwasawa(g, 16)
    assert max_distance_on_circle(iw.unitary, LoopMatrix.identity()) < 1e-10


def test_iwasawa_ill_conditioned():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = 1.0
    with pytest.raises(IllConditioned):
        iwasawa(LoopMatrix.constant(m), 8)


def _routes_agree(g, trunc):
    """The grade split of g, and its largest S^1 gap in h and v_plus to the single QR."""
    assert factorization._grade_split(g)
    graded = iwasawa(g, trunc)
    single = iwasawa(LoopMatrix(g.coeffs, g.min_degree, twisted=False), trunc)
    return graded, max(max_distance_on_circle(graded.unitary, single.unitary),
                       max_distance_on_circle(graded.v_plus, single.v_plus))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, 1.0))
def test_iwasawa_property_on_random_twisted_loops(seed, amp):
    g = random_twisted_group_loop(np.random.default_rng(seed), amp=amp)
    fac, gap = _routes_agree(g, 16)
    assert unitarity_on_circle(fac.unitary) < 1e-9
    assert twist_residual(fac.unitary) < 1e-9
    v0 = fac.v_plus.coefficient(0)
    assert np.array_equal(v0, np.diag(np.diagonal(v0)))
    assert np.all(np.diagonal(v0).real > 0)
    assert np.max(np.abs(np.diagonal(v0).imag)) < 1e-12
    assert fac.residual < 1e-8
    assert gap < 1e-12


@pytest.mark.parametrize("trunc", [16, 36])
@pytest.mark.parametrize("name", ["clifford", "radial_ab", "radial_k1", "rotational_m4", "rp2"])
def test_iwasawa_routes_agree_on_outer_ring(name, trunc):
    spec, run = bundled_spec(name)
    grid = dpw.GridSpec.from_dict(run["grid"])
    for z in grid.nodes()[-grid.n_theta:]:
        _, gap = _routes_agree(dpw.integrate_frame(spec, z, trunc), trunc)
        assert gap < 1e-12, (z, gap)


def test_iwasawa_single_qr_for_off_grade_mass():
    # a twisted flag alone does not select the grade split
    u = su3.expm3(0.3 * (A + su3.tau(A)))
    assert not factorization._grade_split(LoopMatrix.constant(u, twisted=True))
    assert not factorization._grade_split(LoopMatrix.constant(np.eye(3), twisted=False))
    assert factorization._grade_split(clifford_minus(Z))


@pytest.mark.parametrize("split", [birkhoff, iwasawa])
@pytest.mark.parametrize("trunc", [0, -1])
def test_split_rejects_trunc_below_one(split, trunc):
    g = random_twisted_group_loop(np.random.default_rng(3))
    with pytest.raises(DomainError, match="trunc >= 1"):
        split(g, trunc)
