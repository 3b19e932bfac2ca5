import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_twisted_algebra_loop, random_twisted_group_loop, unitarity_on_circle
from lagdpw import su3
from lagdpw.errors import SingularLoop
from lagdpw.loops import (LoopMatrix, algebra_twist_residual, loop_exp,
                          loop_product, loop_sum, max_distance_on_circle,
                          twist_residual)

A = su3.A_CLIFFORD
IDENT = LoopMatrix.identity()


def test_product_identity_and_index_arithmetic(rng):
    g = random_twisted_group_loop(rng)
    assert max_distance_on_circle(loop_product(IDENT, g), g) < 1e-14

    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = loop_product(LoopMatrix.monomial(-1, A), LoopMatrix.monomial(1, b))
    p = p.trim()
    assert p.min_degree == p.max_degree == 0
    assert np.allclose(p.coefficient(0), A @ b, atol=1e-14)


def test_exp_inverse_identity():
    e_plus = loop_exp(LoopMatrix.monomial(-1, A, twisted=True), 16)
    e_minus = loop_exp(LoopMatrix.monomial(-1, -A, twisted=True), 16)
    assert max_distance_on_circle(loop_product(e_plus, e_minus, 16), IDENT) < 1e-12


def test_product_window_contract(rng):
    g = random_twisted_group_loop(rng)
    h = random_twisted_group_loop(rng)
    full = loop_product(g, h)
    clipped = loop_product(g, h, trunc=5)
    for d in range(-5, 6):
        assert np.allclose(full.coefficient(d), clipped.coefficient(d), atol=0)
    assert clipped.min_degree >= -5 and clipped.max_degree <= 5
    assert clipped.twisted


def test_product_associativity(rng):
    a = random_twisted_group_loop(rng)
    b = random_twisted_group_loop(rng)
    c = random_twisted_group_loop(rng)
    left = loop_product(loop_product(a, b, 16), c, 16)
    right = loop_product(a, loop_product(b, c, 16), 16)
    assert max_distance_on_circle(left, right) < 1e-10


def test_twist_residual_examples():
    assert twist_residual(IDENT) < 1e-14

    exponent = LoopMatrix.from_coeffs({-1: A, 1: su3.tau(A)}, twisted=True)
    frame = loop_exp(exponent, 16)
    assert twist_residual(frame) < 1e-10

    # diag(2, 1/2, 1) is sigma-fixed (it has the K^C form diag(w, 1/w, 1));
    # a genuinely untwisted constant must leave that one-parameter family
    fixed = LoopMatrix.constant(np.diag([2.0, 0.5, 1.0]).astype(complex))
    assert twist_residual(fixed) < 1e-12
    bad = LoopMatrix.constant(np.diag([2.0, 1.0, 0.5]).astype(complex))
    assert twist_residual(bad) > 0.1


def test_twist_residual_singular_sample():
    m = np.diag([1.0, 1.0, 0.0]).astype(complex)
    with pytest.raises(SingularLoop):
        twist_residual(LoopMatrix.constant(m))


def test_algebra_coefficients_lie_in_eigenspaces(rng):
    xi = random_twisted_algebra_loop(rng)
    assert algebra_twist_residual(xi) < 1e-14
    # breaking one coefficient is detected
    bad = loop_sum(xi, LoopMatrix.monomial(1, np.diag([0.1, -0.1, 0.0])))
    assert algebra_twist_residual(bad) > 0.05


def test_group_coefficients_follow_entry_grading_not_eigenspaces(rng):
    """Group loops obey the mod-3 entry grading; the g_{d mod 6} pattern
    already fails for exp(lambda^{-1} A): the lambda^{-2} coefficient is
    proportional to A^2, which has entries outside the g_4 pattern."""
    g = loop_exp(LoopMatrix.monomial(-1, A, twisted=True), 8)
    c2 = g.coefficient(-2)
    assert np.max(np.abs(c2[~su3.group_slot_mask(-2)])) < 1e-15
    assert np.max(np.abs(c2 - su3.eigenspace_project(c2, (-2) % 6))) > 0.1

    h = random_twisted_group_loop(rng)
    for d in h.degrees:
        coeff = h.coefficient(d)
        assert np.max(np.abs(coeff[~su3.group_slot_mask(d)])) < 1e-12


def test_wiener_and_tail_norm():
    g = LoopMatrix.from_coeffs({-2: 0.25 * A, 0: np.eye(3), 1: 0.5 * A})
    assert g.wiener_norm() == pytest.approx(0.25 + 1.0 + 0.5)
    assert g.tail_norm(2) == pytest.approx(0.25)
    assert g.tail_norm(5) == 0.0


def test_evaluate_against_direct_sum(rng):
    g = random_twisted_group_loop(rng)
    lam = np.exp(0.83j)
    direct = sum(lam ** d * g.coefficient(d) for d in g.degrees)
    assert np.max(np.abs(g.evaluate(lam) - direct)) < 1e-13


def test_conj_transpose_is_pointwise_adjoint(rng):
    g = random_twisted_group_loop(rng)
    gs = g.conj_transpose()
    for lam in su3.unit_circle(6):
        assert np.max(np.abs(gs.evaluate(lam) - np.conj(g.evaluate(lam)).T)) < 1e-13


def test_unitarity_residual_detects():
    exponent = LoopMatrix.from_coeffs({-1: A, 1: su3.tau(A)}, twisted=True)
    assert unitarity_on_circle(loop_exp(exponent, 16)) < 1e-12
    assert unitarity_on_circle(LoopMatrix.constant(np.diag([2.0, 0.5, 1.0]))) > 0.5


def test_loop_exp_matches_pointwise_expm(rng):
    xi = random_twisted_algebra_loop(rng)
    g = loop_exp(xi, 16)
    for lam in su3.unit_circle(5):
        assert np.max(np.abs(g.evaluate(lam) - su3.expm3(xi.evaluate(lam)))) < 1e-12


# -- the batched S^1 path against a per-sample reference ------------------------

def _ref_distance(a, b, samples=24):
    return max(float(np.linalg.norm(a.evaluate(l) - b.evaluate(l), 2))
               for l in su3.unit_circle(samples))


def _ref_unitarity(g, samples=24):
    return max(float(np.linalg.norm(np.conj(v).T @ v - su3.IDENTITY, 2))
               for v in (g.evaluate(l) for l in su3.unit_circle(samples)))


def _ref_twist(g, samples=24):
    # eps * lambda is formed over the whole array: numpy may round a
    # scalar complex product differently from an array one
    lams = su3.unit_circle(samples)
    worst = 0.0
    for lam, eps_lam in zip(lams, su3.EPS * lams):
        sig = su3.P @ np.linalg.inv(g.evaluate(lam).T) @ su3.P
        worst = max(worst, float(np.linalg.norm(g.evaluate(eps_lam) - sig, 2)))
    return worst


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), samples=st.integers(1, 40))
def test_circle_residuals_match_per_sample_reference(seed, samples):
    rng = np.random.default_rng(seed)
    g = random_twisted_group_loop(rng)
    h = random_twisted_group_loop(rng)
    assert max_distance_on_circle(g, h, samples) == _ref_distance(g, h, samples)
    assert unitarity_on_circle(g, samples) == _ref_unitarity(g, samples)
    assert twist_residual(g, samples) == _ref_twist(g, samples)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), theta=st.floats(0.0, 2 * np.pi))
def test_evaluate_is_evaluate_many_of_one(seed, theta):
    g = random_twisted_group_loop(np.random.default_rng(seed))
    for lam in (np.exp(1j * theta), complex(np.exp(1j * theta)), 1.0):
        assert np.array_equal(g.evaluate(lam), g.evaluate_many([lam])[0])


# -- the power-table kernel against an independent Horner reference ------------

def _horner_evaluate_many(g, lams):
    """g at each of lams by Horner over the degree window: the independent reference."""
    pw = np.asarray(lams)[:, None, None]
    acc = np.zeros((len(pw), 3, 3), dtype=complex)
    for c in g.coeffs[::-1]:
        acc = acc * pw + c
    return acc * pw ** g.min_degree


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lo=st.integers(-40, 8),
       radius=st.just(1.0) | st.floats(0.5, 2.0), samples=st.integers(1, 40), data=st.data())
def test_evaluate_many_matches_horner_reference(seed, lo, radius, samples, data):
    # Off S^1 the rounding of both routes grows with the window: at 73 degrees
    # and |lambda| = 2 they differ by up to 24 eps * scale, so off-circle
    # windows stay at the 33 degrees of a trunc-16 loop.
    span = data.draw(st.integers(1, 73 if radius == 1.0 else 33), label="span")
    rng = np.random.default_rng(seed)
    g = LoopMatrix(rng.standard_normal((span, 3, 3)) + 1j * rng.standard_normal((span, 3, 3)),
                   lo)
    lams = radius * np.exp(2j * np.pi * rng.random(samples))
    weights = np.abs(lams)[:, None] ** np.arange(lo, lo + span)
    scale = weights @ np.max(np.abs(g.coeffs), axis=(1, 2))  # sum_d |lambda|^d max|C_d|
    gap = np.max(np.abs(g.evaluate_many(lams) - _horner_evaluate_many(g, lams)), axis=(1, 2))
    assert np.all(gap <= 16 * np.finfo(float).eps * scale)
