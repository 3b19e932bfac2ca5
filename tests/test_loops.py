import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (random_twisted_algebra_loop, random_twisted_group_loop, twist_residual,
                      unitarity_on_circle)
from lagdpw import loops, su3
from lagdpw.errors import SingularLoop
from lagdpw.loops import (EXP_GUARD, LoopMatrix, algebra_twist_residual, loop_exp,
                          loop_product, loop_scale, loop_sum, max_distance_on_circle)

A = su3.A_CLIFFORD
IDENT = LoopMatrix.identity()


def _clipped_product(a, b, trunc):
    """a b clipped to |d| <= trunc by the kernel loop_exp multiplies with."""
    c, lo = loops._cauchy(a.coeffs, a.min_degree, b.coeffs, b.min_degree, trunc)
    return LoopMatrix(c, lo, a.twisted and b.twisted)


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
    assert max_distance_on_circle(_clipped_product(e_plus, e_minus, 16), IDENT) < 1e-12


def test_product_window_contract(rng):
    g = random_twisted_group_loop(rng)
    h = random_twisted_group_loop(rng)
    full = loop_product(g, h)
    clipped = _clipped_product(g, h, 5)
    for d in range(-5, 6):
        assert np.allclose(full.coefficient(d), clipped.coefficient(d), atol=0)
    assert clipped.min_degree >= -5 and clipped.max_degree <= 5
    assert clipped.twisted


def test_product_associativity(rng):
    a = random_twisted_group_loop(rng)
    b = random_twisted_group_loop(rng)
    c = random_twisted_group_loop(rng)
    left = _clipped_product(_clipped_product(a, b, 16), c, 16)
    right = _clipped_product(a, _clipped_product(b, c, 16), 16)
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


# -- the stacked Cauchy-product kernel against the per-coefficient loop ---------

def _ref_product(a, b, trunc=None):
    """The Cauchy product by one einsum per coefficient of a: the reference."""
    lo = a.min_degree + b.min_degree
    out = np.zeros((len(a.coeffs) + len(b.coeffs) - 1, 3, 3), dtype=complex)
    for i in range(len(a.coeffs)):
        out[i:i + len(b.coeffs)] += np.einsum("jk,dkl->djl", a.coeffs[i], b.coeffs)
    res = LoopMatrix(out, lo, a.twisted and b.twisted)
    if trunc is not None:
        res = res.restrict(max(lo, -trunc), min(res.max_degree, trunc))
    return res


def _ref_exp(x, trunc):
    """loop_exp's scaling and squaring on LoopMatrix values and the reference product."""
    work = trunc + EXP_GUARD
    s = max(0, int(np.ceil(np.log2(max(x.wiener_norm(), 1e-300) / 0.5))))
    xs = loop_scale(x, 0.5 ** s)
    term = acc = LoopMatrix.identity(twisted=x.twisted)
    for k in range(1, 42):
        term = loop_scale(_ref_product(term, xs, work), 1.0 / k)
        acc = loop_sum(acc, term)
        if term.wiener_norm() < 1e-18:
            break
    for _ in range(s):
        acc = _ref_product(acc, acc, work)
    return acc.restrict(max(acc.min_degree, -trunc), min(acc.max_degree, trunc))


def _assert_same_loop(got, ref, rel=1e-14):
    assert (got.min_degree, got.max_degree) == (ref.min_degree, ref.max_degree)
    assert got.twisted == ref.twisted
    assert np.max(np.abs(got.coeffs - ref.coeffs)) <= rel * np.max(np.abs(ref.coeffs))


def _random_stack(rng, n, lo):
    return LoopMatrix(rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3)), lo)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), na=st.integers(1, 60), nb=st.integers(1, 60),
       lo_a=st.integers(-40, 10), lo_b=st.integers(-40, 10),
       trunc=st.none() | st.integers(0, 60))
def test_product_kernel_matches_per_coefficient_loop(seed, na, nb, lo_a, lo_b, trunc):
    rng = np.random.default_rng(seed)
    a, b = _random_stack(rng, na, lo_a), _random_stack(rng, nb, lo_b)
    for x, y in ((a, b), (b, a)):
        ref = _ref_product(x, y)
        if trunc is None:
            _assert_same_loop(loop_product(x, y), ref)
        elif ref.min_degree <= trunc and ref.max_degree >= -trunc:
            _assert_same_loop(_clipped_product(x, y, trunc), _ref_product(x, y, trunc))
        else:  # the window is empty, which the reference cannot clip to
            assert _clipped_product(x, y, trunc).coeffs.shape == (0, 3, 3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), trunc=st.sampled_from([8, 16, 36]),
       radius=st.floats(0.0, 3.0), one_sided=st.booleans())
def test_loop_exp_matches_loop_matrix_reference(seed, trunc, radius, one_sided):
    z = radius * np.exp(2j * np.pi * np.random.default_rng(seed).random())
    entries = {-1: z * A} if one_sided else {-1: z * A, 1: np.conj(z) * su3.tau(A)}
    x = LoopMatrix.from_coeffs(entries, twisted=True)
    _assert_same_loop(loop_exp(x, trunc), _ref_exp(x, trunc))


def test_loop_exp_window_and_random_loops(rng):
    # the window is the span the Taylor terms reach: at trunc 36 the terms of
    # exp(0.7j lambda^-1 A) fall below 1e-18 from lambda^-30 on
    for trunc, lo in ((4, -4), (8, -8), (16, -16), (36, -30)):
        g = loop_exp(LoopMatrix.monomial(-1, 0.7j * A, twisted=True), trunc)
        assert (g.min_degree, g.max_degree) == (lo, 0)
    for _ in range(10):
        xi = random_twisted_algebra_loop(rng)
        _assert_same_loop(loop_exp(xi, 16), _ref_exp(xi, 16))
    # a term that leaves the window ends the series: exp(lambda^-3 A) is
    # I + lambda^-3 A on degrees -4..0
    g = loop_exp(LoopMatrix.monomial(-3, A, twisted=True), 4)
    assert (g.min_degree, g.max_degree) == (-4, 0)
    assert np.allclose(g.coefficient(-3), A, atol=1e-15)
    assert np.allclose(g.coefficient(0), np.eye(3), atol=1e-15)


def test_loop_exp_overflow_raises_value_error(monkeypatch):
    # 1e307 takes about 1020 squarings; the first few overflow, and the rest are skipped
    products = []
    cauchy = loops._cauchy
    monkeypatch.setattr(loops, "_cauchy", lambda *args: products.append(1) or cauchy(*args))
    x = LoopMatrix.from_coeffs({-1: 1e307 * A, 1: 1e307 * su3.tau(A)}, twisted=True)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        loop_exp(x, 16)
    assert len(products) < 100
    # exp(1e15 lambda^-1 A) at trunc 16 takes 51 squarings; degree -24 of the
    # window overflows on squaring 48 while degrees -16..0 are still finite
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        loop_exp(LoopMatrix.monomial(-1, 1e15 * A, twisted=True), 16)
    # finite coefficients whose Wiener norm overflows
    x = LoopMatrix.from_coeffs({-1: 1.2e308 * A, 1: 1.2e308 * su3.tau(A)}, twisted=True)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        loop_exp(x, 16)
