import numpy as np
import pytest

from conftest import in_eigenspace
from lagdpw import su3

A = su3.A_CLIFFORD

# entry patterns of the six eigenspaces, (matrix, k)
EIGENSPACE_BASIS = [
    (np.diag([1.0, -1.0, 0.0]), 0),
    (np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex), 1),
    (np.array([[0, 0, 0], [0, 0, 1], [1, 0, 0]], dtype=complex), 1),
    (np.array([[0, 0, 1], [0, 0, 0], [0, -1, 0]], dtype=complex), 2),
    (np.diag([1.0, 1.0, -2.0]), 3),
    (np.array([[0, 0, 0], [0, 0, 1], [-1, 0, 0]], dtype=complex), 4),
    (np.array([[0, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=complex), 5),
    (np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]], dtype=complex), 5),
]


def test_p_matrix_structure():
    assert np.allclose(su3.P @ su3.P, np.eye(3), atol=1e-15)
    assert np.allclose(su3.P, np.conj(su3.P).T, atol=1e-15)


def test_sigma_alg_order_six_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = x.copy()
        for _ in range(6):
            y = su3.sigma_alg(y)
        assert np.max(np.abs(y - x)) < 1e-13


def test_sigma_alg_examples():
    d = np.diag([1.0, -1.0, 0.0]).astype(complex)
    assert np.allclose(su3.sigma_alg(d), d, atol=1e-14)
    assert np.allclose(su3.sigma_alg(np.zeros((3, 3))), np.zeros((3, 3)))
    assert np.allclose(su3.sigma_alg(A), su3.EPS ** 5 * A, atol=1e-14)


def test_sigma_grp_order_six():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = su3.expm3(x - np.trace(x) / 3 * np.eye(3))  # det 1
    y = g.copy()
    for _ in range(6):
        y = su3.sigma_grp(y)
    assert np.max(np.abs(y - g)) < 1e-10


def test_tau_examples():
    d = np.diag([1j, 1j, -2j])
    assert np.allclose(su3.tau(d), d, atol=1e-15)
    expected = np.array([[0, 1j, 0], [0, 0, 1j], [1j, 0, 0]])
    assert np.allclose(su3.tau(A), expected, atol=1e-15)
    assert np.allclose(su3.tau(np.zeros((3, 3))), np.zeros((3, 3)))


def test_tau_involutive_and_su3_fixed_points(rng):
    for _ in range(20):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(su3.tau(su3.tau(x)), x, atol=1e-14)
    # anti-Hermitian traceless matrices are fixed
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = h - np.conj(h).T
    x -= np.trace(x) / 3 * np.eye(3)
    assert np.max(np.abs(x + np.conj(x).T)) <= 1e-10 and abs(np.trace(x)) <= 1e-10
    assert np.allclose(su3.tau(x), x, atol=1e-14)


def test_tau_maps_gk_to_gminusk():
    for m, k in EIGENSPACE_BASIS:
        image = su3.tau(m)
        assert in_eigenspace(image, (-k) % 6, tol=1e-13), (m, k)


def test_eigenspace_table_patterns():
    for m, k in EIGENSPACE_BASIS:
        assert in_eigenspace(m, k, tol=1e-13)


def test_eigenspace_project_examples():
    e12 = np.zeros((3, 3), dtype=complex)
    e12[0, 1] = 1.0
    assert np.allclose(su3.eigenspace_project(e12, 1), e12, atol=1e-14)
    assert np.allclose(su3.eigenspace_project(e12, 2), 0.0, atol=1e-14)
    d = np.diag([1.0, 1.0, -2.0]).astype(complex)
    assert np.allclose(su3.eigenspace_project(d, 3), d, atol=1e-14)


def test_eigenspace_projections_resolve_identity(rng):
    for _ in range(30):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        parts = [su3.eigenspace_project(x, k) for k in range(6)]
        assert np.max(np.abs(sum(parts) - x)) < 1e-14
        for k, p in enumerate(parts):
            assert np.max(np.abs(su3.eigenspace_project(p, k) - p)) < 1e-14
            for k2 in range(6):
                if k2 != k:
                    assert np.max(np.abs(su3.eigenspace_project(p, k2))) < 1e-14


def test_group_slot_mask_matches_inner_grading():
    d_mat = np.diag([su3.EPS ** 4, su3.EPS ** 2, 1.0])
    for deg in range(-6, 7):
        mask = su3.group_slot_mask(deg)
        for i in range(3):
            for j in range(3):
                lhs = su3.EPS ** (2 * deg)
                rhs = d_mat[i, i] / d_mat[j, j]
                assert mask[i, j] == (abs(lhs - rhs) < 1e-12)


def test_membership_predicates():
    g = su3.expm3(0.3 * (A + su3.tau(A)))  # A + tau(A) is in su(3)
    assert su3.unitarity_defect(g) <= 1e-10
    assert abs(np.linalg.det(g) - 1.0) <= 1e-10
    assert su3.unitarity_defect(2 * g) == pytest.approx(3.0)  # ||4 g*g - I|| for unitary g
