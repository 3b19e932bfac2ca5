import json
from pathlib import Path

import numpy as np
import pytest

from lagdpw import su3
from lagdpw.errors import SingularLoop
from lagdpw.loops import COND_LIMIT, LoopMatrix, loop_exp, loop_scale

SPEC_DIR = Path(__file__).resolve().parents[1] / "src" / "lagdpw" / "specs"


def bundled_spec(name):
    from lagdpw.potentials import spec_from_dict
    doc = json.loads((SPEC_DIR / f"{name}.json").read_text())
    return spec_from_dict(doc)


def unitarity_on_circle(g, samples=24):
    """max ||g* g - I||_2 of a loop over the samples of S^1."""
    return float(np.max(su3.unitarity_defect(g.evaluate_many(su3.unit_circle(samples)))))


def twist_residual(g, samples=24):
    """max over sampled lambda of ||g(eps lambda) - sigma(g(lambda))||_2 for a group loop."""
    lams = su3.unit_circle(samples)
    vals = g.evaluate_many(lams)
    singular = np.linalg.cond(vals) > COND_LIMIT
    if np.any(singular):
        raise SingularLoop(f"g({lams[np.argmax(singular)]}) not invertible")
    return float(np.max(su3.op_norm(g.evaluate_many(su3.EPS * lams) - su3.sigma_grp(vals))))


def in_eigenspace(x, k, tol):
    """x lies in the eps^k eigenspace of sigma, relative to max(|x|, 1)."""
    return np.max(np.abs(x - su3.eigenspace_project(x, k))) <= tol * max(np.max(np.abs(x)), 1.0)


def random_twisted_algebra_loop(rng, lo=-2, hi=2, amp=0.12):
    """Twisted algebra loop: coefficient at degree d in g_{d mod 6}."""
    entries = {}
    for d in range(lo, hi + 1):
        x = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * amp
        entries[d] = su3.eigenspace_project(x, d % 6)
    return LoopMatrix.from_coeffs(entries, twisted=True)


def random_twisted_group_loop(rng, wiener_max=2.0, trunc=16, amp=0.12):
    """exp of a random twisted algebra loop, Wiener norm capped."""
    xi = random_twisted_algebra_loop(rng, amp=amp)
    g = loop_exp(xi, trunc)
    while g.wiener_norm() > wiener_max:
        xi = loop_scale(xi, 0.8)
        g = loop_exp(xi, trunc)
    return g


def random_realform_degree_one(rng, amp=0.5):
    """su(3)-valued twisted degree-one loop: D_1 = tau(D_{-1}), D_0 real slot."""
    x = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * amp
    d_m1 = su3.eigenspace_project(x, 5)
    d_0 = np.diag([1j, -1j, 0.0]) * rng.standard_normal() * amp
    return LoopMatrix.from_coeffs(
        {-1: d_m1, 0: d_0, 1: su3.tau(d_m1)}, twisted=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
