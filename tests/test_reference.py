"""The program against the stored corpus tests/data/reference.npz (see make_reference.py).

Tolerances: lift and finite u within 1e-14; psi and v0 within 1e-14
relative; equal singular flags and -inf in u at the same nodes; each spec's
largest residual and tail within 1e-13; the certify fields within 1e-8,
because the 1/h^2 rules at h = 1e-3 amplify a 1e-14 change in u to about
1e-8; the crosscheck gaps within 1e-12.
"""

import numpy as np
import pytest

from make_reference import CERTIFY_FIELDS, CROSSCHECK_SPECS, REFERENCE, SPECS, reference


@pytest.fixture(scope="module")
def current():
    return reference()


@pytest.fixture(scope="module")
def stored():
    with np.load(REFERENCE) as f:
        return dict(f)


def test_reference_holds_the_same_outputs(current, stored):
    assert sorted(current) == sorted(stored)
    for key, value in current.items():
        assert value.shape == stored[key].shape and value.dtype == stored[key].dtype, key


@pytest.mark.parametrize("name", SPECS)
def test_build_matches_reference(name, current, stored):
    new, old = ({f: d[f"build/{name}/{f}"] for f in ("z", "lift", "u", "psi", "v0", "singular",
                                                       "residual", "tail")}
                for d in (current, stored))
    assert np.array_equal(new["z"], old["z"])
    assert np.array_equal(new["singular"], old["singular"])
    assert np.array_equal(np.isneginf(new["u"]), np.isneginf(old["u"]))
    finite = np.isfinite(old["u"])
    assert np.all(np.isfinite(new["u"][finite]))
    assert np.max(np.abs(new["u"][finite] - old["u"][finite]), initial=0.0) <= 1e-14
    assert np.max(np.abs(new["lift"] - old["lift"]), initial=0.0) <= 1e-14
    for field in ("psi", "v0"):
        assert np.all(np.abs(new[field] - old[field]) <= 1e-14 * np.abs(old[field])), field
    for field in ("residual", "tail"):
        assert abs(np.max(new[field], initial=0.0) - np.max(old[field], initial=0.0)) <= 1e-13


@pytest.mark.parametrize("name", SPECS + ("clifford_oracle",))
def test_certify_matches_reference(name, current, stored):
    for field in CERTIFY_FIELDS:
        key = f"certify/{name}/{field}"
        assert abs(current[key] - stored[key]) <= 1e-8, field


@pytest.mark.parametrize("name", CROSSCHECK_SPECS)
def test_crosscheck_matches_reference(name, current, stored):
    key = f"crosscheck/{name}"
    assert abs(current[key] - stored[key]) <= 1e-12
