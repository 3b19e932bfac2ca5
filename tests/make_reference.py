"""Write tests/data/reference.npz, the stored outputs that test_reference.py checks.

Run from anywhere, with no flags:

    python tests/make_reference.py

The file holds, from the pipeline at trunc 16 unless said otherwise:

- build/<spec>/<field>: the bundled spec on its bundled grid at lambda_0 in
  {1, 0.6+0.8i}, for the SurfaceSamples fields z, lift, u, psi, v0,
  singular, residual and tail;
- certify/<spec>/<field>: the ResidualReport of ``certify`` on a ring of 5
  nodes at 0.3 of the grid's r_max (extent for a cartesian grid), at
  lambda_0 = 0.6+0.8i; <spec> = clifford_oracle is the Clifford closed form
  on the clifford ring;
- crosscheck/<spec>: ``painleve.crosscheck(spec, trunc=36)``.

Before it writes, the script prints the largest deviation per field between
the new data and the file it replaces.  Regenerating the file is a change to
a check (README, "Reference corpus").
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lagdpw.dpw import GridSpec, PipelineSurface, clifford_oracle, grid_sample  # noqa: E402
from lagdpw.geometry import ResidualReport, certify  # noqa: E402
from lagdpw.painleve import crosscheck  # noqa: E402
from lagdpw.potentials import spec_from_dict  # noqa: E402

REFERENCE = ROOT / "tests" / "data" / "reference.npz"
SPEC_DIR = ROOT / "src" / "lagdpw" / "specs"
SPECS = ("clifford", "radial_ab", "radial_k1", "rotational_m4", "rp2")
LAMBDAS = (1.0, 0.6 + 0.8j)
TRUNC = 16
BUILD_FIELDS = ("z", "lift", "u", "psi", "v0", "singular", "residual", "tail")
CERTIFY_LAMBDA = 0.6 + 0.8j
CERTIFY_FIELDS = tuple(f.name for f in dataclasses.fields(ResidualReport))
RING_SHARE = 0.3   # the certify ring's radius, as a share of the grid's r_max or extent
RING_NODES = 5
CROSSCHECK_SPECS = ("clifford", "radial_ab", "radial_k1")
CROSSCHECK_TRUNC = 36


def bundled(name: str):
    """(spec, grid) of a bundled spec."""
    spec, run = spec_from_dict(json.loads((SPEC_DIR / f"{name}.json").read_text()))
    return spec, GridSpec.from_dict(run["grid"])


def ring(grid: GridSpec) -> np.ndarray:
    """RING_NODES nodes on the circle of radius RING_SHARE * r_max (or extent)."""
    radius = RING_SHARE * (grid.r_max if grid.kind == "polar" else grid.extent)
    return GridSpec("polar", r_max=radius, n_r=1, n_theta=RING_NODES).nodes()


def _report(samples, nodes, key: str) -> dict:
    report = dataclasses.asdict(certify(samples, nodes))
    return {f"certify/{key}/{f}": np.array(report[f]) for f in CERTIFY_FIELDS}


def reference() -> dict:
    """{key: array} of every stored output, computed by the program as it is."""
    out = {}
    for name in SPECS:
        spec, grid = bundled(name)
        samples, _ = grid_sample(spec, grid, LAMBDAS, TRUNC)
        out.update({f"build/{name}/{f}": getattr(samples, f) for f in BUILD_FIELDS})
        out.update(_report(PipelineSurface(spec, CERTIFY_LAMBDA, TRUNC).samples, ring(grid), name))
    out.update(_report(lambda p: clifford_oracle(p, CERTIFY_LAMBDA), ring(bundled("clifford")[1]),
                       "clifford_oracle"))
    for name in CROSSCHECK_SPECS:
        out[f"crosscheck/{name}"] = np.array(crosscheck(bundled(name)[0], trunc=CROSSCHECK_TRUNC))
    return out


def deviation(new: np.ndarray, old: np.ndarray) -> float:
    """max |new - old|, with equal values (infinities included) counting 0; inf on a shape change."""
    if new.shape != old.shape:
        return np.inf
    if new.dtype == bool or old.dtype == bool:
        return float(np.count_nonzero(new != old))
    with np.errstate(invalid="ignore"):
        gap = np.where(new == old, 0.0, np.abs(new - old))
    return float(np.max(np.nan_to_num(gap, nan=np.inf), initial=0.0))


def field_of(key: str) -> str:
    """The field a key stores, shared by every spec: build/<spec>/u -> build/u."""
    parts = key.split("/")
    return "/".join([parts[0]] + parts[2:])


def main() -> None:
    new = reference()
    if REFERENCE.exists():
        with np.load(REFERENCE) as f:
            old = dict(f)
        worst = {}
        for key in sorted(set(new) | set(old)):
            gap = deviation(new[key], old[key]) if key in new and key in old else np.inf
            field = field_of(key)
            if gap >= worst.get(field, (-1.0, ""))[0]:
                worst[field] = (gap, key)
        for field, (gap, key) in worst.items():
            print(f"{field:28s} {gap:.3e}  ({key})")
    else:
        print(f"no earlier {REFERENCE.name}")
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE, **new)
    print(f"wrote {REFERENCE} ({REFERENCE.stat().st_size} bytes, {len(new)} arrays)")


if __name__ == "__main__":
    main()
