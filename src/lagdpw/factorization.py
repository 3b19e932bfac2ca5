"""Numerical Birkhoff and Iwasawa splittings of sigma-twisted loops.

Birkhoff
--------
g = f_minus f_plus with f_minus = I + O(lambda^{-1}) and f_plus a plus-loop.
Writing f_minus^{-1} = I + sum_{m<0} lambda^m B_m, the requirement that
f_minus^{-1} g has no negative Fourier modes is *linear* in the B_m, so the
split reduces to one small least-squares system per matrix row.  Singularity
of that system is exactly the numerical signal that g left the big cell.
The three row systems are gathered by one cached map and solved by one
stacked SVD and one refinement step; f_plus is read off the same gathered
rows at degrees >= 0.

For twisted inputs the unknowns are restricted structurally: a Fourier
coefficient of a twisted group loop at degree m can only populate the three
entries (i, l) with w_i - w_l = 2m (mod 6) (see su3.group_slot_mask).  Note
this is the mod-3 entry grading induced by sigma^2, not the sigma-eigenspace
pattern g_{m mod 6}: the latter holds for algebra-valued loops only (already
exp(z lambda^{-1} A) for the Clifford coefficient A has its lambda^{-2}
coefficient proportional to A^2, which sits outside the g_4 pattern).  The
residual order-2 twisting condition is nonlinear and is inherited from
uniqueness of the factorization rather than imposed.

Iwasawa
-------
g = h v_plus with h unitary on S^1 and v_plus a plus-loop whose lambda = 0
coefficient is upper triangular with positive diagonal (diagonal, in the
twisted case).  In the Grassmannian picture W = g H_+ equals h H_+, and the
columns {lambda^k h e_j} are the unique L^2-orthonormal basis of W whose
change of basis from {lambda^k g e_j} is block-Toeplitz "anti-triangular":

    lambda^k g e_j = sum_{m >= k} lambda^m h (V_{m-k} e_j).

Orthonormalizing the multiplication operator columns from the *highest*
source mode downward therefore reproduces {lambda^k h e_j}; with source
modes 0..2*trunc the k = 0 block converges to h at the coefficient-decay
rate of v_plus.  A QR with the diagonal of R phase-fixed to be real positive
implements exactly the positive-diagonal (unique) splitting.

Grade blocks.  For a twisted g the sigma^2-grading (su3.group_slot_mask)
makes the operator block-diagonal: row (mode n, entry i) has grade
(w_i - 2n) mod 6 and column (source k, entry j) has grade (w_j - 2k) mod 6,
and g only couples equal grades.  Gram-Schmidt never mixes disjoint row
supports, so three QRs of the grade blocks (one stacked np.linalg.qr, the
descending column order kept inside each block) give the same Q and R as
one QR of the whole operator, at a ninth of the work.  The grade split (in
both splittings) is taken only when g is flagged twisted and its entries
off the grade slots are below GRADE_TOL of its largest coefficient; every
other loop runs the single QR through the same code as one block.
IllConditioned applies the min/max |diag R| rule over all blocks together.

v_plus from R.  The phase-fixed R holds the inner products of the
orthonormal columns with the operator's columns, so the column of g e_j
gives (V_m)_{lj} = <lambda^m h e_l, g e_j> for m = 0..trunc without a loop
product.  The residual of either split, with factors a and b, is
max ||g(lambda) - a(lambda) b(lambda)||_2 over DEFAULT_CIRCLE_SAMPLES points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import su3
from .errors import DomainError, IllConditioned, OutsideBigCell
from .loops import COND_LIMIT, DEFAULT_CIRCLE_SAMPLES, LoopMatrix
from .loops import max_distance_on_circle  # noqa: F401  (bench/selftest.py traces this binding)

GRADE_TOL = 1e-13  # off-grade mass, relative to the largest coefficient, for the split
INDEX_CACHE_SIZE = 32


@dataclass(frozen=True)
class BirkhoffFactors:
    f_minus: LoopMatrix  # degrees <= 0, degree-0 coefficient = I exactly
    f_plus: LoopMatrix   # degrees >= 0
    residual: float


@dataclass(frozen=True)
class IwasawaFactors:
    unitary: LoopMatrix  # evaluates in SU(3) on S^1
    v_plus: LoopMatrix   # degrees >= 0, v_plus(0) positive upper triangular
    residual: float


def _flat_index(deg, i, j, lo: int, hi: int):
    """Index of [deg][i, j] in a flat (degrees lo..hi, 3, 3) stack, or of its trailing zero."""
    return np.where((deg >= lo) & (deg <= hi), ((deg - lo) * 3 + i) * 3 + j, 9 * (hi - lo + 1))


def _read_only(*maps):
    """The index maps, frozen: the caches below hand the same arrays to every call."""
    for a in maps:
        a.setflags(write=False)
    return maps


@functools.lru_cache(maxsize=INDEX_CACHE_SIZE)
def _birkhoff_index(lo: int, span: int, trunc: int, graded: bool):
    """Read-only gather maps of the three per-row mode-matching systems.

    Rows (d, j), d = lo - trunc..trunc, and unknowns (m, l) of row i,
    m = -trunc..-1, kept by su3.group_slot_mask(m)[i, l] when ``graded``.
    Returns flat indices (see _flat_index) of A[i, (d, j), (m, l)] =
    G_{d-m}[l, j] and of G_d[i, j] in g; of each unknown in f_minus^{-1},
    degrees -trunc..0; and of T[(m, i), (b, l)] = (f_minus^{-1})_{m-b}[i, l],
    the unit triangular system f_minus^{-1} f_minus = I for f_minus below 0.
    """
    eq_d, eq_j = np.divmod(np.arange(3 * (lo - trunc), 3 * (trunc + 1)), 3)
    unk_m, unk_l = np.divmod(np.arange(-3 * trunc, 0), 3)
    keep = su3.group_slot_mask(unk_m[::3, None, None]) | (not graded)  # [m, i, l]; all if ungraded
    per_row = np.nonzero(keep.transpose(1, 0, 2).reshape(3, -1))[1].reshape(3, -1)
    um, ul, i = unk_m[per_row], unk_l[per_row], np.arange(3)[:, None]
    a = _flat_index(eq_d[:, None] - um[:, None, :], ul[:, None, :], eq_j[:, None], lo, lo + span)
    return _read_only(a, _flat_index(eq_d, i, eq_j, lo, lo + span),
                      _flat_index(um, i, ul, -trunc, 0),
                      _flat_index(unk_m[:, None] - unk_m, unk_l[:, None], unk_l, -trunc, 0))


def birkhoff(g: LoopMatrix, trunc: int) -> BirkhoffFactors:
    """Left Birkhoff split g = f_minus f_plus, f_minus normalized at infinity.

    Raises OutsideBigCell when the mode-matching system is numerically
    singular (condition number beyond 1e12) or inconsistent, and
    DomainError for trunc < 1.
    """
    if trunc < 1:
        raise DomainError(f"a split needs trunc >= 1, got {trunc}")
    g = g.trim()
    if g.min_degree >= 0:
        return BirkhoffFactors(LoopMatrix.identity(twisted=g.twisted), g, 0.0)

    lo, span = g.min_degree, g.max_degree - g.min_degree
    gather, rhs, unknowns, tri = _birkhoff_index(lo, span, trunc, _grade_split(g))
    flat = np.append(g.coeffs.reshape(-1), 0.0)
    a, b, neg = flat[gather], -flat[rhs], 3 * (trunc - lo)  # the first neg rows: degrees < 0
    u, sv, vh = np.linalg.svd(a[:, :neg], full_matrices=False)
    if not np.all((sv[:, -1] > 0) & (sv[:, 0] <= COND_LIMIT * sv[:, -1])):
        raise OutsideBigCell("mode-matching system singular")

    def lstsq(r):  # each row system's least-squares solution, from its SVD
        return np.einsum("rkc,rk->rc", np.conj(vh), np.einsum("rek,re->rk", np.conj(u), r) / sv)

    x = lstsq(b[:, :neg])
    x += lstsq(b[:, :neg] - np.einsum("rec,rc->re", a[:, :neg], x))  # one refinement step
    modes = np.einsum("rec,rc->re", a, x) - b  # row i of (f_minus^{-1} g)_d, d = lo - trunc..trunc
    misfit = np.max(np.abs(modes[:, :neg]), axis=1)
    if np.any(misfit > 1e-6 * (1.0 + np.max(np.abs(b[:, :neg]), axis=1))):
        # nonzero partial indices make the system inconsistent rather
        # than singular: the degree-0 coefficient of f_minus^{-1} is I
        raise OutsideBigCell(f"mode matching inconsistent (misfit {np.max(misfit):.2e})")

    n = np.zeros(9 * (trunc + 1) + 1, dtype=complex)  # f_minus^{-1}, then a zero
    n[unknowns] = x
    n[9 * trunc:-1] = np.eye(3).reshape(-1)
    # the unipotent series recursion for f_minus, as one unit triangular solve
    m = np.linalg.solve(n[tri], -n[:9 * trunc].reshape(-1, 3))
    f_minus = LoopMatrix(np.vstack([m, np.eye(3)]).reshape(-1, 3, 3), -trunc, g.twisted).trim(0.0)
    f_plus = LoopMatrix(modes[:, neg:].reshape(3, trunc + 1, 3).transpose(1, 0, 2),
                        0, g.twisted).trim(0.0)
    return BirkhoffFactors(f_minus, f_plus, _circle_residual(g, f_minus, f_plus))


@functools.lru_cache(maxsize=INDEX_CACHE_SIZE)
def _iwasawa_index(lo: int, span: int, trunc: int, graded: bool):
    """Read-only gather/scatter maps of the multiplication operator's blocks.

    Row (mode n, entry i) and column (source k, entry j) are listed in one
    block per sigma^2-grade when ``graded`` (grades (w_i - 2n) and
    (w_j - 2k) mod 6), else in a single block; columns run k = 2*trunc..0
    inside each block, so its last p columns are k = 0.  Returns, per block:
    the index of every entry into g's flattened coefficients (out-of-window
    degrees point at a trailing zero); the flat (mode, entry) row of h's
    coefficients for each row; the entry j of each k = 0 column; and the
    flat (degree, entry) row of v_plus's coefficients for R's rows of
    source k = trunc..0.
    """
    kmax = 2 * trunc
    n_modes = span + kmax + 1
    row_n, row_i = np.repeat(np.arange(lo, lo + n_modes), 3), np.tile(np.arange(3), n_modes)
    col_k, col_j = np.repeat(np.arange(kmax, -1, -1), 3), np.tile(np.arange(3), kmax + 1)
    if graded:
        row_grade = np.mod(su3.WEIGHTS[row_i] - 2 * row_n, 6)
        col_grade = np.mod(su3.WEIGHTS[col_j] - 2 * col_k, 6)
        rows = np.stack([np.nonzero(row_grade == gr)[0] for gr in (0, 2, 4)])
        cols = np.stack([np.nonzero(col_grade == gr)[0] for gr in (0, 2, 4)])
    else:
        rows, cols = np.arange(row_n.size)[None], np.arange(col_k.size)[None]
    rn, ri, ck, cj = row_n[rows], row_i[rows], col_k[cols], col_j[cols]
    gather = _flat_index(rn[:, :, None] - ck[:, None, :], ri[:, :, None], cj[:, None, :],
                         lo, lo + span)
    p = 3 // rows.shape[0]  # k = 0 columns per block, the last p
    n_v = (trunc + 1) * p
    return _read_only(gather, (rn - lo) * 3 + ri, cj[:, -p:], ck[:, -n_v:] * 3 + cj[:, -n_v:])


def _grade_split(g: LoopMatrix) -> bool:
    """True when g is flagged twisted and carries no mass off its grade slots."""
    if not g.twisted:
        return False
    mask = su3.group_slot_mask(np.arange(g.min_degree, g.max_degree + 1)[:, None, None])
    mags = np.abs(g.coeffs)
    return bool(np.max(mags, where=~mask, initial=0.0) <= GRADE_TOL * np.max(mags))


def iwasawa(g: LoopMatrix, trunc: int) -> IwasawaFactors:
    """Unique Iwasawa split g = h v_plus with positive-diagonal normalization.

    Raises IllConditioned when the orthonormalization collapses (relative
    diagonal of the triangular factor, over all blocks, below 1/COND_LIMIT),
    and DomainError for trunc < 1.
    """
    if trunc < 1:
        raise DomainError(f"a split needs trunc >= 1, got {trunc}")
    g = g.trim()
    lo, span = g.min_degree, g.max_degree - g.min_degree
    gather, h_rows, k0_entries, v_rows = _iwasawa_index(lo, span, trunc, _grade_split(g))
    q, r = np.linalg.qr(np.append(g.coeffs.reshape(-1), 0.0)[gather])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(diag)
    if mags.min() <= mags.max() / COND_LIMIT:
        raise IllConditioned("truncated column space numerically degenerate")
    phase = diag / mags  # force R diagonal real positive
    p = k0_entries.shape[1]

    n_modes = span + 2 * trunc + 1
    h_coeffs = np.zeros((3 * n_modes, 3), dtype=complex)
    h_coeffs[h_rows[:, :, None], k0_entries[:, None, :]] = q[:, :, -p:] * phase[:, None, -p:]
    h = LoopMatrix(h_coeffs.reshape(n_modes, 3, 3), lo, twisted=g.twisted)
    h = h.restrict(max(lo, -trunc), min(h.max_degree, trunc)).trim(0.0)

    # R's column of g e_j holds <lambda^m h e_l, g e_j> = (V_m)_{lj}
    n_v = v_rows.shape[1]
    v_coeffs = np.zeros((3 * (trunc + 1), 3), dtype=complex)
    v_coeffs[v_rows[:, :, None], k0_entries[:, None, :]] = \
        r[:, -n_v:, -p:] * np.conj(phase[:, -n_v:, None])
    v_plus = LoopMatrix(v_coeffs.reshape(trunc + 1, 3, 3), 0, twisted=g.twisted).trim(0.0)

    return IwasawaFactors(h, v_plus, _circle_residual(g, h, v_plus))


def _circle_residual(g: LoopMatrix, a: LoopMatrix, b: LoopMatrix) -> float:
    """max ||g(lambda) - a(lambda) b(lambda)||_2 over the DEFAULT_CIRCLE_SAMPLES points of S^1."""
    lams = su3.unit_circle(DEFAULT_CIRCLE_SAMPLES)
    recon = a.evaluate_many(lams) @ b.evaluate_many(lams)
    return float(np.max(su3.op_norm(g.evaluate_many(lams) - recon)))
