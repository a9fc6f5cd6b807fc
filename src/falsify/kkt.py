"""Saddle-point (KKT) systems and their solvers.

Each SQP iteration solves

    [ H  B ] [ d_x   ]   [ rhs_top    ]
    [ B^T 0 ] [ d_lam ] = [ rhs_bottom ]

for the primal-dual step.  B is always a sparse m1 x m2 matrix; the
unconstrained formulations carry an empty (m1, 0) B, and every solver
treats them as the case m2 = 0 of the same system.  The workhorse is a
projected preconditioned conjugate gradient (PPCG) with the constraint
preconditioner C = [[I, B], [B^T, 0]]: applying C^{-1} reduces to solves
with the symmetric positive definite matrix B^T B, and keeps every CG
iterate exactly on the linearized constraint manifold.  B^T B is factored
once per solve by LAPACK's banded Cholesky (pbtrf, then pbtrs per
projection), with the bandwidth read from its sparsity pattern: under
multiple shooting B couples neighbouring segments only, so the bandwidth
is at most 2n - 1, and any other B still factors, with a wider band.  With
m2 = 0 the projection is the identity and PPCG is plain CG on
H d_x = rhs_top.  The direct solve serves as fallback: one banded LU
(LAPACK gbtrf, then gbtrs) of the saddle matrix with its rows and columns
in segment order.  The primal rows keep their packed order, segment by
segment (n + 1 rows each), and each constraint follows the segment that
holds its first stored row in B, so under multiple shooting the order is
[x_i, t_i, lambda_i] per segment and the half-bandwidth is at most 2n + 1.
The band is read from the permuted sparsity pattern, so any other B still
solves, with a wider band; the LU costs about dim kl (kl + ku) flops.  That
one factorization supplies both the diagonal of U that its singularity test
reads and the solve.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

__all__ = [
    "SaddleSystem",
    "KktSolution",
    "SingularSystem",
    "Breakdown",
    "solve_direct",
    "solve_ppcg",
]

PPCG_TOL = 1e-10  # stopping tolerance, relative to the initial projected residual

_pbtrf, _pbtrs, _gbtrf, _gbtrs = get_lapack_funcs(
    ("pbtrf", "pbtrs", "gbtrf", "gbtrs"), dtype=np.float64
)


class SingularSystem(Exception):
    """Direct factorization detected rank deficiency beyond tolerance."""


class Breakdown(Exception):
    """PPCG has no step: the constraint preconditioner (via B^T B) could not
    be factorized, it met non-positive curvature (the projected Hessian is
    indefinite), or it produced a non-finite solution."""


@dataclass(frozen=True)
class SaddleSystem:
    """Assembled KKT system: Hessian approximation, constraint Jacobian, rhs."""

    hess: object          # HessianApprox (dimension m1)
    jac: sp.spmatrix      # B, sparse m1 x m2 ((m1, 0) when unconstrained)
    rhs_top: np.ndarray   # -grad_x L, length m1
    rhs_bottom: np.ndarray  # -c(X), length m2

    def __post_init__(self):
        m1 = self.hess.dim
        if self.rhs_top.shape != (m1,):
            raise ValueError("rhs_top length must match the Hessian dimension")
        if not sp.issparse(self.jac) or self.jac.shape != (m1, self.rhs_bottom.shape[0]):
            raise ValueError("jac must be a sparse matrix of shape (m1, m2)")

    @property
    def m1(self):
        return self.hess.dim

    @property
    def m2(self):
        return self.rhs_bottom.shape[0]

    def dense_matrix(self):
        """The saddle matrix [[H, B], [B^T, 0]] as a dense array."""
        jac = self.jac.toarray()
        return np.block([[self.hess.dense_copy(), jac], [jac.T, np.zeros((self.m2, self.m2))]])

    def rhs(self):
        return np.concatenate([self.rhs_top, self.rhs_bottom])

    def is_finite(self):
        """True when H, B and both right-hand sides hold only finite numbers."""
        return bool(
            self.hess.is_finite()
            and np.isfinite(self.jac.data).all()
            and np.isfinite(self.rhs_top).all()
            and np.isfinite(self.rhs_bottom).all()
        )

    def residual(self, d_x, d_lam):
        """True 2-norm residual of the full system at (d_x, d_lam)."""
        top = self.hess.matvec(d_x) - self.rhs_top + self.jac @ d_lam
        bottom = self.jac.T @ d_x - self.rhs_bottom
        return float(np.sqrt(top @ top + bottom @ bottom))


@dataclass(frozen=True)
class KktSolution:
    d_x: np.ndarray
    d_lambda: np.ndarray
    cg_iterations: int


def _segment_order(hess, jac):
    """Order of the saddle matrix's rows and columns, segment by segment.

    The primal rows keep their packed order; each constraint column of the
    CSC ``jac`` follows the segment (n + 1 packed rows) that holds its first
    stored row, and a column without entries goes last.
    """
    m1, m2 = jac.shape
    first = np.full(m2, m1)
    stored = np.diff(jac.indptr) > 0
    first[stored] = jac.indices[jac.indptr[:-1][stored]]
    segment = np.concatenate((np.arange(m1), first)) // (hess.n + 1)
    return np.lexsort((np.arange(m1 + m2) >= m1, segment))


def solve_direct(system):
    """Banded LU (LAPACK gbtrf/gbtrs) solve of the saddle matrix in segment order.

    The band storage is written straight from H's nonzero block entries and
    B's stored entries, with kl and ku read from the permuted pattern.  One
    factorization with partial pivoting serves both the singularity test and
    the solve.  Raises :class:`SingularSystem` when gbtrf finds an exactly
    zero pivot, when the magnitudes of U's diagonal reveal rank deficiency
    (relative tolerance 1e-12), or when the residual check fails, a NaN
    residual included.
    """
    hess, jac = system.hess, system.jac.tocsc()
    m1, m2 = jac.shape
    order = _segment_order(hess, jac)
    position = np.empty_like(order)
    position[order] = np.arange(m1 + m2)
    width = hess.blocks.shape[1]
    block, row, col = np.nonzero(hess.blocks)
    jac_cols = m1 + np.repeat(np.arange(m2), np.diff(jac.indptr))
    rows = position[np.concatenate((block * width + row, jac.indices, jac_cols))]
    cols = position[np.concatenate((block * width + col, jac_cols, jac.indices))]
    kl = int(np.max(rows - cols, initial=0))
    ku = int(np.max(cols - rows, initial=0))
    # LAPACK general band storage: entry (i, j) at band[kl + ku + i - j, j]
    band = np.zeros((2 * kl + ku + 1, m1 + m2), order="F")
    band[kl + ku + rows - cols, cols] = np.concatenate(
        (hess.blocks[block, row, col], jac.data, jac.data)
    )
    lu, ipiv, info = _gbtrf(band, kl, ku, overwrite_ab=1)
    if info > 0:
        raise SingularSystem(
            f"saddle matrix numerically singular (gbtrf: U[{info - 1}, {info - 1}] is exactly zero)"
        )
    pivots = np.abs(lu[kl + ku])
    if pivots.max() == 0.0 or pivots.min() <= 1e-12 * pivots.max():
        raise SingularSystem(
            f"saddle matrix numerically singular (pivot ratio {pivots.min():.2e}/{pivots.max():.2e})"
        )
    rhs = system.rhs()
    sol = np.empty(m1 + m2)
    sol[order] = _gbtrs(lu, kl, ku, rhs[order], ipiv)[0]
    d_x, d_lam = sol[:m1], sol[m1:]
    residual = system.residual(d_x, d_lam)
    # a NaN residual, from an overflowed solution, fails the test too
    if not residual < 1e-10 * (1.0 + np.linalg.norm(rhs)):
        raise SingularSystem(
            f"direct solve residual {residual:.2e} exceeds tolerance; system near-singular"
        )
    return KktSolution(d_x, d_lam, 0)


class _ConstraintProjector:
    """Applies the constraint preconditioner C = [[I, B], [B^T, 0]].

    A C-solve with bottom block zero reduces to v = (B^T B)^{-1} B^T r,
    g = r - B v; one refinement pass keeps B^T g at machine precision.
    B^T B is factored once by banded Cholesky, with the bandwidth read from
    its sparsity pattern.
    """

    def __init__(self, jac):
        self.jac = jac.tocsc()
        self.jac_t = self.jac.T
        gram = (self.jac_t @ self.jac).tocoo()
        upper = gram.row <= gram.col
        rows, cols = gram.row[upper], gram.col[upper]
        bandwidth = int(np.max(cols - rows, initial=0))
        # LAPACK upper band storage: entry (i, j) at band[bandwidth + i - j, j]
        band = np.zeros((bandwidth + 1, gram.shape[0]), order="F")
        band[bandwidth + rows - cols, cols] = gram.data[upper]
        self.factor, info = _pbtrf(band, overwrite_ab=1)
        if info > 0:
            raise Breakdown(
                f"B^T B factorization failed: leading minor {info} is not positive definite"
            )
        probe = self.gram_solve(np.ones(gram.shape[0]))
        if not np.all(np.isfinite(probe)):
            raise Breakdown("B^T B factorization produced non-finite solve")

    def gram_solve(self, rhs):
        """(B^T B)^{-1} rhs from the banded Cholesky factor."""
        return _pbtrs(self.factor, rhs)[0]

    def project(self, r):
        """(g, v) with g + B v = r and B^T g = 0."""
        v = self.gram_solve(self.jac_t @ r)
        g = r - self.jac @ v
        dv = self.gram_solve(self.jac_t @ g)
        g -= self.jac @ dv
        return g, v + dv

    def constraint_point(self, c):
        """Minimum-norm x with B^T x = c, with one refinement pass."""
        x = self.jac @ self.gram_solve(c)
        x += self.jac @ self.gram_solve(c - self.jac_t @ x)
        return x


def solve_ppcg(system, max_iter=None):
    """Projected preconditioned CG with the constraint preconditioner.

    Requires the Hessian approximation to be positive definite on the null
    space of B^T; a non-positive curvature pivot or a non-finite result
    raises :class:`Breakdown` (callers fall back to :func:`solve_direct`).
    With m2 = 0 the projector is the identity and this is plain CG on
    H d_x = rhs_top.  It stops at
    :data:`PPCG_TOL` relative to the initial projected residual, or after
    ``max_iter`` iterations (default 2 m1).
    """
    if max_iter is None:
        max_iter = 2 * system.m1
    projector = _ConstraintProjector(system.jac)
    x = projector.constraint_point(system.rhs_bottom)

    r = system.hess.matvec(x) - system.rhs_top
    g, v = projector.project(r)
    rg = float(r @ g)
    target = PPCG_TOL * max(1.0, np.sqrt(abs(rg)))
    p = -g
    iterations = 0
    while np.sqrt(abs(rg)) > target and iterations < max_iter:
        hp = system.hess.matvec(p)
        curvature = float(p @ hp)
        if curvature <= 0.0:
            raise Breakdown(
                f"non-positive curvature {curvature:.3e} at iteration {iterations}"
            )
        alpha = rg / curvature
        x = x + alpha * p
        r = r + alpha * hp
        g_new, v = projector.project(r)
        rg_new = float(r @ g_new)
        p = -g_new + (rg_new / rg) * p
        g, rg = g_new, rg_new
        iterations += 1

    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise Breakdown(f"non-finite iterate after {iterations} iterations")
    return KktSolution(x, -v, iterations)
