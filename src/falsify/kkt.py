"""Saddle-point (KKT) systems and their solvers.

Each SQP iteration solves

    [ H  B ] [ d_x   ]   [ rhs_top    ]
    [ B^T 0 ] [ d_lam ] = [ rhs_bottom ]

for the primal-dual step.  B is always a sparse m1 x m2 matrix; the
unconstrained formulations carry an empty (m1, 0) B, and every solver
treats them as the case m2 = 0 of the same system.  The workhorse is a
projected preconditioned conjugate gradient (PPCG) with the constraint
preconditioner C = [[I, B], [B^T, 0]]: applying C^{-1} reduces to solves
with the sparse symmetric positive definite (and banded, for shooting
Jacobians) matrix B^T B, and keeps every CG iterate exactly on the
linearized constraint manifold.  With m2 = 0 the projection is the
identity and PPCG is plain CG on H d_x = rhs_top.  The direct solve serves
as fallback: it assembles the saddle matrix in CSC format (B is sparse and
block structured under multiple shooting) and factors it once with
SuperLU.  That one sparse LU supplies both the diagonal of U that its
singularity test reads and the solve.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = [
    "SaddleSystem",
    "KktSolution",
    "SingularSystem",
    "Breakdown",
    "PreconditionerSingular",
    "solve_direct",
    "solve_ppcg",
]

PPCG_TOL = 1e-10  # stopping tolerance, relative to the initial projected residual


class SingularSystem(Exception):
    """Direct factorization detected rank deficiency beyond tolerance."""


class Breakdown(Exception):
    """PPCG met non-positive curvature: the projected Hessian is indefinite."""


class PreconditionerSingular(Exception):
    """The constraint preconditioner (via B^T B) could not be factorized."""


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
        return _saddle_csc(self).toarray()

    def rhs(self):
        return np.concatenate([self.rhs_top, self.rhs_bottom])

    def is_finite(self):
        """True when H, B and both right-hand sides hold only finite numbers."""
        return bool(
            np.isfinite(self.hess.mat).all()
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
    residual_norm: float
    cg_iterations: int


def _saddle_csc(system):
    """The saddle matrix [[H, B], [B^T, 0]] in CSC format."""
    hess = sp.csc_matrix(system.hess.dense_copy())
    return sp.bmat([[hess, system.jac], [system.jac.T, None]], format="csc")


def solve_direct(system):
    """Sparse LU (SuperLU) solve of the saddle matrix.

    One factorization with SuperLU's default COLAMD ordering and partial
    pivoting serves both the singularity test and the solve.  Raises
    :class:`SingularSystem` when SuperLU finds the matrix exactly singular,
    when the magnitudes of U's diagonal reveal rank deficiency (relative
    tolerance 1e-12), or when the residual check fails.
    """
    rhs = system.rhs()
    try:
        lu = splu(_saddle_csc(system))
    except RuntimeError as exc:
        raise SingularSystem(f"saddle matrix numerically singular (SuperLU: {exc})") from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.max() == 0.0 or pivots.min() <= 1e-12 * pivots.max():
        raise SingularSystem(
            f"saddle matrix numerically singular (pivot ratio {pivots.min():.2e}/{pivots.max():.2e})"
        )
    sol = lu.solve(rhs)
    m1 = system.m1
    d_x, d_lam = sol[:m1], sol[m1:]
    residual = system.residual(d_x, d_lam)
    if residual >= 1e-10 * (1.0 + np.linalg.norm(rhs)):
        raise SingularSystem(
            f"direct solve residual {residual:.2e} exceeds tolerance; system near-singular"
        )
    return KktSolution(d_x, d_lam, residual, 0)


class _ConstraintProjector:
    """Applies the constraint preconditioner C = [[I, B], [B^T, 0]].

    A C-solve with bottom block zero reduces to v = (B^T B)^{-1} B^T r,
    g = r - B v; one refinement pass keeps B^T g at machine precision.
    """

    def __init__(self, jac):
        self.jac = jac.tocsc()
        self.jac_t = self.jac.T
        gram = (self.jac_t @ self.jac).tocsc()
        try:
            self.gram_solve = splu(gram).solve
        except RuntimeError as exc:
            raise PreconditionerSingular(f"B^T B factorization failed: {exc}") from exc
        probe = self.gram_solve(np.ones(gram.shape[0]))
        if not np.all(np.isfinite(probe)):
            raise PreconditionerSingular("B^T B factorization produced non-finite solve")

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
    space of B^T; a non-positive curvature pivot raises :class:`Breakdown`
    (callers fall back to :func:`solve_direct`).  With m2 = 0 the projector
    is the identity and this is plain CG on H d_x = rhs_top.  It stops at
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

    d_lam = -v
    return KktSolution(x, d_lam, system.residual(x, d_lam), iterations)
