"""Saddle-point (KKT) systems and their solvers.

Each SQP iteration solves

    [ H  B ] [ d_x   ]   [ rhs_top    ]
    [ B^T 0 ] [ d_lam ] = [ rhs_bottom ]

for the primal-dual step.  B is a sparse m1 x m2 matrix, held in CSC form
from the system's construction on; the unconstrained formulations carry an
empty (m1, 0) B, and every solver treats them as the case m2 = 0.

Both solvers factor a matrix of this pattern, [[G, B], [B^T, 0]] with G
given by its diagonal blocks, by one banded LU with partial pivoting
(LAPACK gbtrf, then gbtrs per solve), with its rows and columns in segment
order.  The primal rows keep their packed order, segment by segment (n + 1
rows each), and each constraint follows the segment that holds its first
stored row in B, so under multiple shooting the order is [x_i, t_i,
lambda_i] per segment and, with G block diagonal by segments, the
half-bandwidth is at most 2n + 1.  The band is read from the permuted
sparsity pattern, so any other B or G still factors, with a wider band; the
LU costs about dim kl (kl + ku) flops.  The layout (order, kl, ku and each
entry's place in band storage) depends on that pattern alone, which an SQP
run keeps from iteration to iteration, so it is computed once per pattern
and kept in a small cache; each factorization only scatters the values into
a zero band.

The workhorse is a projected preconditioned conjugate gradient (PPCG) with
the constraint preconditioner P = [[G, B], [B^T, 0]]: each application of
P^{-1} is one banded solve and one refinement solve on its residual, and
keeps every CG iterate on the linearized constraint manifold to round-off.
G is H itself for the ``blockdiag`` variant, whose blocks keep P as banded
as with G = I, and then CG ends after one iteration in exact arithmetic; for
``full`` G is the identity, as a dense H would fill the band.  With m2 = 0,
P is G and PPCG is CG on H d_x = rhs_top, preconditioned by G.  The direct
solve serves as fallback: the LU of the saddle matrix itself (G = H), whose
one factorization supplies both the diagonal of U that its singularity test
reads and the solve.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from .hessian import init_identity

__all__ = [
    "SaddleSystem",
    "KktSolution",
    "SingularSystem",
    "Breakdown",
    "solve_direct",
    "solve_ppcg",
]

PPCG_TOL = 1e-10  # stopping tolerance, relative to the initial projected residual

_gbtrf, _gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)


class SingularSystem(Exception):
    """Direct factorization detected rank deficiency beyond tolerance."""


class Breakdown(Exception):
    """PPCG has no step: the constraint preconditioner has an exactly zero
    pivot or a non-finite factor, one of its solves or r^T g is not finite,
    CG met non-positive curvature (the projected Hessian is indefinite), or
    it produced a non-finite iterate."""


@dataclass(frozen=True)
class SaddleSystem:
    """Assembled KKT system: Hessian approximation, CSC constraint Jacobian, rhs."""

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
        object.__setattr__(self, "jac", self.jac.tocsc())  # a CSC B is kept as it is

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


# Band layouts kept, the least recently used dropped first.  An SQP run
# meets few patterns (a `blockdiag` run one for its identity start, one for
# the updated blocks), and each layout holds index arrays only, about as
# long as G's and B's stored entries.
_LAYOUT_CACHE_SIZE = 8


@dataclass(frozen=True)
class _BandLayout:
    """Where the saddle matrix of one sparsity pattern goes in band storage.

    ``order`` is the segment order and ``ldab`` the band storage's row
    count 2 kl + ku + 1.  ``g_index`` holds the flat indices of G's nonzero
    block entries, and ``positions`` the flat positions, in the band's
    Fortran order, of those entries, then of B's stored entries, then of
    their mirrors in B^T.  Every array is read-only.
    """

    order: np.ndarray
    kl: int
    ku: int
    ldab: int
    g_index: np.ndarray
    positions: np.ndarray


def _layout(hess, jac):
    """The :class:`_BandLayout` of G = ``hess`` and the CSC B = ``jac``."""
    mask = hess.blocks != 0
    return _band_layout(
        hess.n,
        mask.shape,
        np.packbits(mask).tobytes(),
        jac.shape,
        (jac.indptr.dtype.str, jac.indptr.tobytes()),
        (jac.indices.dtype.str, jac.indices.tobytes()),
    )


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _band_layout(n, block_shape, packed_mask, shape, indptr, indices):
    """The :class:`_BandLayout` of one pattern, from hashable arguments:
    ``packed_mask`` is G's nonzero mask through ``np.packbits``, and
    ``indptr`` and ``indices`` are (dtype, bytes) of B's CSC arrays."""
    mask = np.unpackbits(np.frombuffer(packed_mask, np.uint8), count=math.prod(block_shape))
    indptr, indices = (np.frombuffer(raw, dtype) for dtype, raw in (indptr, indices))
    m1, m2 = shape
    # segment order: the primal rows in packed order, each constraint after
    # the segment (n + 1 packed rows) that holds its first stored row in B,
    # a constraint without entries last
    first = np.full(m2, m1)
    stored = np.diff(indptr) > 0
    first[stored] = indices[indptr[:-1][stored]]
    segment = np.concatenate((np.arange(m1), first)) // (n + 1)
    order = np.lexsort((np.arange(m1 + m2) >= m1, segment))
    position = np.empty_like(order)
    position[order] = np.arange(m1 + m2)
    width = block_shape[1]
    g_index = np.flatnonzero(mask)
    block, row, col = np.unravel_index(g_index, block_shape)
    jac_cols = m1 + np.repeat(np.arange(m2), np.diff(indptr))
    rows = position[np.concatenate((block * width + row, indices, jac_cols))]
    cols = position[np.concatenate((block * width + col, jac_cols, indices))]
    kl = int(np.max(rows - cols, initial=0))
    ku = int(np.max(cols - rows, initial=0))
    # LAPACK general band storage: entry (i, j) at band[kl + ku + i - j, j]
    ldab = 2 * kl + ku + 1
    positions = kl + ku + rows - cols + ldab * cols
    for array in (order, g_index, positions):
        array.flags.writeable = False
    return _BandLayout(order, kl, ku, ldab, g_index, positions)


class _BandedSaddle:
    """Banded LU (LAPACK gbtrf) of [[G, B], [B^T, 0]] in segment order.

    G is the :class:`~falsify.hessian.HessianApprox` ``hess``, B the CSC
    ``jac``.  The band layout (segment order, kl, ku and every entry's place
    in band storage) depends on the sparsity pattern alone, of G's blocks and
    of B, and is computed once per pattern (:func:`_band_layout`); each
    factorization writes G's nonzero block entries and B's stored entries
    into a zero band and runs gbtrf.  ``info`` is gbtrf's: positive when U
    has an exactly zero pivot, and then :meth:`solve` must not be called.
    """

    def __init__(self, hess, jac):
        layout = _layout(hess, jac)
        flat = np.zeros(layout.ldab * len(layout.order))
        flat[layout.positions] = np.concatenate(
            (hess.blocks.take(layout.g_index), jac.data, jac.data)
        )
        band = flat.reshape(-1, layout.ldab).T  # Fortran order, as gbtrf takes it
        self.lu, self.ipiv, self.info = _gbtrf(band, layout.kl, layout.ku, overwrite_ab=1)
        self.order, self.kl, self.ku = layout.order, layout.kl, layout.ku

    def pivots(self):
        """Magnitudes of U's diagonal."""
        return np.abs(self.lu[self.kl + self.ku])

    def solve(self, rhs):
        """The solution for ``rhs``, both in the natural order."""
        sol = np.empty(len(rhs))
        sol[self.order] = _gbtrs(
            self.lu, self.kl, self.ku, rhs[self.order], self.ipiv, overwrite_b=1
        )[0]
        return sol


def solve_direct(system):
    """Banded LU (LAPACK gbtrf/gbtrs) solve of the saddle matrix in segment order.

    One factorization with partial pivoting serves both the singularity test
    and the solve.  Raises :class:`SingularSystem` when gbtrf finds an
    exactly zero pivot, when the magnitudes of U's diagonal reveal rank
    deficiency (relative tolerance 1e-12), or when the residual check fails,
    a NaN residual included.
    """
    saddle = _BandedSaddle(system.hess, system.jac)
    if saddle.info > 0:
        raise SingularSystem(
            "saddle matrix numerically singular "
            f"(gbtrf: U[{saddle.info - 1}, {saddle.info - 1}] is exactly zero)"
        )
    pivots = saddle.pivots()
    if pivots.max() == 0.0 or pivots.min() <= 1e-12 * pivots.max():
        raise SingularSystem(
            f"saddle matrix numerically singular (pivot ratio {pivots.min():.2e}/{pivots.max():.2e})"
        )
    rhs = system.rhs()
    sol = saddle.solve(rhs)
    m1 = system.m1
    d_x, d_lam = sol[:m1], sol[m1:]
    residual = system.residual(d_x, d_lam)
    # a NaN residual, from an overflowed solution, fails the test too
    if not residual < 1e-10 * (1.0 + np.linalg.norm(rhs)):
        raise SingularSystem(
            f"direct solve residual {residual:.2e} exceeds tolerance; system near-singular"
        )
    return KktSolution(d_x, d_lam, 0)


class _ConstraintProjector:
    """Applies the constraint preconditioner P = [[G, B], [B^T, 0]].

    G is the Hessian approximation ``hess`` for the ``blockdiag`` variant
    and the identity otherwise, B a :class:`SaddleSystem`'s CSC ``jac``.  P
    is factored once by :class:`_BandedSaddle`, and each solve with it is
    refined once on its residual, which keeps B^T g at round-off and r^T g
    accurate enough for the stopping test, which needs it to about eps^2 of
    its start.  Raises :class:`Breakdown` when P has an exactly zero pivot
    or a non-finite factor, and when a solve or r^T g is not finite.
    """

    def __init__(self, hess, jac):
        if hess.variant == "blockdiag":
            self.g = hess
        else:
            self.g = None  # G = I, which the refinement applies without a product
            hess = init_identity("blockdiag", hess.n, hess.n_segments)
        self.jac = jac
        self.jac_t = jac.T
        self.m1, self.m2 = jac.shape
        self.saddle = _BandedSaddle(hess, self.jac)
        info = self.saddle.info
        if info > 0:
            raise Breakdown(
                "constraint preconditioner singular "
                f"(gbtrf: U[{info - 1}, {info - 1}] is exactly zero)"
            )
        if not np.isfinite(self.saddle.lu).all():
            raise Breakdown("constraint preconditioner has a non-finite factor")

    def solve(self, top, bottom):
        """(u, w) with G u + B w = top and B^T u = bottom, refined once."""
        sol = self.saddle.solve(np.concatenate((top, bottom)))
        u, w = sol[: self.m1], sol[self.m1 :]
        gu = u if self.g is None else self.g.matvec(u)
        sol += self.saddle.solve(
            np.concatenate((top - gu - self.jac @ w, bottom - self.jac_t @ u))
        )
        if not np.isfinite(sol).all():
            raise Breakdown("constraint preconditioner produced a non-finite solve")
        return sol[: self.m1], sol[self.m1 :]

    def project(self, r):
        """(g, v, r^T g) with G g + B v = r and B^T g = 0."""
        g, v = self.solve(r, np.zeros(self.m2))
        rg = float(r @ g)
        if not math.isfinite(rg):
            raise Breakdown(f"non-finite r^T g ({rg})")
        return g, v, rg

    def constraint_point(self, c):
        """The x of least G-norm with B^T x = c."""
        return self.solve(np.zeros(self.m1), c)[0]


def solve_ppcg(system, max_iter=None):
    """Projected preconditioned CG with the constraint preconditioner.

    Requires the Hessian approximation to be positive definite on the null
    space of B^T; a non-positive curvature pivot or a non-finite result
    raises :class:`Breakdown` (callers fall back to :func:`solve_direct`).
    With m2 = 0 the projection is a solve with G and this is CG on
    H d_x = rhs_top preconditioned by G.  It stops at
    :data:`PPCG_TOL` relative to the initial projected residual, or after
    ``max_iter`` iterations (default 2 m1).
    """
    if max_iter is None:
        max_iter = 2 * system.m1
    projector = _ConstraintProjector(system.hess, system.jac)
    x = projector.constraint_point(system.rhs_bottom)

    r = system.hess.matvec(x) - system.rhs_top
    g, v, rg = projector.project(r)
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
        g_new, v, rg_new = projector.project(r)
        p = -g_new + (rg_new / rg) * p
        rg = rg_new
        iterations += 1

    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise Breakdown(f"non-finite iterate after {iterations} iterations")
    return KktSolution(x, -v, iterations)
