"""Quasi-Newton approximations of the Lagrangian Hessian.

Two variants on the same rank-two update

    H_new = H - (H s s^T H) / (s^T H s) + (y y^T) / (y^T s),

skipped (and counted) whenever the curvature condition y^T s > 0 fails, on
the degenerate s^T H s <= 0, which cannot occur while H stays positive
definite but guards zero steps, or when the updated matrix would be
numerically singular (its reciprocal condition number at most
``_MIN_RCOND``):

* ``full``      -- dense update on the whole packed vector;
* ``blockdiag`` -- independent updates on the N diagonal blocks of size
                   (n+1), matching the per-segment separability of the
                   matching/boundary constrained formulations.

Storage is one (k, w, w) array of diagonal blocks, each updated on its own:
a single dim x dim block for ``full``, and k = N blocks of width w = n+1 for
``blockdiag``, whose entries outside the blocks are zero and never stored.
The update is stacked over the blocks: y^T s, H s and s^T H s are each one
array operation over every block, which selects the blocks that pass both
curvature tests at once; both outer products and the 1-norm are taken on
those blocks only, and only the Cholesky factorization and condition
estimate (LAPACK potrf, pocon) run block by block.  Each block's numbers
are those of the same update on that block alone.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

__all__ = ["HessianApprox", "init_identity", "VARIANTS"]

VARIANTS = ("full", "blockdiag")


# An update whose result has a reciprocal condition number (LAPACK's 1-norm
# estimate) at most this is skipped: a block that close to singular can turn
# indefinite under the rounding of the next update (the curvature test alone
# lets blocks of an indefinite Lagrangian Hessian reach eigenvalues 1e13
# beside 1e-6).  It is about 45 units of roundoff: low so that few updates
# are refused (1e-10 kept the Hessians positive definite too, but changed 11
# of the 64 `blockdiag` outcome-grid cells against 4 at 1e-14), yet an order
# of magnitude above roundoff: `pocon` estimates ||H^-1|| from below, so its
# rcond can exceed the true one, and a block kept at 1e-15 (about 4.5 units
# of roundoff) could be one whose factorization depends on rounding order.
_MIN_RCOND = 1e-14

_potrf, _pocon = get_lapack_funcs(("potrf", "pocon"), dtype=np.float64)


def _dots(u, v):
    """The dot products u_i^T v_i of two (k, w, 1) stacks, as a (k,) array,
    each computed as ``u_i[:, 0] @ v_i[:, 0]`` would be."""
    return (u.transpose(0, 2, 1) @ v).ravel()


def _well_conditioned(mat, norm):
    """True when the symmetric ``mat``, of 1-norm ``norm``, has a Cholesky
    factor and a reciprocal condition number above ``_MIN_RCOND``."""
    factor, info = _potrf(mat, lower=False, clean=False)
    if info != 0:
        return False
    rcond, info = _pocon(factor, norm)
    return info == 0 and rcond > _MIN_RCOND


def _block_shape(variant, n, n_segments):
    """(k, w, w) of the variant's block storage."""
    if variant == "full":
        dim = n_segments * (n + 1)
        return (1, dim, dim)
    return (n_segments, n + 1, n + 1)


@dataclass
class HessianApprox:
    """Symmetric approximation of the Lagrangian Hessian, one SQP run's state.

    ``blocks`` holds the (k, w, w) diagonal blocks described in the module
    docstring.
    """

    variant: str
    n: int
    n_segments: int
    blocks: np.ndarray
    skip_count: int = 0

    def __post_init__(self):
        shape = _block_shape(self.variant, self.n, self.n_segments)
        if self.blocks.shape != shape:
            raise ValueError(f"{self.variant} blocks must have shape {shape}")

    @property
    def dim(self):
        return self.n_segments * (self.n + 1)

    def matvec(self, v):
        count, width, _ = self.blocks.shape
        return (self.blocks @ v.reshape(count, width, 1)).reshape(self.dim)

    def is_finite(self):
        return bool(np.isfinite(self.blocks).all())

    def dense_copy(self):
        """Dense dim x dim matrix, for the oracles and the least-squares KKT rung."""
        count, width, _ = self.blocks.shape
        dense = np.zeros((count, width, count, width))
        diagonal = np.arange(count)
        dense[diagonal, :, diagonal, :] = self.blocks
        return dense.reshape(self.dim, self.dim)

    def update(self, s, y):
        """BFGS update with step s = X_new - X and gradient difference y.

        Returns self; increments ``skip_count`` once per skipped update
        (per block for ``blockdiag``).
        """
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        if s.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError(f"s and y must have packed length {self.dim}")

        count, width, _ = self.blocks.shape
        s, y = s.reshape(count, width, 1), y.reshape(count, width, 1)
        hs = self.blocks @ s
        ys, shs = _dots(y, s), _dots(s, hs)
        # only blocks that pass both curvature tests are updated; a NaN
        # fails them, as it would fail Cholesky
        curved = np.flatnonzero((ys > 0.0) & (shs > 0.0))
        hs, y = hs[curved], y[curved]
        ys, shs = ys[curved, None, None], shs[curved, None, None]
        updated = self.blocks[curved] - hs * hs.transpose(0, 2, 1) / shs
        updated += y * y.transpose(0, 2, 1) / ys
        # 1-norms from column sums added row after row, as sum(axis=0) adds
        # them on one block
        norms = np.abs(updated).sum(axis=1).max(axis=1)
        kept = np.array([_well_conditioned(*pair) for pair in zip(updated, norms)], dtype=bool)
        self.blocks[curved[kept]] = updated[kept]
        self.skip_count += count - int(np.count_nonzero(kept))
        return self


def init_identity(variant, n, n_segments):
    """Identity in the given structure (the standard initial approximation)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if n < 1 or n_segments < 1:
        raise ValueError("need n >= 1 and n_segments >= 1")
    count, width, _ = _block_shape(variant, n, n_segments)
    return HessianApprox(variant, n, n_segments, np.tile(np.eye(width), (count, 1, 1)))
