"""Quasi-Newton approximations of the Lagrangian Hessian.

Two variants on the same rank-two update

    H_new = H - (H s s^T H) / (s^T H s) + (y y^T) / (y^T s),

skipped (and counted) whenever the curvature condition y^T s > 0 fails:

* ``full``      -- dense update on the whole packed vector;
* ``blockdiag`` -- independent updates on the N diagonal blocks of size
                   (n+1), matching the per-segment separability of the
                   matching/boundary constrained formulations.

Storage is a dense symmetric matrix with exact zeros outside the variant's
pattern; ``blockdiag`` never touches entries outside its blocks.
"""

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["HessianApprox", "init_identity", "VARIANTS"]

VARIANTS = ("full", "blockdiag")


def _bfgs_inplace(mat, s, y):
    """Apply the rank-two update to ``mat`` in place; True when applied.

    Skips on y^T s <= 0 (curvature condition) and on the degenerate
    s^T H s <= 0, which cannot occur while H stays positive definite but
    guards zero steps.
    """
    ys = float(y @ s)
    if ys <= 0.0:
        return False
    hs = mat @ s
    shs = float(s @ hs)
    if shs <= 0.0:
        return False
    mat -= np.outer(hs, hs) / shs
    mat += np.outer(y, y) / ys
    return True


@dataclass
class HessianApprox:
    """Symmetric approximation of the Lagrangian Hessian, one SQP run's state."""

    variant: str
    n: int
    n_segments: int
    mat: np.ndarray
    skip_count: int = 0

    @property
    def dim(self):
        return self.n_segments * (self.n + 1)

    def matvec(self, v):
        return self.mat @ v

    def copy(self):
        """An independent approximation with the same state."""
        return replace(self, mat=self.mat.copy())

    def dense_copy(self):
        """Dense export for the oracles, the least-squares KKT rung and the
        CSC assembly of the direct solver's saddle matrix."""
        return self.mat.copy()

    def _windows(self):
        """Disjoint index ranges the updates operate on: the whole matrix for
        ``full``, the N diagonal blocks for ``blockdiag``."""
        if self.variant == "full":
            return [slice(0, self.dim)]
        width = self.n + 1
        return [slice(i * width, (i + 1) * width) for i in range(self.n_segments)]

    def update(self, s, y):
        """BFGS update with step s = X_new - X and gradient difference y.

        Returns self; increments ``skip_count`` once per skipped update
        (per block for ``blockdiag``).
        """
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        if s.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError(f"s and y must have packed length {self.dim}")

        for window in self._windows():
            # two-slice indexing is a view, so each update lands in place
            if not _bfgs_inplace(self.mat[window, window], s[window], y[window]):
                self.skip_count += 1
        return self


def init_identity(variant, n, n_segments):
    """Identity in the given structure (the standard initial approximation)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if n < 1 or n_segments < 1:
        raise ValueError("need n >= 1 and n_segments >= 1")
    dim = n_segments * (n + 1)
    return HessianApprox(variant, n, n_segments, np.eye(dim))
