"""Weighted Hilbert space primitives.

States are plain numpy vectors and linear maps are plain (codomain, domain)
matrices; the geometry of each space lives entirely in its Gram matrix, so
:func:`adjoint` and :func:`weighted_singular_values` take a matrix together
with its two spaces. Every inner product, norm, adjoint and singular value in
the package is taken with respect to the Gram weights, never the raw
Euclidean ones, so discrete plants inherit the energy products of their
continuous models. Each space factors its Gram once (``chol_lower``).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dpotrs

__all__ = [
    "SpaceSpec",
    "adjoint",
    "weighted_singular_values",
]

_SYM_TOL = 1e-12


class SpaceSpec:
    """Finite section of a real Hilbert space.

    Parameters
    ----------
    dim : int
        Number of coordinates.
    gram : (dim, dim) array
        Symmetric positive definite Gram matrix; ``(x, y) = x @ gram @ y``.
    label : str
        Conventional role tag ("H" state, "U" input, "Z" output), free form.
    """

    def __init__(self, dim: int, gram: np.ndarray, label: str = ""):
        gram = np.asarray(gram, dtype=float)
        if gram.shape != (int(dim), int(dim)):
            raise ValueError(f"gram must be ({dim}, {dim}), got {gram.shape}")
        scale = max(np.abs(gram).max(), 1.0)
        if np.abs(gram - gram.T).max() > _SYM_TOL * scale:
            raise ValueError("gram matrix must be symmetric")
        gram = 0.5 * (gram + gram.T)
        try:
            self.chol_lower = np.linalg.cholesky(gram)  # gram = L @ L.T, L lower
        except np.linalg.LinAlgError:
            raise ValueError("gram matrix must be positive definite") from None
        self.dim = int(dim)
        self.gram = gram
        self.label = label

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.asarray(x) @ self.gram @ np.asarray(y))

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def apply_gram(self, x: np.ndarray) -> np.ndarray:
        return self.gram @ x

    def solve_gram(self, x: np.ndarray) -> np.ndarray:
        """G^{-1} x for a vector or each column of a block.

        Finiteness is not checked: a column that is not finite gives a
        non-finite result in that column only, so one diverging run of a
        block does not stop the others. LAPACK ``dpotrs`` is called directly:
        ``cho_solve``'s wrapper costs several times the solve at these sizes.
        """
        out, info = dpotrs(self.chol_lower, x, lower=1)
        if info:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return out

    def sample_sphere(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform direction on the unit sphere of this space."""
        g = rng.standard_normal(self.dim)
        # map Euclidean directions through L^{-T} so the weighted norm is isotropic
        v = sla.solve_triangular(self.chol_lower, g, lower=True, trans=1)
        return v / self.norm(v)

    def sample_ball(self, rng: np.random.Generator, radius: float) -> np.ndarray:
        r = radius * rng.uniform() ** (1.0 / self.dim)
        return r * self.sample_sphere(rng)

    def __repr__(self) -> str:
        return f"SpaceSpec(dim={self.dim}, label={self.label!r})"


def adjoint(mat: np.ndarray, domain: SpaceSpec, codomain: SpaceSpec) -> np.ndarray:
    """Gram-weighted adjoint ``G_dom^{-1} mat^T G_cod`` of a map domain -> codomain."""
    return domain.solve_gram(np.asarray(mat, dtype=float).T @ codomain.gram)


def weighted_singular_values(
    mat: np.ndarray, domain: SpaceSpec, codomain: SpaceSpec
) -> np.ndarray:
    """All Gram-weighted singular values of a map domain -> codomain, descending.

    Computed from the weighted representation ``L_cod^T mat L_dom^{-T}`` whose
    Euclidean singular values are the weighted ones.
    """
    # mat @ L_dom^{-T} = (L_dom^{-1} mat^T)^T
    right = sla.solve_triangular(domain.chol_lower, np.asarray(mat, dtype=float).T, lower=True)
    w = codomain.chol_lower.T @ right.T
    return np.linalg.svd(w, compute_uv=False)
