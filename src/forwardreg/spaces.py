"""Weighted Hilbert space primitives.

States are plain numpy vectors; the geometry of each space lives entirely in
its Gram matrix. Every inner product, norm, adjoint and singular value in the
package is taken with respect to the Gram weights, never the raw Euclidean
ones, so discrete plants inherit the energy products of their continuous
models.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

__all__ = [
    "SpaceSpec",
    "LinMap",
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
            chol_lower = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise ValueError("gram matrix must be positive definite") from None
        self.dim = int(dim)
        self.gram = gram
        self.label = label
        self._chol_lower = chol_lower
        self._cho = sla.cho_factor(gram, lower=True)

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.asarray(x) @ self.gram @ np.asarray(y))

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def apply_gram(self, x: np.ndarray) -> np.ndarray:
        return self.gram @ x

    def solve_gram(self, x: np.ndarray) -> np.ndarray:
        return sla.cho_solve(self._cho, x)

    @property
    def chol_lower(self) -> np.ndarray:
        """Lower Cholesky factor L with gram = L @ L.T."""
        return self._chol_lower

    def sample_sphere(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform direction on the unit sphere of this space."""
        g = rng.standard_normal(self.dim)
        # map Euclidean directions through L^{-T} so the weighted norm is isotropic
        v = sla.solve_triangular(self._chol_lower, g, lower=True, trans=1)
        return v / self.norm(v)

    def sample_ball(self, rng: np.random.Generator, radius: float) -> np.ndarray:
        r = radius * rng.uniform() ** (1.0 / self.dim)
        return r * self.sample_sphere(rng)

    def __repr__(self) -> str:
        return f"SpaceSpec(dim={self.dim}, label={self.label!r})"


class LinMap:
    """Dense linear map between two spaces.

    Adjoints are always Gram-weighted: ``L* = G_dom^{-1} L^T G_cod``.
    """

    def __init__(
        self,
        domain: SpaceSpec,
        codomain: SpaceSpec,
        matrix: np.ndarray,
        label: str = "",
    ):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (codomain.dim, domain.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"({codomain.dim}, {domain.dim})"
            )
        self.domain = domain
        self.codomain = codomain
        self.label = label
        self._matrix = matrix

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._matrix @ x

    def as_matrix(self) -> np.ndarray:
        return self._matrix

    def __repr__(self) -> str:
        return f"LinMap({self.domain.dim} -> {self.codomain.dim}, label={self.label!r})"


def adjoint(m: LinMap) -> LinMap:
    """Gram-weighted adjoint as a LinMap from codomain to domain."""
    mat = m.domain.solve_gram(m.as_matrix().T @ m.codomain.gram)
    return LinMap(m.codomain, m.domain, matrix=mat, label=m.label + "*")


def weighted_singular_values(m: LinMap) -> np.ndarray:
    """All Gram-weighted singular values, descending (dense computation).

    Computed from the weighted representation ``L_cod^T M L_dom^{-T}`` whose
    Euclidean singular values are the weighted ones.
    """
    mat = m.as_matrix()
    # mat @ L_dom^{-T} = (L_dom^{-1} mat^T)^T
    right = sla.solve_triangular(m.domain.chol_lower, mat.T, lower=True)
    w = m.codomain.chol_lower.T @ right.T
    return np.linalg.svd(w, compute_uv=False)

