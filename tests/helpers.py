"""Small plant factories, a strict JSON reader, an evaluation counter and a
dense reference adjoint shared by the test modules."""

import json

import numpy as np

from forwardreg import forwarding
from forwardreg.evolution import Plant
from forwardreg.spaces import SpaceSpec


def load_strict_json(path):
    """The JSON document in ``path``; a NaN, Infinity or -Infinity token,
    which RFC 8259 does not allow, raises ValueError."""
    def refuse(token):
        raise ValueError(f"{path}: non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def count_evaluations(monkeypatch):
    """A list that gets one entry per StateEvaluation built from now on."""
    calls = []
    init = forwarding.StateEvaluation.__init__

    def counted(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(forwarding.StateEvaluation, "__init__", counted)
    return calls


def adjoint(mat, domain, codomain):
    """Gram-weighted adjoint ``G_dom^{-1} mat^T G_cod`` of a map domain -> codomain,
    a dense reference for the adjoint evaluations."""
    return domain.solve_gram(np.asarray(mat, dtype=float).T @ codomain.gram)


def make_scalar_plant(a=2.0, c=0.1):
    """dw/dt + a w + c w^3 = u, monotone with alpha = a for c >= 0."""
    sp = SpaceSpec(1, np.eye(1), "H")
    amat = np.array([[a]])
    return Plant(
        name="scalar-cubic",
        space_H=sp,
        space_U=sp,
        space_Z=sp,
        A=amat,
        B=np.eye(1),
        C=np.eye(1),
        alpha_cert=a,
        lip_F=0.0 if c == 0 else 3 * c * 4.0,  # valid on |w| <= 2
        K=np.eye(1),
        S=np.eye(1),
        sigma=lambda x: c * x**3,
        dsigma=lambda x: 3 * c * x**2,
    )


def make_random_plant(dim=6, seed=5, alpha=1.0, nl=0.2):
    """Weighted-gram plant with a smooth bounded nonlinearity (tanh-based)."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    gram = m @ m.T + dim * np.eye(dim)
    sp = SpaceSpec(dim, gram, "H")
    skew = rng.standard_normal((dim, dim))
    skew = 0.5 * (skew - skew.T)
    # alpha I + skew is monotone in the Euclidean product; conjugate so the
    # result is monotone in the weighted product
    l = np.linalg.cholesky(gram)
    linv = np.linalg.inv(l)
    amat = linv.T @ (alpha * np.eye(dim) + skew) @ l.T
    k = rng.standard_normal((dim, dim)) / dim
    return Plant(
        name="random-tanh",
        space_H=sp,
        space_U=sp,
        space_Z=sp,
        A=amat,
        B=np.eye(dim),
        C=np.eye(dim),
        alpha_cert=None,
        lip_F=nl * np.linalg.norm(k, 2),
        K=nl * k,
        S=np.eye(dim),
        sigma=np.tanh,
        dsigma=lambda x: 1.0 / np.cosh(x) ** 2,
    )

