"""Gram-weighted spaces: inner products, adjoints, norms, singular values."""

import numpy as np
import pytest
import scipy.linalg as sla

from forwardreg.spaces import SpaceSpec, weighted_singular_values
from helpers import adjoint


def test_inner_product_weighted():
    # hand computation: x^T diag(2,1) y = 1*2*3 + 2*1*4 = 14
    sp = SpaceSpec(2, np.diag([2.0, 1.0]), "H")
    assert sp.inner(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == pytest.approx(14.0)
    assert sp.norm(np.array([1.0, 2.0])) == pytest.approx(np.sqrt(6.0))


@pytest.mark.parametrize("dim", [1, 32, 120])
def test_inner_and_norm_are_bitwise_the_reference_products(dim):
    # inner is (x @ G) @ y and norm its clamped square root, bit for bit, on
    # contiguous vectors and on row views of a 2-D array alike
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim))
    sp = SpaceSpec(dim, m @ m.T + dim * np.eye(dim), "H")
    rows = rng.standard_normal((8, dim))
    pairs = [(rows[k], rows[k + 1]) for k in range(0, 8, 2)]
    pairs += [(x.copy(), y.copy()) for x, y in pairs]
    for x, y in pairs:
        assert sp.inner(x, y) == float(x @ sp.gram @ y)
        assert sp.norm(x) == float(np.sqrt(max(x @ sp.gram @ x, 0.0)))
        assert type(sp.inner(x, y)) is type(sp.norm(x)) is float


def test_gram_must_be_spd():
    with pytest.raises(ValueError):
        SpaceSpec(2, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        SpaceSpec(2, np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        SpaceSpec(2, np.diag([1.0, 0.0]))  # singular


@pytest.mark.parametrize("gram", [np.eye(3), np.ones(2), np.eye(2)[None]])
def test_gram_must_be_dim_by_dim(gram):
    with pytest.raises(ValueError, match=r"^gram must be \(2, 2\), got "):
        SpaceSpec(2, gram)


def test_gram_solve_roundtrip():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5))
    g = m @ m.T + 5 * np.eye(5)
    sp = SpaceSpec(5, g, "H")
    x = rng.standard_normal(5)
    np.testing.assert_allclose(sp.solve_gram(sp.gram @ x), x, atol=1e-12)


def test_solve_gram_agrees_with_cho_solve():
    # a product with the stored G^{-1} agrees with scipy's Cholesky solve to
    # the forward-error bound of a backward-stable solve, dim * cond(G) * eps
    # relative, and a non-finite column of a block stays in that column
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 7))
    sp = SpaceSpec(7, m @ m.T + 7 * np.eye(7), "H")
    rtol = 7 * np.linalg.cond(sp.gram) * np.finfo(float).eps
    block = rng.standard_normal((7, 3))
    block[2, 1] = np.inf
    for x in (rng.standard_normal(7), block):
        got = sp.solve_gram(x)
        want = sla.cho_solve((sp.chol_lower, True), x, check_finite=False)
        assert got.shape == want.shape
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        scale = np.abs(np.where(finite, want, 0.0)).max(axis=0)
        assert np.all((np.abs(got - want) <= rtol * scale)[finite])
    assert np.all(np.isfinite(sp.solve_gram(block)[:, [0, 2]]))


def test_adjoint_duality_dense():
    # (L x, y)_cod == (x, L* y)_dom for random weighted spaces
    rng = np.random.default_rng(7)
    for trial in range(10):
        dn, cn = 4, 6
        md = rng.standard_normal((dn, dn))
        mc = rng.standard_normal((cn, cn))
        dom = SpaceSpec(dn, md @ md.T + dn * np.eye(dn))
        cod = SpaceSpec(cn, mc @ mc.T + cn * np.eye(cn))
        L = rng.standard_normal((cn, dn))
        Ls = adjoint(L, dom, cod)
        assert Ls.shape == (dn, cn)
        x = rng.standard_normal(dn)
        y = rng.standard_normal(cn)
        lhs = cod.inner(L @ x, y)
        rhs = dom.inner(x, Ls @ y)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_double_adjoint_is_identity():
    rng = np.random.default_rng(13)
    md = rng.standard_normal((4, 4))
    dom = SpaceSpec(4, md @ md.T + 4 * np.eye(4))
    cod = SpaceSpec(5, np.diag([2.0, 3.0, 1.0, 5.0, 4.0]))
    L = rng.standard_normal((5, 4))
    Lss = adjoint(adjoint(L, dom, cod), cod, dom)
    np.testing.assert_allclose(Lss, L, atol=1e-12)


def test_smallest_singular_value_weighted():
    # identity on (R^2, diag(4,1)) -> (R^2, I): weighted sigma = {1/2, 1}
    dom = SpaceSpec(2, np.diag([4.0, 1.0]))
    cod = SpaceSpec(2, np.eye(2))
    assert weighted_singular_values(np.eye(2), dom, cod)[-1] == pytest.approx(0.5, abs=1e-12)


def test_smallest_singular_value_rank_deficient():
    sp = SpaceSpec(3, np.eye(3), "H")
    L = np.outer([1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert weighted_singular_values(L, sp, sp)[-1] == pytest.approx(0.0, abs=1e-12)


def test_sample_sphere_unit_norm():
    rng = np.random.default_rng(19)
    m = rng.standard_normal((4, 4))
    sp = SpaceSpec(4, m @ m.T + 4 * np.eye(4), "H")
    for _ in range(10):
        v = sp.sample_sphere(rng)
        assert sp.norm(v) == pytest.approx(1.0, rel=1e-12)


def test_sample_ball_inside():
    rng = np.random.default_rng(23)
    sp = SpaceSpec(2, np.diag([2.0, 5.0]), "H")
    r = 3.0
    norms = [sp.norm(sp.sample_ball(rng, r)) for _ in range(50)]
    assert max(norms) <= r + 1e-12
    # not degenerate: samples spread into the interior
    assert min(norms) < 0.9 * r


def test_space_factors_its_gram_once(monkeypatch):
    # the Gram is factored and its factor inverted once, at construction:
    # the solves, samples and singular values read the stored inverses
    calls = []
    for module, name in ((np.linalg, "cholesky"), (np.linalg, "inv"),
                         (sla, "cholesky"), (sla, "cho_factor")):
        def counted(*args, _name=name, _orig=getattr(module, name), **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    rng = np.random.default_rng(4)
    m = rng.standard_normal((5, 5))
    sp = SpaceSpec(5, m @ m.T + 5 * np.eye(5), "H")
    x = rng.standard_normal(5)
    np.testing.assert_allclose(sp.gram @ sp.solve_gram(x), x, atol=1e-12)
    sp.sample_sphere(rng)
    weighted_singular_values(np.eye(5), sp, sp)
    assert calls == ["cholesky", "inv"]


@pytest.mark.parametrize("dim", [1, 7, 120])
def test_samples_and_singular_values_agree_with_triangular_solves(dim):
    # the products with the stored L^{-1} against scipy's triangular solves,
    # to the forward-error bound dim * cond(L) * eps of a backward-stable one
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim))
    dom = SpaceSpec(dim, m @ m.T + dim * np.eye(dim), "H")
    mc = rng.standard_normal((3, 3))
    cod = SpaceSpec(3, mc @ mc.T + 3 * np.eye(3), "Z")
    mat = rng.standard_normal((3, dim))
    chol = dom.chol_lower
    rtol = dim * np.linalg.cond(chol) * np.finfo(float).eps

    want = np.linalg.svd(cod.chol_lower.T @ sla.solve_triangular(chol, mat.T, lower=True).T,
                         compute_uv=False)
    got = weighted_singular_values(mat, dom, cod)
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * want[0])

    seed = int(rng.integers(2**32))
    got = dom.sample_sphere(np.random.default_rng(seed))
    v = sla.solve_triangular(chol, np.random.default_rng(seed).standard_normal(dim),
                             lower=True, trans=1)
    want = v / dom.norm(v)
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.abs(want).max())
