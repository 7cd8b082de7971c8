"""Gram-weighted spaces: inner products, adjoints, norms, singular values."""

import numpy as np
import pytest
import scipy.linalg as sla

from forwardreg.spaces import SpaceSpec, adjoint, weighted_singular_values


def test_inner_product_weighted():
    # hand computation: x^T diag(2,1) y = 1*2*3 + 2*1*4 = 14
    sp = SpaceSpec(2, np.diag([2.0, 1.0]), "H")
    assert sp.inner(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == pytest.approx(14.0)
    assert sp.norm(np.array([1.0, 2.0])) == pytest.approx(np.sqrt(6.0))


def test_gram_must_be_spd():
    with pytest.raises(ValueError):
        SpaceSpec(2, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        SpaceSpec(2, np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        SpaceSpec(2, np.diag([1.0, 0.0]))  # singular


def test_gram_solve_roundtrip():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5))
    g = m @ m.T + 5 * np.eye(5)
    sp = SpaceSpec(5, g, "H")
    x = rng.standard_normal(5)
    np.testing.assert_allclose(sp.solve_gram(sp.apply_gram(x)), x, atol=1e-12)


def test_solve_gram_is_bitwise_cho_solve():
    # LAPACK potrs called directly: the same bits as scipy's wrapper, and a
    # non-finite column of a block stays in that column
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 7))
    sp = SpaceSpec(7, m @ m.T + 7 * np.eye(7), "H")
    block = rng.standard_normal((7, 3))
    block[2, 1] = np.inf
    for x in (rng.standard_normal(7), block):
        got = sp.solve_gram(x)
        want = sla.cho_solve((sp.chol_lower, True), x, check_finite=False)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
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
    # chol_lower serves every Gram solve; no second factor is kept
    calls = []
    for module, name in ((np.linalg, "cholesky"), (sla, "cholesky"), (sla, "cho_factor")):
        def counted(*args, _orig=getattr(module, name), **kwargs):
            calls.append(_orig)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    rng = np.random.default_rng(4)
    m = rng.standard_normal((5, 5))
    sp = SpaceSpec(5, m @ m.T + 5 * np.eye(5), "H")
    x = rng.standard_normal(5)
    np.testing.assert_allclose(sp.apply_gram(sp.solve_gram(x)), x, atol=1e-12)
    assert len(calls) == 1
