"""Property tests over the plants of tests/helpers.py: M(0) = 0, dM against
finite differences, and bitwise-deterministic closed-loop runs."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from forwardreg.forwarding import StateEvaluation, build_forwarding
from forwardreg.regulator import Scenario, simulate
from forwardreg.verify import FD_TOL, fd_check_dM
from helpers import make_random_plant, make_scalar_plant

PROPERTY = settings(max_examples=10, deadline=None)


@lru_cache(maxsize=None)
def scalar_fmap(a, c):
    return build_forwarding(make_scalar_plant(a=a, c=c), dt_quad=0.01, tail_tol=1e-10)


@lru_cache(maxsize=None)
def random_fmap(seed):
    p = make_random_plant(seed=seed)
    p.alpha_cert = 0.3  # safe underestimate of the contractivity of A + dF
    return build_forwarding(p, dt_quad=0.05, tail_tol=1e-8)


fmaps = st.one_of(
    st.builds(scalar_fmap, a=st.sampled_from([1.0, 2.0, 4.0]),
              c=st.sampled_from([0.0, 0.1, 0.5])),
    st.builds(random_fmap, seed=st.integers(0, 3)),
)


def state(fmap, seed, radius):
    """A seeded state of H-norm ``radius`` and a unit direction."""
    space = fmap.plant.space_H
    rng = np.random.default_rng(seed)
    x, h = rng.standard_normal((2, space.dim))
    return radius * x / space.norm(x), h / space.norm(h)


@PROPERTY
@given(fmap=fmaps)
def test_forwarding_map_vanishes_exactly_at_the_origin(fmap):
    assert np.all(StateEvaluation(fmap, np.zeros(fmap.plant.dim)).M() == 0.0)


@PROPERTY
@given(fmap=fmaps, seed=st.integers(0, 2**32 - 1),
       radius=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
def test_dM_matches_finite_differences_in_the_unit_ball(fmap, seed, radius):
    # the cubic plant's lip_F holds on |w| <= 2, so the FD states stay covered
    w, h = state(fmap, seed, radius)
    tab = fd_check_dM(fmap, w, h)
    assert max(tab["errors"]) < FD_TOL


@PROPERTY
@given(fmap=fmaps, seed=st.integers(0, 2**32 - 1), radius=st.floats(0.0, 1.0),
       y_ref=st.floats(-0.5, 0.5), d_norm=st.floats(0.0, 0.1))
def test_simulate_is_bitwise_deterministic(fmap, seed, radius, y_ref, d_norm):
    plant = fmap.plant
    w0, d = state(fmap, seed, radius)
    sc = Scenario(y_ref=np.full(plant.space_Z.dim, y_ref), T=0.5, dt=0.05,
                  d=d_norm * d, w0=w0)
    first, second = simulate(plant, fmap, sc), simulate(plant, fmap, sc)
    for name in ("times", "w", "z", "y", "u", "m", "v"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
    assert first.diverged == second.diverged
