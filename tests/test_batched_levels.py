"""Every projection, correction and change of basis taken for several
spaces at once equals one call per space, bit for bit."""

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from ritzspline.functions import SmoothFunction
from ritzspline.mesh import (
    Breakpoints,
    Spline,
    _antiderivatives,
    _poly_coefficients,
    integrate_from_left,
    make_space,
    poly_to_spline,
)
from ritzspline.projectors import (
    Levels,
    l2_project,
    q_project,
    qtilde_project,
    ritz_correction,
    ritz_project,
)
from ritzspline.quadrature import BandedSymmetric, solve_blocks

# u^(d) of sin(3x) + cos(2x), exact to any order and finite far from 0
WAVE = SmoothFunction(
    lambda x, d: 3.0**d * np.sin(3.0 * x + d * np.pi / 2)
    + 2.0**d * np.cos(2.0 * x + d * np.pi / 2),
    10**6,
    "sin(3x)+cos(2x)",
)
MESHES = {
    "uniform": {},
    "graded": {"grading": 3.0},
    "far": {"a": 1e6, "b": 1e6 + 1.0},
}


def _spaces(p, k, kind, count):
    """count spaces on 1 .. count elements: the shapes of a study's levels,
    kept small enough for every degree."""
    return [make_space(p, k, Breakpoints.uniform(e, **MESHES[kind])) for e in range(1, count + 1)]


def _same(batch, singles):
    assert np.array_equal(batch, np.concatenate([s.coeffs for s in singles]))


@pytest.mark.parametrize("bandwidth", [0, 1, 2, 5, 20])
def test_block_diagonal_solve_is_each_block_alone(rng, bandwidth):
    dims = [bandwidth + 1, 3 * bandwidth + 7, bandwidth + 2, 40]
    blocks, rhss = [], []
    for dim in dims:
        a = rng.normal(size=(dim, dim + bandwidth))
        dense = a @ a.T + dim * np.eye(dim)
        bands = np.zeros((bandwidth + 1, dim))
        for d in range(bandwidth + 1):
            bands[d, : dim - d] = np.diag(dense, -d)
        blocks.append(bands)
        rhss.append(rng.normal(size=dim))
    joined = BandedSymmetric(np.concatenate(blocks, axis=1))
    got = solve_blocks(joined, np.concatenate(rhss), dims)
    want = [solveh_banded(bands, rhs, lower=True) for bands, rhs in zip(blocks, rhss)]
    assert np.array_equal(got, np.concatenate(want))


def _check_projections(spaces, qs_range):
    """L2, Q, Q-tilde, Ritz and the Ritz corrections of the spaces at every
    q in ``qs_range``, against one call per space."""
    levels = Levels(WAVE, spaces)
    _same(levels.project("l2", 0), [l2_project(s, WAVE) for s in spaces])
    for q in qs_range:
        _same(levels.project("q", q), [q_project(s, q, WAVE) for s in spaces])
        _same(levels.project("qtilde", q), [qtilde_project(s, q, WAVE) for s in spaces])
        _same(levels.project("ritz", q), [ritz_project(s, q, WAVE) for s in spaces])
        for got, space in zip(levels.correction(q), spaces, strict=True):
            assert np.array_equal(got, ritz_correction(space, q, WAVE))


@pytest.mark.parametrize("kind", sorted(MESHES))
@pytest.mark.parametrize("p,k", [(1, 0), (3, 2), (4, 1)])
def test_list_projections_are_each_space_alone(kind, p, k):
    """Eight levels and one, at every admissible q; k < p - 1 included."""
    for count in (8, 1):
        _check_projections(_spaces(p, k, kind, count), range(k + 2))


@pytest.mark.parametrize("p,k,kind", [(8, 7, "graded"), (20, 19, "uniform"), (20, 10, "far")])
def test_high_degrees_at_every_admissible_q(p, k, kind):
    """On three levels: the moment systems up to degree 19 and the L2
    solves at bandwidths up to 20 are each space's own."""
    _check_projections(_spaces(p, k, kind, 3), range(k + 2))


@pytest.mark.parametrize("kind", sorted(MESHES))
def test_change_of_basis_and_integration_are_each_space_alone(rng, kind):
    for p, k in ((0, -1), (2, 1), (5, 2), (19, 18)):
        for count in (8, 1):
            spaces = _spaces(p, k, kind, count)
            cs = rng.normal(size=(count, min(p, 4) + 1))
            got = _poly_coefficients(cs, spaces)
            want = [poly_to_spline(c, space).coeffs for c, space in zip(cs, spaces)]
            assert np.array_equal(got, np.concatenate(want))
            coeffs = rng.normal(size=sum(space.dim for space in spaces))
            ends = np.cumsum([0, *(space.dim for space in spaces)])
            want = [
                integrate_from_left(Spline(space, coeffs[lo:hi])).coeffs
                for space, lo, hi in zip(spaces, ends, ends[1:])
            ]
            assert np.array_equal(_antiderivatives(spaces, coeffs), np.concatenate(want))


def test_poly_to_spline_of_several_spaces_rejects_high_degree():
    spaces = _spaces(2, 1, "uniform", 3)
    cs = np.zeros((3, 4))
    cs[1, 3] = 1.0
    with pytest.raises(ValueError, match="polynomial degree 3 exceeds space degree 2"):
        _poly_coefficients(cs, spaces)
